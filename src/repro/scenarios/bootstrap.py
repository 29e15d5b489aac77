"""Block-bootstrap confidence intervals and pass/fail robustness gates.

Replay trajectories are short autocorrelated series (a drift's violation
steps cluster at the end; a spike's cluster around firings), so a naive
i.i.d. bootstrap over steps understates the variance.  The lab uses a
**two-level circular block bootstrap**: resample trajectories with
replacement, then resample circular step-blocks within each — the
standard prescription for dependent series.

:class:`RobustnessGates` turns the resulting statistics into a verdict
with a small threshold grammar, ``{"metric": (op, value)}``::

    RobustnessGates({"violation_rate": ("<=", 0.6),
                     "worst_drawdown": ("<", 1.5)})

mirroring requirement dictionaries like ``{"P_net_MWe": (">=", 500.0)}``
in engineering QoS specs.  All randomness derives from a
:class:`numpy.random.SeedSequence` spawn key, so the same seed yields
the same CI on any machine and worker count.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import SpecificationError
from repro.observability import span

__all__ = [
    "block_bootstrap_violation_rate",
    "check_bootstrap",
    "parse_gate",
    "GateCheck",
    "GateResult",
    "RobustnessGates",
]

#: Spawn-key tag separating bootstrap draws from every other consumer of
#: the lab seed (scenario draws use scenario-name CRCs).
_BOOTSTRAP_KEY = zlib.crc32(b"repro.scenarios.bootstrap")


def check_bootstrap(*, n_boot: int, block: int, level: float = 0.95
                    ) -> None:
    """Raise :class:`~repro.exceptions.SpecificationError` unless the
    bootstrap settings are usable: callers that run the bootstrap as a
    worker task check them before dispatch."""
    if n_boot < 1:
        raise SpecificationError(f"n_boot must be >= 1, got {n_boot}")
    if block < 1:
        raise SpecificationError(f"block must be >= 1, got {block}")
    if not 0.0 < level < 1.0:
        raise SpecificationError(f"level must be in (0, 1), got {level}")


def block_bootstrap_violation_rate(
    series: Sequence[np.ndarray],
    *,
    n_boot: int = 200,
    block: int = 10,
    seed: int = 0,
    level: float = 0.95,
) -> dict:
    """Bootstrap CI for the pooled violation rate of replay trajectories.

    Parameters
    ----------
    series:
        One boolean violation series per trajectory (equal lengths).
    n_boot:
        Bootstrap replicates.
    block:
        Circular block length for the within-trajectory resampling
        (clamped to the series length).
    seed:
        Lab seed; draws come from a dedicated spawn key under it.
    level:
        Central CI coverage (default 95%).

    Returns
    -------
    dict
        ``{"mean", "lo", "hi", "n_boot", "block", "level"}`` — the
        observed pooled rate and the percentile CI bounds.
    """
    arrays = [np.asarray(s, dtype=bool).ravel() for s in series]
    if not arrays:
        raise SpecificationError("need at least one trajectory series")
    n_steps = arrays[0].size
    if n_steps == 0 or any(a.size != n_steps for a in arrays):
        raise SpecificationError(
            "trajectory series must be non-empty and equal-length")
    check_bootstrap(n_boot=n_boot, block=block, level=level)
    block = min(block, n_steps)
    stacked = np.stack(arrays)  # (n_traj, n_steps)
    n_traj = stacked.shape[0]
    observed = float(stacked.mean())
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=int(seed), spawn_key=(_BOOTSTRAP_KEY,)))
    n_blocks = math.ceil(n_steps / block)
    # Circular blocks, concatenated and truncated back to the series
    # length: every block is ``block`` steps long but the last.
    lengths = [block] * (n_blocks - 1) + [n_steps - (n_blocks - 1) * block]
    chosen = np.empty((n_boot, n_traj), dtype=np.int64)
    starts = np.empty((n_boot, n_traj, n_blocks), dtype=np.int64)
    with span("lab.bootstrap", n_boot=n_boot, block=block,
              trajectories=n_traj):
        for b in range(n_boot):
            chosen[b] = rng.integers(0, n_traj, size=n_traj)
            starts[b] = rng.integers(0, n_steps, size=(n_traj, n_blocks))
        # Each series laid twice end to end, as a prefix sum: a circular
        # block of ``length`` steps from ``start`` holds
        # ``prefix[start + length] - prefix[start]`` violations.
        width = 2 * n_steps + 1
        prefix = np.zeros((n_traj, width), dtype=np.int64)
        np.cumsum(np.tile(stacked, 2), axis=1, out=prefix[:, 1:])
        prefix = prefix.ravel()
        rows = chosen * width
        counts = np.zeros(n_boot, dtype=np.int64)
        for j, length in enumerate(lengths):
            first = rows + starts[:, :, j]
            counts += (prefix[first + length] - prefix[first]).sum(axis=1)
        # Exact integer counts: the same float64 as the mean of the
        # replicate's boolean cells.
        rates = counts / (n_traj * n_steps)
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(rates, [alpha, 1.0 - alpha])
    return {
        "mean": observed,
        "lo": float(lo),
        "hi": float(hi),
        "n_boot": int(n_boot),
        "block": int(block),
        "level": float(level),
    }


# ----------------------------------------------------------------------
# gates
# ----------------------------------------------------------------------
_OPS = {
    "<=": lambda v, t: v <= t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
    ">": lambda v, t: v > t,
}


def parse_gate(expr: str) -> tuple[str, tuple[str, float]]:
    """Parse a CLI gate expression like ``violation_rate<=0.6``.

    Returns ``(metric, (op, threshold))`` — one entry of the
    :class:`RobustnessGates` thresholds mapping.  Two-character
    operators are tried first so ``<=`` never parses as ``<``.
    """
    if not isinstance(expr, str) or not expr.strip():
        raise SpecificationError(
            "gate must be a non-empty string like 'violation_rate<=0.6'")
    text = expr.strip()
    for op in ("<=", ">=", "<", ">"):
        metric, sep, value = text.partition(op)
        if not sep:
            continue
        metric = metric.strip()
        if not metric:
            raise SpecificationError(f"gate {expr!r} is missing a metric name")
        try:
            threshold = float(value.strip())
        except ValueError:
            raise SpecificationError(
                f"gate {expr!r} has a non-numeric threshold") from None
        return metric, (op, threshold)
    raise SpecificationError(
        f"gate {expr!r} needs a comparison operator (<=, >=, <, >)")


@dataclass(frozen=True)
class GateCheck:
    """One evaluated gate: ``metric op threshold`` against a value."""

    metric: str
    op: str
    threshold: float
    value: float
    passed: bool

    def to_dict(self) -> dict:
        """JSON-safe record."""
        return {
            "metric": self.metric,
            "op": self.op,
            "threshold": float(self.threshold),
            "value": float(self.value),
            "passed": bool(self.passed),
        }


@dataclass(frozen=True)
class GateResult:
    """Every gate's verdict plus the conjunction."""

    checks: tuple[GateCheck, ...]

    @property
    def passed(self) -> bool:
        """Whether every gate passed."""
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        """JSON-safe record."""
        return {
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


class RobustnessGates:
    """Threshold checks over lab metrics, SHAMS-style.

    Parameters
    ----------
    thresholds:
        ``{metric: (op, value)}`` with ``op`` one of ``<=``, ``>=``,
        ``<``, ``>`` — e.g. ``{"violation_rate": ("<=", 0.6)}``.
    """

    def __init__(self, thresholds: Mapping[str, tuple[str, float]]) -> None:
        if not thresholds:
            raise SpecificationError("gates need at least one threshold")
        clean: dict[str, tuple[str, float]] = {}
        for metric, rule in thresholds.items():
            try:
                op, value = rule
            except (TypeError, ValueError):
                raise SpecificationError(
                    f"gate for {metric!r} must be an (op, value) pair, "
                    f"got {rule!r}") from None
            if op not in _OPS:
                raise SpecificationError(
                    f"gate for {metric!r} has unknown operator {op!r}; "
                    f"expected one of {sorted(_OPS)}")
            clean[str(metric)] = (op, float(value))
        self.thresholds = clean

    def evaluate(self, metrics: Mapping[str, float]) -> GateResult:
        """Judge a metrics dict; every gated metric must be present."""
        checks = []
        for metric, (op, threshold) in self.thresholds.items():
            if metric not in metrics:
                raise SpecificationError(
                    f"gated metric {metric!r} is missing; have "
                    f"{sorted(metrics)}")
            value = float(metrics[metric])
            checks.append(GateCheck(metric=metric, op=op,
                                    threshold=threshold, value=value,
                                    passed=_OPS[op](value, threshold)))
        return GateResult(checks=tuple(checks))

    def __repr__(self) -> str:
        rules = ", ".join(f"{m}{op}{v:g}"
                          for m, (op, v) in self.thresholds.items())
        return f"RobustnessGates({rules})"
