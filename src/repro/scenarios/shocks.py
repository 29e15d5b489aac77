"""Shock catalogue: named, seeded perturbation-trajectory generators.

A :class:`ShockScenario` describes a stochastic process over the paper's
perturbation space.  Its draws are **pure functions** of
``(seed, scenario, trajectory, step)``: every random number comes from an
RNG spawned at ``SeedSequence(entropy=seed,
spawn_key=(scenario_key, trajectory, step))``, where ``scenario_key`` is
a CRC-32 of the scenario name — the same determinism discipline as
:class:`~repro.resilience.chaos.ChaosPolicy`.  Two consequences:

* replaying a trajectory is stateless — step 17 can be drawn without
  drawing steps 0..16, so trajectories parallelise freely and results
  are bit-identical for any worker count;
* two scenarios with different names never share a stream, even under
  the same lab seed.

Three shock kinds are shipped:

``spike``
    Each step independently fires with probability :attr:`rate`; a
    firing step displaces a random half of the affected elements by
    centred Gaussian noise scaled by :attr:`magnitude`.
``drift``
    A deterministic ramp reaching :attr:`magnitude` (measured as
    pi-space Euclidean length) at the final step, along either an
    explicit per-parameter :attr:`directions` vector or the default
    uniform-inflation direction; :attr:`jitter` adds bounded
    multiplicative noise per step.
``correlated``
    A single latent factor per step moves *every* affected parameter at
    once through per-trajectory random loadings — a multi-kind shock in
    which unlike parameters (seconds, bytes, objects/set) co-move, the
    regime the IPDPS'05 paper's concatenated P-space exists for.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.perturbation import PerturbationParameter
from repro.exceptions import SpecGrammarError, SpecificationError
from repro.utils.specs import SpecField, parse_kv_spec, spec_grammar

__all__ = ["SHOCK_KINDS", "ShockScenario", "parse_shock_spec"]

#: The shipped shock-process kinds.
SHOCK_KINDS = ("spike", "drift", "correlated")

#: Reserved pseudo-step for a trajectory's static draws (e.g. the
#: correlated kind's loadings), far outside any realistic step range.
_STATIC_STEP = 2**31 - 1


@dataclass(frozen=True)
class ShockScenario:
    """A named, seeded shock process over the perturbation space.

    Attributes
    ----------
    name:
        Unique identifier; hashed into the scenario's spawn key, so two
        differently-named scenarios never share random draws.
    kind:
        One of :data:`SHOCK_KINDS`.
    magnitude:
        Scale of the shock in pi-space units: the ramp length for
        ``drift``, the per-element noise scale for ``spike``, and the
        latent-factor scale for ``correlated``.
    n_steps:
        Trajectory length.
    rate:
        Per-step firing probability (``spike`` only).
    jitter:
        Bounded multiplicative ramp noise (``drift`` only): each step's
        ramp is multiplied by ``1 + jitter * U(-1, 1)``.
    params:
        Names of the perturbation parameters the shock touches; empty
        means *all* parameters of the analysis.
    directions:
        Optional explicit drift direction per parameter (``drift``
        only); vectors are used as given, so a unit-norm direction makes
        ``magnitude`` the exact final pi-space displacement length.
    description:
        Free text for reports.
    """

    name: str
    kind: str
    magnitude: float
    n_steps: int = 40
    rate: float = 0.25
    jitter: float = 0.0
    params: tuple[str, ...] = ()
    directions: dict[str, tuple[float, ...]] | None = field(default=None)
    description: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecificationError("scenario name must be non-empty")
        if self.kind not in SHOCK_KINDS:
            raise SpecificationError(
                f"unknown shock kind {self.kind!r}; expected one of "
                f"{SHOCK_KINDS}")
        if not (math.isfinite(self.magnitude) and self.magnitude > 0):
            raise SpecificationError(
                f"magnitude must be positive and finite, got {self.magnitude}")
        if self.n_steps < 1:
            raise SpecificationError(
                f"n_steps must be >= 1, got {self.n_steps}")
        if not 0.0 <= self.rate <= 1.0:
            raise SpecificationError(f"rate must be in [0, 1], got {self.rate}")
        if self.jitter < 0 or self.jitter >= 1:
            raise SpecificationError(
                f"jitter must be in [0, 1), got {self.jitter}")
        object.__setattr__(self, "params", tuple(self.params))
        if self.directions is not None:
            clean = {name: tuple(float(v) for v in vec)
                     for name, vec in self.directions.items()}
            object.__setattr__(self, "directions", clean)

    @property
    def scenario_key(self) -> int:
        """Stable spawn-key component derived from the name."""
        return zlib.crc32(self.name.encode("utf-8"))

    def _rng(self, seed: int, trajectory: int, step: int
             ) -> np.random.Generator:
        """The RNG of one ``(trajectory, step)`` cell — stateless."""
        return np.random.default_rng(np.random.SeedSequence(
            entropy=int(seed),
            spawn_key=(self.scenario_key, int(trajectory), int(step))))

    def active_params(
        self, params: Sequence[PerturbationParameter]
    ) -> list[PerturbationParameter]:
        """The subset of ``params`` this scenario perturbs (in order).

        Also checks the scenario against ``params``: every name in
        :attr:`params` must exist, and every :attr:`directions` key must
        name a touched parameter and carry that parameter's length.
        """
        by_name = {p.name: p for p in params}
        if self.params:
            missing = [n for n in self.params if n not in by_name]
            if missing:
                raise SpecificationError(
                    f"scenario {self.name!r} names unknown parameter(s) "
                    f"{missing}; have {sorted(by_name)}")
            active = [by_name[n] for n in self.params]
        else:
            active = list(params)
        if self.directions is not None:
            touched = {p.name: p for p in active}
            stray = sorted(set(self.directions) - set(touched))
            if stray:
                raise SpecificationError(
                    f"scenario {self.name!r} has directions for "
                    f"parameter(s) {stray} it does not touch; it touches "
                    f"{sorted(touched)}")
            for name, vec in self.directions.items():
                if len(vec) != touched[name].dimension:
                    raise SpecificationError(
                        f"direction for {name!r} has length {len(vec)}, "
                        f"expected {touched[name].dimension}")
        return active

    # ------------------------------------------------------------------
    # the draw
    # ------------------------------------------------------------------
    def displacements(
        self, seed: int, trajectory: int, step: int,
        params: Sequence[PerturbationParameter],
    ) -> dict[str, np.ndarray]:
        """Per-parameter pi-space displacement of one step.

        Pure in ``(seed, scenario, trajectory, step)``; parameters the
        scenario does not touch are absent from the result.  The one-row
        case of :meth:`displacement_block`.
        """
        if not 0 <= step < self.n_steps:
            raise SpecificationError(
                f"step must be in [0, {self.n_steps}), got {step}")
        block = self.displacement_block(seed, trajectory, params,
                                        steps=(step,))
        return {name: rows[0] for name, rows in block.items()}

    def displacement_block(
        self, seed: int, trajectory: int,
        params: Sequence[PerturbationParameter],
        steps: Sequence[int] | None = None,
    ) -> dict[str, np.ndarray]:
        """Per-parameter displacements of a block of steps, one row each.

        Returns ``{name: (len(steps), dimension)}`` for the touched
        parameters; ``steps`` defaults to the whole trajectory.  Every
        step still draws from its own ``(scenario_key, trajectory,
        step)`` stream, so row ``i`` is bit-identical to
        ``displacements(seed, trajectory, steps[i], params)``.
        """
        active = self.active_params(params)
        steps = np.arange(self.n_steps) if steps is None \
            else np.asarray(steps, dtype=np.int64)
        if self.kind == "spike":
            return self._spike(seed, trajectory, steps, active)
        if self.kind == "drift":
            return self._drift(seed, trajectory, steps, active)
        return self._correlated(seed, trajectory, steps, active)

    def _spike(self, seed, trajectory, steps, active
               ) -> dict[str, np.ndarray]:
        noise = [np.zeros((steps.size, p.dimension)) for p in active]
        mask = [np.zeros((steps.size, p.dimension), dtype=bool)
                for p in active]
        for row, step in enumerate(steps):
            rng = self._rng(seed, trajectory, step)
            if rng.random() >= self.rate:
                continue  # silent step: zero noise, nothing masked in
            for j, p in enumerate(active):
                noise[j][row] = rng.standard_normal(p.dimension)
                mask[j][row] = rng.random(p.dimension) < 0.5
        return {p.name: self.magnitude * n * m
                for p, n, m in zip(active, noise, mask)}

    def _drift(self, seed, trajectory, steps, active
               ) -> dict[str, np.ndarray]:
        ramp = self.magnitude * (steps + 1) / self.n_steps
        if self.jitter:
            u = np.array([self._rng(seed, trajectory, step).random()
                          for step in steps])
            ramp = ramp * (1.0 + self.jitter * (2.0 * u - 1.0))
        return {p.name: ramp[:, None] * block
                for p, block in zip(active, self._direction_blocks(active))}

    def _direction_blocks(self, active) -> list[np.ndarray]:
        """Unit-style direction split per parameter (drift only)."""
        if self.directions is not None:
            return [np.asarray(self.directions[p.name], dtype=np.float64)
                    if p.name in self.directions else np.zeros(p.dimension)
                    for p in active]
        # Default: uniform inflation, normalised so the concatenated
        # direction has unit Euclidean length (magnitude == final
        # pi-space displacement length, as for explicit unit directions).
        total = sum(p.dimension for p in active)
        scale = 1.0 / math.sqrt(total)
        return [np.full(p.dimension, scale) for p in active]

    def _correlated(self, seed, trajectory, steps, active
                    ) -> dict[str, np.ndarray]:
        static = self._rng(seed, trajectory, _STATIC_STEP)
        loadings = [static.standard_normal(p.dimension) for p in active]
        norm = math.sqrt(sum(float(b @ b) for b in loadings))
        if norm == 0.0:  # pragma: no cover - measure-zero draw
            norm = 1.0
        factor = np.array([self._rng(seed, trajectory, step).standard_normal()
                           for step in steps])
        scale = self.magnitude * factor / norm
        return {p.name: scale[:, None] * block
                for p, block in zip(active, loadings)}

    def to_dict(self) -> dict:
        """JSON-safe description (no trajectories, no draws)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "magnitude": float(self.magnitude),
            "steps": int(self.n_steps),
            "rate": float(self.rate),
            "jitter": float(self.jitter),
            "params": list(self.params),
        }


def _parse_params(value: str) -> tuple[str, ...]:
    """``params=exec_times:background`` -> ``("exec_times", "background")``."""
    names = tuple(n.strip() for n in value.split(":") if n.strip())
    if not names:
        raise ValueError("empty params list")
    return names


#: Grammar of the CLI ``--shock`` spec — same parser as ``--chaos``.
_SHOCK_SPEC_FIELDS = (
    SpecField("kind", str, choices=SHOCK_KINDS),
    SpecField("magnitude", float, aliases=("mag",),
              hint="a shock scale in pi-space units"),
    SpecField("steps", int, dest="n_steps",
              hint="a positive trajectory length"),
    SpecField("rate", float, hint="a per-step firing probability in [0, 1]"),
    SpecField("jitter", float, hint="a non-negative noise scale"),
    SpecField("params", _parse_params,
              hint="colon-separated parameter names, e.g. a:b"),
    SpecField("name", str),
)


def parse_shock_spec(spec: str) -> ShockScenario:
    """Build a custom scenario from a compact CLI spec string.

    The spec is a comma-separated list of ``key=value`` entries, e.g.::

        kind=spike,magnitude=0.3,steps=40,rate=0.25,name=surge
        kind=drift,mag=1.5,jitter=0.1,params=exec_times:background

    Keys: ``kind`` (required: ``spike``/``drift``/``correlated``),
    ``magnitude`` (alias ``mag``, required), ``steps``, ``rate``,
    ``jitter``, ``params`` (colon-separated parameter names), ``name``.
    Malformed specs raise :class:`~repro.exceptions.SpecGrammarError`
    naming the bad token — the same grammar machinery as ``--chaos``.
    """
    parsed = parse_kv_spec(spec, _SHOCK_SPEC_FIELDS, name="shock spec")
    missing = [key for key in ("kind", "magnitude") if key not in parsed]
    if missing:
        raise SpecGrammarError(
            f"shock spec must set {', '.join(missing)}",
            token=spec, grammar=spec_grammar(_SHOCK_SPEC_FIELDS))
    parsed.setdefault("name", f"custom-{parsed['kind']}")
    try:
        return ShockScenario(**parsed)
    except SpecificationError as exc:
        # Grammar-valid but semantically bad (e.g. kind=frobnicate).
        raise SpecGrammarError(
            str(exc), token=spec,
            grammar=spec_grammar(_SHOCK_SPEC_FIELDS)) from exc
