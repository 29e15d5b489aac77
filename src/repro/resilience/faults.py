"""Deterministic fault injection for mappings and solver callables.

The paper measures how *systems* survive perturbations; this module
perturbs the measurement pipeline itself.  A :class:`FaultInjector` wraps

* :class:`~repro.core.mappings.FeatureMapping`\\s — evaluations randomly
  raise, return NaN/Inf, or stall (:meth:`FaultInjector.wrap_mapping`);
* solver callables — invocations randomly raise, report fake
  non-convergence, or stall (:meth:`FaultInjector.wrap_callable`);

at configurable per-call rates from an explicit seed, so every degradation
path of the :class:`~repro.resilience.cascade.SolverCascade` can be forced
deterministically in tests and benchmarks.  Injected failures raise
:class:`InjectedFaultError` (a :class:`~repro.exceptions.SolverError`) so
assertions can tell injected faults from genuine solver bugs, and the
injector counts every fault it fires, keyed by ``"<site>:<kind>"``.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.mappings import FeatureMapping
from repro.exceptions import ConvergenceError, SolverError, SpecificationError
from repro.observability import emit_event, get_metrics
from repro.utils.rng import default_rng

__all__ = ["FaultSpec", "FaultInjector", "InjectedFaultError"]

logger = logging.getLogger(__name__)


class InjectedFaultError(SolverError):
    """An artificial failure raised by a :class:`FaultInjector`."""


@dataclass(frozen=True)
class FaultSpec:
    """Per-call fault rates for an injector.

    All rates are independent probabilities in ``[0, 1]`` drawn per call
    (``nan_rate``/``inf_rate`` are drawn per *row* for vectorised
    evaluations, so one batched call can return a partially corrupted
    batch, like a flaky accelerator).

    Attributes
    ----------
    exception_rate:
        Probability a call raises :class:`InjectedFaultError`.
    nan_rate:
        Probability a mapping evaluation returns NaN.
    inf_rate:
        Probability a mapping evaluation returns ``+inf``.
    latency_rate:
        Probability a call sleeps for ``latency`` seconds first (used to
        trip per-solver wall-clock timeouts).
    latency:
        Artificial delay in seconds for latency faults.
    nonconvergence_rate:
        Probability a *solver* call raises
        :class:`~repro.exceptions.ConvergenceError` (mappings ignore it).
    """

    exception_rate: float = 0.0
    nan_rate: float = 0.0
    inf_rate: float = 0.0
    latency_rate: float = 0.0
    latency: float = 0.0
    nonconvergence_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("exception_rate", "nan_rate", "inf_rate",
                     "latency_rate", "nonconvergence_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise SpecificationError(
                    f"{name} must be in [0, 1], got {rate}")
        if self.latency < 0:
            raise SpecificationError(
                f"latency must be non-negative, got {self.latency}")


class FaultInjector:
    """Injects faults into mappings and solver callables.

    Parameters
    ----------
    spec:
        The fault rates; defaults to an all-zero (transparent) spec.
    seed:
        Seed for the injection draws.  Two injectors with equal seeds and
        specs fire identical fault sequences for identical call patterns.

    Attributes
    ----------
    counts:
        :class:`collections.Counter` of fired faults, keyed by
        ``"<site>:<kind>"`` (e.g. ``"mapping:nan"``, ``"numeric:exception"``).
    """

    def __init__(self, spec: FaultSpec | None = None, *, seed=None) -> None:
        self.spec = spec if spec is not None else FaultSpec()
        if not isinstance(self.spec, FaultSpec):
            raise SpecificationError(
                f"spec must be a FaultSpec, got {type(self.spec).__name__}")
        self._rng = default_rng(seed)
        self._lock = threading.Lock()
        self.counts: Counter[str] = Counter()

    # ------------------------------------------------------------------
    # draw helpers
    # ------------------------------------------------------------------
    def _uniform(self, n: int = 1) -> np.ndarray:
        with self._lock:
            return self._rng.random(n)

    def _fire(self, site: str, kind: str) -> None:
        self.counts[f"{site}:{kind}"] += 1
        get_metrics().inc(f"faults.{kind}")
        emit_event("fault.injected", site=site, kind=kind)
        logger.debug("injected %s fault at %s", kind, site)

    def total_injected(self) -> int:
        """Total faults fired so far, across all sites and kinds."""
        return sum(self.counts.values())

    def _maybe_latency(self, site: str) -> None:
        if self.spec.latency_rate > 0 and \
                float(self._uniform()[0]) < self.spec.latency_rate:
            self._fire(site, "latency")
            time.sleep(self.spec.latency)

    def _maybe_raise(self, site: str, *, solver: bool) -> None:
        u = float(self._uniform()[0])
        if u < self.spec.exception_rate:
            self._fire(site, "exception")
            raise InjectedFaultError(f"injected exception at {site}")
        if solver and \
                u < self.spec.exception_rate + self.spec.nonconvergence_rate:
            self._fire(site, "nonconvergence")
            raise ConvergenceError(f"injected non-convergence at {site}")

    def _corrupt_scalar(self, site: str, value: float) -> float:
        u = float(self._uniform()[0])
        if u < self.spec.nan_rate:
            self._fire(site, "nan")
            return float("nan")
        if u < self.spec.nan_rate + self.spec.inf_rate:
            self._fire(site, "inf")
            return float("inf")
        return value

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def wrap_mapping(self, mapping: FeatureMapping,
                     site: str = "mapping") -> FeatureMapping:
        """A view of ``mapping`` whose evaluations inject faults."""
        if not isinstance(mapping, FeatureMapping):
            raise SpecificationError(
                f"mapping must be a FeatureMapping, got "
                f"{type(mapping).__name__}")
        return _FaultingMapping(mapping, self, site)

    def wrap_callable(self, fn, name: str = "solver"):
        """Wrap a solver callable so each invocation may inject faults.

        The wrapped callable preserves positional/keyword arguments and the
        return value; injected failures raise before the real call runs.
        """

        def _wrapped(*args, **kwargs):
            self._maybe_latency(name)
            self._maybe_raise(name, solver=True)
            return fn(*args, **kwargs)

        _wrapped.__name__ = f"faulty_{name}"
        return _wrapped


class _FaultingMapping(FeatureMapping):
    """Delegating mapping view that injects faults per evaluation.

    Deliberately opaque to the structural probes
    (:func:`~repro.core.boundary.as_linear` and friends): a faulty linear
    mapping must *not* be routed to the closed-form solver, because the
    closed form would read the clean extracted coefficients and never see
    a fault.
    """

    def __init__(self, base: FeatureMapping, injector: FaultInjector,
                 site: str) -> None:
        super().__init__(base.n_inputs)
        self.base = base
        self._injector = injector
        self._site = site

    def value(self, x: np.ndarray) -> float:
        inj = self._injector
        inj._maybe_latency(self._site)
        inj._maybe_raise(self._site, solver=False)
        return inj._corrupt_scalar(self._site, self.base.value(x))

    def value_rows(self, xs: np.ndarray) -> np.ndarray:
        """One batched call: exception and latency draws once per call,
        NaN/Inf draws once per row (the :class:`FaultSpec` contract)."""
        inj = self._injector
        inj._maybe_latency(self._site)
        inj._maybe_raise(self._site, solver=False)
        values = np.array(self.base.value_rows(xs), dtype=np.float64,
                          copy=True)
        spec = inj.spec
        if values.size and (spec.nan_rate > 0 or spec.inf_rate > 0):
            u = inj._uniform(values.size)
            nan_mask = u < spec.nan_rate
            inf_mask = (~nan_mask) & (u < spec.nan_rate + spec.inf_rate)
            for _ in range(int(nan_mask.sum())):
                inj._fire(self._site, "nan")
            for _ in range(int(inf_mask.sum())):
                inj._fire(self._site, "inf")
            values[nan_mask] = np.nan
            values[inf_mask] = np.inf
        return values

    def gradient(self, x: np.ndarray) -> np.ndarray | None:
        inj = self._injector
        inj._maybe_raise(self._site, solver=False)
        g = self.base.gradient(x)
        if g is None:
            return None
        g = np.array(g, dtype=np.float64, copy=True)
        u = float(inj._uniform()[0])
        if u < inj.spec.nan_rate:
            inj._fire(self._site, "nan")
            g[int(inj._uniform()[0] * g.size) % g.size] = np.nan
        return g

    def __repr__(self) -> str:
        return f"_FaultingMapping({self.base!r}, site={self._site!r})"
