"""Benchmark harness: scalar references vs vectorised solver kernels.

:func:`run_solver_kernel_benchmark` solves the same robustness problem —
a directional bisection over a high-dimensional :class:`MaxMapping` —
twice, once through the scalar reference loop
(:func:`scalar_bisection_radius`) and once through
:func:`~repro.core.solvers.bisection.solve_bisection_radius`, counting
Python-level ``value`` and batched calls through a delegating wrapper.  A
second section does the same for the finite-difference Jacobian
(per-coordinate loop vs one-shot stencil).  The payload carries
wall-clock timings, the call counts, the reduction factors, and a
bit-identity verdict — the batched kernels promise the *exact* scalar
results, measured rather than assumed.

The scalar references live here, off the product path: this benchmark
times them, and the kernel equivalence suites use them as oracles.
:func:`directional_crossing` walks one ray with one ``mapping.value`` call
per probe and SciPy's ``brentq``; :func:`scalar_bisection_radius` runs it
along every ray of the bisection tier; :func:`_finite_diff_gradient_scalar`
evaluates one stencil point per call.

Emits a ``repro-bench-solvers-v1`` payload; like every bench schema it is
validated by :func:`repro.parallel.bench.validate_bench_payload` (the
single source of truth), and CI smoke-tests it on every push.

Not imported by ``repro.core.solvers`` eagerly — import it explicitly::

    from repro.core.solvers.bench import run_solver_kernel_benchmark
"""

from __future__ import annotations

import logging
import time

import numpy as np
from scipy.optimize import brentq

from repro.core.boundary import BoundaryCrossing
from repro.core.mappings import (
    CallableMapping,
    FeatureMapping,
    LinearMapping,
    MaxMapping,
)
from repro.core.solvers.bisection import (
    _N_RANDOM_DIRECTIONS,
    _T_INIT,
    _T_MAX,
    _XTOL,
    _bisection_directions,
    solve_bisection_radius,
)
from repro.core.solvers.numeric import _finite_diff_gradient
from repro.exceptions import BoundaryNotFoundError, SpecificationError
from repro.observability import get_observability
from repro.parallel.bench import SOLVER_BENCH_SCHEMA

__all__ = ["CallCountingMapping", "directional_crossing",
           "scalar_bisection_radius", "run_solver_kernel_benchmark"]

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# scalar references


def _ray_exit_t(origin: np.ndarray, direction: np.ndarray,
                lower: np.ndarray | None, upper: np.ndarray | None,
                t_max: float) -> float:
    """Largest ``t`` such that ``origin + t*direction`` stays in the box."""
    t_exit = float(t_max)
    for bound, side in ((lower, -1.0), (upper, 1.0)):
        if bound is None:
            continue
        slack = side * (np.asarray(bound) - origin)
        move = side * direction
        with np.errstate(divide="ignore", invalid="ignore"):
            ts = np.where(move > 0, slack / move, np.inf)
        t_exit = min(t_exit, float(np.min(ts)))
    return max(t_exit, 0.0)


def directional_crossing(
    mapping: FeatureMapping,
    origin: np.ndarray,
    direction: np.ndarray,
    bound: float,
    *,
    t_max: float = _T_MAX,
    t_init: float = _T_INIT,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
    xtol: float = _XTOL,
) -> float | None:
    """Distance ``t`` of the first boundary crossing along a unit ray.

    The scalar reference of the directional kernel: one ``mapping.value``
    call per bracket-expansion step, then SciPy's ``brentq``.

    Parameters
    ----------
    mapping, origin, bound:
        The feature, the original point, and the bound defining the boundary.
    direction:
        Ray direction; the caller is responsible for normalising it in the
        norm that distances are measured in, so the return value *is* the
        distance.
    t_max:
        Give up beyond this ray parameter.
    t_init:
        Initial bracket-expansion step.
    lower, upper:
        Optional reachability box; crossings beyond the box exit are
        ignored (they are not physically reachable perturbations).
    xtol:
        Brent tolerance.

    Returns
    -------
    float or None
        The crossing distance, or ``None`` if the feature does not cross
        ``bound`` along this ray within the reachable segment.
    """
    origin = np.asarray(origin, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)

    def h(t: float) -> float:
        return mapping.value(origin + t * direction) - bound

    h0 = h(0.0)
    if h0 == 0.0:
        return 0.0
    t_stop = _ray_exit_t(origin, direction, lower, upper, t_max)
    if t_stop <= 0.0:
        return None
    t_lo, t_hi = 0.0, min(t_init, t_stop)
    # Geometric bracket expansion until the sign flips or the segment ends.
    # A mapping with a restricted domain (e.g. ProductMapping needs positive
    # inputs) raises once the ray leaves it; the ray effectively ends there.
    while True:
        try:
            h_hi = h(t_hi)
        except SpecificationError:
            return None
        if h0 * h_hi <= 0.0:
            break
        if t_hi >= t_stop:
            return None
        t_lo, t_hi = t_hi, min(4.0 * t_hi, t_stop)
    if h_hi == 0.0:
        return float(t_hi)
    return float(brentq(h, t_lo, t_hi, xtol=xtol))


def scalar_bisection_radius(
    mapping: FeatureMapping,
    origin: np.ndarray,
    bound: float,
    *,
    norm: float = 2,
    n_random_directions: int = _N_RANDOM_DIRECTIONS,
    include_axes: bool = True,
    t_max: float = _T_MAX,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
    seed=None,
) -> BoundaryCrossing:
    """The per-direction reference loop of
    :func:`~repro.core.solvers.bisection.solve_bisection_radius`: the same
    rays, one :func:`directional_crossing` each, keeping the first strict
    minimum.  Takes the same arguments but ``warm``, and raises the same
    :class:`BoundaryNotFoundError` when no ray crosses."""
    origin = np.asarray(origin, dtype=np.float64)
    directions = _bisection_directions(origin.size, norm, seed,
                                       n_random_directions, include_axes)
    best_t = np.inf
    best_dir = None
    for d in directions:
        t = directional_crossing(mapping, origin, d, bound,
                                 t_max=t_max, lower=lower, upper=upper)
        if t is not None and t < best_t:
            best_t = t
            best_dir = d
    if best_dir is None:
        raise BoundaryNotFoundError(
            f"no boundary crossing for bound {bound} within t_max={t_max} "
            f"over {directions.shape[0]} directions")
    return BoundaryCrossing(point=origin + best_t * best_dir,
                            bound=float(bound), distance=best_t)


def _finite_diff_gradient_scalar(mapping: FeatureMapping, x: np.ndarray,
                                 eps: float = 1e-7) -> np.ndarray:
    """Scalar reference for
    :func:`~repro.core.solvers.numeric._finite_diff_gradient` (one
    ``mapping.value`` call per stencil point)."""
    g = np.empty_like(x)
    for i in range(x.size):
        h = eps * max(1.0, abs(x[i]))
        x_plus = x.copy()
        x_minus = x.copy()
        x_plus[i] += h
        x_minus[i] -= h
        g[i] = (mapping.value(x_plus) - mapping.value(x_minus)) / (2.0 * h)
    return g


# ---------------------------------------------------------------------------
# the benchmark


class CallCountingMapping(FeatureMapping):
    """Delegating wrapper counting Python-level evaluation calls.

    Each ``value`` call and each ``value_rows`` call counts as *one*
    Python-level evaluation — that is exactly the unit the batched kernels optimise
    (a batch over ten thousand rows costs one interpreter round-trip,
    not ten thousand).
    ``rows`` additionally tracks how many points flowed through the
    batched calls.
    """

    def __init__(self, inner: FeatureMapping) -> None:
        super().__init__(inner.n_inputs)
        self.inner = inner
        self.value_calls = 0
        self.batch_calls = 0
        self.rows = 0

    @property
    def calls(self) -> int:
        """Total Python-level evaluation calls (scalar + batched)."""
        return self.value_calls + self.batch_calls

    def reset(self) -> None:
        self.value_calls = self.batch_calls = self.rows = 0

    def value(self, x: np.ndarray) -> float:
        self.value_calls += 1
        return self.inner.value(x)

    def value_rows(self, xs: np.ndarray) -> np.ndarray:
        self.batch_calls += 1
        self.rows += int(np.asarray(xs).shape[0])
        return self.inner.value_rows(xs)

    def gradient(self, x: np.ndarray):
        return self.inner.gradient(x)

    def __repr__(self) -> str:
        return (f"CallCountingMapping({self.inner!r}, value={self.value_calls}, "
                f"batched={self.batch_calls})")


def _bench_bisection(dimension: int, directions: int, seed: int) -> dict:
    """Scalar reference loop vs the solver over a MaxMapping."""
    rng = np.random.default_rng(seed)
    components = [LinearMapping(rng.standard_normal(dimension), float(i) * 0.1)
                  for i in range(8)]
    inner = MaxMapping(components)
    origin = np.zeros(dimension)
    bound = inner.value(origin) + 6.0
    kw = dict(norm=2, n_random_directions=directions, seed=seed)

    scalar_map = CallCountingMapping(inner)
    t0 = time.perf_counter()
    scalar = scalar_bisection_radius(scalar_map, origin, bound, **kw)
    scalar_seconds = time.perf_counter() - t0

    batched_map = CallCountingMapping(inner)
    t0 = time.perf_counter()
    batched = solve_bisection_radius(batched_map, origin, bound, **kw)
    batched_seconds = time.perf_counter() - t0

    identical = (scalar.distance == batched.distance
                 and np.array_equal(scalar.point, batched.point)
                 and scalar.bound == batched.bound)
    return {
        "scalar_seconds": float(scalar_seconds),
        "batched_seconds": float(batched_seconds),
        "speedup": (float(scalar_seconds / batched_seconds)
                    if batched_seconds > 0 else 0.0),
        "scalar_evals": int(scalar_map.calls),
        "batched_evals": int(batched_map.calls),
        "eval_reduction": (float(scalar_map.calls / batched_map.calls)
                           if batched_map.calls else 0.0),
        "batched_rows": int(batched_map.rows),
        "identical": bool(identical),
        "radius": float(batched.distance),
    }


def _bench_gradient(dimension: int, seed: int, repeats: int = 50) -> dict:
    """Per-coordinate FD loop vs the one-shot central-difference stencil."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(dimension)
    inner = CallableMapping(
        lambda x: float(np.sum(np.sin(x * w)) + 0.5 * (x @ x)), dimension)
    points = rng.standard_normal((repeats, dimension))

    scalar_map = CallCountingMapping(inner)
    t0 = time.perf_counter()
    scalar_grads = [_finite_diff_gradient_scalar(scalar_map, x) for x in points]
    scalar_seconds = time.perf_counter() - t0

    batched_map = CallCountingMapping(inner)
    t0 = time.perf_counter()
    batched_grads = [_finite_diff_gradient(batched_map, x) for x in points]
    batched_seconds = time.perf_counter() - t0

    identical = all(np.array_equal(a, b)
                    for a, b in zip(scalar_grads, batched_grads))
    return {
        "scalar_seconds": float(scalar_seconds),
        "batched_seconds": float(batched_seconds),
        "speedup": (float(scalar_seconds / batched_seconds)
                    if batched_seconds > 0 else 0.0),
        "scalar_evals": int(scalar_map.calls),
        "batched_evals": int(batched_map.calls),
        "eval_reduction": (float(scalar_map.calls / batched_map.calls)
                           if batched_map.calls else 0.0),
        "batched_rows": int(batched_map.rows),
        "identical": bool(identical),
    }


def run_solver_kernel_benchmark(
    *,
    dimension: int = 32,
    directions: int = 128,
    seed: int = 2005,
) -> dict:
    """Benchmark the vectorised solver kernels against their scalar paths.

    Parameters
    ----------
    dimension:
        Perturbation-space dimension of the benchmark problem.
    directions:
        Random directions for the bisection solve (more directions →
        more Python-level evaluations for the scalar loop to amortise).
    seed:
        Seed shared by both legs of each section (required for the
        identity verdicts to be meaningful).

    Returns
    -------
    dict
        A ``repro-bench-solvers-v1`` payload.  ``identical`` is the
        conjunction of both sections' verdicts; ``eval_reduction`` is
        the factor by which batching cut Python-level evaluation calls.
    """
    if dimension < 2:
        raise SpecificationError(f"dimension must be >= 2, got {dimension}")
    if directions < 1:
        raise SpecificationError(f"directions must be >= 1, got {directions}")
    logger.info("solver-kernel benchmark: dim=%d, directions=%d, seed=%d",
                dimension, directions, seed)
    bisection = _bench_bisection(dimension, directions, seed)
    gradient = _bench_gradient(dimension, seed)
    payload = {
        "schema": SOLVER_BENCH_SCHEMA,
        "seed": int(seed),
        "dimension": int(dimension),
        "directions": int(directions),
        "identical": bool(bisection["identical"] and gradient["identical"]),
        "bisection": bisection,
        "gradient": gradient,
    }
    obs = get_observability()
    if obs is not None:
        payload["observability"] = {
            "metrics": obs.metrics.snapshot(),
            "spans": len(obs.recorder.spans()),
            "events": len(obs.events.events()),
        }
    return payload
