"""Benchmark harness: scalar vs vectorised solver kernels.

:func:`run_solver_kernel_benchmark` solves the same robustness problem —
a directional bisection over a high-dimensional :class:`MaxMapping` —
twice, once through the retained scalar reference loop and once through
the lock-step batched kernel, counting Python-level ``value`` and
batched calls through a delegating wrapper.  A second section does
the same for the finite-difference Jacobian (per-coordinate loop vs
one-shot stencil).  The payload carries wall-clock timings, the call
counts, the reduction factors, and a bit-identity verdict — the batched
kernels promise the *exact* scalar results, measured rather than assumed.

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

from repro.core.mappings import (
    CallableMapping,
    FeatureMapping,
    LinearMapping,
    MaxMapping,
)
from repro.core.solvers.bisection import solve_bisection_radius
from repro.core.solvers.numeric import (
    _finite_diff_gradient,
    _finite_diff_gradient_scalar,
)
from repro.exceptions import SpecificationError
from repro.observability import get_observability
from repro.parallel.bench import SOLVER_BENCH_SCHEMA

__all__ = ["CallCountingMapping", "run_solver_kernel_benchmark"]

logger = logging.getLogger(__name__)


class CallCountingMapping(FeatureMapping):
    """Delegating wrapper counting Python-level evaluation calls.

    Each ``value`` call and each batched call (``value_rows``, which
    ``value_many`` also reaches) counts as *one* Python-level
    evaluation — that is exactly the unit the batched kernels optimise
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

    def gradient_many(self, xs: np.ndarray):
        return self.inner.gradient_many(xs)

    def __repr__(self) -> str:
        return (f"CallCountingMapping({self.inner!r}, value={self.value_calls}, "
                f"batched={self.batch_calls})")


def _bench_bisection(dimension: int, directions: int, seed: int) -> dict:
    """Scalar vs batched directional bisection over a MaxMapping."""
    rng = np.random.default_rng(seed)
    components = [LinearMapping(rng.standard_normal(dimension), float(i) * 0.1)
                  for i in range(8)]
    inner = MaxMapping(components)
    origin = np.zeros(dimension)
    bound = inner.value(origin) + 6.0
    kw = dict(norm=2, n_random_directions=directions, seed=seed)

    scalar_map = CallCountingMapping(inner)
    t0 = time.perf_counter()
    scalar = solve_bisection_radius(scalar_map, origin, bound,
                                    batch=False, **kw)
    scalar_seconds = time.perf_counter() - t0

    batched_map = CallCountingMapping(inner)
    t0 = time.perf_counter()
    batched = solve_bisection_radius(batched_map, origin, bound,
                                     batch=True, **kw)
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
