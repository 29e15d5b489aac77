"""Benchmark harness: cold per-point sweep vs warm-started degradation curve.

:func:`run_sweep_benchmark` walks the same 100-point requirement sweep
over a makespan max-feature twice — once solving every operating point
from scratch (the pre-curve behaviour), once threading a single
:class:`~repro.core.solvers.warm.WarmStart` through the walk — counting
Python-level ``value`` and batched calls through the same delegating
wrapper the solver-kernel benchmark uses.  The payload carries wall-clock
timings, the call counts, the reduction factor, warm-start hit counters,
and a bit-identity verdict over every point's radius, boundary point, and
bound hit: the warm walk promises the *exact* cold answers, measured
rather than assumed.

Emits a ``repro-bench-sweep-v1`` payload; like every bench schema it is
validated by :func:`repro.parallel.bench.validate_bench_payload` (the
single source of truth), and CI smoke-tests it on every push with the
same speedup/identity gate that protects the solver kernels.

Not imported by ``repro.analysis`` eagerly — import it explicitly::

    from repro.analysis.sweep_bench import run_sweep_benchmark
"""

from __future__ import annotations

import logging
import time

import numpy as np

from repro.core.features import ToleranceBounds
from repro.core.radius import RadiusProblem, compute_radius
from repro.core.solvers.bench import CallCountingMapping
from repro.core.solvers.warm import WarmStart
from repro.exceptions import SpecificationError
from repro.observability import get_observability
from repro.parallel.bench import SWEEP_BENCH_SCHEMA

__all__ = ["run_sweep_benchmark"]

logger = logging.getLogger(__name__)


def _fixture(tasks: int, machines: int, seed: int):
    """The benchmark substrate: a makespan max-feature under MCT.

    Returns the (uncounted) max mapping and the execution-time origin.
    The requirement bounds are built from ``mapping.value(origin)`` —
    not ``system.makespan()`` — so both legs and the identity check see
    the exact float the solver's own ``g(0)`` evaluation produces.
    """
    from repro.systems.heuristics import MCT
    from repro.systems.independent.etc import generate_etc_gamma
    from repro.systems.independent.makespan import MakespanSystem

    etc = generate_etc_gamma(tasks, machines, seed=seed)
    system = MakespanSystem(etc, MCT().allocate(etc))
    spec = system.makespan_spec(tau=system.makespan() + 1.0)
    return spec.mapping, system.original_times()


def _run_leg(inner, origin: np.ndarray, taus: np.ndarray, seed: int,
             warm: WarmStart | None) -> tuple[list, float, int]:
    """Walk the sweep with a fresh call counter; return (results, s, evals)."""
    counting = CallCountingMapping(inner)
    results = []
    t0 = time.perf_counter()
    for tau in taus:
        problem = RadiusProblem(counting, origin,
                                ToleranceBounds.upper(float(tau)))
        results.append(compute_radius(problem, method="bisection",
                                      seed=seed, cache=False, warm=warm))
    seconds = time.perf_counter() - t0
    return results, seconds, counting.calls


def run_sweep_benchmark(
    *,
    points: int = 100,
    tasks: int = 32,
    machines: int = 8,
    beta_lo: float = 1.05,
    beta_hi: float = 2.0,
    seed: int = 2005,
) -> dict:
    """Benchmark the warm-started sweep against the cold per-point walk.

    Parameters
    ----------
    points:
        Number of operating points in the requirement sweep.
    tasks, machines:
        Size of the makespan fixture (more tasks → more expensive
        evaluations for the warm table to amortise).
    beta_lo, beta_hi:
        Requirement range swept linearly (both ``> 1``); the bound at
        each point is ``beta * makespan_orig``.
    seed:
        Fixture seed, shared by both legs (required for the identity
        verdict to be meaningful; the bisection walk itself draws no
        randomness on this all-linear substrate).

    Returns
    -------
    dict
        A ``repro-bench-sweep-v1`` payload.  ``identical`` compares the
        radius, boundary point, and bound hit of every operating point;
        ``eval_reduction`` is the factor by which the warm table cut
        Python-level evaluation calls across the whole sweep.
    """
    if points < 2:
        raise SpecificationError(f"points must be >= 2, got {points}")
    if not 1.0 < beta_lo <= beta_hi:
        raise SpecificationError(
            f"need 1 < beta_lo <= beta_hi, got {beta_lo} and {beta_hi}")
    logger.info("sweep benchmark: %d points over %dx%d makespan, seed=%d",
                points, tasks, machines, seed)
    inner, origin = _fixture(tasks, machines, seed)
    betas = np.linspace(beta_lo, beta_hi, points)
    taus = betas * inner.value(origin)

    cold, cold_seconds, cold_evals = _run_leg(inner, origin, taus, seed, None)
    warm_state = WarmStart()
    warm, warm_seconds, warm_evals = _run_leg(inner, origin, taus, seed,
                                              warm_state)

    identical = all(
        c.radius == w.radius
        and np.array_equal(c.boundary_point, w.boundary_point,
                           equal_nan=True)
        and c.bound_hit == w.bound_hit
        for c, w in zip(cold, warm))
    if not identical:  # pragma: no cover - bit-identity contract violation
        logger.error("warm sweep results DIFFER from cold results")
    payload = {
        "schema": SWEEP_BENCH_SCHEMA,
        "seed": int(seed),
        "points": int(points),
        "tasks": int(tasks),
        "machines": int(machines),
        "beta_lo": float(beta_lo),
        "beta_hi": float(beta_hi),
        "cold_seconds": float(cold_seconds),
        "warm_seconds": float(warm_seconds),
        "speedup": (float(cold_seconds / warm_seconds)
                    if warm_seconds > 0 else 0.0),
        "cold_evals": int(cold_evals),
        "warm_evals": int(warm_evals),
        "eval_reduction": (float(cold_evals / warm_evals)
                           if warm_evals else 0.0),
        "warm_starts": int(warm_state.warm_starts),
        "warm_hits": int(warm_state.warm_hits),
        "identical": bool(identical),
        "rho_first": float(cold[0].radius),
        "rho_last": float(cold[-1].radius),
    }
    obs = get_observability()
    if obs is not None:
        payload["observability"] = {
            "metrics": obs.metrics.snapshot(),
            "spans": len(obs.recorder.spans()),
            "events": len(obs.events.events()),
        }
    return payload
