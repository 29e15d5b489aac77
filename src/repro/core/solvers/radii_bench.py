"""Benchmark harness: per-problem radius loop vs the tensorised group kernel.

:func:`run_radius_batch_benchmark` builds one structural group of radius
problems — the same near-isotropic quadratic feature probed from many
different operating points — and solves it twice: once through a plain
``compute_radius`` loop (the per-problem reference) and once through
:func:`~repro.core.solvers.tensor.solve_group` (the cross-problem tensor
kernel), counting Python-level ``value`` and batched calls through one
shared :class:`~repro.core.solvers.bench.CallCountingMapping`.

The geometry is chosen to be the scalar scan's worst case and the common
FePIA case at once: the quadratic's level sets are *nearly* spherical, so
every direction's crossing lands in the same 4x bracket rung and the
per-problem pruned scan can prune nothing — it Brent-refines every
bracket of every problem.  The tensor kernel instead refines all brackets
of all problems in lock-step (one ``value_rows`` per iteration) and
takes each problem's winner straight from the batched roots, so its
advantage is the full ``O(problems x directions)`` factor.  The weights
are still anisotropic enough (~10% spread) that the crossings are not
all tied.

Emits a ``repro-bench-radii-v1`` payload; like every bench schema it is
validated by :func:`repro.parallel.bench.validate_bench_payload` (the
single source of truth), and CI smoke-tests it on every push — failing
below 3x wall-clock or 10x call reduction, or on any result divergence.

Not imported by ``repro.core.solvers`` eagerly — import it explicitly::

    from repro.core.solvers.radii_bench import run_radius_batch_benchmark
"""

from __future__ import annotations

import logging
import math
import time

import numpy as np

from repro.core.features import ToleranceBounds
from repro.core.mappings import QuadraticMapping
from repro.core.solvers.bench import CallCountingMapping
from repro.exceptions import SpecificationError
from repro.observability import get_observability
from repro.parallel.bench import RADII_BENCH_SCHEMA

__all__ = ["run_radius_batch_benchmark"]

logger = logging.getLogger(__name__)


def _make_problems(mapping, dimension: int, n_problems: int, seed: int):
    """One structural group: shared mapping and norm, distinct origins.

    The origins are small offsets around zero so every member is feasible
    under the shared upper bound and the crossing distances of all
    problems land in the same expansion rung.
    """
    from repro.core.radius import RadiusProblem

    rng = np.random.default_rng(seed)
    bounds = ToleranceBounds(beta_max=4.0)
    return [
        RadiusProblem(mapping=mapping,
                      origin=0.02 * rng.standard_normal(dimension),
                      bounds=bounds, norm=2)
        for _ in range(n_problems)
    ]


def run_radius_batch_benchmark(
    *,
    problems: int = 32,
    dimension: int = 12,
    seed: int = 2005,
) -> dict:
    """Benchmark the tensorised group kernel against the per-problem loop.

    Parameters
    ----------
    problems:
        Group size — how many radius problems share the solver structure.
        The CI gate runs the canonical 32.
    dimension:
        Perturbation-space dimension; the direction matrix has
        ``2 * dimension + 128`` rows.
    seed:
        Seed shared by both legs (required for the identity verdict to be
        meaningful).

    Returns
    -------
    dict
        A ``repro-bench-radii-v1`` payload.  ``identical`` compares each
        member's radius, boundary point, bound hit, and per-bound table
        across the two legs; ``eval_reduction`` is the factor by which
        the tensor kernel cut Python-level evaluation calls.
    """
    from repro.core.radius import compute_radius
    from repro.core.solvers.tensor import solve_group

    if problems < 2:
        raise SpecificationError(f"problems must be >= 2, got {problems}")
    if dimension < 2:
        raise SpecificationError(f"dimension must be >= 2, got {dimension}")
    logger.info("radius-batch benchmark: %d problems, dim=%d, seed=%d",
                problems, dimension, seed)
    rng = np.random.default_rng(seed)
    weights = 1.0 + 0.2 * rng.random(dimension)
    mapping = CallCountingMapping(QuadraticMapping(np.diag(weights)))

    # Fresh problem objects per leg: RadiusProblem caches its original
    # feature value, and both legs must pay for it.
    mapping.reset()
    scalar_problems = _make_problems(mapping, dimension, problems, seed)
    t0 = time.perf_counter()
    scalar = [compute_radius(p, method="bisection", seed=seed, cache=False)
              for p in scalar_problems]
    scalar_seconds = time.perf_counter() - t0
    scalar_evals = mapping.calls

    mapping.reset()
    tensor_problems = _make_problems(mapping, dimension, problems, seed)
    t0 = time.perf_counter()
    tensor = solve_group(tensor_problems, method="bisection", seed=seed,
                         cache=False)
    tensor_seconds = time.perf_counter() - t0
    tensor_evals = mapping.calls
    tensor_rows = mapping.rows

    identical = all(
        a.radius == b.radius
        and a.bound_hit == b.bound_hit
        and a.method == b.method
        and a.per_bound == b.per_bound
        and np.array_equal(a.boundary_point, b.boundary_point)
        for a, b in zip(scalar, tensor)
    )
    if not identical:  # pragma: no cover - bit-identity contract violation
        logger.error("tensorised results DIFFER from the per-problem loop")
    payload = {
        "schema": RADII_BENCH_SCHEMA,
        "seed": int(seed),
        "problems": int(problems),
        "dimension": int(dimension),
        "directions": int(2 * dimension + 128),
        "scalar_seconds": float(scalar_seconds),
        "tensor_seconds": float(tensor_seconds),
        "speedup": (float(scalar_seconds / tensor_seconds)
                    if tensor_seconds > 0 else 0.0),
        "scalar_evals": int(scalar_evals),
        "tensor_evals": int(tensor_evals),
        "eval_reduction": (float(scalar_evals / tensor_evals)
                           if tensor_evals else 0.0),
        "tensor_rows": int(tensor_rows),
        "identical": bool(identical),
        "radii": [float(r.radius) if math.isfinite(r.radius) else None
                  for r in tensor],
    }
    obs = get_observability()
    if obs is not None:
        payload["observability"] = {
            "metrics": obs.metrics.snapshot(),
            "spans": len(obs.recorder.spans()),
            "events": len(obs.events.events()),
        }
    return payload
