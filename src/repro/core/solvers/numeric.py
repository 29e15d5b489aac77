"""Numeric boundary-projection radius solver.

Solves, for one finite tolerance bound ``b``,

    minimise   || x - x0 ||_2
    subject to f(x) = b,    lower <= x <= upper,

with SciPy's SLSQP from multiple starting points: the original point, the
directional-bisection crossings (which are feasible boundary points and so
excellent warm starts), and random offsets.  For general smooth mappings
the result is a *local* projection; the multistart converts this into a
best-effort global one, and the directional crossings guarantee the answer
is never worse than the bisection upper bound.

The seed crossings come from the directional kernel of
:mod:`repro.core.solvers.bisection`: a lone solve runs it as a group of
one (:func:`~repro.core.solvers.bisection._ray_crossings`), and the tensor
kernel hands each member of a group its row of one shared run.  The tier
keeps no warm state: under a stateless seed a family's neighbouring solves
ride the tensor kernel together, and under a ``Generator`` seed every
solve draws new rays.
"""

from __future__ import annotations

import logging

import numpy as np
from scipy import optimize

from repro.core.boundary import BoundaryCrossing
from repro.core.mappings import FeatureMapping
from repro.core.solvers.bisection import (
    _N_SEED_DIRECTIONS,
    _T_MAX,
    _numeric_directions,
    _ray_crossings,
)
from repro.exceptions import BoundaryNotFoundError, SpecificationError
from repro.observability import get_metrics
from repro.utils.rng import default_rng

__all__ = ["solve_numeric_radius"]

logger = logging.getLogger(__name__)


def _finite_diff_gradient(mapping: FeatureMapping, x: np.ndarray,
                          eps: float = 1e-7) -> np.ndarray:
    """Central finite-difference gradient, used when no analytic one exists.

    The full ``2n``-point central-difference stencil is built as one
    matrix and evaluated with a single row-exact ``mapping.value_rows``
    call, so each stencil value is ``mapping.value``'s float and the
    gradient is bit-identical to the per-coordinate scalar reference
    (:func:`~repro.core.solvers.bench._finite_diff_gradient_scalar`) —
    also for compositions that mix a callable with vectorised
    components.
    """
    n = x.size
    h = eps * np.maximum(1.0, np.abs(x))
    stencil = np.vstack([x + np.diag(h), x - np.diag(h)])
    values = mapping.value_rows(stencil)
    get_metrics().inc("solver.batch_evals")
    get_metrics().inc("solver.batch_points", 2 * n)
    return (values[:n] - values[n:]) / (2.0 * h)


def _constraint_jac(mapping: FeatureMapping):
    def jac(x: np.ndarray) -> np.ndarray:
        g = mapping.gradient(x)
        if g is None:
            g = _finite_diff_gradient(mapping, x)
        return g
    return jac


def solve_numeric_radius(
    mapping: FeatureMapping,
    origin: np.ndarray,
    bound: float,
    *,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
    n_starts: int = 8,
    n_seed_directions: int = _N_SEED_DIRECTIONS,
    constraint_tol: float = 1e-7,
    t_max: float = _T_MAX,
    seed=None,
    crossings_ts=None,
) -> BoundaryCrossing:
    """Best boundary projection over a multistart SLSQP sweep.

    Parameters
    ----------
    mapping, origin, bound:
        The feature ``f``, the original point ``x0``, and the boundary level.
    lower, upper:
        Optional elementwise box bounds on reachable perturbations.
    n_starts:
        Number of random-offset starting points (beyond the deterministic
        starts).
    n_seed_directions:
        Random directions probed by the bisection pre-pass whose crossings
        seed the projection.
    constraint_tol:
        Accept a solution only if ``|f(x) - b| <= constraint_tol * (1+|b|)``.
    t_max:
        Bracket limit for the seeding pre-pass.
    seed:
        RNG seed for the seeding rays and the multistart.
    crossings_ts:
        Optional precomputed per-direction crossing distances (the array
        :func:`~repro.core.solvers.bisection._ray_crossings` returns for
        this problem's rays), supplied by the tensorised group kernel
        which expands all problems' brackets in one flattened batch.  The
        directions are still derived from ``seed`` — they position the
        seeds and keep the RNG stream aligned — but the seeding pre-pass
        is skipped.  Must contain the scalar reference floats: the
        crossings seed the multistart, so any drift would change the
        SLSQP trajectory.

    Returns
    -------
    BoundaryCrossing
        The best verified boundary point found.

    Raises
    ------
    BoundaryNotFoundError
        If no start converges to a verified boundary point — treated by the
        dispatcher as an infinite radius for this bound.
    """
    origin = np.asarray(origin, dtype=np.float64)
    n = origin.size
    if mapping.n_inputs != n:
        raise SpecificationError(
            f"origin has length {n} but mapping expects {mapping.n_inputs}")
    rng = default_rng(seed)
    scale = max(1.0, float(np.linalg.norm(origin)))

    # --- seed with directional crossings (true boundary points) ---------
    # The directional kernel probes all 2n + n_seed_directions rays in
    # lock-step as a group of one; crossings come back in direction
    # order, exactly as the scalar per-direction loop produced them.
    starts: list[np.ndarray] = []
    crossings: list[BoundaryCrossing] = []
    dirs = _numeric_directions(n, rng, n_seed_directions)
    if crossings_ts is None:
        crossings_ts = _ray_crossings(mapping, origin, dirs, bound,
                                      t_max=t_max, lower=lower, upper=upper)
    for d, t in zip(dirs, crossings_ts):
        if not np.isnan(t):
            pt = origin + float(t) * d
            crossings.append(BoundaryCrossing(pt, bound, float(t)))
            starts.append(pt)
    starts.sort(key=lambda p: float(np.linalg.norm(p - origin)))
    starts = starts[:max(4, n_starts)]
    starts.append(origin.copy())
    for _ in range(n_starts):
        starts.append(origin + 0.1 * scale * rng.standard_normal(n))

    # --- box bounds for SLSQP -------------------------------------------
    if lower is None and upper is None:
        slsqp_bounds = None
    else:
        lo = np.full(n, -np.inf) if lower is None else np.asarray(lower, float)
        hi = np.full(n, np.inf) if upper is None else np.asarray(upper, float)
        slsqp_bounds = list(zip(lo, hi))

    def objective(x: np.ndarray) -> float:
        dx = x - origin
        return float(dx @ dx)

    def objective_grad(x: np.ndarray) -> np.ndarray:
        return 2.0 * (x - origin)

    cons = {
        "type": "eq",
        "fun": lambda x: mapping.value(x) - bound,
        "jac": _constraint_jac(mapping),
    }

    logger.debug("numeric projection to level %g: %d crossing seeds, "
                 "%d starts", bound, len(crossings), len(starts))
    best: BoundaryCrossing | None = min(crossings, key=lambda c: c.distance,
                                        default=None)
    accept = constraint_tol * (1.0 + abs(bound))
    n_failed = 0
    for x0 in starts:
        if slsqp_bounds is not None:
            x0 = np.clip(x0, [b[0] for b in slsqp_bounds],
                         [b[1] for b in slsqp_bounds])
        try:
            res = optimize.minimize(
                objective, x0, jac=objective_grad, method="SLSQP",
                bounds=slsqp_bounds, constraints=[cons],
                options={"maxiter": 200, "ftol": 1e-12},
            )
        except (ValueError, ArithmeticError, SpecificationError) as exc:
            # SciPy numerical quirk, or the iterate left a mapping's
            # restricted domain (e.g. positive-only monomials): this start
            # failed, the others may still succeed.
            n_failed += 1
            logger.debug("SLSQP start failed at level %g: %s", bound, exc)
            continue
        x = np.asarray(res.x, dtype=np.float64)
        if not np.all(np.isfinite(x)):
            continue
        try:
            if abs(mapping.value(x) - bound) > accept:
                continue
        except SpecificationError:
            continue
        dist = float(np.linalg.norm(x - origin))
        if best is None or dist < best.distance:
            best = BoundaryCrossing(point=x, bound=float(bound), distance=dist)
    if n_failed:
        logger.warning("numeric solver: %d/%d SLSQP starts failed at "
                       "level %g", n_failed, len(starts), bound)
    if best is None:
        raise BoundaryNotFoundError(
            f"numeric solver found no boundary point at level {bound}")
    return best
