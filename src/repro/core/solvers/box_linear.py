"""Exact box-constrained projection onto an affine boundary.

The minimum-distance problem

    minimise ||x - x0||_2   s.t.   k . x = b,   lo <= x <= hi

has the classical clamped-multiplier solution: KKT stationarity with the
box's complementary multipliers gives

    x(t) = clamp(x0 + t k, lo, hi)

for a scalar multiplier ``t``, and ``g(t) = k . x(t)`` is monotone
non-decreasing in ``t`` (each term ``k_i x_i(t)`` is non-decreasing
whatever the sign of ``k_i``), so the right ``t`` is a one-dimensional
root found by Brent to machine precision.  This replaces the multistart
SLSQP fallback the dispatcher would otherwise use for affine features
whose unconstrained witness leaves the physical box — exact, deterministic
and orders of magnitude faster.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

from repro.core.boundary import BoundaryCrossing
from repro.core.mappings import LinearMapping
from repro.exceptions import BoundaryNotFoundError, SpecificationError

__all__ = ["solve_linear_box_radius"]


def solve_linear_box_radius(
    mapping: LinearMapping,
    origin: np.ndarray,
    bound: float,
    *,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
    xtol: float = 1e-14,
) -> BoundaryCrossing:
    """Exact l2 projection onto ``{x : f(x) = bound, lo <= x <= hi}``.

    Parameters
    ----------
    mapping:
        The affine feature ``f(x) = k . x + c``.
    origin:
        The point to project (need not itself satisfy the box).
    bound:
        Boundary level.
    lower, upper:
        Elementwise box bounds (``None`` = unbounded on that side).
    xtol:
        Brent tolerance on the multiplier.

    Returns
    -------
    BoundaryCrossing
        The exact constrained projection.

    Raises
    ------
    BoundaryNotFoundError
        When the level is unreachable inside the box (the boundary set is
        empty there), or the gradient is zero.
    """
    if not isinstance(mapping, LinearMapping):
        raise SpecificationError("solve_linear_box_radius needs a LinearMapping")
    origin = np.asarray(origin, dtype=np.float64)
    k = mapping.coefficients
    if origin.shape != k.shape:
        raise SpecificationError(
            f"origin has shape {origin.shape}, expected {k.shape}")
    if not np.any(k):
        raise BoundaryNotFoundError("feature has zero gradient")
    lo = np.full_like(origin, -np.inf) if lower is None else np.asarray(
        lower, dtype=np.float64)
    hi = np.full_like(origin, np.inf) if upper is None else np.asarray(
        upper, dtype=np.float64)
    if np.any(lo > hi):
        raise SpecificationError("lower bound exceeds upper bound")
    target = float(bound) - mapping.constant

    def x_of(t: float) -> np.ndarray:
        return np.clip(origin + t * k, lo, hi)

    def g(t: float) -> float:
        return float(k @ x_of(t)) - target

    # The reachable range of k.x inside the box.  Components with k_i = 0
    # contribute nothing regardless of their (possibly infinite) bounds —
    # select 0 explicitly so 0 * inf never surfaces as NaN.
    with np.errstate(invalid="ignore"):
        up = np.where(k > 0, k * hi, np.where(k < 0, k * lo, 0.0))
        dn = np.where(k > 0, k * lo, np.where(k < 0, k * hi, 0.0))
    best_hi = float(np.sum(up))
    best_lo = float(np.sum(dn))
    if not best_lo - 1e-12 * (1 + abs(best_lo)) <= target <= \
            best_hi + 1e-12 * (1 + abs(best_hi)):
        raise BoundaryNotFoundError(
            f"level {bound} unreachable inside the box: k.x spans "
            f"[{best_lo + mapping.constant:g}, {best_hi + mapping.constant:g}]")

    g0 = g(0.0)
    if g0 == 0.0:
        x = x_of(0.0)
        return BoundaryCrossing(point=x, bound=float(bound),
                                distance=float(np.linalg.norm(x - origin)))
    # g is monotone non-decreasing; bracket the root by expansion.
    step = 1.0 / float(k @ k)
    if g0 < 0.0:
        t_lo, t_hi = 0.0, step
        while g(t_hi) < 0.0:
            t_hi *= 4.0
            if t_hi > 1e30:  # pragma: no cover - excluded by range check
                raise BoundaryNotFoundError("failed to bracket the multiplier")
    else:
        t_lo, t_hi = -step, 0.0
        while g(t_lo) > 0.0:
            t_lo *= 4.0
            if t_lo < -1e30:  # pragma: no cover
                raise BoundaryNotFoundError("failed to bracket the multiplier")
    t = brentq(g, t_lo, t_hi, xtol=xtol)
    x = x_of(t)
    return BoundaryCrossing(point=x, bound=float(bound),
                            distance=float(np.linalg.norm(x - origin)))
