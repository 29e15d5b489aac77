"""Exact radius for diagonal-quadratic (ellipsoidal) boundaries.

For a feature ``f(x) = sum_i d_i x_i^2 + c`` with every ``d_i > 0`` the
boundary ``f(x) = b`` is an ellipsoid, and projecting a point onto it is a
classical one-dimensional *secular equation*: the KKT conditions of

    minimise ||x - x0||^2   s.t.  sum_i d_i x_i^2 = b - c

give ``x_i = x0_i / (1 + 2 lambda d_i)`` for a scalar multiplier
``lambda``, and the constraint becomes

    g(lambda) = sum_i d_i x0_i^2 / (1 + 2 lambda d_i)^2 - (b - c) = 0 ,

which is strictly decreasing on ``lambda in (-1/(2 d_max), +inf)`` — the
branch containing the *closest* projection — so Brent's method nails it to
machine precision.  This gives the dispatcher an exact fast path for
ellipsoidal features (e.g. energy-style quadratic costs) that would
otherwise go through multistart SLSQP.

Handles both directions: the origin inside the ellipsoid being pushed out
(``f(x0) < b``) and outside being pulled in (``f(x0) > b``).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

from repro.core.boundary import BoundaryCrossing
from repro.core.mappings import QuadraticMapping
from repro.exceptions import BoundaryNotFoundError, SpecificationError

__all__ = ["is_diagonal_quadratic", "solve_ellipsoid_radius"]


def is_diagonal_quadratic(mapping: QuadraticMapping) -> bool:
    """Whether the mapping is ``sum d_i x_i^2 + c`` with all ``d_i > 0``.

    (Zero linear term, diagonal positive quadratic form — the shape the
    secular-equation solver handles.)
    """
    if not isinstance(mapping, QuadraticMapping):
        return False
    Q = mapping.quadratic
    if np.any(mapping.linear != 0.0):
        return False
    off_diag = Q - np.diag(np.diag(Q))
    if np.any(off_diag != 0.0):
        return False
    return bool(np.all(np.diag(Q) > 0.0))


def solve_ellipsoid_radius(
    mapping: QuadraticMapping,
    origin: np.ndarray,
    bound: float,
    *,
    xtol: float = 1e-14,
) -> BoundaryCrossing:
    """Exact Euclidean projection onto the ellipsoid ``f(x) = bound``.

    Parameters
    ----------
    mapping:
        A diagonal positive quadratic mapping (validated).
    origin:
        The point to project.
    bound:
        Boundary level; ``bound - c`` must be positive, otherwise the
        level set is empty (or the single origin point) and
        :class:`BoundaryNotFoundError` is raised.
    xtol:
        Brent tolerance on the multiplier.

    Returns
    -------
    BoundaryCrossing
        The exact closest boundary point and its distance.
    """
    if not is_diagonal_quadratic(mapping):
        raise SpecificationError(
            "solve_ellipsoid_radius requires a diagonal positive "
            "QuadraticMapping with zero linear term")
    origin = np.asarray(origin, dtype=np.float64)
    d = np.diag(mapping.quadratic)
    level = float(bound) - mapping.constant
    if level <= 0.0:
        raise BoundaryNotFoundError(
            f"level set f(x) = {bound} is empty: bound - constant = "
            f"{level:g} <= 0 for a positive quadratic form")

    weighted = d * origin ** 2

    def g(lam: float) -> float:
        return float(np.sum(weighted / (1.0 + 2.0 * lam * d) ** 2)) - level

    if np.all(origin == 0.0):
        # Degenerate: every direction is equally close; pick the cheapest
        # axis (largest d gives the smallest distance sqrt(level/d)).
        i = int(np.argmax(d))
        x = np.zeros_like(origin)
        x[i] = np.sqrt(level / d[i])
        return BoundaryCrossing(point=x, bound=float(bound),
                                distance=float(np.abs(x[i])))

    # g is strictly decreasing on (-1/(2 d_max), inf); bracket the root.
    lam_lo_limit = -1.0 / (2.0 * float(d.max()))
    g0 = g(0.0)
    if g0 == 0.0:
        return BoundaryCrossing(point=origin.copy(), bound=float(bound),
                                distance=0.0)
    if g0 > 0.0:
        # origin outside the ellipsoid: root at lambda > 0
        lo, hi = 0.0, 1.0
        while g(hi) > 0.0:
            hi *= 4.0
            if hi > 1e18:  # pragma: no cover - numerically unreachable
                raise BoundaryNotFoundError("secular equation failed to bracket")
    else:
        # origin inside: root in (lam_lo_limit, 0)
        hi = 0.0
        lo = 0.5 * lam_lo_limit
        while g(lo) < 0.0:
            lo = lam_lo_limit + 0.5 * (lo - lam_lo_limit)
            if lo - lam_lo_limit < 1e-300:  # pragma: no cover
                raise BoundaryNotFoundError("secular equation failed to bracket")
    lam = brentq(g, lo, hi, xtol=xtol)
    x = origin / (1.0 + 2.0 * lam * d)
    return BoundaryCrossing(
        point=x, bound=float(bound),
        distance=float(np.linalg.norm(x - origin)))
