"""Exact radius for positive-definite quadratic (ellipsoidal) boundaries.

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
otherwise go through multistart SLSQP.  Any positive-definite
``x'Qx + k.x + c`` is such a form once centred and rotated into its
principal frame (:class:`~repro.core.boundary.EllipsoidFrame`), which
:func:`solve_ellipsoid_frame` does around the same solver.

Handles both directions: the origin inside the ellipsoid being pushed out
(``f(x0) < b``) and outside being pulled in (``f(x0) > b``).  Inside,
when the origin has (almost) nothing on the largest-``d`` axes, the root
sits on (or within rounding of) the pole ``lambda = -1/(2 d_max)``: the
trust-region *hard case*.  There the solve moves to the multiplier
``t = 1 + 2 lambda d_max``, which keeps its relative precision near the
pole, and on the pole itself it is closed-form.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from repro.core.boundary import (
    LEVEL_RTOL,
    BoundaryCrossing,
    EllipsoidFrame,
    as_diagonal_quadratic,
)
from repro.core.mappings import QuadraticMapping
from repro.exceptions import (
    BoundaryNotFoundError,
    SolverError,
    SpecificationError,
)

__all__ = ["is_diagonal_quadratic", "solve_ellipsoid_radius",
           "solve_ellipsoid_frame"]

#: Smallest multiplier ``t`` the near-pole solve brackets with.
_T_FLOOR = 1e-300


def is_diagonal_quadratic(mapping: QuadraticMapping) -> bool:
    """Whether the mapping is ``sum d_i x_i^2 + c`` with all ``d_i > 0``.

    (Zero linear term, diagonal positive quadratic form — the shape the
    secular-equation solver handles.)
    """
    return isinstance(mapping, QuadraticMapping) \
        and as_diagonal_quadratic(mapping) is mapping


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
        The exact closest boundary point and its distance.  The point
        satisfies ``|f(x*) - bound| <= LEVEL_RTOL * (1 + |bound|)``.
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
    x = _multiplier_root(d, origin, level, xtol)
    if x is None or abs(mapping.value(x) - float(bound)) \
            > LEVEL_RTOL * (1.0 + abs(float(bound))):
        x = _pole_root(d, origin, level)
    return BoundaryCrossing(
        point=x, bound=float(bound),
        distance=float(np.linalg.norm(x - origin)))


def _multiplier_root(d: np.ndarray, origin: np.ndarray, level: float,
                     xtol: float) -> np.ndarray | None:
    """The KKT point from Brent's method in ``lambda``, or ``None`` when
    the root cannot be bracketed short of the pole."""
    weighted = d * origin ** 2
    if not np.any(weighted):  # the centre: no multiplier moves it
        return None

    def g(lam: float) -> float:
        return float(np.sum(weighted / (1.0 + 2.0 * lam * d) ** 2)) - level

    # g is strictly decreasing on (-1/(2 d_max), inf); bracket the root.
    lam_lo_limit = -1.0 / (2.0 * float(d.max()))
    g0 = g(0.0)
    if g0 == 0.0:
        return origin.copy()
    if g0 > 0.0:
        # origin outside the ellipsoid: root at lambda > 0
        lo, hi = 0.0, 1.0
        while g(hi) > 0.0:
            hi *= 4.0
            if hi > 1e18:  # pragma: no cover - numerically unreachable
                return None
    else:
        # origin inside: root in (lam_lo_limit, 0)
        hi = 0.0
        lo = 0.5 * lam_lo_limit
        while g(lo) < 0.0:
            step = lam_lo_limit + 0.5 * (lo - lam_lo_limit)
            if step in (lo, lam_lo_limit):  # no float left before the pole
                return None
            lo = step
    lam = brentq(g, lo, hi, xtol=xtol)
    return origin / (1.0 + 2.0 * lam * d)


def _pole_root(d: np.ndarray, origin: np.ndarray,
               level: float) -> np.ndarray:
    """The KKT point solved in ``t = 1 + 2 lambda d_max``.

    With ``r = d / d_max`` the point is ``x_i = x0_i / (1 - r_i + t r_i)``,
    so on the top axes (``r_i = 1``) the denominator is ``t`` itself,
    exact however close the root sits to the pole ``t = 0``.  Inside the
    ellipsoid the top axes alone push ``g`` above zero for ``t`` below
    ``sqrt(w / level)`` (``w`` their weighted mass), which brackets the
    root.  With no mass there (``w = 0``) and the other axes still inside
    at ``t = 0``, the root is the pole: the *hard case*.  Its minimisers
    are ``x_i = x0_i / (1 - r_i)`` off the top axes plus a sphere in the
    top eigenspace, and the point puts the remaining level on the top
    axis where ``|x0_i|`` is largest (the first on a tie).
    """
    r = d / d.max()
    off = 1.0 - r
    top = off == 0.0

    def point(t: float) -> np.ndarray:
        return origin / (off + t * r)

    def g(t: float) -> float:
        x = point(t)
        return float(np.sum(d * x * x)) - level

    if g(1.0) > 0.0:
        lo, hi = 1.0, 2.0
        while g(hi) > 0.0:
            lo, hi = hi, 2.0 * hi
    else:
        w = float(np.sum(d[top] * origin[top] ** 2))
        lo, hi = max(0.5 * math.sqrt(w / level), _T_FLOOR), 1.0
        if g(lo) <= 0.0:
            x = point(lo)
            x[top] = 0.0
            rest = max(level - float(np.sum(d * x * x)), 0.0)
            axes = np.flatnonzero(top)
            i = int(axes[np.argmax(np.abs(origin[axes]))])
            x[i] = math.sqrt(rest / d[i]) * (1.0 if origin[i] >= 0.0
                                             else -1.0)
            return x
    return point(brentq(g, lo, hi, xtol=_T_FLOOR))


def solve_ellipsoid_frame(frame: EllipsoidFrame, origin: np.ndarray,
                          bound: float) -> BoundaryCrossing:
    """Exact Euclidean projection onto a level set of any positive-definite
    quadratic, given its :class:`~repro.core.boundary.EllipsoidFrame`.

    Projects ``y0 = V'(x0 - m)`` with :func:`solve_ellipsoid_radius` and
    returns ``x* = V y* + m`` at its distance from ``x0``.  An identity
    frame (a diagonal ``Q`` with no linear term) is solved in place.

    Raises
    ------
    SolverError
        When a rotated witness misses its level on ``frame.source``, the
        uncentred quadratic, by more than ``LEVEL_RTOL (1 + |b|)`` plus
        the rounding of evaluating it there: the frame's arithmetic did
        not hold.  The dispatcher only sends problems whose frame
        :meth:`~repro.core.boundary.EllipsoidFrame.holds`, which bounds
        that miss before solving (a frame it admits never raises here).
    """
    if frame.rotation is None:
        return solve_ellipsoid_radius(frame.diagonal, origin, bound)
    V, m = frame.rotation, frame.centre
    crossing = solve_ellipsoid_radius(frame.diagonal, V.T @ (origin - m),
                                      bound)
    point = V @ crossing.point + m
    quad, b = frame.source, crossing.bound
    size = np.abs(point)
    rounding = float(size @ np.abs(quad.quadratic) @ size
                     + np.abs(quad.linear) @ size + abs(quad.constant))
    miss = abs(quad.value(point) - b)
    if miss > LEVEL_RTOL * (1.0 + abs(b)) \
            + (point.size + 2) * np.finfo(np.float64).eps * rounding:
        raise SolverError(
            f"ellipsoid witness misses its level {b:g} by {miss:.3g}: the "
            "centred, rotated frame lost the precision the radius needs")
    return BoundaryCrossing(point=point, bound=b,
                            distance=float(np.linalg.norm(point - origin)))
