"""Boundary-set utilities shared by the radius solvers.

The boundary of the robust region for feature ``phi_i`` is the set
``{x : f(x) = beta_min or f(x) = beta_max}`` (FePIA step 4).  This module
provides structural analysis of mappings — in particular recognising when a
mapping (possibly wrapped in restriction/reweighting adapters) is affine, so
the closed-form hyperplane solver (the paper's Equation 4) applies, or a
positive-definite quadratic, so the exact ellipsoid projection does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.mappings import (
    FeatureMapping,
    LinearMapping,
    QuadraticMapping,
    RestrictedMapping,
    ReweightedMapping,
    SumMapping,
)

__all__ = ["as_linear", "as_ellipsoid", "as_diagonal_quadratic",
           "EllipsoidFrame", "FRAME_RTOL", "LEVEL_RTOL", "BoundaryCrossing"]


def as_linear(mapping: FeatureMapping) -> LinearMapping | None:
    """Extract an equivalent :class:`LinearMapping`, or ``None``.

    Recognises:

    * a :class:`LinearMapping` itself;
    * a :class:`ReweightedMapping` over a linear base — still affine with
      coefficients ``k / alpha``;
    * a :class:`RestrictedMapping` over a linear base — affine in the free
      block with the frozen coordinates folded into the constant;
    * a :class:`SumMapping` whose components are all (recursively) linear.

    The radius dispatcher uses this to route any structurally-affine feature
    to the exact hyperplane solver instead of the iterative one.
    """
    if isinstance(mapping, LinearMapping):
        return mapping
    if isinstance(mapping, ReweightedMapping):
        inner = as_linear(mapping.base)
        if inner is None:
            return None
        return LinearMapping(inner.coefficients / mapping.alphas, inner.constant)
    if isinstance(mapping, RestrictedMapping):
        inner = as_linear(mapping.base)
        if inner is None:
            return None
        k = inner.coefficients
        frozen = np.ones(mapping.base.n_inputs, dtype=bool)
        frozen[mapping.free_indices] = False
        const = inner.constant + float(
            k[frozen] @ mapping.reference[frozen])
        return LinearMapping(k[mapping.free_indices], const)
    if isinstance(mapping, SumMapping):
        parts = [as_linear(c) for c in mapping.components]
        if any(p is None for p in parts):
            return None
        coeffs = np.sum([p.coefficients for p in parts], axis=0)
        const = float(sum(p.constant for p in parts))
        return LinearMapping(coeffs, const)
    return None


def _as_quadratic(mapping: FeatureMapping) -> QuadraticMapping | None:
    """The mapping as one :class:`QuadraticMapping`, or ``None``.

    A :class:`ReweightedMapping` ``g(P) = f(P / alpha)`` over a quadratic
    is quadratic with ``Q / (alpha alpha')`` and ``k / alpha``.
    """
    if isinstance(mapping, ReweightedMapping):
        inner = _as_quadratic(mapping.base)
        if inner is None:
            return None
        a = mapping.alphas
        return QuadraticMapping(inner.quadratic / np.outer(a, a),
                                inner.linear / a, inner.constant)
    return mapping if isinstance(mapping, QuadraticMapping) else None


#: Relative error the centring and rotation of an :class:`EllipsoidFrame`
#: may add to a radius before :meth:`EllipsoidFrame.holds` refuses it.
FRAME_RTOL = 1e-9

#: Every ellipsoid witness lies on its level set within this relative
#: tolerance, ``|f(x*) - b| <= LEVEL_RTOL * (1 + |b|)``.
LEVEL_RTOL = 1e-9


@dataclass(frozen=True)
class EllipsoidFrame:
    """A positive-definite quadratic seen from its principal frame.

    With ``Q = V diag(d) V'`` and the centre ``m = -Q^{-1} k / 2``, the
    coordinates ``y = V'(x - m)`` turn ``f(x) = x'Qx + k.x + c`` into
    ``sum_i d_i y_i^2 + c'`` with ``c' = c + k.m / 2``.  Euclidean
    distance is the same in both frames, so projecting onto a level set
    of ``f`` is projecting onto an axis-aligned ellipsoid.

    Attributes
    ----------
    source:
        ``f`` itself as one :class:`QuadraticMapping` in the problem's
        coordinates.
    diagonal:
        The frame's form ``sum_i d_i y_i^2 + c'`` (``source`` itself for
        an identity frame).
    rotation, centre:
        ``V`` and ``m``; both ``None`` when ``f`` is already diagonal with
        no linear term, and the frame is the identity.
    """

    source: QuadraticMapping
    diagonal: QuadraticMapping
    rotation: np.ndarray | None = None
    centre: np.ndarray | None = None

    def holds(self, origin: np.ndarray, levels) -> bool:
        """Whether the frame's arithmetic keeps the projection of
        ``origin`` onto each level set ``f = b`` (``b`` in ``levels``)
        exact, and its witness on the level.

        An identity frame computes nothing new and always holds.  Else
        ``x0 - m`` and ``V y* + m`` are rounded at about ``err = n eps
        (|m| + |x0 - m|)``, and the frame holds only if, for each level:

        * ``err`` stays within :data:`FRAME_RTOL` of a lower bound on the
          distance: from ``|f(x) - f(x0)| <= g |x - x0| + d_max |x -
          x0|^2`` (``g = |grad f(x0)|``), no point of ``f = b`` is closer
          than the root ``rho`` of ``d_max rho^2 + g rho = |b - f(x0)|``;
        * ``err`` moves ``f`` at the witness by at most
          :data:`LEVEL_RTOL` ``(1 + |b|)``, the miss
          :func:`~repro.core.solvers.ellipsoid.solve_ellipsoid_frame`
          refuses beyond.  The witness's gradient is at most ``g + 2
          d_max R``, with ``R`` an upper bound on the distance: that of
          the level's point on the ray from the centre through ``x0``.

        A centre far beyond the problem's own scale (a nearly flat axis
        under a linear term) fails this and the problem stays numeric.
        """
        if self.rotation is None:
            return True
        origin = np.asarray(origin, dtype=np.float64)
        f0 = self.source.value(origin)
        g = float(np.linalg.norm(self.source.gradient(origin)))
        d_max = float(self.diagonal.quadratic[-1, -1])
        reach = float(np.linalg.norm(origin - self.centre))
        err = origin.size * np.finfo(np.float64).eps * float(
            np.linalg.norm(self.centre) + reach)
        # f along the ray m + s (x0 - m) is c' + s^2 (f(x0) - c').
        lowest = self.diagonal.constant
        for b in levels:
            gap = abs(float(b) - f0)
            rho = 2.0 * gap / (g + math.sqrt(g * g + 4.0 * d_max * gap)) \
                if gap > 0.0 else 0.0
            if err > FRAME_RTOL * rho:
                return False
            level = float(b) - lowest
            if level <= 0.0:
                continue  # an empty level set: no witness to check
            reach_b = math.sqrt(level / (f0 - lowest)) * reach \
                if f0 > lowest else math.sqrt(level / d_max)
            if err * (g + 2.0 * d_max * abs(reach_b - reach)) \
                    > LEVEL_RTOL * (1.0 + abs(float(b))):
                return False
        return True


def as_ellipsoid(mapping: FeatureMapping) -> EllipsoidFrame | None:
    """The principal frame of a positive-definite quadratic, or ``None``.

    Recognises ``x'Qx + k.x + c`` with ``Q`` positive definite, directly
    or through :class:`ReweightedMapping`; the dispatcher routes such
    features to the exact ellipsoid-projection solver when the frame
    :meth:`~EllipsoidFrame.holds` for the problem.  A diagonal ``Q`` with
    every ``d_i > 0`` and no linear term is its own frame.  Any other
    ``Q`` is decomposed by ``eigh`` and must pass a conditioning guard,
    ``d_min > n * eps * d_max``: semidefinite, indefinite and numerically
    singular forms give ``None``.
    """
    quad = _as_quadratic(mapping)
    if quad is None:
        return None
    Q, k = quad.quadratic, quad.linear
    d = np.diag(Q)
    if not np.any(k) and not np.any(Q - np.diag(d)):
        return EllipsoidFrame(quad, quad) if np.all(d > 0.0) else None
    d, V = np.linalg.eigh(Q)
    if not d[0] > d.size * np.finfo(np.float64).eps * d[-1]:
        return None
    centre = -0.5 * (V @ ((V.T @ k) / d))
    return EllipsoidFrame(
        quad,
        QuadraticMapping(np.diag(d), None,
                         quad.constant + 0.5 * float(k @ centre)),
        V, centre)


def as_diagonal_quadratic(mapping: FeatureMapping) -> QuadraticMapping | None:
    """Extract an equivalent diagonal positive quadratic, or ``None``.

    The :func:`as_ellipsoid` frames that need no rotation: ``sum_i d_i
    x_i^2 + c`` with every ``d_i > 0`` and a zero linear term, directly
    or through a :class:`ReweightedMapping` (which rescales the diagonal
    by ``1/alpha_i^2``).
    """
    frame = as_ellipsoid(mapping)
    if frame is None or frame.rotation is not None:
        return None
    return frame.diagonal


@dataclass(frozen=True)
class BoundaryCrossing:
    """A point where a feature crosses one of its tolerance bounds.

    Attributes
    ----------
    point:
        The boundary point in the perturbation space being searched.
    bound:
        The bound value (``beta_min`` or ``beta_max``) attained there.
    distance:
        Distance of ``point`` from the search origin in the problem's norm.
    """

    point: np.ndarray
    bound: float
    distance: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "point",
                           np.asarray(self.point, dtype=np.float64))
        object.__setattr__(self, "bound", float(self.bound))
        object.__setattr__(self, "distance", float(self.distance))
        if self.distance < 0 or math.isnan(self.distance):
            raise ValueError(f"distance must be >= 0, got {self.distance}")
