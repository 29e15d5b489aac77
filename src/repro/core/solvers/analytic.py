"""Closed-form radius solver for affine features (the paper's Equation 4).

For an affine feature ``f(x) = k . x + c`` the boundary set for bound ``b``
is the hyperplane ``k . x = b - c``, and the minimum distance from the
original point ``x0`` in the ``l_p`` norm is

    d_p = |k . x0 - (b - c)| / ||k||_q ,   1/p + 1/q = 1,

by norm duality (Hölder).  The paper uses ``p = 2`` throughout; ``p = 1``
and ``p = inf`` are provided for the norm-ablation experiment (E8).
"""

from __future__ import annotations

import numpy as np

from repro.core.boundary import BoundaryCrossing
from repro.core.mappings import LinearMapping
from repro.exceptions import BoundaryNotFoundError, SpecificationError

__all__ = ["solve_linear_radius", "dual_norm_order"]


def dual_norm_order(norm: float) -> float:
    """Return the Hölder-dual order ``q`` of ``p`` for p in {1, 2, inf}."""
    if norm == 2:
        return 2.0
    if norm == 1:
        return np.inf
    if norm in (np.inf, "inf"):
        return 1.0
    raise SpecificationError(f"unsupported norm order {norm!r}; use 1, 2 or inf")


def _witness(origin: np.ndarray, k: np.ndarray, gap: float, norm: float) -> np.ndarray:
    """A boundary point realising the minimum ``l_p`` distance.

    ``gap = (b - c) - k . x0`` is the signed constraint slack to close.
    """
    if norm == 2:
        return origin + gap * k / float(k @ k)
    if norm == 1:
        # Cheapest l1 move: spend the entire budget on the coordinate with
        # the largest |k_j| (steepest effect per unit of l1 distance).
        j = int(np.argmax(np.abs(k)))
        out = origin.copy()
        out[j] += gap / k[j]
        return out
    # l_inf: move every coordinate by the same magnitude, signed with k, so
    # each unit of l_inf distance buys ||k||_1 of constraint movement.
    step = gap / float(np.sum(np.abs(k)))
    return origin + step * np.sign(k)


def solve_linear_radius(
    mapping: LinearMapping,
    origin: np.ndarray,
    bound: float,
    *,
    norm: float = 2,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
    box_atol: float = 1e-9,
) -> BoundaryCrossing:
    """Exact minimum distance from ``origin`` to ``{x : f(x) = bound}``.

    Parameters
    ----------
    mapping:
        The affine feature.
    origin:
        The original perturbation values ``x0``.
    bound:
        The tolerance bound ``beta`` defining the boundary hyperplane.
    norm:
        Distance norm ``p`` in {1, 2, inf}.
    lower, upper:
        Optional box bounds restricting the reachable region.  If the
        unconstrained witness falls outside the box, this solver raises
        :class:`BoundaryNotFoundError` so the dispatcher can fall back to a
        constrained numeric solve — the closed form is only exact for the
        unconstrained problem.
    box_atol:
        Tolerance when checking the witness against the box.

    Returns
    -------
    BoundaryCrossing
        The witness point, the bound hit and the distance (the radius for
        this single bound).

    Raises
    ------
    BoundaryNotFoundError
        If ``k = 0`` (the feature never moves, so the boundary is empty or
        everything) or the witness is outside the box bounds.
    """
    if not isinstance(mapping, LinearMapping):
        raise SpecificationError("solve_linear_radius requires a LinearMapping")
    origin = np.asarray(origin, dtype=np.float64)
    k = mapping.coefficients
    if origin.shape != k.shape:
        raise SpecificationError(
            f"origin has shape {origin.shape}, expected {k.shape}")
    knorm = float(np.linalg.norm(k, ord=dual_norm_order(norm)))
    if knorm == 0.0:
        raise BoundaryNotFoundError(
            "feature has zero gradient; its boundary set is empty (the "
            "feature value never changes), robustness radius is infinite")
    target = float(bound) - mapping.constant
    gap = target - float(k @ origin)
    distance = abs(gap) / knorm
    point = _witness(origin, k, gap, norm)
    if lower is not None and np.any(point < np.asarray(lower) - box_atol):
        raise BoundaryNotFoundError(
            "unconstrained witness violates the lower box bound; use the "
            "numeric solver for the box-constrained projection")
    if upper is not None and np.any(point > np.asarray(upper) + box_atol):
        raise BoundaryNotFoundError(
            "unconstrained witness violates the upper box bound; use the "
            "numeric solver for the box-constrained projection")
    return BoundaryCrossing(point=point, bound=float(bound), distance=distance)
