"""Empirical violation-probability curves.

For a feature and its tolerance interval, estimate the probability that a
uniformly random perturbation *direction* at distance ``d`` from the
original point violates the interval, as a function of ``d``.  The curve
is the empirical counterpart of the robustness radius: it is identically
zero for ``d < r`` and becomes positive beyond ``r`` (immediately so when
the boundary is smooth; the rise rate measures how much of the sphere at
distance ``d`` is unsafe — the directional information the scalar radius
deliberately collapses).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.features import ToleranceBounds
from repro.core.mappings import FeatureMapping
from repro.exceptions import SpecificationError
from repro.utils.linalg import sample_on_sphere
from repro.utils.rng import default_rng

__all__ = ["ViolationCurve", "violation_probability_curve"]


@dataclass(frozen=True)
class ViolationCurve:
    """Violation probability as a function of perturbation distance.

    Attributes
    ----------
    distances:
        The probed distances (monotone increasing).
    probabilities:
        Per-distance fraction of sampled directions whose endpoint at that
        distance violates the tolerance interval.
    n_directions:
        Sphere samples per distance.
    """

    distances: np.ndarray
    probabilities: np.ndarray
    n_directions: int

    def first_violation_distance(self) -> float:
        """Smallest probed distance with positive violation probability.

        Returns ``inf`` when no probed distance produced any violation.
        An empirical *upper* bound on the robustness radius (up to the
        probing grid's resolution).
        """
        hits = np.flatnonzero(self.probabilities > 0)
        if hits.size == 0:
            return float("inf")
        return float(self.distances[hits[0]])


def violation_probability_curve(
    mapping: FeatureMapping,
    origin: np.ndarray,
    bounds: ToleranceBounds,
    distances,
    *,
    n_directions: int = 2000,
    norm: float = 2,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
    seed=None,
) -> ViolationCurve:
    """Estimate the violation probability at each probed distance.

    The same direction sample is reused across distances (common random
    numbers), so the curve is monotone-noise-free along each direction and
    the first-violation distance estimate is sharp.

    Parameters
    ----------
    mapping, origin, bounds:
        The feature, the original point, and its tolerance interval.
    distances:
        Iterable of distances to probe (must be positive).
    n_directions:
        Number of uniform directions.
    norm:
        Norm in which the distance is measured (directions are normalised
        to unit length in it).
    lower, upper:
        Optional physical box; endpoints are clipped into it.
    seed:
        RNG seed.
    """
    origin = np.asarray(origin, dtype=np.float64)
    ds = np.asarray(list(distances), dtype=np.float64)
    if ds.size == 0 or np.any(ds <= 0):
        raise SpecificationError("distances must be a non-empty positive list")
    ds = np.sort(ds)
    rng = default_rng(seed)
    dirs = sample_on_sphere(rng, n_directions, origin.size)
    p = np.inf if norm in (np.inf, "inf") else norm
    dirs = dirs / np.linalg.norm(dirs, ord=p, axis=1, keepdims=True)

    probs = np.empty(ds.size)
    for i, d in enumerate(ds):
        pts = origin + d * dirs
        if lower is not None:
            pts = np.maximum(pts, np.asarray(lower, dtype=np.float64))
        if upper is not None:
            pts = np.minimum(pts, np.asarray(upper, dtype=np.float64))
        vals = mapping.value_rows(pts)
        viol = (vals > bounds.beta_max) | (vals < bounds.beta_min)
        probs[i] = viol.mean()
    return ViolationCurve(distances=ds, probabilities=probs,
                          n_directions=n_directions)
