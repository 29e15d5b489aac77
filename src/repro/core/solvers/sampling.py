"""Monte-Carlo violation search.

Samples perturbation points and records those violating the tolerance
interval; the minimum distance among violating samples is a statistical
*upper bound* on the robustness radius (any violation closer than the
claimed radius disproves it).  The validation harness
(:mod:`repro.montecarlo`) uses this to cross-examine the analytic and
numeric solvers.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from repro.core.features import ToleranceBounds
from repro.core.mappings import FeatureMapping
from repro.exceptions import SpecificationError
from repro.utils.linalg import sample_on_sphere, vector_norm_many
from repro.utils.rng import default_rng

__all__ = ["SamplingReport", "sampling_upper_bound"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SamplingReport:
    """Outcome of a Monte-Carlo violation search.

    Attributes
    ----------
    n_samples:
        Total points evaluated.
    n_violations:
        Points whose feature value left the tolerance interval.
    min_violation_distance:
        Distance of the closest violating point (``inf`` when none found);
        an upper bound on the robustness radius.
    closest_violation:
        The closest violating point itself, or ``None``.
    """

    n_samples: int
    n_violations: int
    min_violation_distance: float
    closest_violation: np.ndarray | None


def sampling_upper_bound(
    mapping: FeatureMapping,
    origin: np.ndarray,
    bounds: ToleranceBounds,
    *,
    max_distance: float,
    n_samples: int = 20000,
    norm: float = 2,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
    seed=None,
) -> SamplingReport:
    """Search for tolerance violations within ``max_distance`` of ``origin``.

    Points are drawn with distances stratified uniformly in
    ``(0, max_distance]`` (rather than uniformly in volume) so near-origin
    violations — the ones that matter for refuting a radius claim — are not
    starved of samples in high dimension.

    Parameters
    ----------
    mapping, origin, bounds:
        Feature, original point, and tolerance interval.
    max_distance:
        Search radius.
    n_samples:
        Number of points.
    norm:
        Norm in which distances are stratified and reported.
    lower, upper:
        Physical box; sampled points are clipped into it (clipping keeps the
        sample inside the reachable set while only shortening its distance).
    seed:
        RNG seed.
    """
    if max_distance <= 0:
        raise SpecificationError(f"max_distance must be > 0, got {max_distance}")
    origin = np.asarray(origin, dtype=np.float64)
    rng = default_rng(seed)
    n = origin.size
    dirs = sample_on_sphere(rng, n_samples, n)
    p = np.inf if norm in (np.inf, "inf") else norm
    dirs = dirs / np.linalg.norm(dirs, ord=p, axis=1, keepdims=True)
    dists = max_distance * rng.random(n_samples)
    points = origin + dirs * dists[:, None]
    if lower is not None:
        points = np.maximum(points, np.asarray(lower, dtype=np.float64))
    if upper is not None:
        points = np.minimum(points, np.asarray(upper, dtype=np.float64))
    values = mapping.value_rows(points)
    violating = (values > bounds.beta_max) | (values < bounds.beta_min)
    n_viol = int(np.count_nonzero(violating))
    logger.debug("sampled %d points within distance %g: %d violation(s)",
                 n_samples, max_distance, n_viol)
    if n_viol == 0:
        return SamplingReport(n_samples=n_samples, n_violations=0,
                              min_violation_distance=float("inf"),
                              closest_violation=None)
    viol_points = points[violating]
    # Batched row-wise norms, bit-identical to the former per-point
    # `vector_norm(pt - origin, p)` scan (see vector_norm_many).
    viol_dists = vector_norm_many(viol_points - origin, p)
    i = int(np.argmin(viol_dists))
    return SamplingReport(
        n_samples=n_samples,
        n_violations=n_viol,
        min_violation_distance=float(viol_dists[i]),
        closest_violation=viol_points[i].copy(),
    )
