"""Reproduction of the paper's Figure 1.

Figure 1 shows, for a single feature ``phi_i`` and a two-element
perturbation vector, the boundary curve ``{pi : f(pi) = beta_max}``, the
original operating point ``pi_orig``, several candidate directions of
increase, and the minimum-distance boundary point ``pi*`` whose distance is
the robustness radius.  (The ``beta_min`` boundary is the coordinate axes
in the paper's example.)

:func:`boundary_figure` regenerates all of this as data — the curve points,
the witness, the radius — and :class:`BoundaryFigure` renders it as an
ASCII raster so the shape can be inspected without a plotting stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.features import ToleranceBounds
from repro.core.mappings import FeatureMapping
from repro.core.radius import RadiusProblem, RadiusResult, compute_radius
from repro.core.solvers.bisection import _T_MAX, _ray_crossings
from repro.exceptions import SpecificationError
from repro.utils.ascii_plot import AsciiCanvas

__all__ = ["BoundaryFigure", "boundary_figure"]


@dataclass(frozen=True)
class BoundaryFigure:
    """The data behind a Figure-1-style boundary plot.

    Attributes
    ----------
    boundary_points:
        ``(m, 2)`` points on the curve ``f(pi) = bound``.
    origin:
        The original operating point ``pi_orig``.
    witness:
        The minimum-distance boundary point ``pi*`` (the robustness-radius
        witness).
    radius:
        The robustness radius.
    bound:
        The bound value the curve traces.
    """

    boundary_points: np.ndarray
    origin: np.ndarray
    witness: np.ndarray | None
    radius: float
    bound: float

    def render(self, *, width: int = 72, height: int = 24,
               window_radii: float = 4.0) -> str:
        """ASCII rendering: curve ``.``, origin ``O``, witness ``*``.

        Parameters
        ----------
        width, height:
            Raster size.
        window_radii:
            Only boundary points within this many robustness radii of the
            original point are drawn, so distant crossings cannot zoom the
            interesting region out of view.
        """
        pts = self.boundary_points
        if self.witness is not None and np.isfinite(self.radius) \
                and self.radius > 0:
            dists = np.linalg.norm(pts - self.origin, axis=1)
            keep = dists <= window_radii * self.radius
            if np.any(keep):
                pts = pts[keep]
        xs = np.concatenate([pts[:, 0], [self.origin[0]]])
        ys = np.concatenate([pts[:, 1], [self.origin[1]]])
        if self.witness is not None:
            xs = np.concatenate([xs, [self.witness[0]]])
            ys = np.concatenate([ys, [self.witness[1]]])
        pad_x = 0.08 * (xs.max() - xs.min() + 1e-12)
        pad_y = 0.08 * (ys.max() - ys.min() + 1e-12)
        canvas = AsciiCanvas(
            width, height,
            (float(xs.min() - pad_x), float(xs.max() + pad_x)),
            (float(ys.min() - pad_y), float(ys.max() + pad_y)))
        canvas.plot_points(np.asarray(pts)[:, 0], np.asarray(pts)[:, 1], ".")
        if self.witness is not None:
            canvas.plot_line(self.origin[0], self.origin[1],
                             self.witness[0], self.witness[1], "-")
            canvas.plot_points([self.witness[0]], [self.witness[1]], "*")
        canvas.plot_points([self.origin[0]], [self.origin[1]], "O")
        title = (f"boundary f(pi) = {self.bound:.4g}; "
                 f"radius = {self.radius:.4g} (O: orig, *: pi*)")
        return canvas.render(xlabel="pi_1", ylabel="pi_2", title=title)


def boundary_figure(
    mapping: FeatureMapping,
    origin,
    bounds: ToleranceBounds,
    *,
    n_curve_points: int = 256,
    sweep_degrees: tuple[float, float] = (0.0, 90.0),
    t_max: float = _T_MAX,
    seed=None,
) -> BoundaryFigure:
    """Trace the ``beta_max`` boundary curve around a 2-D original point.

    Boundary points are found by ray-casting from the original point over a
    fan of directions (so curved boundaries — e.g. the bilinear HiPer-D
    computation times — are traced faithfully, not just hyperplanes), all
    rays at once through the directional kernel, and the robustness radius
    and its witness come from :func:`~repro.core.radius.compute_radius`.

    Parameters
    ----------
    mapping:
        The 2-input feature.
    origin:
        The original point.
    bounds:
        Tolerance interval; the curve traces ``beta_max`` (the paper's
        Figure 1 convention).
    n_curve_points:
        Number of ray directions in the fan.
    sweep_degrees:
        Angular range of the fan (default: the positive quadrant, since
        perturbations in the paper's figure grow from the origin).
    t_max:
        Ray-casting range limit.
    seed:
        Seed for the radius solver.

    Notes
    -----
    Ray directions are scaled per axis by the magnitude of the original
    point, so a problem whose two coordinates live on very different
    scales (e.g. a unit execution time of milliseconds against a load of
    hundreds of objects) is traced uniformly in *relative* terms rather
    than collapsing onto one axis.
    """
    origin = np.asarray(origin, dtype=np.float64)
    if origin.size != 2 or mapping.n_inputs != 2:
        raise SpecificationError("boundary_figure requires a 2-D problem")
    if not np.isfinite(bounds.beta_max):
        raise SpecificationError("boundary_figure traces beta_max; it must "
                                 "be finite")
    angles = np.deg2rad(np.linspace(sweep_degrees[0], sweep_degrees[1],
                                    n_curve_points))
    # Per-axis direction scaling: trace uniformly in relative coordinates.
    axis_scale = np.where(np.abs(origin) > 0, np.abs(origin), 1.0)
    dirs = []
    for theta in angles:
        d = np.array([np.cos(theta), np.sin(theta)]) * axis_scale
        norm = float(np.linalg.norm(d))
        if norm > 0.0:
            dirs.append(d / norm)
    dirs = np.asarray(dirs).reshape(-1, 2)
    ts = _ray_crossings(mapping, origin, dirs, bounds.beta_max, t_max=t_max)
    pts = [origin + t * d for d, t in zip(dirs, ts) if not np.isnan(t)]
    if not pts:
        raise SpecificationError(
            "no boundary crossing found in the swept fan; the feature may "
            "never reach beta_max in these directions")
    problem = RadiusProblem(mapping=mapping, origin=origin, bounds=bounds)
    result: RadiusResult = compute_radius(problem, seed=seed)
    return BoundaryFigure(
        boundary_points=np.asarray(pts),
        origin=origin,
        witness=result.boundary_point,
        radius=result.radius,
        bound=float(bounds.beta_max),
    )
