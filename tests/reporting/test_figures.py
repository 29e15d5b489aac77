"""Tests for the Figure-1 boundary reproduction."""

import numpy as np
import pytest

from repro.core.features import ToleranceBounds
from repro.core.mappings import LinearMapping, ProductMapping, QuadraticMapping
from repro.core.solvers.bench import directional_crossing
from repro.exceptions import SpecificationError
from repro.reporting.figures import boundary_figure


def _scalar_fan(mapping, origin, bound, n, sweep, t_max=1e6):
    """The figure's ray fan walked one ray at a time by the scalar
    reference crossing."""
    scale = np.where(np.abs(origin) > 0, np.abs(origin), 1.0)
    pts = []
    for theta in np.deg2rad(np.linspace(sweep[0], sweep[1], n)):
        d = np.array([np.cos(theta), np.sin(theta)]) * scale
        d = d / float(np.linalg.norm(d))
        t = directional_crossing(mapping, origin, d, bound, t_max=t_max)
        if t is not None:
            pts.append(origin + t * d)
    return np.asarray(pts)


class TestBoundaryFigure:
    def test_linear_boundary_points_on_line(self):
        m = LinearMapping([1.0, 1.0])
        fig = boundary_figure(m, np.array([0.5, 0.5]),
                              ToleranceBounds.upper(2.0), n_curve_points=32)
        sums = fig.boundary_points.sum(axis=1)
        np.testing.assert_allclose(sums, 2.0, atol=1e-6)

    def test_radius_matches_closed_form(self):
        m = LinearMapping([1.0, 1.0])
        fig = boundary_figure(m, np.array([0.0, 0.0]),
                              ToleranceBounds.upper(2.0))
        assert fig.radius == pytest.approx(np.sqrt(2))
        np.testing.assert_allclose(fig.witness, [1.0, 1.0], atol=1e-9)

    def test_curved_boundary(self):
        # bilinear f = x*y traced from (1,1); boundary x*y = 2
        Q = np.array([[0.0, 0.5], [0.5, 0.0]])
        m = QuadraticMapping(Q)
        fig = boundary_figure(m, np.array([1.0, 1.0]),
                              ToleranceBounds.upper(2.0), n_curve_points=64)
        prods = fig.boundary_points.prod(axis=1)
        np.testing.assert_allclose(prods, 2.0, atol=1e-6)
        # min distance from (1,1) to xy=2 is at (sqrt2, sqrt2)
        assert fig.radius == pytest.approx(
            np.linalg.norm(np.sqrt(2.0) - np.array([1.0])) * np.sqrt(2),
            rel=1e-4)

    def test_points_equal_scalar_crossings_on_a_quadratic(self):
        m = QuadraticMapping([[1.0, 0.3], [0.3, 2.0]], [0.2, -0.1], 0.5)
        origin = np.array([0.4, 0.7])
        fig = boundary_figure(m, origin, ToleranceBounds.upper(4.0),
                              n_curve_points=48, sweep_degrees=(-30.0, 200.0))
        want = _scalar_fan(m, origin, 4.0, 48, (-30.0, 200.0))
        assert len(want) == 48
        np.testing.assert_array_equal(fig.boundary_points, want)

    def test_points_equal_scalar_crossings_leaving_the_domain(self):
        # A monomial is defined on the positive quadrant only: rays of a
        # full fan that leave it before crossing drop out, ray by ray,
        # exactly as the scalar walk drops them.
        m = ProductMapping([1.0, -1.0], 2.0)
        origin = np.array([2.0, 1.5])
        bound = 2.0 * m.value(origin)
        fig = boundary_figure(m, origin, ToleranceBounds.upper(bound),
                              n_curve_points=72, sweep_degrees=(0.0, 360.0))
        want = _scalar_fan(m, origin, bound, 72, (0.0, 360.0))
        assert 0 < len(want) < 72
        np.testing.assert_array_equal(fig.boundary_points, want)

    def test_render_contains_markers(self):
        m = LinearMapping([1.0, 1.0])
        fig = boundary_figure(m, np.array([0.5, 0.5]),
                              ToleranceBounds.upper(2.0))
        out = fig.render()
        assert "O" in out and "*" in out and "." in out
        assert "radius" in out

    def test_requires_2d(self):
        with pytest.raises(SpecificationError, match="2-D"):
            boundary_figure(LinearMapping([1.0]), np.array([0.0]),
                            ToleranceBounds.upper(1.0))

    def test_requires_finite_upper(self):
        with pytest.raises(SpecificationError, match="beta_max"):
            boundary_figure(LinearMapping([1.0, 1.0]), np.zeros(2),
                            ToleranceBounds.lower(0.0))

    def test_no_crossing_in_fan_raises(self):
        # f decreases in the positive quadrant: fan never reaches the bound
        m = LinearMapping([-1.0, -1.0])
        with pytest.raises(SpecificationError, match="no boundary"):
            boundary_figure(m, np.array([1.0, 1.0]),
                            ToleranceBounds.upper(0.5),
                            sweep_degrees=(0.0, 90.0))

    def test_full_sweep_finds_other_side(self):
        m = LinearMapping([-1.0, -1.0])
        fig = boundary_figure(m, np.array([1.0, 1.0]),
                              ToleranceBounds.upper(-0.5),
                              sweep_degrees=(0.0, 360.0))
        assert fig.boundary_points.shape[0] > 0
