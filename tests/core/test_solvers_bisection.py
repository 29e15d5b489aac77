"""Tests for the directional root-bracketing solver."""

import numpy as np
import pytest

from repro.core.mappings import CallableMapping, LinearMapping, QuadraticMapping
from repro.core.solvers.bench import directional_crossing
from repro.core.solvers.bisection import solve_bisection_radius
from repro.exceptions import BoundaryNotFoundError, SpecificationError


class TestDirectionalCrossing:
    def test_linear_exact(self):
        m = LinearMapping([1.0, 0.0])
        t = directional_crossing(m, np.zeros(2), np.array([1.0, 0.0]), 5.0)
        assert t == pytest.approx(5.0, abs=1e-9)

    def test_no_crossing_returns_none(self):
        m = LinearMapping([1.0, 0.0])
        # moving orthogonally never changes f
        t = directional_crossing(m, np.zeros(2), np.array([0.0, 1.0]), 5.0,
                                 t_max=100.0)
        assert t is None

    def test_decreasing_direction_crosses_lower_level(self):
        m = LinearMapping([1.0])
        t = directional_crossing(m, np.array([10.0]), np.array([-1.0]), 4.0)
        assert t == pytest.approx(6.0, abs=1e-9)

    def test_origin_on_boundary_returns_zero(self):
        m = LinearMapping([1.0])
        t = directional_crossing(m, np.array([5.0]), np.array([1.0]), 5.0)
        assert t == 0.0

    def test_quadratic_crossing(self):
        m = QuadraticMapping(np.eye(2))  # f = x^2 + y^2
        d = np.array([1.0, 0.0])
        t = directional_crossing(m, np.zeros(2), d, 9.0)
        assert t == pytest.approx(3.0, abs=1e-9)

    def test_box_limits_search(self):
        m = LinearMapping([1.0])
        t = directional_crossing(m, np.zeros(1), np.array([1.0]), 5.0,
                                 upper=np.array([2.0]))
        assert t is None  # crossing at 5 is beyond the box exit at 2

    def test_box_allows_crossing_before_exit(self):
        m = LinearMapping([1.0])
        t = directional_crossing(m, np.zeros(1), np.array([1.0]), 1.5,
                                 upper=np.array([2.0]))
        assert t == pytest.approx(1.5, abs=1e-9)

    def test_lower_box(self):
        m = LinearMapping([1.0])
        t = directional_crossing(m, np.zeros(1), np.array([-1.0]), -5.0,
                                 lower=np.array([-2.0]))
        assert t is None

    def test_nonmonotone_finds_first_crossing(self):
        # f(t) = sin-like shape via callable: f = (x-2)^2, origin at x=0
        # along +x; f(0)=4, bound 1 crossed first at x=1.
        m = CallableMapping(lambda x: float((x[0] - 2.0) ** 2), 1)
        t = directional_crossing(m, np.zeros(1), np.array([1.0]), 1.0)
        assert t == pytest.approx(1.0, abs=1e-6)


class TestSolveBisectionRadius:
    def test_linear_upper_bound_close_to_exact(self):
        m = LinearMapping([1.0, 1.0])
        c = solve_bisection_radius(m, np.zeros(2), 2.0,
                                   n_random_directions=512, seed=0)
        exact = np.sqrt(2)
        assert exact <= c.distance <= exact * 1.05

    def test_axes_give_exact_when_axis_optimal(self):
        m = LinearMapping([1.0, 0.0])
        c = solve_bisection_radius(m, np.zeros(2), 3.0,
                                   n_random_directions=0, seed=0)
        assert c.distance == pytest.approx(3.0, abs=1e-9)

    def test_sphere_boundary_exact_every_direction(self):
        m = QuadraticMapping(np.eye(3))
        c = solve_bisection_radius(m, np.zeros(3), 4.0,
                                   n_random_directions=16, seed=1)
        assert c.distance == pytest.approx(2.0, abs=1e-9)

    def test_no_crossing_raises(self):
        m = LinearMapping([1.0, 0.0])
        with pytest.raises(BoundaryNotFoundError):
            solve_bisection_radius(m, np.zeros(2), -5.0, t_max=10.0,
                                   lower=np.zeros(2), seed=0)

    def test_witness_is_on_boundary(self):
        m = QuadraticMapping(np.eye(2), [0.5, -0.2])
        c = solve_bisection_radius(m, np.zeros(2), 2.0, seed=2)
        assert m.value(c.point) == pytest.approx(2.0, abs=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(SpecificationError):
            solve_bisection_radius(LinearMapping([1.0]), np.zeros(2), 1.0)

    def test_l1_norm_distances(self):
        # f = x + y = 2: l1 radius is 2 (axis move), achieved on an axis.
        m = LinearMapping([1.0, 1.0])
        c = solve_bisection_radius(m, np.zeros(2), 2.0, norm=1,
                                   n_random_directions=256, seed=3)
        assert c.distance == pytest.approx(2.0, rel=0.05)

    def test_linf_norm_distances(self):
        # f = x + y = 2: linf radius is 1 (diagonal move).
        m = LinearMapping([1.0, 1.0])
        c = solve_bisection_radius(m, np.zeros(2), 2.0, norm=np.inf,
                                   n_random_directions=256, seed=3)
        assert c.distance == pytest.approx(1.0, rel=0.05)
