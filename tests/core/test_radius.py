"""Tests for the radius dispatcher (compute_radius, Equations 1-2)."""

import math

import numpy as np
import pytest

from repro.core.features import ToleranceBounds
from repro.core.mappings import (
    CallableMapping,
    LinearMapping,
    QuadraticMapping,
    ReweightedMapping,
)
from repro.core.radius import RadiusProblem, compute_radii, compute_radius
from repro.exceptions import InfeasibleAllocationError, SpecificationError


def problem(mapping, origin, bounds, **kw):
    return RadiusProblem(mapping=mapping, origin=np.asarray(origin, float),
                         bounds=bounds, **kw)


class TestRadiusProblem:
    def test_origin_length_checked(self):
        with pytest.raises(SpecificationError, match="length"):
            problem(LinearMapping([1.0, 1.0]), [0.0], ToleranceBounds.upper(1.0))

    def test_bad_norm(self):
        with pytest.raises(SpecificationError, match="norm"):
            problem(LinearMapping([1.0]), [0.0], ToleranceBounds.upper(1.0),
                    norm=3)

    def test_bound_length_checked(self):
        with pytest.raises(SpecificationError):
            problem(LinearMapping([1.0, 1.0]), [0.0, 0.0],
                    ToleranceBounds.upper(1.0), lower=[0.0])

    def test_original_value(self):
        p = problem(LinearMapping([2.0]), [3.0], ToleranceBounds.upper(10.0))
        assert p.original_value == 6.0


class TestDispatch:
    def test_linear_routed_to_analytic(self):
        p = problem(LinearMapping([1.0, 1.0]), [0.0, 0.0],
                    ToleranceBounds.upper(2.0))
        res = compute_radius(p)
        assert res.method == "analytic"
        assert res.radius == pytest.approx(np.sqrt(2))

    def test_reweighted_linear_still_analytic(self):
        m = ReweightedMapping(LinearMapping([1.0, 1.0]), [2.0, 2.0])
        p = problem(m, [0.0, 0.0], ToleranceBounds.upper(2.0))
        res = compute_radius(p)
        assert res.method == "analytic"

    def test_diagonal_quadratic_routed_to_ellipsoid(self):
        p = problem(QuadraticMapping(np.eye(2)), [0.0, 0.0],
                    ToleranceBounds.upper(4.0))
        res = compute_radius(p, seed=0)
        assert res.method == "ellipsoid"
        assert res.radius == pytest.approx(2.0, rel=1e-12)

    def test_general_quadratic_routed_to_numeric(self):
        Q = np.array([[1.0, 0.3], [0.3, -2.0]])  # indefinite: no ellipsoid
        p = problem(QuadraticMapping(Q), [0.0, 0.0],
                    ToleranceBounds.upper(4.0))
        res = compute_radius(p, seed=0)
        assert res.method == "numeric"

    def test_positive_definite_quadratic_routed_to_ellipsoid(self):
        # Off-diagonal and shifted: exact in its centred, rotated frame.
        m = QuadraticMapping([[1.0, 0.3], [0.3, 2.0]], [0.2, -0.1], 0.5)
        p = problem(m, [0.1, 0.2], ToleranceBounds.upper(4.0))
        res = compute_radius(p, seed=0)
        assert res.method == "ellipsoid"
        assert res.quality.name == "EXACT"
        assert m.value(res.boundary_point) == pytest.approx(4.0, abs=1e-9)
        numeric = compute_radius(p, method="numeric", seed=0)
        assert res.radius == pytest.approx(numeric.radius, rel=1e-6)

    def test_force_analytic_on_nonlinear_rejected(self):
        p = problem(QuadraticMapping(np.eye(2)), [0.0, 0.0],
                    ToleranceBounds.upper(4.0))
        with pytest.raises(SpecificationError, match="affine"):
            compute_radius(p, method="analytic")

    @pytest.mark.parametrize("method", ["anaytic", "Auto", "sampling", None])
    def test_unknown_method_rejected(self, method):
        # An unknown method used to fall through to the numeric tier and
        # return a CONVERGED radius (1.3416 here) instead of an error.
        p = problem(LinearMapping([1.0, 2.0]), np.zeros(2),
                    ToleranceBounds.upper(3.0))
        with pytest.raises(SpecificationError, match="unknown method"):
            compute_radius(p, method=method)
        with pytest.raises(SpecificationError, match="'bisection'"):
            compute_radii([p, p], method=method, cache=False)

    def test_force_bisection(self):
        p = problem(LinearMapping([1.0, 0.0]), [0.0, 0.0],
                    ToleranceBounds.upper(3.0))
        res = compute_radius(p, method="bisection", seed=0)
        assert res.method == "bisection"
        assert res.radius == pytest.approx(3.0, abs=1e-8)

    def test_force_numeric_on_linear(self):
        p = problem(LinearMapping([1.0, 1.0]), [0.0, 0.0],
                    ToleranceBounds.upper(2.0))
        res = compute_radius(p, method="numeric", seed=0)
        assert res.method == "numeric"
        assert res.radius == pytest.approx(np.sqrt(2), rel=1e-6)

    def test_nondefault_norm_nonlinear_uses_bisection(self):
        p = problem(QuadraticMapping(np.eye(2)), [0.0, 0.0],
                    ToleranceBounds.upper(4.0), norm=1)
        res = compute_radius(p, seed=0)
        assert res.method == "bisection"
        assert res.radius == pytest.approx(2.0, rel=0.05)


class TestSemantics:
    def test_infeasible_origin_raises(self):
        p = problem(LinearMapping([1.0]), [5.0], ToleranceBounds.upper(2.0))
        with pytest.raises(InfeasibleAllocationError):
            compute_radius(p)

    def test_origin_on_boundary_gives_zero(self):
        p = problem(LinearMapping([1.0]), [2.0], ToleranceBounds.upper(2.0))
        res = compute_radius(p)
        assert res.radius == 0.0
        assert res.method == "degenerate"
        np.testing.assert_array_equal(res.boundary_point, [2.0])

    def test_two_sided_takes_nearer_bound(self):
        # Interval [0, 10], origin f = 8: upper bound is closer.
        p = problem(LinearMapping([1.0]), [8.0], ToleranceBounds(0.0, 10.0))
        res = compute_radius(p)
        assert res.radius == pytest.approx(2.0)
        assert res.bound_hit == 10.0
        assert res.per_bound[0.0] == pytest.approx(8.0)
        assert res.per_bound[10.0] == pytest.approx(2.0)

    def test_unreachable_bound_gives_infinity(self):
        # f depends on nothing that can reach the bound: zero coefficients.
        p = problem(LinearMapping([0.0, 0.0], constant=1.0), [0.0, 0.0],
                    ToleranceBounds.upper(2.0))
        res = compute_radius(p)
        assert math.isinf(res.radius)
        assert res.boundary_point is None
        assert not res.is_finite

    def test_lower_bound_only(self):
        p = problem(LinearMapping([1.0]), [3.0], ToleranceBounds.lower(1.0))
        res = compute_radius(p)
        assert res.radius == pytest.approx(2.0)
        assert res.bound_hit == 1.0

    def test_box_constrained_linear_uses_exact_box_solver(self):
        # Unconstrained witness (1, 1) violates the box x <= 0.5, so the
        # dispatcher routes to the exact clamped-multiplier projection.
        p = problem(LinearMapping([1.0, 1.0]), [0.0, 0.0],
                    ToleranceBounds.upper(2.0),
                    upper=np.array([0.5, np.inf]))
        res = compute_radius(p, seed=0)
        assert res.method == "analytic-box"
        assert res.radius == pytest.approx(np.sqrt(0.25 + 2.25), rel=1e-12)

    def test_result_records_original_value(self):
        p = problem(LinearMapping([1.0]), [1.5], ToleranceBounds.upper(5.0))
        res = compute_radius(p)
        assert res.original_value == 1.5

    def test_callable_without_gradient(self):
        m = CallableMapping(lambda x: float(abs(x[0])) ** 1.5, 1)
        p = problem(m, [1.0], ToleranceBounds.upper(8.0))
        res = compute_radius(p, seed=0)
        assert res.radius == pytest.approx(3.0, rel=1e-3)  # 4^1.5 = 8
