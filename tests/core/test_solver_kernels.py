"""Property-style equivalence tests for the vectorised solver kernels.

The batched kernels (lock-step directional bisection, stencil finite
differences) promise *bit-identical* results to the scalar reference
paths they replace.  These tests sweep mapping types, norms, boxes, and
seeds and compare the two paths with exact equality — any last-ulp
divergence is a regression.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.features import ToleranceBounds
from repro.core.mappings import (
    CallableMapping,
    LinearMapping,
    MaxMapping,
    ProductMapping,
    QuadraticMapping,
    RestrictedMapping,
    ReweightedMapping,
    SumMapping,
)
from repro.core.solvers.bench import (
    _finite_diff_gradient_scalar,
    directional_crossing,
    scalar_bisection_radius,
)
from repro.core.solvers.bisection import _ray_crossings, solve_bisection_radius
from repro.core.solvers.numeric import _finite_diff_gradient
from repro.exceptions import BoundaryNotFoundError

N = 6


def _rng(seed=0):
    return np.random.default_rng(seed)


def _make_mapping(kind: str):
    """A named mapping plus a valid origin for it."""
    rng = _rng(42)
    if kind == "linear":
        return LinearMapping(rng.standard_normal(N), 0.3), np.zeros(N)
    if kind == "quadratic":
        a = rng.standard_normal((N, N))
        return QuadraticMapping(a @ a.T / N, rng.standard_normal(N)), np.zeros(N)
    if kind == "product":
        powers = np.concatenate([np.array([1.0, 0.5]), np.zeros(N - 2)])
        return ProductMapping(powers, 2.0), np.full(N, 1.5)
    if kind == "max":
        comps = [LinearMapping(rng.standard_normal(N), float(i)) for i in range(4)]
        return MaxMapping(comps), np.zeros(N)
    if kind == "sum":
        comps = [LinearMapping(rng.standard_normal(N)),
                 QuadraticMapping(np.eye(N))]
        return SumMapping(comps), np.zeros(N)
    if kind == "reweighted":
        base = LinearMapping(rng.standard_normal(N), 0.1)
        return ReweightedMapping(base, 1.0 + rng.random(N)), np.zeros(N)
    if kind == "restricted":
        base = QuadraticMapping(np.eye(N + 2))
        return (RestrictedMapping(base, [0, 1, 2, 3, 4, 5], np.zeros(N + 2)),
                np.zeros(N))
    if kind == "callable":
        return (CallableMapping(
            lambda x: float(np.sum(np.sin(x)) + 0.5 * (x @ x)), N), np.zeros(N))
    raise AssertionError(kind)


MAPPING_KINDS = ["linear", "quadratic", "product", "max", "sum",
                 "reweighted", "restricted", "callable"]


class TestBatchedBisectionIdentity:
    """``solve_bisection_radius`` == the scalar reference loop, bitwise."""

    @pytest.mark.parametrize("kind", MAPPING_KINDS)
    @pytest.mark.parametrize("norm", [1, 2, np.inf])
    def test_batched_equals_scalar(self, kind, norm):
        mapping, origin = _make_mapping(kind)
        bound = mapping.value(origin) + 4.0
        kw = dict(norm=norm, n_random_directions=48, seed=11)
        batched = solve_bisection_radius(mapping, origin, bound, **kw)
        scalar = scalar_bisection_radius(mapping, origin, bound, **kw)
        assert batched.distance == scalar.distance
        np.testing.assert_array_equal(batched.point, scalar.point)
        assert batched.bound == scalar.bound

    @pytest.mark.parametrize("kind", ["linear", "quadratic", "product", "max"])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_batched_equals_scalar_with_box(self, kind, seed):
        mapping, origin = _make_mapping(kind)
        bound = mapping.value(origin) + 3.0
        kw = dict(norm=2, n_random_directions=32, seed=seed,
                  lower=origin - 2.5, upper=origin + 2.5)
        batched = solve_bisection_radius(mapping, origin, bound, **kw)
        scalar = scalar_bisection_radius(mapping, origin, bound, **kw)
        assert batched.distance == scalar.distance
        np.testing.assert_array_equal(batched.point, scalar.point)

    def test_not_found_raised_identically(self):
        # A bound the mapping never reaches inside a tight box: both paths
        # must raise BoundaryNotFoundError.
        mapping = LinearMapping([1.0, 1.0])
        origin = np.zeros(2)
        for solve in (solve_bisection_radius, scalar_bisection_radius):
            with pytest.raises(BoundaryNotFoundError):
                solve(mapping, origin, 100.0,
                      n_random_directions=16, seed=0,
                      lower=origin - 1.0, upper=origin + 1.0)


class TestDirectionalCrossingsKernel:
    """The one-problem kernel agrees per-direction with the scalar
    reference."""

    @pytest.mark.parametrize("kind", MAPPING_KINDS)
    def test_per_direction_agreement(self, kind):
        mapping, origin = _make_mapping(kind)
        bound = mapping.value(origin) + 4.0
        rng = _rng(5)
        dirs = rng.standard_normal((24, N))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        ts = _ray_crossings(mapping, origin, dirs, bound)
        assert ts.shape == (24,)
        for d, t in zip(dirs, ts):
            s = directional_crossing(mapping, origin, d, bound)
            if s is None:
                assert np.isnan(t)
            else:
                assert t == s

    def test_out_of_domain_directions_yield_nan(self):
        # ProductMapping leaves its domain along -e_i; the scalar path drops
        # those directions, the batched path must report NaN for them.
        mapping, origin = _make_mapping("product")
        bound = mapping.value(origin) + 5.0
        dirs = np.vstack([np.eye(N), -np.eye(N)])
        ts = _ray_crossings(mapping, origin, dirs, bound)
        for d, t in zip(dirs, ts):
            s = directional_crossing(mapping, origin, d, bound)
            assert (s is None and np.isnan(t)) or t == s

    def test_box_capping_matches_scalar(self):
        mapping, origin = _make_mapping("quadratic")
        bound = mapping.value(origin) + 2.0
        rng = _rng(9)
        dirs = rng.standard_normal((16, N))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        lo, hi = origin - 1.0, origin + 1.0
        ts = _ray_crossings(mapping, origin, dirs, bound,
                            lower=lo, upper=hi)
        for d, t in zip(dirs, ts):
            s = directional_crossing(mapping, origin, d, bound,
                                     lower=lo, upper=hi)
            assert (s is None and np.isnan(t)) or t == s


class TestStencilGradientIdentity:
    """The one-shot stencil FD equals the per-coordinate scalar loop."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_callable_mapping_bit_identical(self, seed):
        mapping, _ = _make_mapping("callable")
        x = _rng(seed).standard_normal(N) * (1.0 + seed)
        batched = _finite_diff_gradient(mapping, x)
        scalar = _finite_diff_gradient_scalar(mapping, x)
        np.testing.assert_array_equal(batched, scalar)

    @pytest.mark.parametrize("n", [3, 8, 12, 20])
    def test_mixed_composition_bit_identical(self, n):
        # A callable summed with a vectorised quadratic: the stencil must
        # evaluate row-exactly (an einsum or a gemv rounds some rows
        # differently from value).
        rng = _rng(n)
        for _ in range(6):
            mapping = SumMapping([
                CallableMapping(lambda x: float(np.sin(x).sum()), n),
                QuadraticMapping(rng.standard_normal((n, n)),
                                 rng.standard_normal(n))])
            x = 3.0 * rng.standard_normal(n)
            np.testing.assert_array_equal(
                _finite_diff_gradient(mapping, x),
                _finite_diff_gradient_scalar(mapping, x))

    def test_large_magnitude_point(self):
        # The step scales with |x|; exercise the np.maximum branch.
        mapping, _ = _make_mapping("callable")
        x = np.array([1e6, -1e6, 0.0, 1.0, -3.0, 2e4])
        np.testing.assert_array_equal(_finite_diff_gradient(mapping, x),
                                      _finite_diff_gradient_scalar(mapping, x))


class TestSamplingRegression:
    """The vectorised violation scan pins the exact former report."""

    def test_report_bit_identical_to_scalar_scan(self):
        from repro.core.solvers.sampling import sampling_upper_bound
        from repro.utils.linalg import vector_norm

        mapping = QuadraticMapping(np.eye(3))
        origin = np.zeros(3)
        bounds = ToleranceBounds.upper(1.0)
        for norm in (1, 2, np.inf):
            rep = sampling_upper_bound(mapping, origin, bounds,
                                       max_distance=3.0, n_samples=4000,
                                       norm=norm, seed=7)
            assert rep.n_violations > 0
            # Re-derive the minimum with the scalar per-point formulation
            # the scan replaced; the report must match it exactly.
            d = vector_norm(rep.closest_violation - origin, norm)
            assert rep.min_violation_distance == d
