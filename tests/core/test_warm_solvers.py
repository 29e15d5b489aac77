"""Warm-started solves are bit-identical to their cold twins.

A :class:`WarmStart` threaded through a family of solves that differ only
in their tolerance bounds must change *nothing* about the answers: the
ray-table replay makes the same probe-point decisions from the same
arithmetic, and the convexity certificate only ever skips brackets whose
crossings provably lie beyond the winner.  These tests walk monotone and
non-monotone bound sweeps over every mapping type, norm, and box
configuration and compare warm against cold with exact equality — any
last-ulp divergence is a regression.
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
from repro.core.radius import RadiusProblem, compute_radius
from repro.core.solvers.warm import RayTable, WarmStart, is_ray_convex
from repro.parallel.cache import RadiusCache

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
    if kind == "indefinite":
        q = np.diag(np.concatenate([np.ones(N - 1), [-1.0]]))
        return QuadraticMapping(q, rng.standard_normal(N)), np.zeros(N)
    if kind == "product":
        powers = np.concatenate([np.array([1.0, 0.5]), np.zeros(N - 2)])
        return ProductMapping(powers, 2.0), np.full(N, 1.5)
    if kind == "max":
        comps = [LinearMapping(rng.standard_normal(N), float(i))
                 for i in range(4)]
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


MAPPING_KINDS = ["linear", "quadratic", "indefinite", "product", "max",
                 "sum", "reweighted", "restricted", "callable"]


def _assert_same(cold, warm):
    assert warm.radius == cold.radius
    assert np.array_equal(warm.boundary_point, cold.boundary_point,
                          equal_nan=True)
    assert warm.bound_hit == cold.bound_hit


def _walk(mapping, origin, bounds_list, *, method, norm=2,
          lower=None, upper=None, seed=7):
    """Solve a bound family cold and warm; assert bitwise identity."""
    warm_state = WarmStart()
    for bounds in bounds_list:
        problem = RadiusProblem(mapping, origin, bounds,
                                lower=lower, upper=upper, norm=norm)
        cold = compute_radius(problem, method=method, seed=seed, cache=False)
        warm = compute_radius(problem, method=method, seed=seed, cache=False,
                              warm=warm_state)
        _assert_same(cold, warm)
    return warm_state


def _upper_sweep(mapping, origin, factors=(1.05, 1.2, 1.5, 2.0, 3.0)):
    """Monotone-loosening upper bounds around the origin value."""
    g0 = float(mapping.value(np.asarray(origin, dtype=float)))
    offset = abs(g0) + 1.0
    return [ToleranceBounds.upper(g0 + f * offset) for f in factors]


class TestIsRayConvex:
    def test_linear(self):
        assert is_ray_convex(LinearMapping([1.0, 2.0]))

    def test_psd_quadratic(self):
        assert is_ray_convex(QuadraticMapping(np.eye(3)))

    def test_indefinite_quadratic(self):
        q = np.diag([1.0, -1.0, 1.0])
        assert not is_ray_convex(QuadraticMapping(q))

    def test_max_and_sum_of_convex(self):
        comps = [LinearMapping([1.0, 0.0]), QuadraticMapping(np.eye(2))]
        assert is_ray_convex(MaxMapping(comps))
        assert is_ray_convex(SumMapping(comps))

    def test_max_with_nonconvex_component(self):
        comps = [LinearMapping([1.0, 0.0]),
                 QuadraticMapping(np.diag([1.0, -1.0]))]
        assert not is_ray_convex(MaxMapping(comps))

    def test_adapters_recurse_to_base(self):
        base = QuadraticMapping(np.eye(3))
        assert is_ray_convex(ReweightedMapping(base, [1.0, 2.0, 3.0]))
        assert is_ray_convex(
            RestrictedMapping(base, [0, 1], np.zeros(3)))

    def test_product_and_callable_are_not_certified(self):
        assert not is_ray_convex(ProductMapping([1.0, 1.0], 2.0))
        assert not is_ray_convex(
            CallableMapping(lambda x: float(x @ x), 2))

    def test_transparent_wrapper_recurses_through_inner(self):
        from repro.core.solvers.bench import CallCountingMapping

        assert is_ray_convex(CallCountingMapping(LinearMapping([1.0])))
        assert not is_ray_convex(
            CallCountingMapping(ProductMapping([1.0], 2.0)))


class TestWarmBisectionIdentity:
    """Warm bisection == cold bisection, bitwise, across the matrix."""

    @pytest.mark.parametrize("kind", MAPPING_KINDS)
    def test_ascending_walk(self, kind):
        mapping, origin = _make_mapping(kind)
        _walk(mapping, origin, _upper_sweep(mapping, origin),
              method="bisection")

    @pytest.mark.parametrize("kind", ["linear", "max", "quadratic",
                                      "callable"])
    def test_descending_walk(self, kind):
        mapping, origin = _make_mapping(kind)
        _walk(mapping, origin, _upper_sweep(mapping, origin)[::-1],
              method="bisection")

    @pytest.mark.parametrize("norm", [1, 2, np.inf])
    def test_norms(self, norm):
        mapping, origin = _make_mapping("max")
        _walk(mapping, origin, _upper_sweep(mapping, origin),
              method="bisection", norm=norm)

    @pytest.mark.parametrize("kind", ["max", "quadratic"])
    def test_with_box(self, kind):
        mapping, origin = _make_mapping(kind)
        lower = np.asarray(origin, dtype=float) - 5.0
        upper = np.asarray(origin, dtype=float) + 5.0
        _walk(mapping, origin, _upper_sweep(mapping, origin),
              method="bisection", lower=lower, upper=upper)

    def test_lower_bound_side(self):
        mapping, origin = _make_mapping("quadratic")
        g0 = float(mapping.value(origin))
        bounds = [ToleranceBounds.lower(g0 - f * (abs(g0) + 1.0))
                  for f in (3.0, 2.0, 1.5, 1.2)]
        _walk(mapping, origin, bounds, method="bisection")

    def test_two_sided_bounds(self):
        mapping, origin = _make_mapping("max")
        g0 = float(mapping.value(origin))
        span = abs(g0) + 1.0
        bounds = [ToleranceBounds(g0 - f * span, g0 + f * span)
                  for f in (1.05, 1.3, 2.0)]
        _walk(mapping, origin, bounds, method="bisection")

    def test_seed_sweep(self):
        mapping, origin = _make_mapping("sum")
        for seed in (0, 1, 2005):
            _walk(mapping, origin, _upper_sweep(mapping, origin),
                  method="bisection", seed=seed)

    def test_dense_walk_reaches_warm_hits(self):
        mapping, origin = _make_mapping("max")
        g0 = float(mapping.value(origin))
        bounds = [ToleranceBounds.upper(g0 + f)
                  for f in np.linspace(1.0, 2.0, 30)]
        state = _walk(mapping, origin, bounds, method="bisection")
        assert state.warm_starts == 30
        # The dense interior of the walk must be served from the table.
        assert state.warm_hits > 0


class TestWarmNumericIdentity:
    """Warm numeric == cold numeric (the numeric tier keeps no warm
    state)."""

    @pytest.mark.parametrize("kind", ["quadratic", "sum", "callable",
                                      "product"])
    def test_ascending_walk(self, kind):
        mapping, origin = _make_mapping(kind)
        _walk(mapping, origin, _upper_sweep(mapping, origin),
              method="numeric")

    def test_with_box(self):
        mapping, origin = _make_mapping("quadratic")
        lower = np.asarray(origin, dtype=float) - 5.0
        upper = np.asarray(origin, dtype=float) + 5.0
        _walk(mapping, origin, _upper_sweep(mapping, origin),
              method="numeric", lower=lower, upper=upper)


class TestWarmStateMachinery:
    def test_geometry_mismatch_resets_table(self):
        table = RayTable()
        dirs = np.eye(2)
        table.bind(np.zeros(2), dirs, None, None, 10.0, 1e-3)
        table.append(0, 1e-3, 0.5)
        assert table.stats()["entries"] == 1
        # Same geometry: the ladder survives.
        table.bind(np.zeros(2), dirs, None, None, 10.0, 1e-3)
        assert table.stats()["entries"] == 1
        # Different origin: silently reset.
        table.bind(np.ones(2), dirs, None, None, 10.0, 1e-3)
        assert table.stats()["entries"] == 0

    def test_warm_counters_and_stats(self):
        mapping, origin = _make_mapping("max")
        state = _walk(mapping, origin, _upper_sweep(mapping, origin),
                      method="bisection")
        stats = state.stats()
        assert stats["warm_starts"] == 5
        assert 0 <= stats["warm_hits"] <= stats["warm_starts"]
        assert stats["tables"]["bisection"]["entries"] > 0

    def test_ray_convex_memoised_per_structure(self):
        state = WarmStart()
        a = np.eye(3)
        assert state.ray_convex(QuadraticMapping(a))
        # Same structure key: memo hit (no way to observe directly, but
        # the answer must stay stable and correct).
        assert state.ray_convex(QuadraticMapping(a))
        assert not state.ray_convex(ProductMapping([1.0, 1.0, 1.0], 2.0))

    def test_warm_and_cold_share_cache_entries(self):
        mapping, origin = _make_mapping("max")
        g0 = float(mapping.value(origin))
        problem = RadiusProblem(mapping, origin,
                                ToleranceBounds.upper(g0 + 2.0))
        cache = RadiusCache()
        cold = compute_radius(problem, method="bisection", seed=5,
                              cache=cache)
        assert cache.stats()["entries"] == 1
        warm = compute_radius(problem, method="bisection", seed=5,
                              cache=cache, warm=WarmStart())
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1
        _assert_same(cold, warm)

    def test_feasibility_boundary_curve(self):
        """Bounds crossing through the origin value: warm mirrors cold.

        An infeasible operating point raises identically with and without
        warm state (:func:`degradation_curve` checks feasibility before
        ever reaching the solver); feasible neighbours stay bit-identical.
        """
        from repro.exceptions import InfeasibleAllocationError

        mapping, origin = _make_mapping("linear")
        g0 = float(mapping.value(origin))
        state = WarmStart()
        for offset in (-1.0, 0.0, 1.0, 2.0):
            bounds = ToleranceBounds.upper(g0 + offset)
            problem = RadiusProblem(mapping, origin, bounds)
            try:
                cold = compute_radius(problem, method="bisection", seed=1,
                                      cache=False)
            except InfeasibleAllocationError:
                with pytest.raises(InfeasibleAllocationError):
                    compute_radius(problem, method="bisection", seed=1,
                                   cache=False, warm=state)
                continue
            warm = compute_radius(problem, method="bisection", seed=1,
                                  cache=False, warm=state)
            _assert_same(cold, warm)
