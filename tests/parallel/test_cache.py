"""Unit tests for :mod:`repro.parallel.cache`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.features import PerformanceFeature, ToleranceBounds
from repro.core.fepia import FeatureSpec, RobustnessAnalysis
from repro.core.mappings import (
    CallableMapping,
    LinearMapping,
    QuadraticMapping,
)
from repro.core.perturbation import PerturbationParameter
from repro.core.radius import RadiusProblem, compute_radius
from repro.core.weighting import IdentityWeighting
from repro.exceptions import SpecificationError
from repro.parallel.cache import (
    RadiusCache,
    get_default_cache,
    install_default_cache,
    resolve_cache,
    uninstall_default_cache,
)
from repro.resilience.cascade import SolverCascade


@pytest.fixture(autouse=True)
def _no_ambient_default_cache():
    """Tests here manage the process-wide default cache explicitly."""
    before = get_default_cache()
    uninstall_default_cache()
    yield
    if before is not None:
        install_default_cache(before)
    else:
        uninstall_default_cache()


def _problem(coeffs=(1.0, 1.0), origin=(2.0, 3.0), upper_factor=1.3):
    mapping = LinearMapping(list(coeffs))
    phi0 = mapping.value(np.asarray(origin, dtype=float))
    return RadiusProblem(mapping, np.asarray(origin, dtype=float),
                         ToleranceBounds.relative(phi0, upper_factor))


def _seeded_problem(coeffs=(1.0, 1.0), origin=(2.0, 3.0), upper_factor=1.3):
    """An affine problem whose l1 + box dispatch *can* reach seeded solvers."""
    mapping = LinearMapping(list(coeffs))
    origin = np.asarray(origin, dtype=float)
    phi0 = mapping.value(origin)
    return RadiusProblem(mapping, origin,
                         ToleranceBounds.relative(phi0, upper_factor),
                         lower=origin - 10.0, upper=origin + 10.0, norm=1)


class TestFingerprint:
    def test_same_problem_same_key(self):
        cache = RadiusCache()
        assert cache.key(_problem()) == cache.key(_problem())

    def test_different_structure_different_key(self):
        cache = RadiusCache()
        assert cache.key(_problem(coeffs=(1.0, 1.0))) \
            != cache.key(_problem(coeffs=(2.0, 1.0)))

    def test_different_origin_different_key(self):
        cache = RadiusCache()
        assert cache.key(_problem(origin=(2.0, 3.0))) \
            != cache.key(_problem(origin=(3.0, 2.0)))

    def test_different_bounds_different_key(self):
        cache = RadiusCache()
        assert cache.key(_problem(upper_factor=1.3)) \
            != cache.key(_problem(upper_factor=1.5))

    def test_method_and_seed_partition_the_key(self):
        cache = RadiusCache()
        base = cache.key(_seeded_problem())
        assert cache.key(_seeded_problem(), method="sampling") != base
        assert cache.key(_seeded_problem(), seed=7) != base

    def test_deterministic_solve_ignores_seed(self):
        # An unboxed affine problem under method="auto" is handled entirely
        # by the closed-form solvers: no randomness is ever drawn, so every
        # seed — including a stateful Generator — shares one entry.
        cache = RadiusCache()
        base = cache.key(_problem())
        assert base is not None
        assert cache.key(_problem(), seed=7) == base
        assert cache.key(_problem(), seed=np.random.default_rng(3)) == base
        assert cache.stats()["skips"] == 0

    def test_explicit_method_is_treated_as_seeded(self):
        # Forcing method="numeric" bypasses the deterministic dispatch, so
        # the seed must partition the key again.
        cache = RadiusCache()
        assert cache.key(_problem(), method="numeric", seed=1) \
            != cache.key(_problem(), method="numeric", seed=2)

    def test_seed_sweep_hits_deterministic_entry(self):
        cache = RadiusCache()
        result = compute_radius(_problem(), cache=cache, seed=0)
        for seed in (1, 2, np.random.default_rng(3)):
            assert compute_radius(_problem(), cache=cache, seed=seed) is result
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["skips"]) == (3, 1, 0)
        assert stats["hit_rate"] == pytest.approx(0.75)

    def test_callable_mapping_is_unfingerprintable(self):
        mapping = CallableMapping(lambda x: float(x.sum()), 2)
        problem = RadiusProblem(mapping, np.array([2.0, 3.0]),
                                ToleranceBounds.upper(10.0))
        cache = RadiusCache()
        assert cache.key(problem) is None
        assert cache.stats()["skips"] == 1

    def test_generator_seed_is_unfingerprintable_when_seeded(self):
        cache = RadiusCache()
        assert cache.key(_seeded_problem(),
                         seed=np.random.default_rng(3)) is None
        assert cache.stats()["skips"] == 1


class TestStorage:
    def test_hit_and_miss_counters(self):
        cache = RadiusCache()
        key = cache.key(_problem())
        assert cache.get(key) is None
        result = compute_radius(_problem(), cache=False)
        cache.put(key, result)
        assert cache.get(key) is result
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (1, 1, 1)
        assert stats["hit_rate"] == pytest.approx(0.5)

    def test_none_key_is_a_no_op(self):
        cache = RadiusCache()
        cache.put(None, object())
        assert cache.get(None) is None
        assert len(cache) == 0

    def test_fifo_eviction(self):
        cache = RadiusCache(max_entries=2)
        result = compute_radius(_problem(), cache=False)
        keys = [cache.key(_problem(origin=(2.0 + i, 3.0))) for i in range(3)]
        for key in keys:
            cache.put(key, result)
        assert len(cache) == 2
        assert cache.get(keys[0]) is None  # oldest evicted
        assert cache.get(keys[2]) is result

    def test_eviction_counter(self):
        cache = RadiusCache(max_entries=2)
        result = compute_radius(_problem(), cache=False)
        keys = [cache.key(_problem(origin=(2.0 + i, 3.0))) for i in range(5)]
        assert cache.stats()["evictions"] == 0
        for key in keys:
            cache.put(key, result)
        assert cache.stats()["evictions"] == 3
        # Re-putting a resident key does not evict.
        cache.put(keys[-1], result)
        assert cache.stats()["evictions"] == 3

    def test_unbounded_cache_never_evicts(self):
        cache = RadiusCache()
        result = compute_radius(_problem(), cache=False)
        for i in range(10):
            cache.put(cache.key(_problem(origin=(2.0 + i, 3.0))), result)
        assert cache.stats()["evictions"] == 0

    def test_max_entries_validation(self):
        with pytest.raises(SpecificationError):
            RadiusCache(max_entries=0)

    def test_clear_resets_everything(self):
        cache = RadiusCache(max_entries=1)
        result = compute_radius(_problem(), cache=False)
        for i in range(2):
            key = cache.key(_problem(origin=(2.0 + i, 3.0)))
            cache.put(key, result)
        cache.get(key)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {"hits": 0, "misses": 0, "skips": 0,
                                 "evictions": 0, "entries": 0,
                                 "hit_rate": 0.0}


class TestDefaultCache:
    def test_install_and_resolve(self):
        assert resolve_cache(None) is None  # nothing installed
        cache = install_default_cache()
        assert get_default_cache() is cache
        assert resolve_cache(None) is cache
        assert resolve_cache(False) is None
        explicit = RadiusCache()
        assert resolve_cache(explicit) is explicit
        uninstall_default_cache()
        assert get_default_cache() is None

    def test_resolve_rejects_other_types(self):
        with pytest.raises(SpecificationError):
            resolve_cache("yes please")

    def test_compute_radius_uses_default_cache(self):
        cache = install_default_cache()
        first = compute_radius(_problem())
        second = compute_radius(_problem())
        assert second is first  # the memoised object itself
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)

    def test_compute_radius_cache_false_bypasses_default(self):
        cache = install_default_cache()
        compute_radius(_problem(), cache=False)
        assert cache.stats() == {"hits": 0, "misses": 0, "skips": 0,
                                 "evictions": 0, "entries": 0,
                                 "hit_rate": 0.0}

    def test_cached_result_is_numerically_identical(self):
        install_default_cache()
        fresh = compute_radius(_problem(), cache=False)
        compute_radius(_problem())
        cached = compute_radius(_problem())
        assert cached.radius == fresh.radius
        np.testing.assert_array_equal(cached.boundary_point,
                                      fresh.boundary_point)


class TestCascadeKeying:
    """A cascade draws a fresh child stream from its own seed on every
    ``compute`` call, so no cache key can make a stored cascade answer
    equal a fresh one: the cascade path neither reads nor writes the
    cache, and a plain solve sharing it only ever sees plain answers."""

    @staticmethod
    def _analysis(cache, cascade=None) -> RobustnessAnalysis:
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 4))
        mapping = QuadraticMapping(a @ a.T + np.eye(4))
        origin = np.abs(rng.standard_normal(4)) + 0.5
        spec = FeatureSpec(PerformanceFeature(
            "f", ToleranceBounds.relative(mapping.value(origin), 1.2)),
            mapping)
        # The physical box keeps the quadratic on the seeded numeric tier
        # (unboxed, it would take the exact ellipsoid projection).
        return RobustnessAnalysis(
            [spec], [PerturbationParameter("x", origin, lower=np.zeros(4))],
            weighting=IdentityWeighting(), respect_physical_bounds=True,
            seed=11, radius_cache=cache, cascade=cascade)

    def test_plain_solve_is_not_served_a_cascade_answer(self):
        fresh = self._analysis(False).radius("f")
        shared = RadiusCache()
        self._analysis(shared, SolverCascade(seed=11)).radius("f")
        plain = self._analysis(shared).radius("f")
        assert plain.radius == fresh.radius
        assert shared.stats()["hits"] == 0
        assert len(shared) == 1

    def test_cascades_bypass_a_shared_cache(self):
        fresh = [self._analysis(False, SolverCascade(seed=s)).radius("f")
                 for s in (1, 2)]
        assert fresh[0].radius != fresh[1].radius  # the seeds really differ
        shared = RadiusCache()
        got = [self._analysis(shared, SolverCascade(seed=s)).radius("f")
               for s in (1, 2)]
        assert [r.radius for r in got] == [r.radius for r in fresh]
        assert len(shared) == 0
        assert shared.stats()["hits"] == shared.stats()["misses"] == 0
