"""Bit-identity suite for the cross-problem tensor kernel.

The contract under test: :func:`~repro.core.solvers.tensor.solve_group`
(and every dispatch path riding it — serial :func:`compute_radii`,
executor shards, the service worker body) returns, for element ``i``,
exactly what ``compute_radius(problems[i])`` returns — radius, boundary
point, bound hit, per-bound table, method, quality — across mapping
families, norms, boxes, and seeds.  Every batched evaluation is
row-exact (``value_rows``) and the lock-step Brent is a float-for-float
port of SciPy's, so the kernel's roots are the scalar reference floats,
which is what makes this equality exact rather than approximate.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.features import ToleranceBounds
from repro.core.mappings import (
    LinearMapping,
    MaxMapping,
    QuadraticMapping,
    RestrictedMapping,
    ReweightedMapping,
    SumMapping,
)
from repro.core.radius import (
    RadiusProblem,
    compute_radii,
    compute_radius,
)
from repro.core.solvers.tensor import ProblemTensor, solve_group
from repro.exceptions import InfeasibleAllocationError, SpecificationError
from repro.observability import observing
from repro.parallel.cache import (
    RadiusCache,
    get_default_cache,
    install_default_cache,
    uninstall_default_cache,
)
from repro.parallel.executor import ParallelExecutor
from repro.service import RadiusService, ServiceConfig


@pytest.fixture(autouse=True)
def _no_ambient_default_cache():
    before = get_default_cache()
    uninstall_default_cache()
    yield
    if before is not None:
        install_default_cache(before)
    else:
        uninstall_default_cache()


def _assert_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.radius == w.radius
        assert g.bound_hit == w.bound_hit
        assert g.method == w.method
        assert g.quality == w.quality
        assert g.per_bound == w.per_bound
        if w.boundary_point is None:
            assert g.boundary_point is None
        else:
            np.testing.assert_array_equal(g.boundary_point, w.boundary_point)


def _shared_mapping(kind: str, n: int, rng):
    """One mapping instance shared by every member of a group."""
    if kind == "linear":
        return LinearMapping(rng.standard_normal(n) + 2.0)
    if kind == "diag_quadratic":
        return QuadraticMapping(np.diag(1.0 + rng.random(n)))
    if kind == "max":
        return MaxMapping([LinearMapping(rng.standard_normal(n), 0.1 * i)
                           for i in range(3)])
    if kind == "sum":
        return SumMapping([LinearMapping(rng.standard_normal(n)),
                           QuadraticMapping(np.diag(rng.random(n)))])
    if kind == "sum3":
        # Three components whose large terms cancel: the last bit of the
        # sum depends on the fold, which ``value`` and ``value_rows``
        # must share (Python 3.12's ``sum()`` would compensate it).
        k = 100.0 * rng.standard_normal(n)
        return SumMapping([LinearMapping(k),
                           QuadraticMapping(np.diag(rng.random(n))),
                           LinearMapping(0.1 * rng.standard_normal(n) - k)])
    if kind == "restricted":
        base = QuadraticMapping(np.diag(1.0 + rng.random(n + 2)))
        return RestrictedMapping(base, list(range(n)),
                                 rng.standard_normal(n + 2) * 0.1)
    if kind == "reweighted":
        base = QuadraticMapping(np.diag(1.0 + rng.random(n)))
        return ReweightedMapping(base, 1.0 + rng.random(n))
    raise AssertionError(kind)


def _group(kind: str, norm, boxed: bool, seed: int, n: int = 4,
           members: int = 3):
    """A structural group: shared mapping, varying origins and boxes."""
    rng = np.random.default_rng(seed)
    mapping = _shared_mapping(kind, n, rng)
    problems = []
    for _ in range(members):
        origin = 0.1 * rng.standard_normal(n)
        phi0 = mapping.value(origin)
        bounds = ToleranceBounds(beta_max=phi0 + 1.5)
        kw = {}
        if boxed:
            kw = dict(lower=origin - 0.9, upper=origin + 0.9)
        problems.append(RadiusProblem(mapping, origin, bounds, norm=norm,
                                      **kw))
    return problems


KINDS = ["linear", "diag_quadratic", "max", "sum", "sum3", "restricted",
         "reweighted"]


class TestBisectionTierIdentity:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("norm", [1, 2, np.inf])
    def test_kind_by_norm(self, kind, norm):
        problems = _group(kind, norm, boxed=False, seed=7)
        want = [compute_radius(p, method="bisection", seed=3, cache=False)
                for p in problems]
        got = solve_group(problems, method="bisection", seed=3, cache=False)
        _assert_identical(got, want)

    @pytest.mark.parametrize("kind", KINDS)
    def test_boxed(self, kind):
        problems = _group(kind, 2, boxed=True, seed=11)
        want = [compute_radius(p, method="bisection", seed=3, cache=False)
                for p in problems]
        got = solve_group(problems, method="bisection", seed=3, cache=False)
        _assert_identical(got, want)

    @pytest.mark.parametrize("seed", [0, 3, 99])
    def test_seeds(self, seed):
        problems = _group("diag_quadratic", 2, boxed=False, seed=5)
        want = [compute_radius(p, method="bisection", seed=seed, cache=False)
                for p in problems]
        got = solve_group(problems, method="bisection", seed=seed,
                          cache=False)
        _assert_identical(got, want)

    def test_two_sided_bounds(self):
        # The lower bound of a nonnegative quadratic is never crossed:
        # the unit's not-found path must mirror the scalar inf per_bound.
        rng = np.random.default_rng(2)
        mapping = QuadraticMapping(np.diag(1.0 + rng.random(4)))
        problems = []
        for _ in range(3):
            origin = 0.1 * rng.standard_normal(4)
            phi0 = mapping.value(origin)
            problems.append(RadiusProblem(
                mapping, origin, ToleranceBounds(-1.0, phi0 + 1.5), norm=1))
        want = [compute_radius(p, method="bisection", seed=3, cache=False)
                for p in problems]
        got = solve_group(problems, method="bisection", seed=3, cache=False)
        _assert_identical(got, want)
        assert all(w.per_bound[-1.0] == math.inf for w in want)

    def test_degenerate_member(self):
        # value0 == bound short-circuits to a zero radius, same as scalar.
        mapping = LinearMapping([1.0, 1.0])
        # f(origin) = 0 sits exactly on beta_max = 0: the inclusive
        # on-bound case.
        degenerate = RadiusProblem(mapping, np.zeros(2),
                                   ToleranceBounds(-2.0, 0.0))
        normal = RadiusProblem(mapping, np.array([0.1, 0.2]),
                               ToleranceBounds(-2.0, 2.0))
        problems = [degenerate, normal, normal]
        want = [compute_radius(p, method="bisection", seed=3, cache=False)
                for p in problems]
        got = solve_group(problems, method="bisection", seed=3, cache=False)
        _assert_identical(got, want)
        assert got[0].radius == 0.0 and got[0].method == "degenerate"

    @pytest.mark.parametrize("method", ["auto", "bisection"])
    def test_all_degenerate_group(self, method):
        # Every member sits exactly on a bound, so no (problem, bound)
        # unit is left for the kernel: it must not run at all.  "auto"
        # sends the Max mapping to the numeric tier.
        mapping = MaxMapping([LinearMapping([1.0, 2.0]),
                              LinearMapping([2.0, -1.0], 0.5)])
        problems = [RadiusProblem(mapping, origin,
                                  ToleranceBounds(-2.0, mapping.value(origin)))
                    for origin in (np.zeros(2), np.array([0.25, 0.0]))]
        assert len({ProblemTensor.batch_key(p, method)
                    for p in problems}) == 1
        want = [compute_radius(p, method=method, seed=3, cache=False)
                for p in problems]
        got = compute_radii(problems, method=method, seed=3, cache=False)
        _assert_identical(got, want)
        assert all(r.radius == 0.0 and r.method == "degenerate" for r in got)

    def test_degenerate_cached_counted_and_spanned_alike(self):
        mapping = LinearMapping([1.0, 1.0])
        degenerate = RadiusProblem(mapping, np.zeros(2),
                                   ToleranceBounds(-2.0, 0.0))
        normal = RadiusProblem(mapping, np.array([0.1, 0.2]),
                               ToleranceBounds(-2.0, 2.0))
        paths = {
            "scalar": lambda cache: compute_radius(
                degenerate, method="bisection", seed=3, cache=cache),
            "tensor": lambda cache: solve_group(
                [degenerate, normal, normal], method="bisection", seed=3,
                cache=cache),
        }
        for path, solve in paths.items():
            cache = RadiusCache()
            with observing() as obs:
                solve(cache)
            stored = cache.get(cache.key(degenerate, method="bisection",
                                         seed=3))
            assert stored is not None and stored.method == "degenerate", path
            snap = obs.metrics.snapshot()
            assert snap["radius.method.degenerate"]["value"] == 1, path
            assert len([s for s in obs.recorder.spans()
                        if s.name == "radius.solve"
                        and s.tags.get("solver") == "degenerate"]) == 1, path

    def test_infeasible_member_raises_like_scalar(self):
        mapping = LinearMapping([1.0, 1.0])
        bad = RadiusProblem(mapping, np.array([5.0, 5.0]),
                            ToleranceBounds(-1.0, 1.0))
        ok = RadiusProblem(mapping, np.zeros(2), ToleranceBounds(-1.0, 1.0))
        with pytest.raises(InfeasibleAllocationError):
            compute_radius(bad, method="bisection", cache=False)
        with pytest.raises(InfeasibleAllocationError):
            solve_group([ok, bad], method="bisection", cache=False)


class TestNumericTierIdentity:
    def test_max_mapping_euclidean(self):
        # MaxMapping at norm 2 auto-dispatches to the numeric tier; the
        # tensor shares bracket expansion and the refinement of every
        # SLSQP seed crossing.
        problems = _group("max", 2, boxed=False, seed=13)
        want = [compute_radius(p, seed=3, cache=False) for p in problems]
        got = solve_group(problems, seed=3, cache=False)
        _assert_identical(got, want)

    def test_boxed_numeric(self):
        problems = _group("max", 2, boxed=True, seed=17)
        want = [compute_radius(p, seed=3, cache=False) for p in problems]
        got = solve_group(problems, seed=3, cache=False)
        _assert_identical(got, want)

    def test_unseeded_group_seeds_along_its_own_rays(self, monkeypatch):
        # Every SLSQP start refused: each member answers with its best
        # seed crossing, which lies on the level set only if the rays
        # the member re-derives from the seed are the rays the group's
        # crossings were found along -- one draw under seed=None too.
        from repro.core.solvers import numeric

        def refuse(*args, **kwargs):
            raise ValueError("start refused")

        monkeypatch.setattr(numeric.optimize, "minimize", refuse)
        # Nine members: a mismatched draw misses the level unless a
        # member's best crossing happens to lie on a (fixed) axis ray.
        for seed in (5, 7, 19):
            problems = _group("max", 2, boxed=False, seed=seed)
            for problem, result in zip(problems,
                                       solve_group(problems, seed=None,
                                                   cache=False)):
                assert result.method == "numeric"
                assert problem.mapping.value(result.boundary_point) \
                    == pytest.approx(result.bound_hit, rel=1e-9, abs=1e-9)


class TestGrouping:
    def test_mixed_batch_restores_order(self):
        # Two interleaved structural groups plus unbatchable leftovers:
        # element i must still match compute_radius(problems[i]).
        rng = np.random.default_rng(3)
        quad_a = QuadraticMapping(np.diag(1.0 + rng.random(4)))
        quad_b = QuadraticMapping(np.diag(2.0 + rng.random(4)))
        lin = LinearMapping(rng.standard_normal(4) + 2.0)
        problems = []
        for i in range(6):
            mapping = quad_a if i % 2 == 0 else quad_b
            origin = 0.1 * rng.standard_normal(4)
            problems.append(RadiusProblem(
                mapping, origin,
                ToleranceBounds.upper(mapping.value(origin) + 1.0 + 0.1 * i),
                norm=1))
        origin = rng.standard_normal(4)
        problems.append(RadiusProblem(  # analytic tier: unbatchable
            lin, origin, ToleranceBounds.upper(lin.value(origin) + 1.0)))
        want = [compute_radius(p, seed=3, cache=False) for p in problems]
        got = compute_radii(problems, seed=3, cache=False)
        _assert_identical(got, want)

    def test_partition_shape(self):
        rng = np.random.default_rng(3)
        quad = QuadraticMapping(np.diag(1.0 + rng.random(4)))
        lin = LinearMapping([1.0, 1.0, 1.0, 1.0])
        group = [RadiusProblem(quad, 0.1 * rng.standard_normal(4),
                               ToleranceBounds.upper(3.0), norm=1)
                 for _ in range(3)]
        singleton = RadiusProblem(quad, 0.1 * rng.standard_normal(4),
                                  ToleranceBounds.upper(3.0), norm=np.inf)
        analytic = RadiusProblem(lin, np.zeros(4),
                                 ToleranceBounds.upper(1.0))
        parts = ProblemTensor.partition(
            [group[0], analytic, group[1], singleton, group[2]])
        assert [idxs for idxs, _ in parts] == [[0, 2, 4], [1], [3]]
        tensors = [t for _, t in parts]
        assert tensors[0] is not None and tensors[0].n_problems == 3
        assert tensors[1] is None  # analytic tier
        # a group of one rides the kernel too
        assert tensors[2] is not None and tensors[2].n_problems == 1
        with pytest.raises(SpecificationError):
            ProblemTensor.pack([group[0], analytic])

    def test_batch_key_separates_structures(self):
        rng = np.random.default_rng(3)
        quad = QuadraticMapping(np.diag(1.0 + rng.random(4)))
        a = RadiusProblem(quad, np.zeros(4), ToleranceBounds.upper(3.0),
                          norm=1)
        b = RadiusProblem(quad, 0.1 * rng.standard_normal(4),
                          ToleranceBounds.upper(4.0), norm=1)
        c = RadiusProblem(quad, np.zeros(4), ToleranceBounds.upper(3.0),
                          norm=np.inf)
        assert ProblemTensor.batch_key(a) == ProblemTensor.batch_key(b)
        assert ProblemTensor.batch_key(a) != ProblemTensor.batch_key(c)
        lin = RadiusProblem(LinearMapping([1.0] * 4), np.zeros(4),
                            ToleranceBounds.upper(1.0))
        assert ProblemTensor.batch_key(lin) is None


class TestDispatchPaths:
    """One homogeneous group through every dispatch path, traced and not."""

    def _group(self):
        return _group("diag_quadratic", 1, boxed=False, seed=23, members=4)

    @pytest.mark.parametrize("traced", [False, True])
    def test_serial_vs_executor_vs_service(self, traced):
        # 48 twelve-dim problems are worth cutting, so the 4-worker leg
        # solves them in pooled shards (a cheap group would be one shard,
        # solved in-process).
        problems = _group("diag_quadratic", 1, boxed=False, seed=23, n=12,
                          members=48)
        want = [compute_radius(p, method="bisection", seed=3, cache=False)
                for p in problems]
        dispatched = {}

        def run_all():
            got = {"serial": compute_radii(problems, method="bisection",
                                           seed=3, cache=False)}
            for workers in (1, 4):
                with ParallelExecutor(workers) as pool:
                    got[f"executor{workers}"] = compute_radii(
                        problems, method="bisection", seed=3, cache=False,
                        executor=pool)
                    dispatched[workers] = pool.stats()["dispatched"]
            with RadiusService(2, config=ServiceConfig(cache=False)) as svc:
                got["service"] = compute_radii(problems, method="bisection",
                                               seed=3, service=svc)
            return got

        if traced:
            with observing():
                got = run_all()
        else:
            got = run_all()
        assert dispatched[1] == 0 and dispatched[4] > 1
        for path, results in got.items():
            _assert_identical(results, want)

    def test_single_group_shards_across_workers(self):
        # The old dispatcher fell back to a serial loop whenever the
        # batch was one structural group; it must now shard the tensor
        # once the group is worth cutting (a 12-dim group of 48 is).
        problems = _group("diag_quadratic", 1, boxed=False, seed=23, n=12,
                          members=48)
        want = compute_radii(problems, method="bisection", seed=3,
                             cache=False)
        with ParallelExecutor(4) as pool, observing() as obs:
            got = compute_radii(problems, method="bisection", seed=3,
                                cache=False, executor=pool)
            dispatched = pool.stats()["dispatched"]
        _assert_identical(got, want)
        batch = [s for s in obs.recorder.spans()
                 if s.name == "radius.batch"][-1]
        assert batch.tags["shards"] > 1
        assert dispatched == batch.tags["shards"]

    def test_tensor_emits_per_problem_solve_spans(self):
        problems = self._group()
        with observing() as obs:
            solve_group(problems, method="bisection", seed=3, cache=False)
        spans = obs.recorder.spans()
        assert len([s for s in spans if s.name == "radius.solve"]) \
            == len(problems)
        assert len([s for s in spans if s.name == "radius.tensor"]) == 1


class TestServiceCacheBypass:
    def test_bypass_event_and_cold_local_cache(self):
        problems = _group("diag_quadratic", 1, boxed=False, seed=29)
        cache = RadiusCache()
        with RadiusService(1, config=ServiceConfig(cache=False)) as svc, \
                observing() as obs:
            got = compute_radii(problems, method="bisection", seed=3,
                                cache=cache, service=svc)
        want = [compute_radius(p, method="bisection", seed=3, cache=False)
                for p in problems]
        _assert_identical(got, want)
        # The local cache was neither consulted nor populated...
        stats = cache.stats()
        assert stats["entries"] == 0
        assert stats["hits"] == 0 and stats["misses"] == 0
        # ...and the bypass is observable.
        bypass = [e for e in obs.events.events()
                  if e.kind == "cache.bypass"]
        assert len(bypass) == 1
        assert bypass[0].fields == {"reason": "service",
                                    "problems": len(problems)}
        assert obs.metrics.snapshot()["radius.cache_bypass"]["value"] == 1

    def test_no_event_without_a_cache(self):
        problems = _group("diag_quadratic", 1, boxed=False, seed=29)
        with RadiusService(1, config=ServiceConfig(cache=False)) as svc, \
                observing() as obs:
            compute_radii(problems, method="bisection", seed=3,
                          cache=False, service=svc)
        assert not [e for e in obs.events.events()
                    if e.kind == "cache.bypass"]
        assert "radius.cache_bypass" not in obs.metrics.snapshot()
