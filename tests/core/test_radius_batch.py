"""Tests for the batched radius frontend (:func:`compute_radii`).

The contract under test: element ``i`` of ``compute_radii(problems)`` is
bit-identical to ``compute_radius(problems[i])`` — through the cache-hit
path, the serial path, the executor fan-out, and with tracing active.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.features import ToleranceBounds
from repro.core.mappings import (
    LinearMapping,
    MaxMapping,
    QuadraticMapping,
)
from repro.core.radius import (
    _CLOSED_FORM,
    RadiusProblem,
    _solver_structure,
    _tier_ladder,
    _worker_shards,
    compute_radii,
    compute_radius,
)
from repro.exceptions import SpecificationError
from repro.observability import observing
from repro.parallel.cache import (
    RadiusCache,
    get_default_cache,
    install_default_cache,
    uninstall_default_cache,
)
from repro.parallel.executor import ParallelExecutor
from repro.resilience.cascade import SolverCascade


@pytest.fixture(autouse=True)
def _no_ambient_default_cache():
    before = get_default_cache()
    uninstall_default_cache()
    yield
    if before is not None:
        install_default_cache(before)
    else:
        uninstall_default_cache()


def _problems():
    """A mixed batch spanning several solver tiers and norms."""
    rng = np.random.default_rng(0)
    out = []
    for i in range(3):  # analytic tier
        coeffs = rng.standard_normal(4)
        origin = rng.standard_normal(4)
        phi0 = LinearMapping(coeffs).value(origin)
        out.append(RadiusProblem(LinearMapping(coeffs), origin,
                                 ToleranceBounds.upper(phi0 + 1.0 + i)))
    for norm in (1, 2, np.inf):  # ellipsoid + bisection tiers
        out.append(RadiusProblem(QuadraticMapping(np.eye(4)),
                                 rng.standard_normal(4) * 0.1,
                                 ToleranceBounds.upper(2.0), norm=norm))
    comps = [LinearMapping(rng.standard_normal(4), float(i)) for i in range(3)]
    out.append(RadiusProblem(MaxMapping(comps), np.zeros(4),  # numeric tier
                             ToleranceBounds.upper(MaxMapping(comps).value(
                                 np.zeros(4)) + 2.0)))
    return out


def _assert_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.radius == w.radius
        if w.boundary_point is None:
            assert g.boundary_point is None
        else:
            np.testing.assert_array_equal(g.boundary_point, w.boundary_point)
        assert g.method == w.method


class TestSerialIdentity:
    def test_matches_per_problem_compute_radius(self):
        problems = _problems()
        want = [compute_radius(p, seed=3, cache=False) for p in problems]
        got = compute_radii(problems, seed=3, cache=False)
        _assert_identical(got, want)

    def test_empty_batch(self):
        assert compute_radii([], cache=False) == []

    def test_generator_seed_matches_stream_order(self):
        # A stateful Generator is consumed in problem order by both paths.
        problems = _problems()
        want = [compute_radius(p, seed=np.random.default_rng(5), cache=False)
                for p in problems]
        # Fresh generator per list above vs one shared stream here would
        # differ; compare against the same shared-stream convention.
        rng_a = np.random.default_rng(5)
        want = [compute_radius(p, seed=rng_a, cache=False) for p in problems]
        got = compute_radii(problems, seed=np.random.default_rng(5),
                            cache=False)
        _assert_identical(got, want)


class TestCachePath:
    def test_hits_served_without_resolving(self):
        problems = _problems()
        cache = RadiusCache()
        first = compute_radii(problems, seed=3, cache=cache)
        second = compute_radii(problems, seed=3, cache=cache)
        _assert_identical(second, first)
        # Deterministic problems are fingerprintable; every one of them
        # must be a hit on the second pass.
        assert cache.stats()["hits"] >= 3

    def test_partial_hits_merge_in_problem_order(self):
        problems = _problems()
        cache = RadiusCache()
        # Pre-solve a middle problem only.
        pre = compute_radius(problems[2], seed=3, cache=cache)
        got = compute_radii(problems, seed=3, cache=cache)
        assert got[2] is pre  # the memoised object itself
        want = [compute_radius(p, seed=3, cache=False) for p in problems]
        _assert_identical(got, want)


class TestExecutorPath:
    def test_fan_out_identical_to_serial(self):
        problems = _problems()
        want = compute_radii(problems, seed=3, cache=False)
        with ParallelExecutor(2) as pool:
            got = compute_radii(problems, seed=3, cache=False, executor=pool)
        _assert_identical(got, want)

    def test_single_worker_executor_stays_serial(self):
        problems = _problems()
        want = compute_radii(problems, seed=3, cache=False)
        with ParallelExecutor(1) as pool:
            got = compute_radii(problems, seed=3, cache=False, executor=pool)
        _assert_identical(got, want)

    def test_workers_solve_uncached(self):
        # A default cache installed before the pool forks, as the CLI
        # does, lives on in every worker.  The caller's cache pass must
        # be the only one: a worker consulting its copy would count (and
        # store) behind the caller's back.
        rng = np.random.default_rng(16)
        problems = []
        for i in range(8):  # closed form: keys do not depend on the seed
            coeffs = rng.standard_normal(3)
            origin = rng.standard_normal(3)
            problems.append(RadiusProblem(
                LinearMapping(coeffs), origin,
                ToleranceBounds.upper(float(coeffs @ origin) + 1.0 + i)))
        for i in range(8):  # bisection: seeded solves
            problems.append(RadiusProblem(
                QuadraticMapping(np.eye(3)), rng.standard_normal(3) * 0.1,
                ToleranceBounds.upper(2.0 + 0.1 * i), norm=np.inf))

        def counts(obs):
            snap = obs.metrics.snapshot()
            return tuple(snap.get(name, {}).get("value", 0)
                         for name in ("cache.hits", "cache.misses"))

        install_default_cache(RadiusCache())
        with ParallelExecutor(2) as pool:
            with observing() as obs:
                compute_radii(problems, seed=1, cache=False, executor=pool)
            assert pool.stats()["dispatched"] == 2
            assert counts(obs) == (0, 0)
            with observing() as obs:
                compute_radii(problems, seed=2, executor=pool)
            assert counts(obs) == (0, len(problems))


class TestObservability:
    def test_tracing_does_not_change_results(self):
        problems = _problems()
        want = compute_radii(problems, seed=3, cache=False)
        with observing() as obs:
            got = compute_radii(problems, seed=3, cache=False)
        _assert_identical(got, want)
        names = [s.name for s in obs.recorder.spans()]
        assert "radius.batch" in names

    def test_batch_span_tags(self):
        problems = _problems()
        cache = RadiusCache()
        compute_radii(problems, seed=3, cache=cache)
        with observing() as obs:
            compute_radii(problems, seed=3, cache=cache)
        batch = [s for s in obs.recorder.spans()
                 if s.name == "radius.batch"][-1]
        assert batch.tags["problems"] == len(problems)
        assert batch.tags["hits"] >= 3


# The tier ladder over every mapping kind x norm x box x method.
KINDS = {
    "linear": LinearMapping([1.0, 0.5, 0.25]),
    "diag_quadratic": QuadraticMapping(np.diag([1.0, 2.0, 3.0])),
    "full_quadratic": QuadraticMapping([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2],
                                        [0.0, 0.2, 1.5]], [0.3, -0.2, 0.1]),
    "indefinite_quadratic": QuadraticMapping(
        [[2.0, 0.5, 0.0], [0.5, -1.0, 0.2], [0.0, 0.2, 1.5]]),
    "max": MaxMapping([LinearMapping([1.0, 0.0, 0.5]),
                       LinearMapping([0.0, 1.0, -0.5], 0.2)]),
}
METHODS = ["auto", "analytic", "numeric", "bisection"]


def _ladder_problem(kind: str, norm, boxed: bool) -> RadiusProblem:
    mapping = KINDS[kind]
    origin = np.array([0.1, 0.2, 0.3])
    phi0 = mapping.value(origin)
    # A box of half-width 0.8 keeps the l1 hyperplane witness (a 1.0 step
    # along the first axis) out of reach, so the affine l1 ladder falls
    # through to bisection, while the l-inf witness stays inside it.
    box = dict(lower=origin - 0.8, upper=origin + 0.8) if boxed else {}
    return RadiusProblem(mapping, origin,
                         ToleranceBounds(phi0 - 1.0, phi0 + 1.0), norm=norm,
                         **box)


def _expected_ladder(kind: str, norm, boxed: bool, method: str):
    """The documented ladder, or ``None`` where the method is rejected."""
    if method in ("auto", "analytic") and kind == "linear":
        if method == "auto" and boxed:
            return ("analytic-box",) if norm == 2 \
                else ("analytic", "bisection")
        return ("analytic",)
    if method == "analytic":
        return None
    if method == "auto" and kind in ("diag_quadratic", "full_quadratic") \
            and norm == 2 and not boxed:
        return ("ellipsoid",)
    if method == "bisection" or norm != 2:
        return ("bisection",)
    return ("numeric",)


LADDER_CASES = [(kind, norm, boxed, method) for kind in KINDS
                for norm in (1, 2, np.inf) for boxed in (False, True)
                for method in METHODS]


class TestSolverStructure:
    def test_tiers_partition_as_documented(self):
        lin = RadiusProblem(LinearMapping([1.0, 1.0]), np.zeros(2),
                            ToleranceBounds.upper(2.0))
        quad = RadiusProblem(QuadraticMapping(np.eye(2)), np.zeros(2),
                             ToleranceBounds.upper(1.0))
        quad_l1 = RadiusProblem(QuadraticMapping(np.eye(2)), np.zeros(2),
                                ToleranceBounds.upper(1.0), norm=1)
        assert _solver_structure(lin, "auto")[0] == "analytic"
        assert _solver_structure(quad, "auto")[0] == "ellipsoid"
        assert _solver_structure(quad_l1, "auto")[0] == "bisection"
        assert _solver_structure(quad, "numeric")[0] == "numeric"
        assert _solver_structure(quad, "bisection")[0] == "bisection"

    def test_analytic_on_non_affine_group_raises(self):
        # A group of non-affine problems must not ride the numeric tensor
        # tier under method="analytic": it raises like compute_radius.
        quad = QuadraticMapping(np.eye(2))
        problems = [RadiusProblem(quad, np.zeros(2),
                                  ToleranceBounds.upper(beta))
                    for beta in (1.0, 2.0)]
        with pytest.raises(SpecificationError, match="affine"):
            compute_radius(problems[0], method="analytic", cache=False)
        for cache in (False, RadiusCache()):
            with pytest.raises(SpecificationError, match="affine"):
                compute_radii(problems, method="analytic", cache=cache)

    @pytest.mark.parametrize("kind,norm,boxed,method", LADDER_CASES)
    def test_every_path_follows_the_ladder(self, kind, norm, boxed, method):
        problem = _ladder_problem(kind, norm, boxed)
        expected = _expected_ladder(kind, norm, boxed, method)
        cache = RadiusCache()
        if expected is None:
            for solve in (
                    lambda: _tier_ladder(problem, method),
                    lambda: compute_radius(problem, method=method,
                                           cache=False),
                    lambda: compute_radii([problem, problem], method=method,
                                          cache=False),
                    lambda: cache.key(problem, method=method)):
                with pytest.raises(SpecificationError, match="affine"):
                    solve()
            return
        ladder, _ = _tier_ladder(problem, method)
        assert ladder == expected
        # Grouping reads the first rung, analytic-box counted as analytic.
        tier = "analytic" if expected[0] == "analytic-box" else expected[0]
        assert _solver_structure(problem, method) == (tier, 3, 2)
        # The cache drops the seed exactly when every rung is closed-form.
        deterministic = _CLOSED_FORM.issuperset(ladder)
        assert (cache.key(problem, method=method, seed=1)
                == cache.key(problem, method=method, seed=2)) \
            == deterministic
        # Each bound walks the ladder: unreachable rungs, then the answer.
        result = compute_radius(problem, method=method, seed=0, cache=False)
        for bound in problem.bounds.finite_bounds:
            attempts = [a for a in result.diagnostics if a.bound == bound]
            assert tuple(a.solver for a in attempts) \
                == ladder[:len(attempts)]
            assert all(a.outcome == "unreachable" for a in attempts[:-1])
            assert attempts[-1].outcome == "ok" \
                or len(attempts) == len(ladder)

    def test_ladders_that_fall_through_are_exercised(self):
        problem = _ladder_problem("linear", 1, True)
        result = compute_radius(problem, seed=0, cache=False)
        assert [a.solver for a in result.diagnostics
                if a.bound == problem.bounds.beta_max] \
            == ["analytic", "bisection"]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("norm", [1, 2, np.inf])
    @pytest.mark.parametrize("boxed", [False, True])
    def test_cascade_extends_the_auto_ladder(self, kind, norm, boxed):
        problem = _ladder_problem(kind, norm, boxed)
        ladder, _ = _tier_ladder(problem, "auto")
        stages = SolverCascade()._stages(problem,
                                         problem.bounds.beta_max)
        names = tuple(name for name, _, _ in stages)
        assert names[:len(ladder)] == ladder
        assert names[-1] == "bisection"
        assert ("numeric" in names) == (norm == 2)


def _radii_batch_shaped(seed: int = 7) -> list[RadiusProblem]:
    """80 problems shaped like perfbench's ``radii-batch``: 64 bisection
    problems over 3 shared 12-dim mappings x 2 norms (6 tensors), 2
    two-dim positive-definite quadratics and 14 closed-form problems."""
    rng = np.random.default_rng(seed)
    n = 12
    rows = rng.standard_normal((4, n))
    mappings = [QuadraticMapping(np.diag(1.0 + 0.2 * rng.random(n))),
                QuadraticMapping(np.diag(1.0 + 0.2 * rng.random(n))),
                MaxMapping([LinearMapping(row / np.linalg.norm(row), 0.1 * k)
                            for k, row in enumerate(rows)])]
    problems = []
    for i in range(64):
        mapping = mappings[i % 3]
        origin = 0.05 * rng.standard_normal(n)
        problems.append(RadiusProblem(
            mapping, origin,
            ToleranceBounds(beta_max=mapping.value(origin) + 3.0),
            norm=np.inf if (i // 3) % 2 == 0 else 1))
    for _ in range(2):
        q = np.diag(1.0 + rng.random(2))
        q[0, 1] = q[1, 0] = 0.3
        origin = 0.05 * rng.standard_normal(2)
        problems.append(RadiusProblem(
            QuadraticMapping(q), origin,
            ToleranceBounds(beta_max=QuadraticMapping(q).value(origin) + 2.0)))
    for j in range(14):
        origin = 0.05 * rng.standard_normal(n)
        if j % 2 == 0:
            problems.append(RadiusProblem(
                LinearMapping(rng.standard_normal(n) + 0.1, 1.0), origin,
                ToleranceBounds(-12.0, 12.0)))
        else:
            problems.append(RadiusProblem(
                QuadraticMapping(np.diag(np.abs(rng.standard_normal(n))
                                         + 0.5)),
                origin, ToleranceBounds(-6.0, 6.0)))
    return [problems[k] for k in rng.permutation(len(problems))]


class TestCostSizedShards:
    def test_unpriced_groups_are_one_shard_each(self):
        groups = [[0, 2, 4], [1], [3, 5]]
        assert _worker_shards(groups, 2) == groups

    def test_cheap_groups_stay_whole(self):
        # 10 ellipsoid problems (about 2 ms) sit below the cut break-even.
        groups = [list(range(10)), list(range(10, 12))]
        def subgroups(idxs):
            pytest.fail(f"sub-grouped a group that is not cut: {idxs}")

        shards = _worker_shards(groups, 4, [("ellipsoid", 12, 2),
                                            ("analytic", 12, 2)], subgroups)
        assert shards == groups
        assert [s.cost for s in shards] == sorted(
            (s.cost for s in shards), reverse=True)

    def test_idle_worker_cuts_any_group_over_its_share(self):
        # With no break-even (a pooled batch leaving a worker idle), a
        # lone cheap group is cut into one piece per worker.
        shards = _worker_shards([list(range(4))], 2, [("analytic", 8, 2)],
                                lambda idxs: [idxs], break_even=0.0)
        assert shards == [[0, 1], [2, 3]]
        assert _worker_shards([list(range(4))], 2, [("analytic", 8, 2)],
                              lambda idxs: [idxs]) == [list(range(4))]

    def test_costly_group_cut_along_its_tensors(self):
        subs = [list(range(k, 60, 6)) for k in range(6)]  # 6 tensors of 10
        calls = []

        def subgroups(idxs):
            calls.append(idxs)
            return subs

        groups = [list(range(60)), [60, 61]]
        shards = _worker_shards(groups, 2, [("bisection", 12, 1),
                                            ("analytic", 12, 2)], subgroups)
        assert calls == [groups[0]]  # only the group being cut
        assert [len(s) for s in shards] == [30, 30, 2]
        for piece in shards[:2]:  # three whole tensors per piece
            assert sorted(piece) == sorted(
                i for sub in subs if sub[0] in piece for i in sub)
        assert sorted(i for s in shards for i in s) == list(range(62))

    def test_lone_tensor_sliced_into_pieces(self):
        shards = _worker_shards([list(range(48))], 4, [("bisection", 12, 1)],
                                lambda idxs: [idxs])
        assert [len(s) for s in shards] == [12, 12, 12, 12]
        assert sorted(i for s in shards for i in s) == list(range(48))

    def test_traced_radii_batch_cuts_the_bisection_group_in_two(self):
        problems = _radii_batch_shaped()
        want = compute_radii(problems, seed=7, cache=False)
        with ParallelExecutor(2) as pool, observing() as obs:
            got = compute_radii(problems, seed=7, cache=False, executor=pool)
        _assert_identical(got, want)
        spans = obs.recorder.spans()
        [batch] = [s for s in spans if s.name == "radius.batch"]
        assert (batch.tags["groups"], batch.tags["shards"]) == (4, 5)
        costs = batch.tags["shard_cost_ms"]
        assert len(costs) == 5 and costs == sorted(costs, reverse=True)
        # Tasks run in submission order: the two costliest are the
        # bisection pieces, each three whole tensors of the six.
        tasks = [s for s in spans if s.name == "parallel.task"]
        tensors = [[s.tags["problems"] for s in spans
                    if s.name == "radius.tensor" and s.parent_id == t.span_id]
                   for t in tasks[:2]]
        assert [len(t) for t in tensors] == [3, 3]
        assert sorted(tensors[0] + tensors[1]) == [10, 10, 11, 11, 11, 11]
