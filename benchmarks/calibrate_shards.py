"""Calibrate the shard cost model of ``compute_radii``.

Run from the repository root (about thirty seconds on 2 cores, with
nothing else running)::

    PYTHONPATH=src python benchmarks/calibrate_shards.py

Prints the measured in-process solve cost of each tier next to the
estimate of :func:`repro.core.radius._estimate_ms`, then the cut
break-even: the size at which one bisection group, cut in two across a
``ParallelExecutor(2)``, starts to beat solving it whole in-process, and
the same on a ``SupervisedExecutor(2)``, which ships the whole group to
one worker when it is not cut, down to pairs of closed-form problems.
``docs/PERFORMANCE.md`` records the constants this measured.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.core.features import ToleranceBounds
from repro.core.mappings import LinearMapping, MaxMapping, QuadraticMapping
from repro.core.radius import (
    _BOUND_MS,
    _CUT_MS,
    _TENSOR_MS,
    RadiusProblem,
    _estimate_ms,
    _solve_shards,
)
from repro.core.solvers.tensor import solve_group
from repro.parallel.executor import ParallelExecutor
from repro.resilience.supervisor import SupervisedExecutor

SEED = 1


def _ms(fn, reps: int = 7) -> float:
    """Median wall time of ``fn()`` in ms, after one warm-up call."""
    fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _bisection_group(rng, kind: str, dim: int, size: int) -> list:
    """``size`` problems over one shared mapping: one tensor."""
    if kind == "quadratic":
        mapping = QuadraticMapping(np.diag(1.0 + 0.2 * rng.random(dim)))
        norm = np.inf
    else:
        rows = rng.standard_normal((4, dim))
        mapping = MaxMapping([LinearMapping(row / np.linalg.norm(row), 0.1 * k)
                              for k, row in enumerate(rows)])
        norm = 1
    problems = []
    for _ in range(size):
        origin = 0.05 * rng.standard_normal(dim)
        problems.append(RadiusProblem(
            mapping, origin,
            ToleranceBounds(beta_max=mapping.value(origin) + 3.0),
            norm=norm))
    return problems


def bisection(rng) -> None:
    print("bisection tensors: fit fixed + per-problem over 1..32 problems")
    sizes = np.array([1, 4, 16, 32])
    for kind in ("quadratic", "max"):
        for dim in (3, 8, 12, 24):
            times = [_ms(lambda g=_bisection_group(rng, kind, dim, int(p)):
                         solve_group(g, seed=SEED, cache=False))
                     for p in sizes]
            fixed, per = np.linalg.lstsq(
                np.vstack([np.ones(sizes.size), sizes]).T, np.array(times),
                rcond=None)[0]
            print(f"  {kind:9s} dim {dim:2d}: fixed {fixed:5.2f} ms "
                  f"(model {_TENSOR_MS:.2f}), per problem {per:.3f} ms "
                  f"(model {_BOUND_MS['bisection'](dim):.3f})")


def closed_form(rng) -> None:
    print("closed-form tiers: 16 problems, 2 bounds each")
    for dim in (2, 12):
        def full():
            a = rng.standard_normal((dim, dim))
            return a @ a.T + 0.5 * np.eye(dim)

        def origin():
            return 0.05 * rng.standard_normal(dim)

        cases = {
            "analytic": [RadiusProblem(
                LinearMapping(rng.standard_normal(dim) + 0.1, 1.0), origin(),
                ToleranceBounds(-12.0, 12.0)) for _ in range(16)],
            "ellipsoid": [RadiusProblem(
                QuadraticMapping(full(), rng.standard_normal(dim)), origin(),
                ToleranceBounds(-60.0, 60.0)) for _ in range(16)],
        }
        for tier, group in cases.items():
            per = _ms(lambda g=group: solve_group(g, seed=SEED,
                                                  cache=False)) / 32
            print(f"  {tier:9s} dim {dim:2d}: {per:.3f} ms per bound "
                  f"(model {_BOUND_MS[tier](dim):.3f})")


def numeric(rng) -> None:
    print("numeric tier: boxed positive-definite quadratics, 1 bound")
    for dim in (2, 4, 8):
        group = []
        for _ in range(4):
            q = np.diag(1.0 + rng.random(dim))
            q[0, 1] = q[1, 0] = 0.3
            mapping, origin = QuadraticMapping(q), \
                0.05 * rng.standard_normal(dim)
            group.append(RadiusProblem(
                mapping, origin,
                ToleranceBounds(beta_max=mapping.value(origin) + 2.0),
                lower=origin - 10.0, upper=origin + 10.0))
        per = _ms(lambda g=group: solve_group(g, seed=SEED, cache=False),
                  reps=3) / len(group)
        print(f"  dim {dim:2d}: {per:.2f} ms per bound "
              f"(model {_BOUND_MS['numeric'](dim):.2f})")


def break_even(rng) -> None:
    """Where cutting one 12-dim bisection tensor in two starts to pay.

    On a ``ParallelExecutor`` an uncut lone group is solved in-process;
    on a ``SupervisedExecutor`` (the service's) it is still shipped to
    one worker, so there the cut is weighed against one pooled shard.
    """
    structure = ("bisection", 12, 1)
    legs = (("ParallelExecutor(2)", ParallelExecutor, "whole in-process"),
            ("SupervisedExecutor(2)", SupervisedExecutor, "whole shipped"))
    for name, make, whole_label in legs:
        print(f"cut break-even: one 12-dim bisection tensor, {whole_label} "
              f"vs cut in two across {name}")
        with make(2) as pool:
            warm = _bisection_group(rng, "quadratic", 12, 4)
            _solve_shards(warm, [[0, 1], [2, 3]], "auto", SEED, pool)
            for size in (2, 4, 6, 8, 10, 12, 14, 16):
                group = _bisection_group(rng, "quadratic", 12, size)
                half = [list(range(size // 2)),
                        list(range(size // 2, size))]
                if make is ParallelExecutor:
                    def whole():
                        return solve_group(group, seed=SEED, cache=False)
                else:
                    def whole():
                        return _solve_shards(group, [list(range(size))],
                                             "auto", SEED, pool)
                whole_ms = _ms(whole, reps=61)
                cut = _ms(lambda: _solve_shards(group, half, "auto", SEED,
                                                pool), reps=61)
                print(f"  {size:2d} problems (estimate "
                      f"{_estimate_ms(structure, size):5.2f} ms): whole "
                      f"{whole_ms:5.2f} ms, cut {cut:5.2f} ms"
                      f"{'  <- cut pays' if cut < whole_ms else ''}")
    print(f"  model break-even: {_CUT_MS:.2f} ms; none when the batch "
          "goes to the pool anyway with a worker idle")


def idle_cut(rng) -> None:
    """Cheap closed-form pairs on the service's pool, whole against cut:
    with a worker idle and the batch shipped anyway, is any cut too small
    to pay?"""
    print("idle-worker cut: closed-form groups (8 dims), one shipped task "
          "vs cut in two across SupervisedExecutor(2)")
    dim = 8
    makers = {
        "analytic": lambda: RadiusProblem(
            LinearMapping(rng.standard_normal(dim) + 0.1, 1.0),
            0.05 * rng.standard_normal(dim), ToleranceBounds(-12.0, 12.0)),
        "ellipsoid": lambda: RadiusProblem(
            QuadraticMapping(np.diag(np.abs(rng.standard_normal(dim)) + 0.5)),
            0.05 * rng.standard_normal(dim), ToleranceBounds(-6.0, 6.0)),
    }
    with SupervisedExecutor(2) as pool:
        for tier, make in makers.items():
            for size in (2, 4):
                group = [make() for _ in range(size)]
                half = [list(range(size // 2)), list(range(size // 2, size))]
                whole = _ms(lambda: _solve_shards(
                    group, [list(range(size))], "auto", SEED, pool), reps=201)
                cut = _ms(lambda: _solve_shards(group, half, "auto", SEED,
                                                pool), reps=201)
                print(f"  {size} {tier:9s} problems: whole {whole:5.2f} ms, "
                      f"cut {cut:5.2f} ms"
                      f"{'  <- cut pays' if cut < whole else ''}")


def main() -> None:
    rng = np.random.default_rng(0)
    bisection(rng)
    closed_form(rng)
    numeric(rng)
    break_even(rng)
    idle_cut(rng)


if __name__ == "__main__":
    main()
