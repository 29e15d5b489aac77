"""Workload ``radii-batch``: ``compute_radii`` through a 2-worker pool.

Closed loop, one caller.  Each call is ``compute_radii(batch, seed=...,
cache=RadiusCache(), executor=ParallelExecutor(2))`` with a fresh cache,
cycling over a few seeded 80-problem batches.  Each batch is mostly
bisection-tier (inf- and 1-norm problems over three shared 12-dim
mappings, so tensor groups form), with a small numeric-tier share and a
closed-form minority.  The solver kernels do most of the work and
transport little.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import numpy as np

from perfbench.harness import (
    WORKERS,
    Outcome,
    Stopwatch,
    canonical,
    median,
    peak_rss_mb,
    per_call_layers,
    run_for,
    setup_median,
    subtree,
    timed,
    total,
)

BATCHES = 6
DIM = 12
N_BISECTION = 64
N_NUMERIC = 2
NUMERIC_DIM = 2
N_CLOSED = 14
TRACED_ROUNDS = 2


@dataclass
class Inputs:
    batches: list
    shared: list
    solve_seed: int


def make_inputs(seed: int) -> Inputs:
    from repro.core.features import ToleranceBounds
    from repro.core.mappings import LinearMapping, MaxMapping, QuadraticMapping
    from repro.core.radius import RadiusProblem

    rng = np.random.default_rng([seed, 1])
    batches, shared = [], []
    for _ in range(BATCHES):
        # Each batch draws its own shared mappings; the max-of-affine
        # components are unit-norm so crossing distances stay comparable
        # across seeds.
        rows = rng.standard_normal((4, DIM))
        mappings = [
            QuadraticMapping(np.diag(1.0 + 0.2 * rng.random(DIM))),
            QuadraticMapping(np.diag(1.0 + 0.2 * rng.random(DIM))),
            MaxMapping([LinearMapping(row / np.linalg.norm(row), 0.1 * k)
                        for k, row in enumerate(rows)]),
        ]
        shared.extend(mappings)
        batch = []
        for i in range(N_BISECTION):
            mapping = mappings[i % len(mappings)]
            origin = 0.05 * rng.standard_normal(DIM)
            norm = np.inf if (i // len(mappings)) % 2 == 0 else 1
            bounds = ToleranceBounds(beta_max=mapping.value(origin) + 3.0)
            batch.append(RadiusProblem(mapping, origin, bounds, norm=norm))
        for _ in range(N_NUMERIC):
            q = np.diag(1.0 + rng.random(NUMERIC_DIM))
            q[0, 1] = q[1, 0] = 0.3
            mapping = QuadraticMapping(q)
            origin = 0.05 * rng.standard_normal(NUMERIC_DIM)
            bounds = ToleranceBounds(beta_max=mapping.value(origin) + 2.0)
            batch.append(RadiusProblem(mapping, origin, bounds))
        for j in range(N_CLOSED):
            origin = 0.05 * rng.standard_normal(DIM)
            if j % 2 == 0:
                mapping = LinearMapping(rng.standard_normal(DIM) + 0.1, 1.0)
                bounds = ToleranceBounds(-12.0, 12.0)
            else:
                mapping = QuadraticMapping(
                    np.diag(np.abs(rng.standard_normal(DIM)) + 0.5))
                bounds = ToleranceBounds(-6.0, 6.0)
            batch.append(RadiusProblem(mapping, origin, bounds))
        batches.append([batch[k] for k in rng.permutation(len(batch))])
    return Inputs(batches=batches, shared=shared, solve_seed=int(seed))


def run(inputs: Inputs, *, seconds: float, trace: bool) -> Outcome:
    from repro.core.radius import compute_radii, compute_radius
    from repro.parallel.cache import RadiusCache
    from repro.parallel.executor import ParallelExecutor

    seed = inputs.solve_seed
    batches = inputs.batches
    out = Outcome()

    def plain_loop(batch):
        return [compute_radius(p, seed=seed, cache=False) for p in batch]

    loop_s = 0.0
    references = []
    for batch in batches:
        results, dt = timed(plain_loop, batch)
        references.append(canonical(results))
        loop_s += dt

    def solve(executor, batch):
        return compute_radii(batch, seed=seed, cache=RadiusCache(),
                             executor=executor)

    def start():
        executor = ParallelExecutor(WORKERS)
        solve(executor, batches[0])
        return executor, executor.close

    executor, close, setup_s = setup_median(start)
    index = {id(b): k for k, b in enumerate(batches)}
    try:
        calls = run_for(seconds, batches, lambda b: solve(executor, b))
        if trace:
            traced, spans = _traced_pass(executor, batches, solve)
    finally:
        close()

    for batch, results, _ in calls:
        out.check(canonical(results) == references[index[id(batch)]],
                  f"batch {index[id(batch)]} differs from compute_radius")
    call_s = [dt for _, _, dt in calls]
    radii = sum(len(b) for b, _, _ in calls)
    out.metrics.update({
        "setup_s": setup_s,
        "radii_per_s": radii / sum(call_s),
        "latency_p50_ms": median(call_s) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    })
    if not trace:
        return out

    for batch, (results, _, _) in zip(batches * TRACED_ROUNDS, traced):
        out.check(canonical(results) == references[index[id(batch)]],
                  "traced batch differs from compute_radius")
    traced_s = [dt for _, dt, _ in traced]
    dispatch = [dt - max((s.elapsed for s in call if s.name == "parallel.task"),
                         default=0.0) for _, dt, call in traced]
    radii_all = sum(len(b) for b in batches)
    inproc_s = sum(timed(compute_radii, b, seed=seed, cache=False)[1]
                   for b in batches)
    out.metrics = {
        "trace.overhead": median(traced_s) / median(call_s),
        "executor.dispatch_s": median(dispatch),
        "tensor.solve_s": median([total(call, "radius.tensor")
                                  for _, _, call in traced]),
        "baseline.loop_radii_per_s": radii_all / loop_s,
        "baseline.inproc_radii_per_s": radii_all / inproc_s,
        **_layer_probes(inputs, references, out),
    }
    out.layers = per_call_layers(spans, len(traced))
    return out


def _traced_pass(executor, batches, solve):
    """One traced call per batch; returns ``[(results, seconds, spans)]``
    and the whole pass's spans."""
    from repro.observability import Observability, observing

    obs = Observability()
    traced = []
    with observing(obs):
        for batch in batches * TRACED_ROUNDS:
            results, dt = timed(solve, executor, batch)
            root = [s for s in obs.recorder.spans()
                    if s.name == "radius.batch"][-1]
            traced.append((results, dt,
                           subtree(obs.recorder.spans(), root)))
    return traced, obs.recorder.spans()


def _layer_probes(inputs: Inputs, references: list, out: Outcome) -> dict:
    """The benchmark's own timed and counted calls into each layer, over
    the same batches and the shards ``compute_radii`` would cut.

    Exact counts come from an in-process replay of every shard with each
    shared mapping wrapped once in ``CallCountingMapping`` (worker-side
    counters do not come back across the pool).  The wrapper has no
    ``structure_key``, so tensor grouping falls back to object identity,
    which is the same grouping here.
    """
    from repro.core.radius import _solver_structure, _worker_shards
    from repro.core.solvers.bench import CallCountingMapping
    from repro.core.solvers.tensor import _solve_group_task, solve_group
    from repro.parallel.cache import RadiusCache
    from repro.parallel.executor import Task

    seed = inputs.solve_seed
    watch = Stopwatch()
    counted = {id(m): CallCountingMapping(m) for m in inputs.shared}
    tasks = task_bytes = evals = rows = bisection = 0
    for batch, reference in zip(inputs.batches, references):
        cache = RadiusCache()
        with watch.time("cache_pass"):
            keys = [cache.key(p, seed=seed) for p in batch]
            for key in keys:
                cache.get(key)
        with watch.time("group"):
            groups: dict = {}
            for i, p in enumerate(batch):
                groups.setdefault(_solver_structure(p, "auto"), []).append(i)
            shards = _worker_shards(list(groups.values()), WORKERS)
        tasks += len(shards)
        task_bytes += sum(
            len(pickle.dumps(Task(_solve_group_task,
                                  ([batch[i] for i in idxs], "auto", seed))))
            for idxs in shards)
        for m in counted.values():
            m.reset()
        merged = [None] * len(batch)
        for idxs in shards:
            shard = [_counted(batch[i], counted) for i in idxs]
            for i, r in zip(idxs, solve_group(shard, seed=seed, cache=False)):
                merged[i] = r
        evals += sum(m.calls for m in counted.values())
        rows += sum(m.rows for m in counted.values())
        bisection += sum(1 for p in batch if id(p.mapping) in counted)
        with watch.time("merge"):
            for key, result in zip(keys, merged):
                cache.put(key, result)
        out.check(canonical(merged) == reference,
                  "counted in-process shards differ from compute_radius")
    n = len(inputs.batches)
    return {
        "radius.cache_pass_s": watch.median("cache_pass"),
        "radius.group_s": watch.median("group") + watch.median("merge"),
        "tensor.evals_per_radius": evals / bisection,
        "tensor.rows_per_radius": rows / bisection,
        "executor.tasks_per_call": tasks / n,
        "executor.task_bytes": task_bytes / n,
    }


def _counted(problem, counted):
    from dataclasses import replace

    wrapper = counted.get(id(problem.mapping))
    return problem if wrapper is None else replace(problem, mapping=wrapper)
