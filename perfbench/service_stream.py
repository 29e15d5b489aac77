"""Workload ``service-stream``: ``RadiusService(2)`` with its default config.

Requests carry 2 problems each: most closed-form, a quarter with an
inf-norm bisection problem over 4 shared mappings, and a quarter exact
repeats of an earlier request (so the shared cache serves reads beside
writes).  One generator thread drives two phases on one service:

* phase A, an open loop at a fixed ``RATE`` (about a third of the
  service's peak), each request timed from its due time, for latency;
* phase B, a closed window of ``WINDOW`` outstanding requests (below the
  default ``queue_limit``), for throughput.

Queueing, shared memory, pickling, the supervisor and the shared cache
dominate; the kernel does little.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from perfbench.harness import (
    WORKERS,
    Outcome,
    Stopwatch,
    canonical,
    median,
    p95,
    peak_rss_mb,
    per_call_layers,
    setup_median,
    subtree,
)

DIM = 8
N_REQUESTS = 10000
#: Phase A arrival rate, requests/s: about a third of the default
#: service's measured peak on a 2-core box.
RATE = 40.0
#: Phase B outstanding requests (the default queue_limit is 32).
WINDOW = 16
#: Share of ``--seconds`` spent in phase A; phase B gets the rest.
PHASE_A_SHARE = 0.4
#: Requests per pass in the traced run's fixed-size comparisons.
PASS_REQUESTS = 400
RESULT_TIMEOUT_S = 60.0


@dataclass
class Inputs:
    requests: list
    solve_seed: int


def make_inputs(seed: int) -> Inputs:
    from repro.core.features import ToleranceBounds
    from repro.core.mappings import LinearMapping, QuadraticMapping
    from repro.core.radius import RadiusProblem

    rng = np.random.default_rng([seed, 2])
    shared = [QuadraticMapping(np.diag(1.0 + 0.2 * rng.random(DIM)))
              for _ in range(4)]

    def closed_form():
        origin = 0.05 * rng.standard_normal(DIM)
        if rng.random() < 0.5:
            return RadiusProblem(
                LinearMapping(rng.standard_normal(DIM) + 0.1, 1.0), origin,
                ToleranceBounds(-12.0, 12.0))
        return RadiusProblem(
            QuadraticMapping(np.diag(np.abs(rng.standard_normal(DIM)) + 0.5)),
            origin, ToleranceBounds(-6.0, 6.0))

    requests: list = []
    for i in range(N_REQUESTS):
        kind = i % 4
        if kind == 3:
            requests.append(requests[int(rng.integers(0, i))])
        elif kind == 1:
            mapping = shared[int(rng.integers(len(shared)))]
            origin = 0.05 * rng.standard_normal(DIM)
            requests.append([closed_form(), RadiusProblem(
                mapping, origin,
                ToleranceBounds(beta_max=mapping.value(origin) + 3.0),
                norm=np.inf)])
        else:
            requests.append([closed_form(), closed_form()])
    return Inputs(requests=requests, solve_seed=int(seed))


class _Stream:
    """Hands out requests in stream order and records what came back.

    The stream never wraps around: a replayed request would be a cache
    hit, which is not the traffic mix being measured."""

    def __init__(self, requests, start: int = 0) -> None:
        self.requests = requests
        self.next = start
        self.answered: list = []  # (request index, results or None)

    def exhausted(self) -> bool:
        return self.next >= len(self.requests)

    def take(self) -> tuple[int, list]:
        i = self.next
        self.next += 1
        return i, self.requests[i]


def _open_loop(service, stream: _Stream, seed, seconds: float):
    """Phase A: submit at ``RATE`` regardless of completions; returns
    per-request latency from due time and generator lateness (seconds).
    """
    from repro.exceptions import ServiceOverloadError

    n = max(1, int(RATE * seconds))
    handoff: queue.Queue = queue.Queue()
    latency = [None] * n
    late = [0.0] * n

    def collect():
        while (item := handoff.get()) is not None:
            k, i, due, ticket = item
            results = None
            if ticket is not None:
                try:
                    results = ticket.result(timeout=RESULT_TIMEOUT_S)
                    latency[k] = time.perf_counter() - due
                except Exception:  # failed or timed out: counted below
                    results = None
            stream.answered.append((i, results))

    collector = threading.Thread(target=collect, name="perfbench-collector")
    collector.start()
    t0 = time.perf_counter() + 0.01
    try:
        for k in range(n):
            due = t0 + k / RATE
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            i, request = stream.take()
            late[k] = time.perf_counter() - due
            try:
                ticket = service.submit(request, seed=seed)
            except ServiceOverloadError:
                ticket = None
            handoff.put((k, i, due, ticket))
    finally:
        handoff.put(None)
        collector.join()
    return [x for x in latency if x is not None], late


def _closed_window(service, stream: _Stream, seed, *, seconds=None,
                   count=None, submitted=None):
    """Phase B: keep ``WINDOW`` requests outstanding, for ``seconds`` of
    submissions or ``count`` requests.

    Returns ``(start time, [(completion time, radii), ...])``;
    ``submitted`` optionally collects ``{request id: submit time}``.
    """
    from repro.exceptions import ServiceOverloadError

    pending: deque = deque()
    completions = []
    sent = 0
    t0 = time.perf_counter()
    deadline = t0 + seconds if seconds is not None else None

    def more() -> bool:
        if stream.exhausted():
            return False
        if deadline is not None:
            return time.perf_counter() < deadline
        return sent < count

    while more() or pending:
        while len(pending) < WINDOW and more():
            i, request = stream.take()
            sent += 1
            try:
                ticket = service.submit(request, seed=seed)
                pending.append((i, ticket))
                if submitted is not None:
                    submitted[ticket.request_id] = time.perf_counter()
            except ServiceOverloadError:
                stream.answered.append((i, None))
        if pending:
            i, ticket = pending.popleft()
            try:
                results = ticket.result(timeout=RESULT_TIMEOUT_S)
                completions.append((time.perf_counter(), len(results)))
            except Exception:  # failed or timed out: counted below
                results = None
            stream.answered.append((i, results))
    return t0, completions


def _rate(t0, completions) -> float:
    """Radii per second over a whole pass."""
    return sum(n for _, n in completions) / (completions[-1][0] - t0)


def _median_rate(t0, completions, block: int = 100) -> float:
    """Median radii per second over consecutive blocks of about ``block``
    radii (the trailing partial block is dropped), which keeps a burst of
    foreign load on a shared machine from moving the whole figure."""
    rates, start, count = [], t0, 0
    for t, n in completions:
        count += n
        if count >= block:
            rates.append(count / (t - start))
            start, count = t, 0
    return median(rates) if len(rates) >= 3 else _rate(t0, completions)


def _check(out: Outcome, stream: _Stream, inputs: Inputs, refs: dict,
           plain_loop) -> None:
    """Every answer must equal a plain ``compute_radius`` loop."""
    for i, results in stream.answered:
        request = inputs.requests[i]
        key = id(request)
        if key not in refs:
            refs[key] = canonical(plain_loop(request))
        out.check(results is not None and canonical(results) == refs[key],
                  f"request {i} failed, was shed or differs")


def _no_leaks(out: Outcome) -> None:
    from repro.service import assert_no_leaked_segments

    try:
        assert_no_leaked_segments()
        out.check(True, "")
    except AssertionError as exc:
        out.check(False, str(exc))


def run(inputs: Inputs, *, seconds: float, trace: bool) -> Outcome:
    from repro.core.radius import compute_radius
    from repro.service import RadiusService

    seed = inputs.solve_seed
    requests = inputs.requests
    out = Outcome()
    refs: dict = {}

    def plain_loop(request):
        return [compute_radius(p, seed=seed, cache=False) for p in request]

    def start():
        service = RadiusService(WORKERS)
        service.compute(requests[0], seed=seed)
        return service, service.close

    service, close, setup_s = setup_median(start)
    stream = _Stream(requests, start=1)
    try:
        latency, late = _open_loop(service, stream, seed,
                                   seconds * PHASE_A_SHARE)
        b_start, b_done = _closed_window(
            service, stream, seed, seconds=seconds * (1 - PHASE_A_SHARE))
    finally:
        close()
    _no_leaks(out)
    _check(out, stream, inputs, refs, plain_loop)
    out.metrics.update({
        "setup_s": setup_s,
        "radii_per_s": _median_rate(b_start, b_done),
        "latency_p50_ms": median(latency) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    })
    if not trace:
        return out
    out.metrics = {
        "service.latency_p95_ms": p95(latency) * 1e3,
        "generator.late_ms": p95(late) * 1e3,
    }
    out.metrics.update(_traced_passes(inputs, out, refs, plain_loop))
    out.metrics.update(_layer_probes(inputs, plain_loop))
    _no_leaks(out)
    return out


def _traced_passes(inputs: Inputs, out: Outcome, refs: dict,
                   plain_loop) -> dict:
    """Fixed-size closed-window passes over the first ``PASS_REQUESTS``
    requests, each on a fresh service: untraced and traced with the
    default config (their ratio is the tracing overhead), and untraced
    with the cache off (the default-cache vs cache-off gap)."""
    from repro.observability import Observability, observing
    from repro.service import RadiusService, ServiceConfig

    seed = inputs.solve_seed

    def one_pass(config=None, obs=None, submitted=None):
        stream = _Stream(inputs.requests)
        with RadiusService(WORKERS, config=config) as service:
            if obs is None:
                t0, done = _closed_window(service, stream, seed,
                                          count=PASS_REQUESTS)
            else:
                with observing(obs):
                    t0, done = _closed_window(
                        service, stream, seed, count=PASS_REQUESTS,
                        submitted=submitted)
            stats = service.stats()
        _check(out, stream, inputs, refs, plain_loop)
        return _rate(t0, done), stats

    plain_rate, plain_stats = one_pass()
    # A span's start is an offset from its recorder's epoch, read from
    # the clock inside the Observability() constructor bracketed here.
    before = time.perf_counter()
    obs = Observability()
    epoch = (before + time.perf_counter()) / 2
    submitted: dict = {}
    traced_rate, stats = one_pass(obs=obs, submitted=submitted)
    off_rate, off_stats = one_pass(ServiceConfig(cache=False))

    spans = obs.recorder.spans()
    roots = [s for s in spans if s.name == "service.request"]
    waits = [root.start - (submitted[root.tags["request"]] - epoch)
             for root in roots if root.tags.get("request") in submitted]
    tasks = sum(s.tags.get("tasks", 0) for root in roots
                for s in subtree(spans, root)
                if s.name == "supervisor.batch")
    cache = stats["cache"]
    lookups = cache["hits"] + cache["misses"]
    out.layers = per_call_layers(spans, len(roots))
    return {
        "trace.overhead": plain_rate / traced_rate,
        "service.cache_off_radii_per_s": off_rate,
        "service.request_ms": median([r.elapsed for r in roots]) * 1e3,
        "service.queue_wait_ms": median(waits) * 1e3,
        "supervisor.tasks_per_request": tasks / len(roots),
        "supervisor.retries": sum(st["executor"]["retries"] for st in
                                  (plain_stats, stats, off_stats)),
        "cache.hit_ratio": cache["hits"] / lookups,
    }


def _layer_probes(inputs: Inputs, plain_loop) -> dict:
    """The benchmark's own timed calls into the service's layers over the
    first ``PASS_REQUESTS`` requests: shared-memory publish and decode,
    shared-cache round-trips, and the serial baselines."""
    from repro.core.radius import compute_radii
    from repro.service.cache import SharedRadiusCache
    from repro.service.shm import SharedProblemBatch, attach_batch

    seed = inputs.solve_seed
    sample = inputs.requests[:PASS_REQUESTS]
    watch = Stopwatch()
    nbytes = []
    solved = []
    for request in sample:
        with watch.time("publish"):
            batch = SharedProblemBatch.publish(request)
        try:
            with watch.time("decode"):
                decoded = attach_batch(batch.descriptor)
                for i in range(len(request)):
                    decoded.problem(i)
        finally:
            batch.close()
        nbytes.append(batch.nbytes)
        with watch.time("loop"):
            solved.append(plain_loop(request))
        with watch.time("inproc"):
            compute_radii(request, seed=seed, cache=False)
    with SharedRadiusCache() as cache:
        for request, results in zip(sample, solved):
            for problem, result in zip(request, results):
                key = cache.key(problem, seed=seed)
                with watch.time("cache"):
                    cache.put(key, result)
                with watch.time("cache"):
                    cache.get(key)
    radii = sum(len(r) for r in sample)
    return {
        "shm.publish_ms": watch.median("publish") * 1e3,
        "shm.decode_ms": watch.median("decode") * 1e3,
        "shm.publish_bytes": median(nbytes),
        "cache.shared_ms": watch.median("cache") * 1e3,
        "baseline.loop_radii_per_s": radii / sum(watch.samples["loop"]),
        "baseline.inproc_radii_per_s": radii / sum(watch.samples["inproc"]),
    }
