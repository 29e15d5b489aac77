"""Coalesced serving: queued requests solved as one batch, unchanged results.

When the dispatcher frees up it takes every queued request and solves
those sharing a ``method`` and seed together — one cache pass, one
shared-memory publication, one supervised task per worker shard.
Whatever the batch, every ticket must equal the in-process library path
bit for bit, an error must reach only the ticket that caused it, and
``close()`` must still resolve every admitted ticket.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from contextlib import nullcontext

import numpy as np
import pytest

from repro.core.features import ToleranceBounds
from repro.core.mappings import LinearMapping, MaxMapping, QuadraticMapping
from repro.core.radius import RadiusProblem, compute_radii
from repro.exceptions import InfeasibleAllocationError, SpecificationError
from repro.observability import Observability, observing
from repro.parallel.cache import (
    get_default_cache,
    install_default_cache,
    uninstall_default_cache,
)
from repro.service import RadiusService, ServiceConfig, assert_no_leaked_segments
from repro.service.service import RadiusTicket, _Request


@pytest.fixture(autouse=True)
def _no_ambient_default_cache():
    before = get_default_cache()
    uninstall_default_cache()
    yield
    if before is not None:
        install_default_cache(before)


@pytest.fixture(autouse=True)
def _no_shm_leaks():
    yield
    assert_no_leaked_segments()


def _canonical(results) -> str:
    from repro.io.serialize import to_dict
    dicts = [to_dict(r) for r in results]
    for d in dicts:
        for attempt in d.get("diagnostics", []):
            attempt["elapsed"] = 0.0
    return json.dumps(dicts, sort_keys=True)


def _request_problems(i: int) -> list[RadiusProblem]:
    """Two or three problems over the analytic, ellipsoid, bisection and
    numeric tiers, varying with ``i`` so requests differ."""
    rng = np.random.default_rng(300 + i)
    coeffs = rng.standard_normal(4)
    origin = rng.standard_normal(4)
    out = [RadiusProblem(LinearMapping(coeffs), origin, ToleranceBounds.upper(
        LinearMapping(coeffs).value(origin) + 1.0))]
    out.append(RadiusProblem(QuadraticMapping(np.eye(4)),
                             rng.standard_normal(4) * 0.1,
                             ToleranceBounds.upper(2.0),
                             norm=np.inf if i % 2 else 2))
    if i % 3 == 0:
        comps = [LinearMapping(rng.standard_normal(4), float(k))
                 for k in range(2)]
        out.append(RadiusProblem(MaxMapping(comps), np.zeros(4),
                                 ToleranceBounds.upper(
                                     MaxMapping(comps).value(np.zeros(4))
                                     + 2.0)))
    return out


def _mixed_requests() -> list[tuple[list[RadiusProblem], str, object]]:
    """Methods auto and bisection; seeds 7, 8, None and a list; repeats.

    Seed ``None`` draws fresh entropy on every seeded solve, so only
    closed-form problems (linear and Euclidean diagonal quadratic) carry
    it: their answers never depend on the seed.
    """
    base = [_request_problems(i) for i in range(6)]
    closed_form = _request_problems(6)[:2]
    return [
        (base[0], "auto", 7),
        (base[1], "auto", 8),
        (base[2], "bisection", 7),
        (base[0], "auto", 7),         # a repeat inside the same batch
        (closed_form, "auto", None),
        (base[4], "auto", [1, 2]),
        (base[5], "auto", 7),
        (base[1], "bisection", 8),
        (base[4], "auto", [1, 2]),    # a list seed merges with its twin
        (closed_form, "auto", None),
    ]


def _as_requests(specs, first_id: int = 1) -> list[_Request]:
    return [_Request(RadiusTicket(first_id + k, len(problems)),
                     list(problems), method, seed)
            for k, (problems, method, seed) in enumerate(specs)]


def _wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:  # pragma: no cover - hang guard
            raise TimeoutError("condition not reached")
        time.sleep(0.01)


class _GatedLinear(LinearMapping):
    """Blocks evaluation on a shared gate; with ``workers=1`` the solve
    runs in the dispatcher thread, so an unset gate parks the dispatcher
    while the test fills the queue."""

    gate = threading.Event()

    def value(self, x):
        type(self).gate.wait()
        return super().value(x)


@pytest.fixture()
def gate():
    _GatedLinear.gate.clear()
    yield _GatedLinear.gate
    _GatedLinear.gate.set()  # never leave a dispatcher parked


def _gated_problem() -> RadiusProblem:
    return RadiusProblem(_GatedLinear([1.0, 2.0, 3.0]),
                         np.array([0.1, 0.2, 0.3]), ToleranceBounds.upper(10.0))


class TestCoalescedBatch:
    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_batch_matches_library_path(self, workers, traced):
        specs = _mixed_requests()
        # The second round repeats every request: the dispatcher's cache
        # now serves them, and the results must not change.
        rounds = [_as_requests(specs), _as_requests(specs, len(specs) + 1)]
        obs = Observability() if traced else None
        with RadiusService(workers) as service:
            with observing(obs) if traced else nullcontext():
                for requests in rounds:
                    service._serve(requests)
            stats = service.stats()
        for requests in rounds:
            for request, (problems, method, seed) in zip(requests, specs):
                want = compute_radii(problems, method=method, seed=seed,
                                     cache=False)
                assert _canonical(request.ticket.result(timeout=0)) \
                    == _canonical(want)
        n_problems = sum(len(p) for p, _, _ in specs)
        assert stats["completed"] == 2 * len(specs)
        assert stats["cache"]["misses"] == n_problems
        assert stats["cache"]["hits"] == n_problems
        if traced:
            spans = obs.recorder.spans()
            flushes = {s.span_id: s for s in spans
                       if s.name == "service.flush"}
            # one batch per (method, seed token) in each round: auto x
            # {7, 8, None, [1, 2]} and bisection x {7, 8}
            assert len(flushes) == 2 * 6
            first = sorted(flushes.values(), key=lambda s: s.span_id)[0]
            assert first.tags["requests"] == 3  # auto, seed 7
            assert first.tags["problems"] == sum(
                len(p) for p, m, s in specs if (m, s) == ("auto", 7))
            requests = [s for s in spans if s.name == "service.request"]
            assert len(requests) == 2 * len(specs)
            for s in requests:
                assert s.parent_id in flushes
                assert s.tags["flush"] == s.parent_id
            assert sum(f.tags["requests"] for f in flushes.values()) \
                == 2 * len(specs)
            batches = [s for s in spans if s.name == "radius.batch"
                       and s.parent_id in flushes]
            assert len(batches) == len(flushes)
            assert sum(b.tags["hits"] for b in batches) == n_problems

    def test_queued_requests_coalesce_into_one_flush(self, gate):
        specs = [(_request_problems(i), "auto", 7) for i in range(4)]
        obs = Observability()
        with observing(obs):
            with RadiusService(1) as service:
                blocked = service.submit([_gated_problem()], seed=7)
                _wait_until(lambda: service.queue_depth() == 0)
                tickets = [service.submit(p, method=m, seed=s)
                           for p, m, s in specs]
                assert service.queue_depth() == len(specs)
                gate.set()
                blocked.result(timeout=60)
                answers = service.gather(tickets, timeout=60)
        for got, (problems, method, seed) in zip(answers, specs):
            want = compute_radii(problems, method=method, seed=seed,
                                 cache=False)
            assert _canonical(got) == _canonical(want)
        flushes = [s for s in obs.recorder.spans()
                   if s.name == "service.flush"]
        assert [f.tags["requests"] for f in flushes] == [1, len(specs)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_infeasible_problem_fails_only_its_ticket(self, workers):
        specs = [(_request_problems(i), "auto", 7) for i in range(3)]
        bad = RadiusProblem(LinearMapping([1.0, 1.0]), np.ones(2),
                            ToleranceBounds.upper(1.0))  # f = 2 > 1
        specs[1] = ([specs[1][0][0], bad], "auto", 7)
        requests = _as_requests(specs)
        obs = Observability()
        with RadiusService(workers) as service:
            with observing(obs):
                service._serve(requests)
            stats = service.stats()
        # one merged batch, re-solved request by request inside it
        assert [s.tags["requests"] for s in obs.recorder.spans()
                if s.name == "service.flush"] == [3]
        with pytest.raises(InfeasibleAllocationError):
            requests[1].ticket.result(timeout=0)
        for k in (0, 2):
            problems, method, seed = specs[k]
            want = compute_radii(problems, method=method, seed=seed,
                                 cache=False)
            assert _canonical(requests[k].ticket.result(timeout=0)) \
                == _canonical(want)
        assert (stats["completed"], stats["failed"]) == (2, 1)


class TestConcurrentClients:
    def test_every_admitted_request_is_served_once(self):
        # More client threads than cores, switching often, race submit
        # against the dispatcher's drain: a lost or doubled request would
        # break the counts, a stranded one would time out.
        clients, per_client = 8, 6
        problems = [_request_problems(i) for i in range(per_client)]
        want = [_canonical(compute_radii(p, seed=5, cache=False))
                for p in problems]
        obs = Observability()
        answers: list = []
        errors: list = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with observing(obs), RadiusService(
                    2, config=ServiceConfig(queue_limit=64)) as service:

                def client():
                    try:
                        tickets = [(k, service.submit(p, seed=5))
                                   for k, p in enumerate(problems)]
                        answers.extend((k, t.result(timeout=60))
                                       for k, t in tickets)
                    except Exception as exc:  # pragma: no cover - reported
                        errors.append(exc)

                threads = [threading.Thread(target=client)
                           for _ in range(clients)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                stats = service.stats()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(answers) == clients * per_client
        for k, got in answers:
            assert _canonical(got) == want[k]
        assert stats["admitted"] == stats["completed"] == clients * per_client
        flushes = [s for s in obs.recorder.spans()
                   if s.name == "service.flush"]
        assert sum(f.tags["requests"] for f in flushes) == stats["admitted"]


class TestLifecycle:
    def test_close_with_full_queue_resolves_every_ticket(self, gate):
        config = ServiceConfig(queue_limit=3, cache=False)
        service = RadiusService(1, config=config)
        blocked = service.submit([_gated_problem()])
        _wait_until(lambda: service.queue_depth() == 0)
        queued = [service.submit(_request_problems(i), seed=i)
                  for i in range(3)]
        assert service.queue_depth() == config.queue_limit
        closer = threading.Thread(target=service.close)
        closer.start()
        _wait_until(lambda: service.closed)
        gate.set()
        closer.join(timeout=60)
        assert not closer.is_alive()
        assert len(blocked.result(timeout=0)) == 1
        for i, ticket in enumerate(queued):
            want = compute_radii(_request_problems(i), seed=i, cache=False)
            assert _canonical(ticket.result(timeout=0)) == _canonical(want)
        assert service.stats()["completed"] == 4


class TestCacheConfig:
    def test_default_cache_keeps_hit_and_miss_counts(self):
        problems = _request_problems(0)
        with RadiusService(1) as service:
            service.compute(problems, seed=3)
            service.compute(problems, seed=3)
            stats = service.stats()["cache"]
        assert (stats["hits"], stats["misses"]) == (len(problems),
                                                    len(problems))

    def test_cache_off_reports_none(self):
        with RadiusService(1, config=ServiceConfig(cache=False)) as service:
            service.compute(_request_problems(0), seed=3)
            assert service.stats()["cache"] is None

    def test_shared_option_is_gone(self):
        with pytest.raises(SpecificationError,
                           match="'local', False or a RadiusCache"):
            ServiceConfig(cache="shared")


class TestMethodCheck:
    def test_unknown_method_fails_before_enqueueing(self):
        with RadiusService(1) as service:
            with pytest.raises(SpecificationError, match="unknown method"):
                service.submit(_request_problems(0), method="anaytic")
            assert service.stats()["admitted"] == 0
