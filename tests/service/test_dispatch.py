"""One dispatch for every pooled radius batch.

A :class:`RadiusService` solves each coalesced batch through
:func:`compute_radii`, so the library call and the service share one
grouping, one sharding, one shared-memory transport and one worker
body.  Under test here: the shard sequence that carries the transport,
a single structural group split across the workers, a batch whose
mapping cannot be published (same answer on both paths, no leaked
segment), and a ``close()`` whose first call timed out.
"""

from __future__ import annotations

import json
import pickle
import time

import numpy as np
import pytest

from repro.core.features import ToleranceBounds
from repro.core.mappings import CallableMapping, LinearMapping, QuadraticMapping
from repro.core.radius import RadiusProblem, compute_radii, compute_radius
from repro.observability import observing
from repro.parallel.cache import (
    get_default_cache,
    install_default_cache,
    uninstall_default_cache,
)
from repro.parallel.executor import ParallelExecutor
from repro.resilience.supervisor import SupervisedExecutor
from repro.service import RadiusService, ServiceConfig, assert_no_leaked_segments
from repro.service.shm import BatchShard, SharedProblemBatch


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


def _bisection_problems(n: int) -> list[RadiusProblem]:
    """``n`` inf-norm quadratics: one structural group, seeded solves."""
    rng = np.random.default_rng(23)
    return [RadiusProblem(QuadraticMapping(np.eye(3)),
                          rng.standard_normal(3) * 0.1,
                          ToleranceBounds.upper(2.0 + 0.1 * i), norm=np.inf)
            for i in range(n)]


def _unpicklable_problems() -> list[RadiusProblem]:
    """Four numeric-tier problems over a lambda, which cannot pickle."""
    mapping = CallableMapping(lambda x: float(x @ x + x[0]), 3)
    rng = np.random.default_rng(29)
    return [RadiusProblem(mapping, rng.standard_normal(3) * 0.1,
                          ToleranceBounds.upper(2.0 + i))
            for i in range(4)]


def _canonical(results) -> str:
    from repro.io.serialize import to_dict
    dicts = [to_dict(r) for r in results]
    for d in dicts:
        for attempt in d.get("diagnostics", []):
            attempt["elapsed"] = 0.0
    return json.dumps(dicts, sort_keys=True)


class _SlowLinear(LinearMapping):
    """Every evaluation sleeps, so a solve stays in flight on a worker."""

    def value(self, x):
        time.sleep(1.0)
        return super().value(x)


class TestBatchShard:
    def test_pickles_as_descriptor_and_indices(self):
        problems = _bisection_problems(6)
        with SharedProblemBatch.publish(problems) as batch:
            shard = batch.shard([1, 4])
            blob = pickle.dumps(shard)
            # the problems never travel: only names and indices do
            assert len(blob) < len(pickle.dumps(problems[1:2]))
            assert list(shard) == [problems[1], problems[4]]
            assert shard[0] is problems[1]  # publisher side: no decode
            remote = pickle.loads(blob)
            assert isinstance(remote, BatchShard) and len(remote) == 2
            decoded = list(remote)
            assert decoded[0] is not problems[1]
            for got, want in zip(decoded, (problems[1], problems[4])):
                assert np.array_equal(got.origin, want.origin)
                assert got.bounds == want.bounds and got.norm == want.norm


class TestOneDispatch:
    def test_single_group_splits_across_workers(self):
        problems = _bisection_problems(8)
        want = compute_radii(problems, seed=5, cache=False)
        with observing() as obs:
            with RadiusService(2, config=ServiceConfig(cache=False)) as svc:
                got = svc.compute(problems, seed=5)
        assert _canonical(got) == _canonical(want)
        spans = obs.recorder.spans()
        [flush] = [s for s in spans if s.name == "service.flush"]
        [batch] = [s for s in spans if s.name == "radius.batch"]
        assert batch.parent_id == flush.span_id
        assert (batch.tags["groups"], batch.tags["shards"]) == (1, 2)
        assert "hits" not in flush.tags
        kinds = [e.kind for e in obs.events.events()]
        assert kinds.count("shm.publish") == 1
        assert kinds.count("shm.unlink") == 1

    def test_lone_shard_publishes_only_when_pooled(self):
        # A plain executor runs a one-task batch in-process, so nothing
        # is published and the batch carries no shard tags; a supervised
        # one still ships it to its pool.
        [problem] = _bisection_problems(1)
        want = compute_radius(problem, seed=5, cache=False)
        for executor, published in ((ParallelExecutor(2), 0),
                                    (SupervisedExecutor(2), 1)):
            with executor, observing() as obs:
                got = compute_radii([problem], seed=5, cache=False,
                                    executor=executor)
            assert _canonical(got) == _canonical([want])
            kinds = [e.kind for e in obs.events.events()]
            assert kinds.count("shm.publish") == published
            assert executor.stats()["dispatched"] == published
            [batch] = [s for s in obs.recorder.spans()
                       if s.name == "radius.batch"]
            assert batch.tags.get("shards", 0) == published
            assert len(batch.tags.get("shard_cost_ms", [])) == published

    def test_cheap_lone_group_is_cut_only_for_a_shipping_pool(self):
        # A supervised pool ships even an uncut group, so cutting costs
        # only a task on the idle worker; a plain executor would solve
        # the uncut group in-process, which a cheap group does not repay.
        problems = _bisection_problems(4)
        want = compute_radii(problems, seed=5, cache=False)
        for executor, tasks in ((SupervisedExecutor(2), 2),
                                (ParallelExecutor(2), 0)):
            with executor, observing() as obs:
                got = compute_radii(problems, seed=5, cache=False,
                                    executor=executor)
            assert _canonical(got) == _canonical(want)
            [batch] = [s for s in obs.recorder.spans()
                       if s.name == "radius.batch"]
            assert batch.tags.get("shards", 0) == tasks
            assert executor.stats()["dispatched"] == tasks

    def test_single_worker_service_solves_on_the_dispatcher(self):
        problems = _bisection_problems(4)
        want = compute_radii(problems, seed=5, cache=False)
        with observing() as obs:
            with RadiusService(1, config=ServiceConfig(cache=False)) as svc:
                got = svc.compute(problems, seed=5)
                assert svc.executor.stats()["dispatched"] == 0
        assert _canonical(got) == _canonical(want)
        names = {s.name for s in obs.recorder.spans()}
        assert "supervisor.batch" not in names
        assert "shm.publish" not in \
            {e.kind for e in obs.events.events()}


class TestUnpublishableBatch:
    """A mapping that does not pickle cannot reach a worker: both entry
    points solve the batch in-process and agree with the serial path."""

    def test_library_path_falls_back_in_process(self):
        problems = _unpicklable_problems()
        want = compute_radii(problems, seed=3, cache=False)
        with observing() as obs:
            with ParallelExecutor(2) as pool:
                got = compute_radii(problems, seed=3, cache=False,
                                    executor=pool)
                stats = pool.stats()
        assert _canonical(got) == _canonical(want)
        assert stats["fallbacks"] == 1
        assert "unpublishable batch" in stats["last_fallback_reason"]
        [event] = [e for e in obs.events.events()
                   if e.kind == "pool.fallback"]
        assert "unpublishable batch" in event.fields["reason"]

    def test_service_path_falls_back_in_process(self):
        problems = _unpicklable_problems()
        want = compute_radii(problems, seed=3, cache=False)
        with RadiusService(2, config=ServiceConfig(cache=False)) as svc:
            got = svc.compute(problems, seed=3)
            stats = svc.stats()
        assert _canonical(got) == _canonical(want)
        assert (stats["completed"], stats["failed"]) == (1, 0)
        assert stats["executor"]["fallbacks"] == 1


class TestCloseAfterTimeout:
    def test_second_close_finishes_the_shutdown(self):
        service = RadiusService(2, config=ServiceConfig(cache=False))
        try:
            problem = RadiusProblem(_SlowLinear([1.0, 2.0]),
                                    np.array([0.1, 0.2]),
                                    ToleranceBounds.upper(10.0))
            ticket = service.submit([problem])
            deadline = time.monotonic() + 10
            while service.queue_depth() and time.monotonic() < deadline:
                time.sleep(0.01)
            # The solve is in flight on a worker: the dispatcher outlives
            # the timeout and the pool is left open.
            service.close(timeout=0.1)
            assert service.closed
            assert service._dispatcher.is_alive()
            assert len(ticket.result(timeout=60)) == 1
            service._dispatcher.join(timeout=60)
            assert not service._dispatcher.is_alive()
            assert service.executor._pool is not None
            # A later close() joins the stopped dispatcher and closes
            # the pool it left open.
            service.close()
            assert service.executor._pool is None
        finally:
            service.executor.close()
