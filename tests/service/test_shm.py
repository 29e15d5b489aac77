"""Shared-memory batch publication: fidelity and lifecycle discipline.

Two contracts under test.  Fidelity: a problem reconstructed from a
published batch is exactly the problem that went in (arrays bit-equal,
mappings deduplicated but intact), so solving through shm cannot change
a number.  Lifecycle: every published segment is unlinked by ``close()``
/ context-manager exit, and :func:`assert_no_leaked_segments` turns a
strand into a loud failure.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.features import ToleranceBounds
from repro.core.mappings import LinearMapping, QuadraticMapping
from repro.core.radius import RadiusProblem, compute_radius
from repro.exceptions import SpecificationError
from repro.observability import Observability, observing
from repro.service.shm import (
    SEGMENT_PREFIX,
    BatchDescriptor,
    SharedProblemBatch,
    _DecodedBatch,
    active_segments,
    assert_no_leaked_segments,
    attach_batch,
    worker_batch_cache_info,
)


@pytest.fixture(autouse=True)
def _clean_segments():
    yield
    assert_no_leaked_segments()  # unlinks strands, then fails the test


def _problems():
    rng = np.random.default_rng(4)
    shared_mapping = LinearMapping(rng.standard_normal(3), 0.5)
    out = []
    for i in range(3):  # three problems over ONE mapping object
        origin = rng.standard_normal(3)
        out.append(RadiusProblem(shared_mapping, origin,
                                 ToleranceBounds.upper(
                                     shared_mapping.value(origin) + 1.0 + i)))
    out.append(RadiusProblem(  # distinct mapping, box bounds, inf norm
        QuadraticMapping(np.eye(3)), rng.standard_normal(3) * 0.1,
        ToleranceBounds.upper(2.0),
        lower=np.full(3, -5.0), upper=np.full(3, 5.0), norm=np.inf))
    return out


class TestRoundTrip:
    def test_problems_reconstruct_bit_identical(self):
        problems = _problems()
        with SharedProblemBatch.publish(problems) as batch:
            decoded = _DecodedBatch(batch.descriptor)
            try:
                for i, want in enumerate(problems):
                    got = decoded.problem(i)
                    np.testing.assert_array_equal(got.origin, want.origin)
                    assert got.norm == want.norm
                    assert float(got.bounds.beta_min) == \
                        float(want.bounds.beta_min)
                    assert float(got.bounds.beta_max) == \
                        float(want.bounds.beta_max)
                    if want.lower is None:
                        assert got.lower is None
                    else:
                        np.testing.assert_array_equal(got.lower, want.lower)
                    if want.upper is None:
                        assert got.upper is None
                    else:
                        np.testing.assert_array_equal(got.upper, want.upper)
            finally:
                decoded.release()

    def test_solves_through_shm_are_identical(self):
        problems = _problems()
        with SharedProblemBatch.publish(problems) as batch:
            decoded = _DecodedBatch(batch.descriptor)
            try:
                for i, problem in enumerate(problems):
                    # the inf-norm solve samples; a fixed seed makes the
                    # original/reconstructed comparison exact
                    want = compute_radius(problem, seed=5, cache=False)
                    got = compute_radius(decoded.problem(i), seed=5,
                                         cache=False)
                    assert got.radius == want.radius
                    assert got.method == want.method
                    np.testing.assert_array_equal(got.boundary_point,
                                                  want.boundary_point)
            finally:
                decoded.release()

    def test_shared_mappings_serialize_once(self):
        problems = _problems()  # 3 problems share one mapping + 1 distinct
        with SharedProblemBatch.publish(problems) as batch:
            decoded = _DecodedBatch(batch.descriptor)
            try:
                assert len(decoded._mappings) == 2
            finally:
                decoded.release()

    def test_empty_batch_rejected(self):
        with pytest.raises(SpecificationError):
            SharedProblemBatch.publish([])

    def test_descriptor_problem_count_checked(self):
        problems = _problems()
        with SharedProblemBatch.publish(problems) as batch:
            bogus = BatchDescriptor(
                data_name=batch.descriptor.data_name,
                meta_name=batch.descriptor.meta_name,
                data_length=batch.descriptor.data_length,
                n_problems=99)
            with pytest.raises(SpecificationError):
                _DecodedBatch(bogus)


class TestWorkerCache:
    def test_attach_is_cached_per_process(self):
        problems = _problems()
        with SharedProblemBatch.publish(problems) as batch:
            first = attach_batch(batch.descriptor)
            second = attach_batch(batch.descriptor)
            assert first is second
            info = worker_batch_cache_info()
            assert batch.descriptor.data_name in info["names"]

    def test_cache_is_bounded(self):
        problems = _problems()[:1]
        batches = [SharedProblemBatch.publish(problems) for _ in range(6)]
        try:
            for batch in batches:
                attach_batch(batch.descriptor)
            assert worker_batch_cache_info()["entries"] <= 4
        finally:
            for batch in batches:
                batch.close()


class TestLifecycle:
    def test_context_manager_unlinks(self):
        with SharedProblemBatch.publish(_problems()) as batch:
            assert batch.descriptor.data_name in active_segments()
        assert active_segments() == []
        assert_no_leaked_segments()  # /dev/shm clean too

    def test_close_is_idempotent(self):
        batch = SharedProblemBatch.publish(_problems())
        batch.close()
        batch.close()
        assert batch.closed
        assert active_segments() == []

    def test_exit_safety_net_unlinks_open_batches(self):
        from repro.service.shm import _release_all_segments

        batch = SharedProblemBatch.publish(_problems())
        _release_all_segments()  # what atexit runs
        assert batch.closed
        assert active_segments() == []

    def test_leak_guard_fails_loudly_and_cleans_up(self):
        batch = SharedProblemBatch.publish(_problems())
        with pytest.raises(AssertionError, match=batch.descriptor.data_name):
            assert_no_leaked_segments()
        # the guard unlinked the strand: a second sweep is clean
        assert_no_leaked_segments()
        assert batch.closed

    def test_shm_bytes_gauge_tracks_publication(self):
        obs = Observability()
        with observing(obs):
            with SharedProblemBatch.publish(_problems()):
                during = obs.metrics.snapshot()["shm.bytes"]["value"]
            after = obs.metrics.snapshot()["shm.bytes"]["value"]
        assert during > 0
        assert after == 0.0

    def test_segment_names_carry_prefix_and_pid(self):
        import os
        with SharedProblemBatch.publish(_problems()) as batch:
            assert batch.descriptor.data_name.startswith(
                f"{SEGMENT_PREFIX}_{os.getpid()}_")
            assert batch.descriptor.meta_name.startswith(
                f"{SEGMENT_PREFIX}_{os.getpid()}_")
