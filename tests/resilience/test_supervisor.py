"""Tests for supervised task execution (retries, quarantine, breaker)."""

from __future__ import annotations

import os
import pickle
import signal
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.diagnostics import Quality
from repro.exceptions import SpecificationError
from repro.observability import observing
from repro.parallel.executor import Task
from repro.resilience.retry import RetryPolicy
from repro.resilience.supervisor import (
    BatchReport,
    BreakerConfig,
    CircuitBreaker,
    SupervisedExecutor,
    SupervisorConfig,
    TaskFailure,
    TaskOutcome,
    resolve_task_failures,
)

#: Near-zero backoff so retry waves never slow the suite down.
FAST = SupervisorConfig(retry=RetryPolicy(backoff_base=1e-5,
                                          backoff_cap=1e-4))


def _fast_config(**overrides) -> SupervisorConfig:
    defaults = dict(retry=RetryPolicy(backoff_base=1e-5, backoff_cap=1e-4))
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


def _square(x):
    return x * x


def _boom():
    raise ValueError("task exploded")


def _die_on_worker(parent_pid):
    """SIGKILL any worker process; succeed when run in the parent."""
    if os.getpid() != parent_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return "serial"


def _kill_once(marker_path):
    """SIGKILL the current process the first time, succeed afterwards."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w", encoding="utf-8") as fh:
            fh.write(str(os.getpid()))
        os.kill(os.getpid(), signal.SIGKILL)
    return "survived"


class _Flaky:
    """Fails the first ``fail_times`` calls, then succeeds (in-process)."""

    def __init__(self, fail_times: int) -> None:
        self.remaining = fail_times

    def __call__(self) -> str:
        if self.remaining > 0:
            self.remaining -= 1
            raise ValueError("flaky")
        return "ok"


class _SubmitBreakingPool:
    """A fake process pool whose worker dies during submission.

    The first future fails with :class:`BrokenProcessPool` (its worker
    died) and the second ``submit`` raises it, as a real pool does once
    it has noticed the death.  Later pools run tasks in-process.
    """

    def __init__(self, breaks: bool) -> None:
        self.breaks = breaks
        self.submits = 0

    def submit(self, fn, *args):
        self.submits += 1
        future = Future()
        if self.breaks and self.submits == 2:
            raise BrokenProcessPool("A child process terminated abruptly")
        if self.breaks and self.submits == 1:
            future.set_exception(
                BrokenProcessPool("A child process terminated abruptly"))
        else:
            future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True):  # noqa: ARG002 - pool API
        pass


class TestConfigs:
    def test_supervisor_config_validation(self):
        with pytest.raises(SpecificationError, match="task_timeout"):
            SupervisorConfig(task_timeout=0.0)
        with pytest.raises(SpecificationError, match="max_task_retries"):
            SupervisorConfig(max_task_retries=-1)

    def test_breaker_config_validation(self):
        with pytest.raises(SpecificationError, match="failure_threshold"):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(SpecificationError, match="cooldown"):
            BreakerConfig(cooldown=0)

    def test_executor_rejects_wrong_config_type(self):
        with pytest.raises(SpecificationError, match="SupervisorConfig"):
            SupervisedExecutor(1, config=object())


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=3,
                                               cooldown=2))
        assert breaker.allow_pool()
        breaker.record_pool_failure()
        breaker.record_pool_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_pool_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow_pool()
        assert breaker.opens == 1

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=2))
        breaker.record_pool_failure()
        breaker.record_pool_success()
        breaker.record_pool_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_cooldown_leads_to_half_open_then_close(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=1,
                                               cooldown=3))
        breaker.record_pool_failure()
        assert breaker.state == CircuitBreaker.OPEN
        breaker.record_serial_execution(2)
        assert breaker.state == CircuitBreaker.OPEN
        breaker.record_serial_execution(1)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow_pool()  # probe wave may dispatch
        breaker.record_pool_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_failure_retrips(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=1,
                                               cooldown=1))
        breaker.record_pool_failure()
        breaker.record_serial_execution(1)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_pool_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 2

    def test_emits_state_change_events(self):
        with observing() as obs:
            breaker = CircuitBreaker(BreakerConfig(failure_threshold=1,
                                                   cooldown=1))
            breaker.record_pool_failure()
            breaker.record_serial_execution(1)
            breaker.record_pool_success()
        kinds = [e.kind for e in obs.events.events()]
        assert kinds == ["breaker.open", "breaker.half_open",
                         "breaker.close"]
        snap = obs.metrics.snapshot()
        assert snap["breaker.opens"]["value"] == 1
        assert snap["breaker.half_opens"]["value"] == 1
        assert snap["breaker.closes"]["value"] == 1

    def test_snapshot_shape(self):
        snap = CircuitBreaker().snapshot()
        assert snap == {"state": "closed", "opens": 0,
                        "consecutive_failures": 0}

    def test_snapshot_tracks_half_open_retrip(self):
        # The snapshot surfaced by `repro serve`/`repro chaos` must show
        # the full half-open -> re-trip history, not just boolean health.
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=1,
                                               cooldown=1))
        breaker.record_pool_failure()
        breaker.record_serial_execution(1)
        assert breaker.snapshot()["state"] == "half_open"
        breaker.record_pool_failure()
        assert breaker.snapshot() == {"state": "open", "opens": 2,
                                      "consecutive_failures": 2}


class TestSupervisedRun:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_clean_batch_matches_plain_execution(self, workers):
        with SupervisedExecutor(workers, config=FAST) as ex:
            results, report = ex.run_report(
                [Task(_square, (i,)) for i in range(6)])
        assert results == [i * i for i in range(6)]
        assert report.ok
        assert report.waves == 1
        assert report.total_retries == 0
        assert report.quality is Quality.EXACT
        assert all(o.status == "ok" and o.attempts == 1
                   for o in report.outcomes)

    def test_empty_batch(self):
        with SupervisedExecutor(1, config=FAST) as ex:
            results, report = ex.run_report([])
        assert results == []
        assert report.outcomes == ()
        assert report.ok

    def test_transient_failure_is_retried_to_success(self):
        with SupervisedExecutor(1, config=_fast_config(max_task_retries=3),
                                seed=0) as ex:
            results, report = ex.run_report(
                [_Flaky(2), Task(_square, (4,))])
        assert results == ["ok", 16]
        assert report.ok
        assert report.outcomes[0].attempts == 3
        assert report.outcomes[0].retries == 2
        assert report.outcomes[1].attempts == 1
        assert ex.retries == 2

    def test_poison_task_is_quarantined_not_raised(self):
        with SupervisedExecutor(1, config=_fast_config(max_task_retries=2),
                                seed=0) as ex:
            results, report = ex.run_report(
                [Task(_square, (2,)), _boom, Task(_square, (3,))])
        assert results[0] == 4
        assert results[2] == 9
        failure = results[1]
        assert isinstance(failure, TaskFailure)
        assert failure.index == 1
        assert failure.attempts == 3
        assert "task exploded" in failure.error
        assert failure.quality is Quality.DEGRADED
        assert not failure.quality.is_usable
        assert "quarantined" in str(failure)
        assert report.n_quarantined == 1
        assert report.quality is Quality.DEGRADED
        assert not report.ok

    def test_quarantine_on_pool_path(self):
        with SupervisedExecutor(2, config=_fast_config(max_task_retries=1),
                                seed=0) as ex:
            results, report = ex.run_report(
                [Task(_square, (i,)) for i in range(3)] + [Task(_boom)])
        assert results[:3] == [0, 1, 4]
        assert isinstance(results[3], TaskFailure)
        assert report.n_ok == 3
        assert report.n_quarantined == 1

    def test_fail_fast_raises_the_genuine_exception(self):
        config = _fast_config(max_task_retries=1, fail_fast=True)
        with SupervisedExecutor(1, config=config, seed=0) as ex:
            with pytest.raises(ValueError, match="task exploded"):
                ex.run([Task(_square, (2,)), _boom])

    def test_retry_and_quarantine_events_and_metrics(self):
        with observing() as obs:
            with SupervisedExecutor(
                    1, config=_fast_config(max_task_retries=1),
                    seed=0) as ex:
                ex.run([_boom, _Flaky(1)])
        kinds = [e.kind for e in obs.events.events()]
        assert kinds.count("task.retry") == 2  # both tasks, wave one
        assert kinds.count("task.quarantined") == 1
        snap = obs.metrics.snapshot()
        assert snap["supervisor.retries"]["value"] == 2
        assert snap["supervisor.quarantined"]["value"] == 1
        assert snap["supervisor.degraded_batches"]["value"] == 1

    def test_task_timeout_quarantines_hung_task(self):
        import time as _time

        config = _fast_config(task_timeout=0.05, max_task_retries=1)
        with SupervisedExecutor(1, config=config, seed=0) as ex:
            results, report = ex.run_report(
                [lambda: _time.sleep(3.0), Task(_square, (3,))])
        assert isinstance(results[0], TaskFailure)
        assert "wall-clock" in results[0].error
        assert results[1] == 9

    def test_worker_kill_breaks_pool_then_recovers(self, tmp_path):
        marker = str(tmp_path / "killed-once")
        config = _fast_config(max_task_retries=4)
        with observing() as obs:
            with SupervisedExecutor(2, config=config, seed=0) as ex:
                results, report = ex.run_report(
                    [Task(_kill_once, (marker,))]
                    + [Task(_square, (i,)) for i in range(3)])
        assert results == ["survived", 0, 1, 4]
        assert report.ok
        assert report.pool_breaks >= 1
        assert report.respawns >= 1
        assert ex.pool_breaks >= 1
        kinds = [e.kind for e in obs.events.events()]
        assert "pool.respawn" in kinds
        snap = obs.metrics.snapshot()
        assert snap["pool.respawns"]["value"] >= 1

    def test_pool_break_during_submission_retries(self):
        # A worker dying before the wave has submitted every task makes
        # the next submit raise; that must break the wave, respawn the
        # pool and retry, not escape run_report.
        pools = [_SubmitBreakingPool(breaks=True),
                 _SubmitBreakingPool(breaks=False)]
        with SupervisedExecutor(2, config=_fast_config(max_task_retries=2),
                                seed=0) as ex:
            ex._ensure_pool = lambda: pools[min(ex.respawns, 1)]
            results, report = ex.run_report(
                [Task(_square, (i,)) for i in range(4)])
        assert results == [0, 1, 4, 9]
        assert report.ok
        assert report.pool_breaks == 1
        assert report.respawns == 1
        assert pools[0].submits == 2
        # the two tasks the broken wave attempted count one failed
        # attempt each; the two it never submitted ran once
        assert [o.attempts for o in report.outcomes] == [2, 2, 1, 1]

    def test_breaker_degrades_dispatch_to_serial(self):
        # Every pool wave is killed by tasks that die on a worker but
        # succeed in-process, so only the open breaker's serial waves
        # can finish the batch.
        parent = os.getpid()
        config = _fast_config(
            max_task_retries=10,
            breaker=BreakerConfig(failure_threshold=2, cooldown=4))
        with observing() as obs:
            with SupervisedExecutor(2, config=config, seed=0) as ex:
                results, report = ex.run_report(
                    [Task(_die_on_worker, (parent,)),
                     Task(_die_on_worker, (parent,))])
        assert results == ["serial", "serial"]
        assert report.ok
        assert ex.breaker.opens >= 1
        assert "breaker.open" in [e.kind for e in obs.events.events()]

    def test_non_picklable_batch_supervised_serially(self):
        with SupervisedExecutor(2, config=FAST, seed=0) as ex:
            results, report = ex.run_report([lambda: 1, lambda: 2])
        assert results == [1, 2]
        assert report.ok
        assert ex.fallbacks == 1
        assert "non-picklable" in ex.last_fallback_reason

    def test_run_returns_results_and_sets_last_report(self):
        with SupervisedExecutor(1, config=FAST) as ex:
            assert ex.last_report is None
            assert ex.run([Task(_square, (3,))]) == [9]
            assert isinstance(ex.last_report, BatchReport)

    def test_pickled_executor_degrades_to_serial_supervision(self):
        config = _fast_config(max_task_retries=5)
        with SupervisedExecutor(4, config=config, seed=1) as ex:
            clone = pickle.loads(pickle.dumps(ex))
        assert isinstance(clone, SupervisedExecutor)
        assert clone.workers == 1
        assert clone.config.max_task_retries == 5
        assert clone.run([_Flaky(1), Task(_square, (2,))]) == ["ok", 4]

    def test_stats_include_supervision_counters(self):
        with SupervisedExecutor(1, config=_fast_config(max_task_retries=1),
                                seed=0) as ex:
            ex.run([_boom])
            stats = ex.stats()
        assert stats["retries"] == 1
        assert stats["quarantined"] == 1
        assert stats["breaker"]["state"] == "closed"
        assert "pool_breaks" in stats and "respawns" in stats


class TestBatchReport:
    def test_to_dict_shape(self):
        report = BatchReport(
            outcomes=(TaskOutcome(0, "ok", 1, None, Quality.EXACT),
                      TaskOutcome(1, "quarantined", 3, "ValueError: x",
                                  Quality.DEGRADED)),
            waves=3, pool_breaks=1, respawns=1, breaker_state="closed")
        payload = report.to_dict()
        assert payload == {
            "tasks": 2, "ok": 1, "quarantined": 1, "recovered": 0,
            "retries": 2, "waves": 3, "pool_breaks": 1, "respawns": 1,
            "breaker_state": "closed", "quality": "DEGRADED",
        }

    def test_quality_tag_round_trips_through_to_dict(self):
        # Satellite contract: the serialized quality tag must rebuild
        # the exact Quality member, for clean and degraded batches.
        exact = BatchReport(
            outcomes=(TaskOutcome(0, "ok", 1, None, Quality.EXACT),),
            waves=1, pool_breaks=0, respawns=0, breaker_state="closed")
        assert exact.quality is Quality.EXACT
        assert Quality[exact.to_dict()["quality"]] is Quality.EXACT
        degraded = BatchReport(
            outcomes=(TaskOutcome(0, "recovered", 2, None,
                                  Quality.DEGRADED),),
            waves=2, pool_breaks=0, respawns=0, breaker_state="closed")
        assert Quality[degraded.to_dict()["quality"]] is degraded.quality
        assert degraded.quality is Quality.DEGRADED


class TestResolveTaskFailures:
    def test_passthrough_without_sentinels(self):
        tasks = [Task(_square, (2,))]
        assert resolve_task_failures([4], tasks) == [4]

    def test_sentinel_is_rerun_in_process(self):
        tasks = [Task(_square, (2,)), Task(_square, (5,))]
        results = [4, TaskFailure(index=1, error="transient", attempts=3)]
        assert resolve_task_failures(results, tasks) == [4, 25]

    def test_genuine_failure_propagates_like_serial(self):
        tasks = [Task(_boom)]
        results = [TaskFailure(index=0, error="ValueError", attempts=3)]
        with pytest.raises(ValueError, match="task exploded"):
            resolve_task_failures(results, tasks)

    def test_resolution_keeps_degraded_tag_in_report(self):
        # Regression: a quarantined task that resolve_task_failures
        # re-runs successfully must stay DEGRADED in the batch report —
        # the value is real, but it did go through quarantine, and the
        # summary must not launder that into EXACT.
        with SupervisedExecutor(1, config=_fast_config(max_task_retries=1),
                                seed=0) as ex:
            results, report = ex.run_report([_boom, Task(_square, (5,))])
            assert isinstance(results[0], TaskFailure)
            assert report.quality is Quality.DEGRADED
            tasks = [Task(_square, (7,)), Task(_square, (5,))]
            resolved = resolve_task_failures(results, tasks, executor=ex)
        assert resolved == [49, 25]
        updated = report if ex.last_report is None else ex.last_report
        assert updated.n_quarantined == 0
        assert updated.n_recovered == 1
        assert updated.outcomes[0].status == "recovered"
        assert updated.outcomes[0].quality is Quality.DEGRADED
        assert updated.quality is Quality.DEGRADED
        assert updated.to_dict()["recovered"] == 1
        assert updated.to_dict()["quality"] == "DEGRADED"

    def test_all_quarantined_batch_does_not_report_ok(self):
        # An all-degraded batch must not silently report ok: every task
        # quarantined -> ok is False, and even after resolution re-runs
        # every sentinel successfully the DEGRADED tag must survive.
        with SupervisedExecutor(1, config=_fast_config(max_task_retries=1),
                                seed=0) as ex:
            results, report = ex.run_report([_boom, _boom, _boom])
            assert all(isinstance(r, TaskFailure) for r in results)
            assert not report.ok
            assert report.n_quarantined == 3
            assert all(o.status == "quarantined" for o in report.outcomes)
            assert report.quality is Quality.DEGRADED
            payload = report.to_dict()
            assert payload["ok"] == 0 and payload["quarantined"] == 3
            assert Quality[payload["quality"]] is Quality.DEGRADED
            tasks = [Task(_square, (i,)) for i in range(3)]
            resolved = resolve_task_failures(results, tasks, executor=ex)
        assert resolved == [0, 1, 4]
        updated = ex.last_report
        assert updated.ok  # values are real now...
        assert updated.n_quarantined == 0
        assert updated.n_recovered == 3
        assert updated.quality is Quality.DEGRADED  # ...but history stays
        assert Quality[updated.to_dict()["quality"]] is Quality.DEGRADED

    def test_resolution_without_executor_keeps_old_signature(self):
        results = [TaskFailure(index=0, error="transient", attempts=2)]
        assert resolve_task_failures(results, [Task(_square, (3,))]) == [9]

    def test_resolution_tolerates_plain_executor(self):
        # Checkpoint waves may hand a plain ParallelExecutor (no
        # last_report attribute); resolution must not blow up on it.
        from repro.parallel.executor import ParallelExecutor

        results = [TaskFailure(index=0, error="transient", attempts=2)]
        with ParallelExecutor(1) as ex:
            assert resolve_task_failures(
                results, [Task(_square, (3,))], executor=ex) == [9]
