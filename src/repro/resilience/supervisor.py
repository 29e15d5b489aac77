"""Supervised task execution: per-task fault domains over the process pool.

:class:`~repro.parallel.executor.ParallelExecutor` treats a batch as one
fate-sharing unit — a single task exception aborts the whole ``pool.map``
and a broken pool silently re-runs everything serially.
:class:`SupervisedExecutor` rewires that into *per-task fault domains*:

* every task is submitted **individually** and carries its own wall-clock
  deadline (``task_timeout``, with the abandon-on-expiry semantics of
  :func:`~repro.resilience.timeouts.call_with_timeout`);
* failed tasks are **retried** with the library's seeded
  :class:`~repro.resilience.retry.RetryPolicy` jitter; because every task
  is a deterministic thunk deriving its randomness from its own seed, a
  retried task reproduces its fault-free result bit-for-bit;
* a task that keeps failing is **quarantined** after its retry budget:
  the batch completes and the poisoned slot yields a typed
  :class:`TaskFailure` sentinel tagged
  :class:`~repro.core.diagnostics.Quality` ``DEGRADED`` — consistent with
  the solver cascade's quality model — instead of aborting everything;
* a :class:`CircuitBreaker` watches *pool-level* failures (dead workers,
  :class:`~concurrent.futures.process.BrokenProcessPool`): after a
  threshold of consecutive breaks it opens and dispatch degrades to
  serial, then recovers automatically through deterministically scheduled
  half-open probes — no wall clocks, so recovery behaviour is replayable;
* dead pools are **respawned between waves** (``pool.respawn`` events)
  rather than falling back to serial for good.

Observability: supervision emits ``task.retry``, ``task.timeout``,
``task.quarantined``, ``breaker.open`` / ``breaker.half_open`` /
``breaker.close`` and ``pool.respawn`` events plus matching
``supervisor.*`` metrics, so ``repro stats`` shows exactly how a run
recovered.

Determinism contract: for a fixed seed, any failure pattern that leaves
every task recoverable within its retry budget yields results
bit-identical to a fault-free run, for any worker count, with tracing on
or off.  :mod:`repro.resilience.chaos` exercises (rather than assumes)
this contract.
"""

from __future__ import annotations

import logging
import pickle
import time
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.diagnostics import Quality
from repro.exceptions import SolverTimeoutError, SpecificationError
from repro.observability import (
    emit_event,
    get_metrics,
    get_observability,
    observed_call,
    span,
)
from repro.parallel.executor import ParallelExecutor
from repro.resilience.retry import RetryPolicy
from repro.resilience.timeouts import call_with_timeout

__all__ = [
    "BreakerConfig",
    "CircuitBreaker",
    "SupervisorConfig",
    "TaskFailure",
    "TaskOutcome",
    "BatchReport",
    "SupervisedExecutor",
    "resolve_task_failures",
]

logger = logging.getLogger(__name__)

#: Sentinel marking a slot whose result has not been produced yet.
_PENDING = object()


@dataclass(frozen=True)
class TaskFailure:
    """Typed sentinel standing in for a permanently-failed task's result.

    Returned (never raised) by :meth:`SupervisedExecutor.run` in the
    quarantined task's slot, so the rest of the batch survives.  Callers
    that need a real value can re-run ``tasks[index]`` in-process — the
    genuine exception then propagates exactly as on the serial path
    (:func:`resolve_task_failures` does this).

    Attributes
    ----------
    index:
        Position of the task in its batch.
    error:
        Description of the last failure (``"TypeName: message"``).
    attempts:
        Total invocations charged to the task (including collateral
        pool breaks) before it was quarantined.
    quality:
        Always :class:`~repro.core.diagnostics.Quality` ``DEGRADED`` —
        the failure was contained, not resolved.
    """

    index: int
    error: str
    attempts: int
    quality: Quality = Quality.DEGRADED

    def __str__(self) -> str:
        return (f"TaskFailure(task {self.index} quarantined after "
                f"{self.attempts} attempt(s): {self.error})")


@dataclass(frozen=True)
class TaskOutcome:
    """Per-task record in a :class:`BatchReport`.

    Attributes
    ----------
    index:
        Position of the task in its batch.
    status:
        ``"ok"`` or ``"quarantined"``.
    attempts:
        Invocations charged to the task (1 = clean first try).
    error:
        Last failure description, or ``None`` if none ever occurred.
    quality:
        ``EXACT`` for a successful task (its value is bit-identical to a
        fault-free run's), ``DEGRADED`` for a quarantined one.
    """

    index: int
    status: str
    attempts: int
    error: str | None
    quality: Quality

    @property
    def retries(self) -> int:
        """Re-invocations after the first attempt."""
        return max(0, self.attempts - 1)


@dataclass(frozen=True)
class BatchReport:
    """What happened to one supervised batch, task by task.

    Attributes
    ----------
    outcomes:
        One :class:`TaskOutcome` per task, in task order.
    waves:
        Dispatch waves the batch needed (1 = no retries).
    pool_breaks:
        :class:`BrokenProcessPool` incidents during the batch.
    respawns:
        Worker pools respawned during the batch.
    breaker_state:
        Circuit-breaker state when the batch finished.
    """

    outcomes: tuple[TaskOutcome, ...]
    waves: int
    pool_breaks: int
    respawns: int
    breaker_state: str

    @property
    def n_ok(self) -> int:
        """Tasks that produced a real result."""
        return sum(1 for o in self.outcomes if o.status == "ok")

    @property
    def n_quarantined(self) -> int:
        """Tasks replaced by a :class:`TaskFailure` sentinel."""
        return sum(1 for o in self.outcomes if o.status == "quarantined")

    @property
    def n_recovered(self) -> int:
        """Quarantined tasks later resolved by an in-process re-run.

        Set by :func:`resolve_task_failures`: the sentinel was replaced
        with a real value, but the task still went through quarantine,
        so its (and the batch's) quality stays ``DEGRADED``.
        """
        return sum(1 for o in self.outcomes if o.status == "recovered")

    @property
    def total_retries(self) -> int:
        """Re-invocations across the whole batch."""
        return sum(o.retries for o in self.outcomes)

    @property
    def quality(self) -> Quality:
        """Worst per-task quality (``EXACT`` when everything succeeded)."""
        degraded = self.n_quarantined or self.n_recovered
        return Quality.DEGRADED if degraded else Quality.EXACT

    @property
    def ok(self) -> bool:
        """Whether every task produced a real result."""
        return self.n_quarantined == 0

    def to_dict(self) -> dict:
        """JSON-safe summary (used by benchmark payloads and the CLI)."""
        return {
            "tasks": len(self.outcomes),
            "ok": self.n_ok,
            "quarantined": self.n_quarantined,
            "recovered": self.n_recovered,
            "retries": self.total_retries,
            "waves": self.waves,
            "pool_breaks": self.pool_breaks,
            "respawns": self.respawns,
            "breaker_state": self.breaker_state,
            "quality": self.quality.name,
        }


@dataclass(frozen=True)
class BreakerConfig:
    """Deterministic circuit-breaker tuning.

    All thresholds count *events*, never wall-clock time, so breaker
    behaviour replays identically run over run.

    Attributes
    ----------
    failure_threshold:
        Consecutive pool-level failures that open the breaker.
    cooldown:
        Serial task executions, while open, before a half-open probe is
        scheduled.
    """

    failure_threshold: int = 3
    cooldown: int = 8

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise SpecificationError(
                f"failure_threshold must be >= 1, got "
                f"{self.failure_threshold}")
        if self.cooldown < 1:
            raise SpecificationError(
                f"cooldown must be >= 1, got {self.cooldown}")


class CircuitBreaker:
    """Closed → open → half-open supervision of the process pool.

    *Closed* dispatches to the pool.  After ``failure_threshold``
    consecutive pool-level failures the breaker *opens*: dispatch
    degrades to serial in-process execution.  Every serial execution
    while open counts toward ``cooldown``; once it elapses the breaker
    goes *half-open* and the next wave probes the pool — success closes
    the breaker, another pool failure re-opens it (and restarts the
    cooldown).  The schedule is a pure function of the event sequence,
    so recovery is deterministic and testable.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

    def __init__(self, config: BreakerConfig | None = None) -> None:
        self.config = config if config is not None else BreakerConfig()
        if not isinstance(self.config, BreakerConfig):
            raise SpecificationError(
                f"config must be a BreakerConfig, got "
                f"{type(self.config).__name__}")
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self._cooldown_left = 0
        #: Times the breaker has opened over its lifetime.
        self.opens = 0

    def allow_pool(self) -> bool:
        """Whether the next wave may dispatch to the process pool."""
        return self.state != self.OPEN

    def record_pool_failure(self) -> None:
        """A pool-level failure (broken pool / dead worker) occurred."""
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN:
            self._trip("half-open probe failed")
        elif self.state == self.CLOSED and \
                self.consecutive_failures >= self.config.failure_threshold:
            self._trip(f"{self.consecutive_failures} consecutive "
                       "pool failures")

    def record_pool_success(self) -> None:
        """A wave completed on the pool without a pool-level failure."""
        if self.state == self.HALF_OPEN:
            self.state = self.CLOSED
            get_metrics().inc("breaker.closes")
            emit_event("breaker.close")
            logger.info("circuit breaker closed: pool probe succeeded")
        self.consecutive_failures = 0

    def record_serial_execution(self, n: int = 1) -> None:
        """``n`` tasks ran serially; advances the open-state cooldown."""
        if self.state != self.OPEN:
            return
        self._cooldown_left -= n
        if self._cooldown_left <= 0:
            self.state = self.HALF_OPEN
            get_metrics().inc("breaker.half_opens")
            emit_event("breaker.half_open")
            logger.info("circuit breaker half-open: next wave probes "
                        "the pool")

    def _trip(self, reason: str) -> None:
        self.state = self.OPEN
        self.opens += 1
        self._cooldown_left = self.config.cooldown
        get_metrics().inc("breaker.opens")
        emit_event("breaker.open", reason=reason)
        logger.warning("circuit breaker OPEN (%s); dispatch degrades to "
                       "serial for %d task(s)", reason,
                       self.config.cooldown)

    def snapshot(self) -> dict:
        """JSON-safe breaker state for stats payloads."""
        return {"state": self.state, "opens": self.opens,
                "consecutive_failures": self.consecutive_failures}

    def __repr__(self) -> str:
        return (f"CircuitBreaker(state={self.state!r}, "
                f"opens={self.opens})")


@dataclass(frozen=True)
class SupervisorConfig:
    """Tuning knobs of a :class:`SupervisedExecutor`.

    Attributes
    ----------
    task_timeout:
        Wall-clock deadline per task attempt, in seconds (``None``
        disables deadlines).  On the pool path the deadline also covers
        queueing behind earlier tasks of the same wave; a timed-out pool
        task cannot be killed, so — exactly like
        :func:`~repro.resilience.timeouts.call_with_timeout` — its
        worker is abandoned and the eventual result discarded.
    max_task_retries:
        Re-invocations allowed per task after its first attempt before
        it is quarantined.
    retry:
        Backoff/jitter policy applied between retry waves.  The jitter
        draws from the executor's seeded stream, so sleep schedules are
        reproducible.
    fail_fast:
        When ``True``, the first quarantine re-raises the task's last
        exception instead of yielding a :class:`TaskFailure` sentinel.
    breaker:
        Circuit-breaker thresholds (see :class:`BreakerConfig`).
    """

    task_timeout: float | None = None
    max_task_retries: int = 2
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    fail_fast: bool = False
    breaker: BreakerConfig = field(default_factory=BreakerConfig)

    def __post_init__(self) -> None:
        if self.task_timeout is not None and not self.task_timeout > 0:
            raise SpecificationError(
                f"task_timeout must be positive or None, got "
                f"{self.task_timeout}")
        if self.max_task_retries < 0:
            raise SpecificationError(
                f"max_task_retries must be >= 0, got "
                f"{self.max_task_retries}")


class SupervisedExecutor(ParallelExecutor):
    """Order-preserving fan-out with per-task retries, quarantine and a
    circuit breaker.

    A drop-in :class:`~repro.parallel.executor.ParallelExecutor`: every
    call site accepting an executor accepts a supervised one.  The
    difference is failure behaviour — see the module docstring.

    Parameters
    ----------
    workers:
        Maximum concurrent worker processes (``1`` = serial, still
        supervised: deadlines, retries and quarantine all apply).
    config:
        Supervision tuning; defaults to 2 retries, no deadline.
    chaos:
        Optional :class:`~repro.resilience.chaos.ChaosPolicy` injected at
        the dispatch boundary — every task attempt may be killed,
        delayed, blown up or corrupted on the policy's seeded schedule.
    seed:
        Seed for the retry-jitter stream (and nothing else — task
        results never depend on it).
    """

    def __init__(self, workers: int = 1, *,
                 config: SupervisorConfig | None = None,
                 chaos=None, seed=None) -> None:
        super().__init__(workers)
        self.config = config if config is not None else SupervisorConfig()
        if not isinstance(self.config, SupervisorConfig):
            raise SpecificationError(
                f"config must be a SupervisorConfig, got "
                f"{type(self.config).__name__}")
        self.chaos = chaos
        self.breaker = CircuitBreaker(self.config.breaker)
        self._jitter_rng = np.random.default_rng(
            np.random.SeedSequence(seed) if seed is not None
            else np.random.SeedSequence())
        #: Cumulative supervision counters (across batches).
        self.retries = 0
        self.quarantined = 0
        self.pool_breaks = 0
        self.respawns = 0
        #: The most recent batch's :class:`BatchReport`.
        self.last_report: BatchReport | None = None

    # ------------------------------------------------------------------
    # pickling: degrade to a serial supervised executor (same contract
    # as the base class: nested pools oversubscribe and can deadlock)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state.update({
            "config": self.config, "chaos": self.chaos,
            "breaker": None, "_jitter_rng": None,
            "retries": 0, "quarantined": 0, "pool_breaks": 0,
            "respawns": 0, "last_report": None,
        })
        return state

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self.breaker = CircuitBreaker(self.config.breaker)
        self._jitter_rng = np.random.default_rng(np.random.SeedSequence(0))

    # ------------------------------------------------------------------
    # task wrapping
    # ------------------------------------------------------------------
    def _attempt_call(self, task: Callable[[], Any], index: int,
                      attempt: int) -> Callable[[], Any]:
        """The callable actually dispatched for one task attempt."""
        if self.chaos is None:
            return task
        return self.chaos.wrap(task, index=index, attempt=attempt)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def runs_inline(self, n_tasks: int) -> bool:
        """A single task still goes to the pool, under its deadline: a
        hanging task must not park the caller."""
        return self.workers <= 1

    def run(self, tasks: Sequence[Callable[[], Any]]) -> list[Any]:
        """Execute tasks under supervision; results in task order.

        Unlike the base executor, a task exception never escapes (unless
        ``fail_fast``): permanently-failing tasks are quarantined and
        their slots filled with :class:`TaskFailure` sentinels.  The
        batch's :class:`BatchReport` is available as :attr:`last_report`
        afterwards (or use :meth:`run_report`).
        """
        return self.run_report(tasks)[0]

    def run_report(self, tasks: Sequence[Callable[[], Any]]
                   ) -> tuple[list[Any], BatchReport]:
        """Like :meth:`run`, also returning the batch's report."""
        tasks = list(tasks)
        n = len(tasks)
        results: list[Any] = [_PENDING] * n
        attempts = [0] * n
        errors: list[str | None] = [None] * n
        last_exc: list[BaseException | None] = [None] * n
        max_attempts = 1 + self.config.max_task_retries
        pool_breaks = respawns = waves = 0
        retry_waves = 0

        picklable = True
        if self.workers > 1 and n > 0:
            try:
                pickle.dumps(tasks)
            except Exception as exc:
                picklable = False
                self.fallbacks += 1
                self.last_fallback_reason = \
                    f"non-picklable task batch: {exc!r}"
                get_metrics().inc("executor.fallbacks")
                emit_event("pool.fallback", tasks=n,
                           reason=self.last_fallback_reason)

        with span("supervisor.batch", tasks=n, workers=self.workers):
            while any(r is _PENDING for r in results):
                pending = [i for i in range(n) if results[i] is _PENDING]
                waves += 1
                use_pool = (self.workers > 1 and picklable
                            and self.breaker.allow_pool())
                if use_pool:
                    broke, pending = self._pool_wave(
                        tasks, pending, results, attempts, errors, last_exc)
                    if broke:
                        pool_breaks += 1
                        self.pool_breaks += 1
                        respawns += 1
                        self._respawn_pool()
                        self.breaker.record_pool_failure()
                    else:
                        self.breaker.record_pool_success()
                else:
                    self._serial_wave(tasks, pending, results, attempts,
                                      errors, last_exc)
                    self.breaker.record_serial_execution(len(pending))

                # ---- quarantine and retry bookkeeping --------------------
                still_failing = [i for i in pending
                                 if results[i] is _PENDING]
                retriable = []
                for i in still_failing:
                    if attempts[i] >= max_attempts:
                        self.quarantined += 1
                        get_metrics().inc("supervisor.quarantined")
                        emit_event("task.quarantined", index=i,
                                   attempts=attempts[i], error=errors[i])
                        logger.warning(
                            "task %d quarantined after %d attempt(s): %s",
                            i, attempts[i], errors[i])
                        if self.config.fail_fast:
                            exc = last_exc[i]
                            if exc is None:  # pragma: no cover - paranoia
                                exc = RuntimeError(errors[i] or
                                                   f"task {i} failed")
                            raise exc
                        results[i] = TaskFailure(
                            index=i, error=errors[i] or "unknown failure",
                            attempts=attempts[i])
                    else:
                        retriable.append(i)
                        self.retries += 1
                        get_metrics().inc("supervisor.retries")
                        emit_event("task.retry", index=i,
                                   attempt=attempts[i], error=errors[i])
                if retriable:
                    delay = self.config.retry.delay(
                        min(retry_waves, 62), self._jitter_rng)
                    retry_waves += 1
                    logger.info("retrying %d task(s) in %.3g s",
                                len(retriable), delay)
                    if delay > 0:
                        time.sleep(delay)

        report = BatchReport(
            outcomes=tuple(
                TaskOutcome(
                    index=i,
                    status=("quarantined"
                            if isinstance(results[i], TaskFailure)
                            else "ok"),
                    attempts=max(1, attempts[i]),
                    error=errors[i],
                    quality=(Quality.DEGRADED
                             if isinstance(results[i], TaskFailure)
                             else Quality.EXACT))
                for i in range(n)),
            waves=waves, pool_breaks=pool_breaks, respawns=respawns,
            breaker_state=self.breaker.state)
        self.last_report = report
        if report.n_quarantined:
            get_metrics().inc("supervisor.degraded_batches")
        return results, report

    # ------------------------------------------------------------------
    # waves
    # ------------------------------------------------------------------
    def _pool_wave(self, tasks, pending, results, attempts, errors,
                   last_exc) -> tuple[bool, list[int]]:
        """One wave on the process pool.

        Returns ``(broke, attempted)``: whether the pool broke, and the
        tasks this wave attempted.  A pool that breaks while the wave is
        still submitting (an earlier task's worker died) fails the task
        whose submit raised, like a task whose worker died; the tasks
        after it were never attempted and stay pending.
        """
        obs = get_observability()
        pool = self._ensure_pool()
        trampoline = observed_call if obs is not None else _call_direct
        futures = []
        broke = False
        attempted = []
        for i in pending:
            attempts[i] += 1
            attempted.append(i)
            call = self._attempt_call(tasks[i], i, attempts[i])
            try:
                futures.append((i, pool.submit(trampoline, call)))
            except BrokenProcessPool as exc:
                broke = True
                errors[i] = f"{type(exc).__name__}: {exc}"
                last_exc[i] = exc
                break
        timeout = self.config.task_timeout
        timeout = timeout if timeout is not None and timeout > 0 else None
        with span("supervisor.wave", tasks=len(attempted), mode="pool"):
            for i, fut in futures:  # submission order
                try:
                    value = fut.result(timeout=timeout)
                except FuturesTimeoutError:
                    fut.cancel()
                    errors[i] = (f"task exceeded its {timeout:g} s "
                                 "wall-clock deadline")
                    last_exc[i] = SolverTimeoutError(errors[i])
                    get_metrics().inc("supervisor.timeouts")
                    emit_event("task.timeout", index=i, timeout=timeout)
                    continue
                except BrokenProcessPool as exc:
                    broke = True
                    errors[i] = f"{type(exc).__name__}: {exc}"
                    last_exc[i] = exc
                    continue
                except BaseException as exc:
                    errors[i] = f"{type(exc).__name__}: {exc}"
                    last_exc[i] = exc
                    continue
                if obs is not None:
                    value, payload = value
                    obs.absorb(payload)
                results[i] = value
                self.dispatched += 1
                get_metrics().inc("executor.dispatched")
        return broke, attempted

    def _serial_wave(self, tasks, pending, results, attempts, errors,
                     last_exc) -> None:
        """One in-process wave (serial path, broken pool, open breaker)."""
        with span("supervisor.wave", tasks=len(pending), mode="serial"):
            for i in pending:
                attempts[i] += 1
                call = self._attempt_call(tasks[i], i, attempts[i])
                try:
                    results[i] = call_with_timeout(
                        call, timeout=self.config.task_timeout,
                        name=f"task-{i}")
                except BaseException as exc:
                    errors[i] = f"{type(exc).__name__}: {exc}"
                    last_exc[i] = exc

    def _respawn_pool(self) -> None:
        """Replace a broken pool so the next wave gets live workers."""
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None
        self.respawns += 1
        get_metrics().inc("pool.respawns")
        emit_event("pool.respawn")
        logger.info("respawning broken worker pool")

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Executor counters plus supervision and breaker state."""
        stats = super().stats()
        stats.update({
            "retries": self.retries,
            "quarantined": self.quarantined,
            "pool_breaks": self.pool_breaks,
            "respawns": self.respawns,
            "breaker": self.breaker.snapshot(),
        })
        return stats

    def __repr__(self) -> str:
        return (f"SupervisedExecutor(workers={self.workers}, "
                f"breaker={self.breaker.state!r})")


def _call_direct(task: Callable[[], Any]) -> Any:
    """Top-level trampoline so the pool can pickle the invocation."""
    return task()


def resolve_task_failures(results: Sequence[Any],
                          tasks: Sequence[Callable[[], Any]],
                          executor: "SupervisedExecutor | None" = None,
                          ) -> list[Any]:
    """Replace :class:`TaskFailure` sentinels by in-process re-runs.

    Library fan-out sites that need *real* values (radius solves,
    checkpoint waves, scenario replays) call this after a supervised
    batch: a transient infrastructure fault was already retried away by
    the supervisor, so a surviving sentinel means the task genuinely
    fails — re-running it here propagates the genuine exception exactly
    as the serial path would have.  Batches without sentinels pass
    through untouched.

    When ``executor`` is given, its :attr:`~SupervisedExecutor.last_report`
    is rewritten so each resolved slot's outcome carries status
    ``"recovered"`` while **keeping** ``Quality.DEGRADED`` — the value is
    real now, but it did go through quarantine, and downstream summaries
    (:attr:`BatchReport.quality`, benchmark payloads) must not launder
    that into ``EXACT``.
    """
    if not any(isinstance(r, TaskFailure) for r in results):
        return list(results)
    resolved = list(results)
    recovered: list[int] = []
    for i, r in enumerate(resolved):
        if isinstance(r, TaskFailure):
            logger.warning("re-running quarantined task %d in-process", i)
            resolved[i] = tasks[i]()
            recovered.append(i)
    report = getattr(executor, "last_report", None)
    if report is not None:
        outcomes = list(report.outcomes)
        for i in recovered:
            if i < len(outcomes) and outcomes[i].status == "quarantined":
                outcomes[i] = replace(outcomes[i], status="recovered",
                                      quality=Quality.DEGRADED)
        executor.last_report = replace(report, outcomes=tuple(outcomes))
    return resolved
