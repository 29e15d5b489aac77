"""Process-pool execution engine with a deterministic serial fallback.

The sweeps this library runs — per-experiment loops, chunked Monte-Carlo
soundness sampling, per-bound and per-parameter radius solves — are
embarrassingly parallel: many independent task evaluations whose results
are merged in a fixed order.  :class:`ParallelExecutor` fans such batches
out over a :class:`concurrent.futures.ProcessPoolExecutor` while
preserving the library's determinism contract:

* **Order preservation** — results come back in submission order, so the
  merged output is structurally identical to a serial run.
* **Seed independence** — callers derive each task's randomness from its
  own :func:`~repro.utils.rng.spawn_rngs` stream (or a plain integer
  seed), never from a stream shared across tasks, so the numbers a task
  produces do not depend on which worker ran it or when.
* **Serial fallback** — ``workers=1``, single-task batches, non-picklable
  task batches (e.g. a :class:`~repro.core.mappings.CallableMapping`
  closing over a lambda), and a broken pool all degrade to running the
  tasks in-process, in order.  The fallback is an optimisation decision
  only: the results are bit-identical either way.

Work crossing the process boundary must be picklable; :class:`Task` wraps
a module-level callable plus arguments into such a unit while remaining a
plain zero-argument callable for the serial path.
"""

from __future__ import annotations

import atexit
import logging
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.exceptions import SpecificationError
from repro.observability import (
    emit_event,
    get_metrics,
    get_observability,
    observed_call,
    span,
)

__all__ = ["Task", "ParallelExecutor", "default_workers", "executor_scope",
           "shared_executor", "reset_shared_executor"]

logger = logging.getLogger(__name__)


def default_workers() -> int:
    """A sensible worker count for this machine (``os.cpu_count``, floor 1)."""
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class Task:
    """A picklable unit of work: a module-level callable plus its arguments.

    Closures cannot cross a process boundary; a :class:`Task` built from a
    module-level function and picklable arguments can.  Calling the task
    runs it in-process, which is exactly what the serial fallback does —
    the two execution paths share one definition of the work.
    """

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)

    def __call__(self) -> Any:
        return self.fn(*self.args, **self.kwargs)


def _call_task(task: Callable[[], Any]) -> Any:
    """Top-level trampoline so the pool can pickle the invocation."""
    return task()


class ParallelExecutor:
    """Order-preserving fan-out of zero-argument tasks over worker processes.

    Parameters
    ----------
    workers:
        Maximum concurrent worker processes.  ``1`` never creates a pool —
        every batch runs serially in-process.

    Notes
    -----
    The underlying process pool is created lazily on the first parallel
    batch and reused across batches; call :meth:`close` (or use the
    executor as a context manager) to release it.  An executor that is
    itself pickled — e.g. riding along inside an analysis object shipped
    to a worker — deliberately unpickles as a *serial* executor, because
    nested process pools oversubscribe the machine and can deadlock under
    the ``fork`` start method.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise SpecificationError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self._pool: ProcessPoolExecutor | None = None
        #: Tasks that actually executed on a worker process.
        self.dispatched = 0
        #: Batches that degraded to the in-process serial path.
        self.fallbacks = 0
        #: Parallel batches served by an already-warm pool (no process
        #: spawn).  High reuse is the point of sharing an executor across
        #: calls; 0 on a fresh executor or after every batch broke it.
        self.pool_reuses = 0
        #: Why the most recent serial fallback happened (diagnostics).
        self.last_fallback_reason: str | None = None

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        else:
            self.pool_reuses += 1
            get_metrics().inc("executor.pool_reuses")
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __getstate__(self) -> dict:
        # Crossing a process boundary degrades to serial: nested pools
        # oversubscribe and can deadlock under fork.
        return {"workers": 1, "_pool": None, "dispatched": 0,
                "fallbacks": 0, "pool_reuses": 0,
                "last_fallback_reason": None}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _fallback(self, tasks: Sequence[Callable[[], Any]],
                  reason: str) -> list[Any]:
        self.fallbacks += 1
        self.last_fallback_reason = reason
        get_metrics().inc("executor.fallbacks")
        emit_event("pool.fallback", tasks=len(tasks), reason=reason)
        logger.debug("parallel batch of %d task(s) running serially: %s",
                     len(tasks), reason)
        with span("parallel.fallback", tasks=len(tasks)):
            return [task() for task in tasks]

    def runs_inline(self, n_tasks: int) -> bool:
        """Whether :meth:`run` executes a batch of ``n_tasks`` tasks
        in-process without trying the pool: one worker, or one task."""
        return self.workers <= 1 or n_tasks <= 1

    def run(self, tasks: Sequence[Callable[[], Any]]) -> list[Any]:
        """Execute zero-argument tasks, returning results in task order.

        Tasks run on the process pool when there is parallelism to gain
        and the batch survives a pickling pre-flight; otherwise they run
        serially in-process.  Either way the result list matches the task
        order, and a task's exception propagates to the caller.

        With an observability session active, parallel batches dispatch
        through :func:`~repro.observability.observed_call`: each worker
        records its own spans/metrics/events and ships them home inside
        the result, where they are merged in submission order — results
        stay bit-identical with tracing on or off, for any worker count.
        """
        tasks = list(tasks)
        if self.runs_inline(len(tasks)):
            return [task() for task in tasks]
        try:
            pickle.dumps(tasks)
        except Exception as exc:  # pickling failures are wildly varied
            return self._fallback(tasks, f"non-picklable task batch: {exc!r}")
        obs = get_observability()
        # Completed results are collected (and their worker payloads
        # absorbed) incrementally, in submission order.  When the pool
        # breaks mid-batch only the *unfinished* tail is re-run in
        # process — re-running finished tasks would double-absorb their
        # spans/metrics/events and double-count executor.dispatched.
        results: list[Any] = []
        with span("parallel.dispatch", tasks=len(tasks),
                  workers=self.workers):
            try:
                if obs is None:
                    for result in self._ensure_pool().map(_call_task, tasks):
                        results.append(result)
                else:
                    for result, payload in self._ensure_pool().map(
                            observed_call, tasks):  # submission order
                        obs.absorb(payload)
                        results.append(result)
            except BrokenProcessPool as exc:
                self._pool = None  # a fresh pool will be built next batch
                self.dispatched += len(results)
                get_metrics().inc("executor.dispatched", len(results))
                remaining = tasks[len(results):]
                return results + self._fallback(
                    remaining, f"broken process pool: {exc!r}")
        self.dispatched += len(tasks)
        get_metrics().inc("executor.dispatched", len(tasks))
        return results

    def map(self, fn: Callable[..., Any],
            argtuples: Iterable[tuple]) -> list[Any]:
        """Apply a module-level function to positional-argument tuples."""
        return self.run([Task(fn, tuple(args)) for args in argtuples])

    def stats(self) -> dict:
        """Executor counters for diagnostics and benchmark payloads.

        Returns an immutable *snapshot*: a fresh dict of plain values,
        decoupled from the live executor — callers holding a stats dict
        never observe later mutation of the counters.
        """
        return {
            "workers": self.workers,
            "dispatched": self.dispatched,
            "fallbacks": self.fallbacks,
            "pool_reuses": self.pool_reuses,
            "last_fallback_reason": self.last_fallback_reason,
        }

    def __repr__(self) -> str:
        return f"ParallelExecutor(workers={self.workers})"


#: Process-wide executor reused across library calls (see
#: :func:`shared_executor`).
_shared: ParallelExecutor | None = None
_shared_atexit_registered = False


def reset_shared_executor() -> None:
    """Close the process-wide executor so the next use forks fresh workers.

    Forked workers snapshot module-level state (notably an installed
    default :class:`~repro.parallel.cache.RadiusCache`) at fork
    time and keep it for the pool's lifetime.  Code that changes such
    process-global state and needs the *next* parallel call to see the
    change — primarily tests — must reset the shared pool first.
    """
    global _shared
    if _shared is not None:
        _shared.close()
        _shared = None


# Backwards-compatible private alias used by atexit registration.
_close_shared_executor = reset_shared_executor


def shared_executor(workers: int) -> ParallelExecutor:
    """The process-wide executor for ``workers``, created on first use.

    Library entry points that take a plain ``workers`` count used to
    build (and tear down) a fresh pool *per call* — the dominant cost of
    short parallel calls is then process spawning, not solving.  Call
    sites that route through this helper instead share one long-lived
    executor per process: the first call pays the spawn, every later
    call with the same ``workers`` reuses the warm pool (visible as
    ``pool_reuses`` in :meth:`ParallelExecutor.stats`).

    Asking for a different ``workers`` count closes the previous shared
    executor and builds a new one — there is exactly one shared pool at
    a time.  The pool is closed automatically at interpreter exit;
    callers must **not** close it themselves (an explicit ``executor=``
    argument remains the way to own a pool's lifetime).
    """
    global _shared, _shared_atexit_registered
    if workers < 1:
        raise SpecificationError(f"workers must be >= 1, got {workers}")
    if _shared is None or _shared.workers != workers:
        if _shared is not None:
            _shared.close()
        _shared = ParallelExecutor(workers)
        if not _shared_atexit_registered:
            atexit.register(_close_shared_executor)
            _shared_atexit_registered = True
    return _shared


class executor_scope:
    """Context manager resolving ``(executor, workers)`` call conventions.

    Library entry points accept both an explicit executor (reused, caller
    owns its lifetime) and a plain ``workers`` count (an executor is
    created for the call and closed afterwards).  ``None`` means serial.
    """

    def __init__(self, executor: ParallelExecutor | None,
                 workers: int | None) -> None:
        self._given = executor
        self._workers = workers
        self._owned: ParallelExecutor | None = None

    def __enter__(self) -> ParallelExecutor | None:
        if self._given is not None:
            return self._given
        if self._workers is not None and self._workers > 1:
            self._owned = ParallelExecutor(self._workers)
            return self._owned
        return None

    def __exit__(self, *exc_info) -> None:
        if self._owned is not None:
            self._owned.close()
            self._owned = None
