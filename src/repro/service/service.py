"""The radius service: a long-lived serving layer over the solver stack.

Every library entry point so far is *call-shaped*: build an executor, fan
a batch out, tear the pool down.  The pool spawn and the per-task
pickling of whole problems dominate short calls — ``repro-bench-parallel-v1``
measured the per-call pool at 0.92× of serial.  :class:`RadiusService`
is the *service-shaped* alternative:

* one persistent :class:`~repro.resilience.supervisor.SupervisedExecutor`
  for the service's lifetime — workers spawn once and stay warm, with the
  supervisor's retries/quarantine/breaker protecting every request;
* an async frontend — :meth:`submit` enqueues a request and returns a
  :class:`RadiusTicket` immediately, so many analyses are in flight at
  once; :meth:`gather` (or :meth:`RadiusTicket.result`) blocks for the
  answers;
* admission control — the request queue is bounded, and a dedicated
  :class:`~repro.resilience.supervisor.CircuitBreaker` sheds load
  (:class:`~repro.exceptions.ServiceOverloadError`) when the queue stays
  full, with the breaker's deterministic event-counted cooldown deciding
  when to probe again;
* shared-memory dispatch — each request's cache-missing problems are
  published **once** into :class:`~repro.service.shm.SharedProblemBatch`
  blocks and tasks carry only indices, so workers stop unpickling whole
  problems;
* a cross-process :class:`~repro.service.cache.SharedRadiusCache` —
  solves performed by any worker for any client warm every other client.

Determinism contract: for a fixed stateless seed, :meth:`compute` returns
results **bit-identical** to :func:`repro.core.radius.compute_radii` on
the in-process library path, for any worker count, with tracing on or off
(``tests/service/test_identity.py`` proves it).  A stateful
:class:`numpy.random.Generator` seed is rejected at :meth:`submit`: group
tasks in worker processes cannot draw from the caller's stream in problem
order.  Requests are processed strictly in admission order by one
dispatcher thread, so a fixed request sequence yields a replayable
execution.

Observability: ``service.queue_depth`` / ``service.inflight`` /
``service.shm_bytes`` gauges, ``service.admit`` / ``service.shed`` /
``service.done`` events, a ``service.request`` span per request (worker
spans are absorbed into it by the supervised executor, exactly like the
library fan-out path).
"""

from __future__ import annotations

import itertools
import logging
import queue
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.radius import (
    RadiusProblem,
    RadiusResult,
    _solver_structure,
)
from repro.core.solvers.tensor import solve_group
from repro.exceptions import (
    ServiceClosedError,
    ServiceOverloadError,
    SpecificationError,
)
from repro.observability import emit_event, get_metrics, span
from repro.parallel.cache import RadiusCache
from repro.parallel.executor import Task
from repro.resilience.supervisor import (
    BreakerConfig,
    CircuitBreaker,
    SupervisedExecutor,
    SupervisorConfig,
    resolve_task_failures,
)
from repro.service.cache import SharedRadiusCache
from repro.service.shm import BatchDescriptor, SharedProblemBatch, attach_batch

__all__ = ["ServiceConfig", "RadiusTicket", "RadiusService"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of a :class:`RadiusService`.

    Attributes
    ----------
    queue_limit:
        Maximum requests waiting for the dispatcher (in-flight request
        excluded).  A full queue sheds new submissions with
        :class:`~repro.exceptions.ServiceOverloadError`.
    cache:
        ``"shared"`` (default) builds a
        :class:`~repro.service.cache.SharedRadiusCache` so concurrent
        clients warm each other; ``"local"`` uses a plain in-process
        :class:`~repro.parallel.cache.RadiusCache` (the fallback when
        cross-process serving is off, e.g. ``workers=1`` deployments
        that do not want a manager process); ``False`` disables caching;
        a cache instance is used as-is (the caller owns its lifetime).
    cache_entries:
        Size bound for a cache the service builds itself.
    supervisor:
        Supervision tuning for the persistent executor (task deadlines,
        retries, the *pool* breaker).
    admission:
        Thresholds for the *admission* breaker — unrelated to the pool
        breaker: its failures are full-queue sheds, and its open-state
        cooldown counts later shed attempts before re-probing the queue.
    use_shm:
        Publish each request's problems through shared memory (default).
        ``False`` falls back to pickling problems into tasks — same
        results, useful to quantify what shm dispatch buys.
    """

    queue_limit: int = 32
    cache: object = "shared"
    cache_entries: int | None = None
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)
    admission: BreakerConfig = field(
        default_factory=lambda: BreakerConfig(failure_threshold=3,
                                              cooldown=8))
    use_shm: bool = True

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise SpecificationError(
                f"queue_limit must be >= 1, got {self.queue_limit}")
        if isinstance(self.cache, str) and self.cache not in ("shared",
                                                              "local"):
            raise SpecificationError(
                f"cache must be 'shared', 'local', False or a RadiusCache "
                f"instance, got {self.cache!r}")


class RadiusTicket:
    """A handle to one in-flight radius request.

    Returned immediately by :meth:`RadiusService.submit`; the request is
    solved by the service's dispatcher in admission order.  Call
    :meth:`result` to block for the answers (or :meth:`done` to poll).
    """

    def __init__(self, request_id: int, n_problems: int) -> None:
        self.request_id = request_id
        self.n_problems = n_problems
        self._event = threading.Event()
        self._results: list[RadiusResult] | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        """Whether the request has finished (successfully or not)."""
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> list[RadiusResult]:
        """Block until the request finishes; return its results in order.

        Re-raises the request's exception if it failed, and
        :class:`TimeoutError` if ``timeout`` seconds elapse first (the
        request itself keeps running).
        """
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} not done after {timeout:g} s")
        if self._error is not None:
            raise self._error
        assert self._results is not None
        return self._results

    def _resolve(self, results: list[RadiusResult]) -> None:
        self._results = results
        self._event.set()

    def _reject(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def __repr__(self) -> str:
        state = "done" if self.done() else "pending"
        return (f"RadiusTicket(id={self.request_id}, "
                f"problems={self.n_problems}, {state})")


@dataclass
class _Request:
    ticket: RadiusTicket
    problems: list[RadiusProblem]
    method: str
    seed: object


def _solve_group_shm(descriptor: BatchDescriptor, indices: list[int],
                     method: str, seed, cache) -> list[RadiusResult]:
    """Picklable worker body: solve a structural group out of a shm batch.

    The task carries a few-dozen-byte descriptor plus indices instead of
    pickled problems; the batch is attached and header-decoded once per
    worker process (:func:`~repro.service.shm.attach_batch`).  ``cache``
    is the service's :class:`~repro.service.cache.SharedRadiusCache`
    proxy (workers consult and populate the shared store directly) or
    ``None`` for cache-off solving — the frontend then stores results.
    """
    batch = attach_batch(descriptor)
    return solve_group([batch.problem(i) for i in indices], method=method,
                       seed=seed,
                       cache=cache if cache is not None else False)


def _solve_group_pickled(problems: list[RadiusProblem], method: str,
                         seed, cache) -> list[RadiusResult]:
    """Worker body for ``use_shm=False``: problems pickled into the task."""
    return solve_group(problems, method=method, seed=seed,
                       cache=cache if cache is not None else False)


class RadiusService:
    """Long-lived radius server: persistent pool, shm dispatch, shared cache.

    Parameters
    ----------
    workers:
        Worker-process count of the persistent pool (``1`` = in-process
        serving, still supervised and still async).
    config:
        Service tuning (queue bound, cache policy, supervision,
        admission thresholds); see :class:`ServiceConfig`.
    seed:
        Seed for the supervised executor's retry-jitter stream (task
        results never depend on it).

    Use as a context manager (or call :meth:`close`): shutdown drains
    already-admitted requests, stops the dispatcher, closes the pool and
    the owned cache, and unlinks any shared-memory batch the dispatcher
    had in flight.

    Thread safety: :meth:`submit`, :meth:`gather` and :meth:`compute`
    may be called from any number of client threads concurrently;
    requests are processed strictly in admission order.
    """

    def __init__(self, workers: int = 1, *,
                 config: ServiceConfig | None = None, seed=None) -> None:
        self.config = config if config is not None else ServiceConfig()
        if not isinstance(self.config, ServiceConfig):
            raise SpecificationError(
                f"config must be a ServiceConfig, got "
                f"{type(self.config).__name__}")
        self.executor = SupervisedExecutor(
            workers, config=self.config.supervisor, seed=seed)
        self.admission = CircuitBreaker(self.config.admission)
        self._queue: queue.Queue[_Request | None] = queue.Queue(
            maxsize=self.config.queue_limit)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._closed = False
        #: Requests admitted / shed / completed / failed over the lifetime.
        self.admitted = 0
        self.shed = 0
        self.completed = 0
        self.failed = 0

        cache_spec = self.config.cache
        self._owns_cache = isinstance(cache_spec, str)
        if cache_spec == "shared":
            self.cache: RadiusCache | None = SharedRadiusCache(
                self.config.cache_entries)
        elif cache_spec == "local":
            self.cache = RadiusCache(self.config.cache_entries)
        elif cache_spec is False or cache_spec is None:
            self.cache = None
            self._owns_cache = False
        elif isinstance(cache_spec, RadiusCache):
            self.cache = cache_spec
        else:
            raise SpecificationError(
                f"config.cache must be 'shared', 'local', False or a "
                f"RadiusCache instance, got {cache_spec!r}")

        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-radius-dispatcher",
            daemon=True)
        self._dispatcher.start()
        logger.info("radius service up: workers=%d queue_limit=%d cache=%s "
                    "shm=%s", workers, self.config.queue_limit,
                    type(self.cache).__name__ if self.cache else "off",
                    self.config.use_shm)

    # ------------------------------------------------------------------
    # frontend
    # ------------------------------------------------------------------
    def submit(self, problems: Sequence[RadiusProblem], *,
               method: str = "auto", seed=None) -> RadiusTicket:
        """Enqueue a radius request; returns its ticket immediately.

        Raises
        ------
        ServiceOverloadError
            When the admission breaker is open or the bounded queue is
            full — the request was *not* enqueued; retry later or fall
            back to the in-process :func:`~repro.core.radius.compute_radii`.
        ServiceClosedError
            When the service has been closed.
        SpecificationError
            For an empty request, a non-problem, or a stateful
            :class:`numpy.random.Generator` seed (every group task would
            restart from the caller's stream position); pass an integer
            seed, or let ``compute_radii`` solve it in-process.
        """
        problems = list(problems)
        if not problems:
            raise SpecificationError("cannot submit an empty request")
        if isinstance(seed, np.random.Generator):
            raise SpecificationError(
                "the service cannot draw from a stateful Generator seed in "
                "problem order; pass an integer seed or solve in-process")
        for p in problems:
            if not isinstance(p, RadiusProblem):
                raise SpecificationError(
                    f"problems must be RadiusProblem instances, got "
                    f"{type(p).__name__}")
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is closed")
            if not self.admission.allow_pool():
                # Open breaker: shed without touching the queue.  Each
                # shed attempt advances the deterministic cooldown, so
                # after `cooldown` rejected submissions the breaker goes
                # half-open and the next request probes the queue again.
                self.admission.record_serial_execution(1)
                return self._shed(len(problems), "admission breaker open")
            ticket = RadiusTicket(next(self._ids), len(problems))
            request = _Request(ticket, problems, method, seed)
            try:
                self._queue.put_nowait(request)
            except queue.Full:
                self.admission.record_pool_failure()
                return self._shed(len(problems), "request queue full")
            self.admission.record_pool_success()
            self.admitted += 1
            get_metrics().inc("service.requests")
            get_metrics().set_gauge("service.queue_depth",
                                    float(self._queue.qsize()))
            emit_event("service.admit", request=ticket.request_id,
                       problems=len(problems))
            return ticket

    def _shed(self, n_problems: int, reason: str) -> RadiusTicket:
        self.shed += 1
        get_metrics().inc("service.sheds")
        emit_event("service.shed", reason=reason, problems=n_problems,
                   breaker=self.admission.state)
        logger.warning("request shed (%s); %d request(s) shed so far",
                       reason, self.shed)
        raise ServiceOverloadError(
            f"request shed: {reason} "
            f"(queue_limit={self.config.queue_limit}, "
            f"admission breaker {self.admission.state})")

    def gather(self, tickets: Sequence[RadiusTicket],
               timeout: float | None = None) -> list[list[RadiusResult]]:
        """Block for many tickets; one result list per ticket, in order."""
        return [t.result(timeout) for t in tickets]

    def compute(self, problems: Sequence[RadiusProblem], *,
                method: str = "auto", seed=None) -> list[RadiusResult]:
        """Synchronous convenience: :meth:`submit` + :meth:`~RadiusTicket.result`.

        Element ``i`` is bit-identical to
        ``compute_radius(problems[i], method=method, seed=seed)``.
        """
        return self.submit(problems, method=method, seed=seed).result()

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            request = self._queue.get()
            if request is None:  # shutdown sentinel
                break
            get_metrics().set_gauge("service.queue_depth",
                                    float(self._queue.qsize()))
            get_metrics().set_gauge("service.inflight", 1.0)
            try:
                self._process(request)
            finally:
                get_metrics().set_gauge("service.inflight", 0.0)

    def _process(self, request: _Request) -> None:
        ticket = request.ticket
        with span("service.request", request=ticket.request_id,
                  problems=ticket.n_problems) as sp:
            try:
                results = self._solve(request.problems, request.method,
                                      request.seed, sp)
            except BaseException as exc:
                self.failed += 1
                get_metrics().inc("service.failures")
                emit_event("service.error", request=ticket.request_id,
                           error=f"{type(exc).__name__}: {exc}")
                logger.exception("request %d failed", ticket.request_id)
                ticket._reject(exc)
                return
        self.completed += 1
        get_metrics().inc("service.completed")
        emit_event("service.done", request=ticket.request_id,
                   problems=ticket.n_problems)
        ticket._resolve(results)

    def _solve(self, problems: list[RadiusProblem], method: str, seed,
               sp) -> list[RadiusResult]:
        """One request, mirroring :func:`~repro.core.radius.compute_radii`:
        cache pass → structural grouping → grouped dispatch → ordered merge.
        """
        cache = self.cache
        keys: list[str | None] = [None] * len(problems)
        results: list[RadiusResult | None] = [None] * len(problems)
        if cache is not None:
            for i, problem in enumerate(problems):
                keys[i] = cache.key(problem, method=method, seed=seed)
                results[i] = cache.get(keys[i])
        pending = [i for i, r in enumerate(results) if r is None]
        if sp is not None:
            sp.tags["hits"] = len(problems) - len(pending)
        if not pending:
            return results  # fully served from cache

        groups: dict[tuple, list[int]] = {}
        for i in pending:
            groups.setdefault(_solver_structure(problems[i], method),
                              []).append(i)
        # Workers talk to the shared store directly; a local cache cannot
        # cross the process boundary, so the frontend stores for it after
        # the gather.
        shared = cache if isinstance(cache, SharedRadiusCache) else None

        if self.config.use_shm:
            # Position of problem i inside the published miss-batch.
            position = {i: j for j, i in enumerate(pending)}
            with SharedProblemBatch.publish(
                    [problems[i] for i in pending]) as batch:
                tasks = [Task(_solve_group_shm,
                              (batch.descriptor,
                               [position[i] for i in idxs],
                               method, seed, shared))
                         for idxs in groups.values()]
                solved = resolve_task_failures(
                    self.executor.run(tasks), tasks, executor=self.executor)
        else:
            tasks = [Task(_solve_group_pickled,
                          ([problems[i] for i in idxs], method, seed,
                           shared))
                     for idxs in groups.values()]
            solved = resolve_task_failures(
                self.executor.run(tasks), tasks, executor=self.executor)

        for idxs, group_results in zip(groups.values(), solved):
            for i, result in zip(idxs, group_results):
                results[i] = result
        if cache is not None and shared is None:
            for i in pending:
                cache.put(keys[i], results[i])
        return results

    # ------------------------------------------------------------------
    # lifecycle and diagnostics
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has completed (or begun)."""
        return self._closed

    def queue_depth(self) -> int:
        """Requests currently waiting for the dispatcher."""
        return self._queue.qsize()

    def stats(self) -> dict:
        """JSON-safe service counters (plus executor/cache/breaker state)."""
        return {
            "admitted": self.admitted,
            "shed": self.shed,
            "completed": self.completed,
            "failed": self.failed,
            "queue_depth": self._queue.qsize(),
            "queue_limit": self.config.queue_limit,
            "admission": self.admission.snapshot(),
            "executor": self.executor.stats(),
            "cache": self.cache.stats() if self.cache is not None else None,
        }

    def close(self, timeout: float | None = None) -> None:
        """Drain admitted requests, then shut everything down (idempotent).

        New submissions are rejected immediately
        (:class:`~repro.exceptions.ServiceClosedError`); requests already
        in the queue are still processed — their tickets resolve — before
        the dispatcher stops, the pool closes, and the owned cache's
        manager shuts down.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(None)  # FIFO: lands after every admitted request
        self._dispatcher.join(timeout)
        if self._dispatcher.is_alive():  # pragma: no cover - stuck solver
            logger.warning("dispatcher still running after %s s; pool and "
                           "cache are left open", timeout)
            return
        self.executor.close()
        if self._owns_cache and isinstance(self.cache, SharedRadiusCache):
            self.cache.close()
        logger.info("radius service closed: %d completed, %d shed",
                    self.completed, self.shed)

    def __enter__(self) -> "RadiusService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"RadiusService(workers={self.executor.workers}, "
                f"queue={self._queue.qsize()}/{self.config.queue_limit}, "
                f"completed={self.completed}, shed={self.shed}, "
                f"closed={self._closed})")
