"""The radius service: a long-lived serving layer over the solver stack.

Every library entry point so far is *call-shaped*: build an executor, fan
a batch out, tear the pool down.  The pool spawn and the per-task
pickling of whole problems dominate short calls — ``repro-bench-parallel-v1``
measured the per-call pool at 0.92× of serial.  :class:`RadiusService`
is the *service-shaped* alternative:

* one persistent :class:`~repro.resilience.supervisor.SupervisedExecutor`
  for the service's lifetime — workers spawn once and stay warm, with the
  supervisor's retries/quarantine/breaker protecting every pooled batch;
* an async frontend — :meth:`submit` enqueues a request and returns a
  :class:`RadiusTicket` immediately, so many analyses are in flight at
  once; :meth:`gather` (or :meth:`RadiusTicket.result`) blocks for the
  answers;
* admission control — the request queue is bounded, and a dedicated
  :class:`~repro.resilience.supervisor.CircuitBreaker` sheds load
  (:class:`~repro.exceptions.ServiceOverloadError`) when the queue stays
  full, with the breaker's deterministic event-counted cooldown deciding
  when to probe again;
* coalescing — whenever the dispatcher frees up it takes every request
  already queued and solves those sharing a ``method`` and seed as one
  batch, with the results handed back to each ticket in order;
* one dispatch — each batch is a single
  :func:`~repro.core.radius.compute_radii` call over the service's cache
  and executor, so it takes the library's own path: one cache pass, the
  misses grouped and cut into worker shards, published **once** into a
  :class:`~repro.service.shm.SharedProblemBatch` and solved as one
  supervised task per shard;
* a dispatcher-owned :class:`~repro.parallel.cache.RadiusCache` — every
  cache pass runs on the one dispatcher thread, so all clients of a
  service share one plain in-process cache.

Determinism contract: for a fixed stateless seed, :meth:`compute` returns
results **bit-identical** to :func:`repro.core.radius.compute_radii` on
the in-process library path, for any worker count, with tracing on or off
and however requests are coalesced (``tests/service/test_identity.py``
and ``tests/service/test_coalescing.py`` prove it).  A stateful
:class:`numpy.random.Generator` seed is rejected at :meth:`submit`: group
tasks in worker processes cannot draw from the caller's stream in problem
order.  One dispatcher thread takes requests in admission order, so a
fixed request sequence yields a replayable execution.

Observability: ``service.queue_depth`` / ``service.inflight`` gauges,
``service.admit`` / ``service.shed`` / ``service.done`` events, a
``service.flush`` span per batch, and under it one zero-length
``service.request`` span per request, opened as its batch starts, and the
batch's ``radius.batch`` span (cache pass, publication and supervised run,
with the worker spans absorbed into it).  A pooled batch's publication
reports under ``shm.*`` (``shm.publish`` / ``shm.unlink`` events, the
``shm.bytes`` gauge), as every pooled ``compute_radii`` batch does.
"""

from __future__ import annotations

import itertools
import logging
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.radius import (
    RadiusProblem,
    RadiusResult,
    _check_method,
    compute_radii,
)
from repro.exceptions import (
    ServiceClosedError,
    ServiceOverloadError,
    SpecificationError,
)
from repro.observability import emit_event, get_metrics, span
from repro.parallel.cache import RadiusCache
from repro.resilience.supervisor import (
    BreakerConfig,
    CircuitBreaker,
    SupervisedExecutor,
    SupervisorConfig,
)

__all__ = ["ServiceConfig", "RadiusTicket", "RadiusService"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of a :class:`RadiusService`.

    Attributes
    ----------
    queue_limit:
        Maximum requests waiting for the dispatcher (the batch it is
        solving excluded).  A full queue sheds new submissions with
        :class:`~repro.exceptions.ServiceOverloadError`.
    cache:
        ``"local"`` (default) gives the dispatcher its own in-process
        :class:`~repro.parallel.cache.RadiusCache`, shared by every
        client of the service; ``False`` disables caching; a
        :class:`~repro.parallel.cache.RadiusCache` instance is used
        as-is (the caller owns its lifetime).
    cache_entries:
        Size bound for a cache the service builds itself.
    supervisor:
        Supervision tuning for the persistent executor (task deadlines,
        retries, the *pool* breaker).
    admission:
        Thresholds for the *admission* breaker — unrelated to the pool
        breaker: its failures are full-queue sheds, and its open-state
        cooldown counts later shed attempts before re-probing the queue.
    """

    queue_limit: int = 32
    cache: object = "local"
    cache_entries: int | None = None
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)
    admission: BreakerConfig = field(
        default_factory=lambda: BreakerConfig(failure_threshold=3,
                                              cooldown=8))

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise SpecificationError(
                f"queue_limit must be >= 1, got {self.queue_limit}")
        if not (isinstance(self.cache, RadiusCache) or self.cache == "local"
                or self.cache is False or self.cache is None):
            raise SpecificationError(
                f"cache must be 'local', False or a RadiusCache instance, "
                f"got {self.cache!r}")


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


class RadiusService:
    """Long-lived radius server: persistent pool, coalescing, shm dispatch.

    Parameters
    ----------
    workers:
        Worker-process count of the persistent pool.  With ``1`` every
        batch is solved on the dispatcher thread, like an in-process
        :func:`~repro.core.radius.compute_radii`, without the
        supervisor; serving stays async.
    config:
        Service tuning (queue bound, cache policy, supervision,
        admission thresholds); see :class:`ServiceConfig`.
    seed:
        Seed for the supervised executor's retry-jitter stream (task
        results never depend on it).

    Use as a context manager (or call :meth:`close`): shutdown drains
    already-admitted requests, stops the dispatcher and closes the pool;
    every shared-memory batch is unlinked as soon as its solve returns.

    Thread safety: :meth:`submit`, :meth:`gather` and :meth:`compute`
    may be called from any number of client threads concurrently; the
    dispatcher takes requests in admission order.
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
        # Admitted requests.  The dispatcher drains the whole deque under
        # the lock ``submit`` holds, so a request is either in a batch or
        # still queued.
        self._queue: deque[_Request] = deque()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._ids = itertools.count(1)
        self._closed = False
        #: Requests admitted / shed / completed / failed over the lifetime.
        self.admitted = 0
        self.shed = 0
        self.completed = 0
        self.failed = 0

        cache = self.config.cache
        #: The dispatcher's cache (``None`` when caching is off).
        self.cache: RadiusCache | None = (
            RadiusCache(self.config.cache_entries) if cache == "local"
            else cache if isinstance(cache, RadiusCache) else None)

        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-radius-dispatcher",
            daemon=True)
        self._dispatcher.start()
        logger.info("radius service up: workers=%d queue_limit=%d cache=%s",
                    workers, self.config.queue_limit,
                    type(self.cache).__name__ if self.cache is not None
                    else "off")

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
            For an empty request, a non-problem, an unknown ``method``,
            or a stateful :class:`numpy.random.Generator` seed (every
            shard task would restart from the caller's stream position);
            pass an integer seed, or let ``compute_radii`` solve it
            in-process.
        """
        problems = list(problems)
        if not problems:
            raise SpecificationError("cannot submit an empty request")
        _check_method(method)
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
            if len(self._queue) >= self.config.queue_limit:
                self.admission.record_pool_failure()
                return self._shed(len(problems), "request queue full")
            ticket = RadiusTicket(next(self._ids), len(problems))
            self._queue.append(_Request(ticket, problems, method, seed))
            self._wakeup.notify()
            self.admission.record_pool_success()
            self.admitted += 1
            get_metrics().inc("service.requests")
            get_metrics().set_gauge("service.queue_depth",
                                    float(len(self._queue)))
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
            with self._wakeup:
                while not self._queue and not self._closed:
                    self._wakeup.wait()
                if not self._queue:  # closed, and every request served
                    return
                requests = list(self._queue)
                self._queue.clear()
                get_metrics().set_gauge("service.queue_depth", 0.0)
            get_metrics().set_gauge("service.inflight", float(len(requests)))
            try:
                self._serve(requests)
            finally:
                get_metrics().set_gauge("service.inflight", 0.0)

    def _serve(self, requests: list[_Request]) -> None:
        """Solve drained requests as one batch per ``method`` and seed.

        The seed is compared by the token the cache key hashes
        (``repr(seed)``), so requests merge exactly when they would share
        cache entries.  Batches run in the order of their first request.
        """
        batches: dict[tuple[str, str], list[_Request]] = {}
        for request in requests:
            batches.setdefault((request.method, repr(request.seed)),
                               []).append(request)
        for batch in batches.values():
            self._flush(batch)

    def _flush(self, batch: list[_Request]) -> None:
        """Solve one batch and resolve its tickets in order.

        A batch that raises is re-solved one request at a time, so an
        error reaches only its own ticket.
        """
        method, seed = batch[0].method, batch[0].seed
        problems = [p for request in batch for p in request.problems]
        with span("service.flush", requests=len(batch),
                  problems=len(problems)) as sp:
            if sp is not None:
                # Zero-length, so a request span's start is its time out
                # of the queue.
                for request in batch:
                    with span("service.request",
                              request=request.ticket.request_id,
                              problems=request.ticket.n_problems,
                              flush=sp.span_id):
                        pass
            solved = self._attempt(problems, method, seed)
            if not isinstance(solved, Exception):
                results = iter(solved)
                outcomes = [list(itertools.islice(results,
                                                  r.ticket.n_problems))
                            for r in batch]
            elif len(batch) == 1:
                outcomes = [solved]
            else:
                outcomes = [self._attempt(r.problems, method, seed)
                            for r in batch]
        for request, outcome in zip(batch, outcomes):
            self._finish(request.ticket, outcome)

    def _attempt(self, problems, method, seed):
        """Solve one batch through the library path, returning its
        exception instead of raising: the dispatcher must keep running,
        and the ticket re-raises it."""
        try:
            # False, not None: None would select the process-wide default.
            return compute_radii(problems, method=method, seed=seed,
                                 cache=self.cache if self.cache is not None
                                 else False, executor=self.executor)
        except Exception as exc:
            return exc

    def _finish(self, ticket: RadiusTicket, outcome) -> None:
        if isinstance(outcome, Exception):
            self.failed += 1
            get_metrics().inc("service.failures")
            emit_event("service.error", request=ticket.request_id,
                       error=f"{type(outcome).__name__}: {outcome}")
            logger.error("request %d failed", ticket.request_id,
                         exc_info=outcome)
            ticket._reject(outcome)
            return
        self.completed += 1
        get_metrics().inc("service.completed")
        emit_event("service.done", request=ticket.request_id,
                   problems=ticket.n_problems)
        ticket._resolve(outcome)

    # ------------------------------------------------------------------
    # lifecycle and diagnostics
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has completed (or begun)."""
        return self._closed

    def queue_depth(self) -> int:
        """Requests currently waiting for the dispatcher."""
        return len(self._queue)

    def stats(self) -> dict:
        """JSON-safe service counters (plus executor/cache/breaker state)."""
        return {
            "admitted": self.admitted,
            "shed": self.shed,
            "completed": self.completed,
            "failed": self.failed,
            "queue_depth": self.queue_depth(),
            "queue_limit": self.config.queue_limit,
            "admission": self.admission.snapshot(),
            "executor": self.executor.stats(),
            "cache": self.cache.stats() if self.cache is not None else None,
        }

    def close(self, timeout: float | None = None) -> None:
        """Drain admitted requests, then shut everything down (idempotent).

        New submissions are rejected immediately
        (:class:`~repro.exceptions.ServiceClosedError`); requests already
        queued or in a batch are still solved — their tickets resolve —
        before the dispatcher stops and the pool closes.  When the
        dispatcher outlives ``timeout``, the pool is left open and a later
        call finishes the shutdown.
        """
        with self._lock:
            # No request is admitted after this, so the dispatcher stops
            # once the queue is empty.
            self._closed = True
            self._wakeup.notify()
        self._dispatcher.join(timeout)
        if self._dispatcher.is_alive():
            logger.warning("dispatcher still running after %s s; the pool "
                           "is left open until close() is called again",
                           timeout)
            return
        self.executor.close()
        logger.info("radius service closed: %d completed, %d shed",
                    self.completed, self.shed)

    def __enter__(self) -> "RadiusService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"RadiusService(workers={self.executor.workers}, "
                f"queue={self.queue_depth()}/{self.config.queue_limit}, "
                f"completed={self.completed}, shed={self.shed}, "
                f"closed={self._closed})")
