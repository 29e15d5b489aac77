"""Admission control and lifecycle of the radius service.

The bounded queue plus the admission breaker implement deterministic
backpressure: a full queue sheds with
:class:`~repro.exceptions.ServiceOverloadError` and counts a breaker
failure; enough consecutive full-queue sheds open the breaker, which
then sheds without touching the queue while its event-counted cooldown
runs; the first admission after the cooldown closes it again.  A shed
request is *never* enqueued — the caller decides whether to retry or
fall back to the in-process path.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.features import ToleranceBounds
from repro.core.mappings import LinearMapping
from repro.core.radius import RadiusProblem
from repro.exceptions import (
    ServiceClosedError,
    ServiceOverloadError,
    SpecificationError,
)
from repro.resilience.supervisor import BreakerConfig
from repro.service import RadiusService, ServiceConfig


class _GatedLinear(LinearMapping):
    """A mapping whose evaluation blocks on a shared gate.

    With ``workers=1`` the solve runs in the service's dispatcher
    thread, so an unset gate parks the dispatcher deterministically —
    no sleeps — leaving the queue under the test's control.
    """

    gate = threading.Event()

    def value(self, x):
        type(self).gate.wait()
        return super().value(x)


def _fast_problem(i: int = 0) -> RadiusProblem:
    rng = np.random.default_rng(200 + i)
    coeffs = rng.standard_normal(3)
    origin = rng.standard_normal(3)
    phi0 = LinearMapping(coeffs).value(origin)
    return RadiusProblem(LinearMapping(coeffs), origin,
                         ToleranceBounds.upper(phi0 + 1.0))


def _gated_problem() -> RadiusProblem:
    mapping = _GatedLinear([1.0, 2.0, 3.0])
    origin = np.array([0.1, 0.2, 0.3])
    return RadiusProblem(mapping, origin, ToleranceBounds.upper(10.0))


def _wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:  # pragma: no cover - hang guard
            raise TimeoutError("condition not reached")
        time.sleep(0.01)


@pytest.fixture()
def gate():
    _GatedLinear.gate.clear()
    yield _GatedLinear.gate
    _GatedLinear.gate.set()  # never leave a dispatcher parked


class TestBackpressure:
    def test_full_queue_sheds_then_breaker_opens_and_recovers(self, gate):
        config = ServiceConfig(
            queue_limit=1, cache=False,
            admission=BreakerConfig(failure_threshold=2, cooldown=2))
        with RadiusService(1, config=config) as service:
            # park the dispatcher on a gated request
            blocked = service.submit([_gated_problem()])
            _wait_until(lambda: service.queue_depth() == 0)
            queued = service.submit([_fast_problem(0)])  # fills the queue

            # two full-queue sheds reach the failure threshold
            for _ in range(2):
                with pytest.raises(ServiceOverloadError, match="queue full"):
                    service.submit([_fast_problem(1)])
            assert service.admission.state == "open"

            # open breaker: sheds without probing the queue, each one
            # advancing the deterministic cooldown of 2
            with pytest.raises(ServiceOverloadError, match="breaker open"):
                service.submit([_fast_problem(2)])
            with pytest.raises(ServiceOverloadError, match="breaker open"):
                service.submit([_fast_problem(3)])
            assert service.admission.state == "half_open"

            # release the dispatcher; the admitted requests still resolve
            gate.set()
            assert len(blocked.result(timeout=60)) == 1
            assert len(queued.result(timeout=60)) == 1

            # the half-open probe admits and closes the breaker
            probe = service.submit([_fast_problem(4)])
            assert service.admission.state == "closed"
            assert len(probe.result(timeout=60)) == 1

            stats = service.stats()
            assert stats["admitted"] == 3
            assert stats["shed"] == 4
            assert stats["admission"]["opens"] == 1

    def test_shed_request_is_not_enqueued(self, gate):
        config = ServiceConfig(queue_limit=1, cache=False)
        with RadiusService(1, config=config) as service:
            blocked = service.submit([_gated_problem()])
            _wait_until(lambda: service.queue_depth() == 0)
            service.submit([_fast_problem(0)])
            with pytest.raises(ServiceOverloadError):
                service.submit([_fast_problem(1)])
            assert service.queue_depth() == 1  # the shed one never landed
            gate.set()
            blocked.result(timeout=60)

    def test_ticket_result_times_out_but_request_survives(self, gate):
        with RadiusService(1, config=ServiceConfig(cache=False)) as service:
            ticket = service.submit([_gated_problem()])
            with pytest.raises(TimeoutError):
                ticket.result(timeout=0.05)
            assert not ticket.done()
            gate.set()
            assert len(ticket.result(timeout=60)) == 1


class TestLifecycle:
    def test_closed_service_rejects_submissions(self):
        service = RadiusService(1, config=ServiceConfig(cache=False))
        service.close()
        assert service.closed
        with pytest.raises(ServiceClosedError):
            service.submit([_fast_problem()])

    def test_close_drains_admitted_requests(self):
        service = RadiusService(1, config=ServiceConfig(cache=False))
        tickets = [service.submit([_fast_problem(i)]) for i in range(3)]
        service.close()
        for ticket in tickets:
            assert ticket.done()
            assert len(ticket.result()) == 1

    def test_close_is_idempotent(self):
        service = RadiusService(1, config=ServiceConfig(cache=False))
        service.close()
        service.close()


class TestValidation:
    def test_queue_limit_must_be_positive(self):
        with pytest.raises(SpecificationError):
            ServiceConfig(queue_limit=0)

    def test_unknown_cache_spec_rejected(self):
        with pytest.raises(SpecificationError):
            ServiceConfig(cache="bogus")

    def test_config_type_checked(self):
        with pytest.raises(SpecificationError):
            RadiusService(1, config="not a config")

    def test_empty_request_rejected(self):
        with RadiusService(1, config=ServiceConfig(cache=False)) as service:
            with pytest.raises(SpecificationError):
                service.submit([])

    def test_non_problem_rejected(self):
        with RadiusService(1, config=ServiceConfig(cache=False)) as service:
            with pytest.raises(SpecificationError):
                service.submit(["not a problem"])
