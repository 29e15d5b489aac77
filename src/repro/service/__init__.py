"""Radius-as-a-service: persistent pool, coalescing, shared-memory dispatch.

The serving layer over the solver stack (see :mod:`repro.service.service`
for the architecture, and ``docs/SERVICE.md`` for the operator view)::

    from repro.service import RadiusService

    with RadiusService(workers=4) as service:
        tickets = [service.submit(batch) for batch in batches]
        results = service.gather(tickets)

Results are bit-identical to the in-process library path
(:func:`repro.core.radius.compute_radii`), which also accepts a running
service directly via its ``service=`` seam.
"""

from repro.service.cache import SharedRadiusCache
from repro.service.service import RadiusService, RadiusTicket, ServiceConfig
from repro.service.shm import (
    BatchDescriptor,
    SharedProblemBatch,
    assert_no_leaked_segments,
)

__all__ = [
    "RadiusService",
    "RadiusTicket",
    "ServiceConfig",
    "SharedRadiusCache",
    "SharedProblemBatch",
    "BatchDescriptor",
    "assert_no_leaked_segments",
]
