"""Stateful ``numpy.random.Generator`` seeds never reach the service.

Each group task would unpickle its own copy of the caller's Generator and
restart from the same stream position, so the draws — and the radii —
would silently differ from the in-process path, which draws from one
stream in problem order.  :meth:`RadiusService.submit` rejects such a
seed, and ``compute_radii(..., service=...)`` solves it in-process.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.features import ToleranceBounds
from repro.core.mappings import LinearMapping, MaxMapping, QuadraticMapping
from repro.core.radius import RadiusProblem, compute_radii
from repro.exceptions import SpecificationError
from repro.parallel.cache import (
    get_default_cache,
    install_default_cache,
    uninstall_default_cache,
)
from repro.service import RadiusService, ServiceConfig, assert_no_leaked_segments


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


def _problems():
    """A numeric group, then two l-inf bisection problems: two group
    tasks that both draw from the seed."""
    rng = np.random.default_rng(5)
    comps = [LinearMapping(rng.standard_normal(4), float(i))
             for i in range(2)]
    numeric = MaxMapping(comps)
    out = [RadiusProblem(numeric, np.zeros(4), ToleranceBounds.upper(
        numeric.value(np.zeros(4)) + 2.0))]
    for _ in range(2):
        out.append(RadiusProblem(QuadraticMapping(np.eye(4)),
                                 rng.standard_normal(4) * 0.1,
                                 ToleranceBounds.upper(2.0), norm=np.inf))
    return out


def test_submit_rejects_a_generator_seed():
    with RadiusService(1, config=ServiceConfig(cache=False)) as service:
        with pytest.raises(SpecificationError, match="Generator"):
            service.submit(_problems(), seed=np.random.default_rng(0))
        assert service.stats()["admitted"] == 0


@pytest.mark.parametrize("workers", [1, 2])
def test_compute_radii_keeps_generator_batches_in_process(workers):
    problems = _problems()
    want = compute_radii(problems, seed=np.random.default_rng(0),
                         cache=False)
    with RadiusService(workers, config=ServiceConfig(cache=False)) as service:
        got = compute_radii(problems, seed=np.random.default_rng(0),
                            cache=False, service=service)
        assert service.stats()["admitted"] == 0
    assert [r.radius for r in got] == [r.radius for r in want]
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.boundary_point, w.boundary_point)
