"""The radius service must never change a computed number.

The acceptance bar of the serving layer: for a fixed seed,
:meth:`RadiusService.compute` is bit-identical to the in-process
:func:`compute_radii` path — for any worker count, with tracing on or
off, through shared-memory dispatch, cold or served from the
dispatcher's cache.  ``SolverAttempt.elapsed`` (wall-clock, outside
the determinism contract) is the only field neutralised before
comparison.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.features import PerformanceFeature, ToleranceBounds
from repro.core.fepia import FeatureSpec, RobustnessAnalysis
from repro.core.mappings import LinearMapping, MaxMapping, QuadraticMapping
from repro.core.perturbation import PerturbationParameter
from repro.core.radius import RadiusProblem, compute_radii
from repro.observability import Observability, observing
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
    """A mixed batch spanning the analytic/ellipsoid/bisection/numeric tiers."""
    rng = np.random.default_rng(8)
    out = []
    for i in range(2):  # analytic tier
        coeffs = rng.standard_normal(4)
        origin = rng.standard_normal(4)
        phi0 = LinearMapping(coeffs).value(origin)
        out.append(RadiusProblem(LinearMapping(coeffs), origin,
                                 ToleranceBounds.upper(phi0 + 1.0 + i)))
    for norm in (2, np.inf):  # ellipsoid + bisection tiers
        out.append(RadiusProblem(QuadraticMapping(np.eye(4)),
                                 rng.standard_normal(4) * 0.1,
                                 ToleranceBounds.upper(2.0), norm=norm))
    comps = [LinearMapping(rng.standard_normal(4), float(i))
             for i in range(2)]
    out.append(RadiusProblem(MaxMapping(comps), np.zeros(4),  # numeric tier
                             ToleranceBounds.upper(
                                 MaxMapping(comps).value(np.zeros(4)) + 2.0)))
    return out


def _canonical(results) -> str:
    from repro.io.serialize import to_dict
    dicts = [to_dict(r) for r in results]
    for d in dicts:
        for attempt in d.get("diagnostics", []):
            attempt["elapsed"] = 0.0
    return json.dumps(dicts, sort_keys=True)


class TestServiceIdentity:
    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_matches_library_path(self, workers, traced):
        problems = _problems()
        want = compute_radii(problems, seed=7, cache=False)
        config = ServiceConfig(cache=False)
        if traced:
            obs = Observability()
            with observing(obs):
                with RadiusService(workers, config=config) as service:
                    got = service.compute(problems, seed=7)
            names = [s.name for s in obs.recorder.spans()]
            assert "service.request" in names
            snap = obs.metrics.snapshot()
            assert snap["service.requests"]["value"] == 1
            assert snap["service.completed"]["value"] == 1
        else:
            with RadiusService(workers, config=config) as service:
                got = service.compute(problems, seed=7)
        assert _canonical(got) == _canonical(want)

    def test_dispatcher_cache_pass_is_identical_and_warm(self):
        problems = _problems()
        want = compute_radii(problems, seed=11, cache=False)
        with RadiusService(2) as service:
            cold = service.compute(problems, seed=11)
            dispatched = service.executor.stats()["dispatched"]
            warm = service.compute(problems, seed=11)
            assert service.executor.stats()["dispatched"] == dispatched
            stats = service.cache.stats()
        assert _canonical(cold) == _canonical(want)
        assert _canonical(warm) == _canonical(want)
        # the dispatcher's own cache served the whole second pass
        assert stats["misses"] == len(problems)
        assert stats["hits"] == len(problems)
        assert stats["entries"] == len(problems)

    def test_many_requests_in_flight(self):
        problems = _problems()
        want = compute_radii(problems, seed=5, cache=False)
        with RadiusService(2, config=ServiceConfig(cache=False)) as service:
            tickets = [service.submit(problems, seed=5) for _ in range(4)]
            answers = service.gather(tickets, timeout=120)
            stats = service.stats()
        for got in answers:
            assert _canonical(got) == _canonical(want)
        assert stats["admitted"] == 4
        assert stats["completed"] == 4
        assert stats["shed"] == 0


class TestServiceSeams:
    def test_compute_radii_service_seam(self):
        problems = _problems()
        want = compute_radii(problems, seed=2, cache=False)
        with RadiusService(1, config=ServiceConfig(cache=False)) as service:
            got = compute_radii(problems, seed=2, service=service)
        assert _canonical(got) == _canonical(want)

    def test_robustness_analysis_service_seam(self):
        def build(**kwargs):
            exec_times = PerturbationParameter.nonnegative(
                "exec_times", [2.0, 3.0], unit="s")
            msg_sizes = PerturbationParameter.nonnegative(
                "msg_sizes", [1e4], unit="bytes")
            mapping = LinearMapping([1.0, 1.0, 1e-6])
            phi0 = mapping.value(np.array([2.0, 3.0, 1e4]))
            feature = PerformanceFeature(
                "latency", ToleranceBounds.relative(phi0, 1.3), unit="s")
            return RobustnessAnalysis([FeatureSpec(feature, mapping)],
                                      [exec_times, msg_sizes], **kwargs)

        want = build().radii()
        with RadiusService(1, config=ServiceConfig(cache=False)) as service:
            got = build(service=service).radii()
        assert set(got) == set(want)
        for name in want:
            assert _canonical([got[name]]) == _canonical([want[name]])
