"""Block replay equals the scalar step loop, bit for bit.

:func:`~repro.scenarios.replay.replay_scenario` evaluates each
trajectory as one ``(steps x dim)`` block.  Every case here replays the
same trajectories through the scalar oracle in
``tests/scenarios/scalar_replay.py`` and requires pickle-equal
:class:`~repro.scenarios.replay.TrajectoryResult` s: the makespan lab
as the benchmark builds it, the multi-kind makespan system under every
norm, HiPer-D with linear and quadratic features, the self-hosting
system, every parameter frozen in turn, and a spike clipped at the
parameters' physical bounds.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.weighting import NormalizedWeighting
from repro.resilience.chaos import bit_identical
from repro.scenarios.replay import ReplayContext, replay_scenario
from repro.scenarios.shocks import ShockScenario
from repro.systems.heuristics import MCT
from repro.systems.independent import generate_etc_gamma
from repro.systems.independent.makespan import MakespanSystem
from repro.systems.independent.scenarios import makespan_scenario_catalogue
from tests.scenarios.conftest import BETA, SEED
from tests.scenarios.scalar_replay import scalar_replay

N_TRAJECTORIES = 3


def _assert_matches_oracle(ctx, scenario, *, frozen=None,
                           n_trajectories=N_TRAJECTORIES):
    block = replay_scenario(ctx, scenario, seed=SEED,
                            n_trajectories=n_trajectories, rho=1.0,
                            frozen=frozen)
    oracle = tuple(scalar_replay(ctx, scenario, SEED, t, frozen)
                   for t in range(n_trajectories))
    assert bit_identical(block.trajectories, oracle), (scenario.name, frozen)
    return block


def _frozen_choices(ctx):
    return [None] + [p.name for p in ctx.params]


def test_makespan_lab_as_benchmarked():
    """The 24x6 MCT system and catalogue the ``lab-replay`` workload
    runs, with shorter trajectories."""
    etc = generate_etc_gamma(24, 6, seed=SEED)
    system = MakespanSystem(etc, MCT().allocate(etc))
    ctx = ReplayContext.from_analysis(
        system.robustness_analysis(beta=BETA, seed=SEED))
    for scenario in makespan_scenario_catalogue(system, BETA, n_steps=30):
        for frozen in _frozen_choices(ctx):
            _assert_matches_oracle(ctx, scenario, frozen=frozen)


@pytest.fixture(scope="module")
def multi_kind_system() -> MakespanSystem:
    etc = generate_etc_gamma(12, 4, seed=SEED)
    loads = np.array([0.5, 1.5, 1.0, 2.0])
    return MakespanSystem(etc, MCT().allocate(etc), background_loads=loads)


@pytest.mark.parametrize("norm", [1, 2, np.inf], ids=["l1", "l2", "linf"])
def test_multi_kind_makespan_every_norm(multi_kind_system, norm):
    analysis = multi_kind_system.robustness_analysis(
        beta=BETA, seed=SEED, weighting=NormalizedWeighting(),
        include_background=True, norm=norm)
    ctx = ReplayContext.from_analysis(analysis)
    catalogue = makespan_scenario_catalogue(multi_kind_system, BETA,
                                            n_steps=15)
    assert "correlated" in {sc.kind for sc in catalogue}
    for scenario in catalogue:
        for frozen in _frozen_choices(ctx):
            _assert_matches_oracle(ctx, scenario, frozen=frozen)


def test_hiperd_linear_and_quadratic_features():
    from repro.systems.hiperd import (QoSSpec, build_analysis,
                                      generate_hiperd_system)
    from repro.systems.hiperd.scenarios import hiperd_scenario_catalogue

    system = generate_hiperd_system(seed=SEED)
    analysis = build_analysis(
        system, QoSSpec(include_message_throughput=True), seed=SEED)
    kinds = Counter(type(spec.mapping).__name__ for spec in analysis.features)
    assert kinds["LinearMapping"] and kinds["QuadraticMapping"], kinds
    ctx = ReplayContext.from_analysis(analysis)
    violated = 0
    for scenario in hiperd_scenario_catalogue(analysis, n_steps=12):
        for frozen in _frozen_choices(ctx):
            result = _assert_matches_oracle(ctx, scenario, frozen=frozen)
            violated += sum(t.n_violations for t in result.trajectories)
    assert violated > 0  # the comparison covered violating steps too


def test_selfhost_system():
    from repro.systems.selfhost import (SelfhostSystem,
                                        selfhost_scenario_catalogue)

    system = SelfhostSystem.baseline(seed=SEED)
    ctx = ReplayContext.from_analysis(
        system.robustness_analysis(1.5, seed=SEED))
    for scenario in selfhost_scenario_catalogue(system, n_steps=6):
        _assert_matches_oracle(ctx, scenario, n_trajectories=2)


def test_clipped_huge_spike(lab_ctx):
    """A 1e6 spike drives execution times far below zero; both engines
    clip them at the parameter's lower bound identically."""
    scenario = ShockScenario(name="wild", kind="spike", magnitude=1e6,
                             n_steps=10, rate=1.0)
    result = _assert_matches_oracle(lab_ctx, scenario)
    assert all(t.n_violations for t in result.trajectories)
