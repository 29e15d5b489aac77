"""Replay engine: recorded series, drawdown, fan-out, and freezing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SpecificationError
from repro.observability import observing
from repro.resilience.chaos import ChaosPolicy, bit_identical
from repro.resilience.supervisor import SupervisedExecutor, SupervisorConfig
from repro.scenarios.replay import ReplayContext, replay_scenario
from repro.scenarios.shocks import ShockScenario
from repro.systems.independent.scenarios import critical_drift_scenario
from tests.scenarios.conftest import BETA, SEED


def test_context_rejects_sensitivity_weighting(lab_system):
    from repro.core.weighting import SensitivityWeighting

    analysis = lab_system.robustness_analysis(
        beta=BETA, seed=SEED, weighting=SensitivityWeighting())
    with pytest.raises(SpecificationError, match="shared P-space"):
        ReplayContext.from_analysis(analysis)


def test_replay_records_full_series(lab_ctx, lab_system, lab_rho):
    scenario = critical_drift_scenario(lab_system, BETA, n_steps=20)
    result = replay_scenario(lab_ctx, scenario, seed=SEED,
                             n_trajectories=3, rho=lab_rho)
    assert len(result.trajectories) == 3
    for t in result.trajectories:
        assert t.scenario == scenario.name
        assert t.n_steps == scenario.n_steps
        assert len(t.distances) == scenario.n_steps
        assert set(t.max_drawdown) == {
            f"finish_time_m{j}" for j in range(lab_system.n_machines)}


def test_critical_drift_violates_exactly_beyond_rho(lab_ctx, lab_system,
                                                    lab_rho):
    """Along the critical direction: violation <=> distance > rho."""
    scenario = critical_drift_scenario(lab_system, BETA, n_steps=20)
    result = replay_scenario(lab_ctx, scenario, seed=SEED,
                             n_trajectories=4, rho=lab_rho)
    for t in result.trajectories:
        for violated, distance in zip(t.violations, t.distances):
            assert violated == (distance > lab_rho), (violated, distance)
    assert 0.0 < result.violation_rate < 1.0
    assert result.violation_rate == result.predicted_violation_rate


def test_drawdown_reaches_one_at_first_violation(lab_ctx, lab_system,
                                                 lab_rho):
    scenario = critical_drift_scenario(lab_system, BETA, n_steps=20)
    result = replay_scenario(lab_ctx, scenario, seed=SEED,
                             n_trajectories=2, rho=lab_rho)
    for t in result.trajectories:
        assert t.first_violation_step is not None
        assert max(t.max_drawdown.values()) > 1.0
    assert result.mean_first_violation_step is not None
    assert max(result.worst_drawdown.values()) > 1.0


def test_frozen_param_suppresses_all_violations(lab_ctx, lab_system,
                                                lab_rho):
    """Freezing the only shocked kind projects the shock to zero."""
    scenario = critical_drift_scenario(lab_system, BETA, n_steps=20)
    frozen = replay_scenario(lab_ctx, scenario, seed=SEED,
                             n_trajectories=2, rho=lab_rho,
                             frozen="exec_times")
    assert frozen.violation_rate == 0.0
    assert all(d == 0.0 for t in frozen.trajectories for d in t.distances)


def test_supervised_fanout_is_bit_identical(lab_ctx, lab_system, lab_rho):
    """One task per worker chunk: four trajectories make two chunks on
    two workers and three (1/1/2) on three."""
    scenario = critical_drift_scenario(lab_system, BETA, n_steps=20)
    serial = replay_scenario(lab_ctx, scenario, seed=SEED,
                             n_trajectories=4, rho=lab_rho)
    for workers in (2, 3):
        with SupervisedExecutor(workers, config=SupervisorConfig(),
                                seed=SEED) as ex:
            with observing() as obs:
                fanned = replay_scenario(lab_ctx, scenario, seed=SEED,
                                         n_trajectories=4, rho=lab_rho,
                                         executor=ex)
            assert len(ex.last_report.outcomes) == workers
        (replay_span,) = [s for s in obs.recorder.spans()
                          if s.name == "lab.replay"]
        assert replay_span.tags["shards"] == workers
        assert bit_identical(serial.trajectories, fanned.trajectories)


def test_spike_on_clipped_params_stays_in_bounds(lab_ctx, lab_rho):
    """Nonnegative parameters are clipped, so huge downward spikes
    cannot push execution times below zero."""
    scenario = ShockScenario(name="wild", kind="spike", magnitude=1e6,
                             n_steps=10, rate=1.0)
    result = replay_scenario(lab_ctx, scenario, seed=SEED,
                             n_trajectories=1, rho=lab_rho)
    assert all(np.isfinite(d) for t in result.trajectories
               for d in t.distances)


def test_bad_trajectory_count_rejected(lab_ctx, lab_system, lab_rho):
    scenario = critical_drift_scenario(lab_system, BETA)
    with pytest.raises(SpecificationError, match="n_trajectories"):
        replay_scenario(lab_ctx, scenario, seed=SEED, n_trajectories=0,
                        rho=lab_rho)


def test_unknown_frozen_param_rejected(lab_ctx, lab_system, lab_rho):
    """A misspelled freeze must not silently replay unfrozen."""
    scenario = critical_drift_scenario(lab_system, BETA, n_steps=20)
    with pytest.raises(SpecificationError, match="exec_time") as err:
        replay_scenario(lab_ctx, scenario, seed=SEED, n_trajectories=2,
                        rho=lab_rho, frozen="exec_time")
    assert "exec_times" in str(err.value)  # the known names are listed


def test_misspelled_drift_direction_rejected(lab_ctx, lab_rho):
    """A direction keyed by a parameter the drift does not touch would
    drift that parameter by zero; it is rejected before any task."""
    scenario = ShockScenario(
        name="typo", kind="drift", magnitude=1.0, n_steps=5,
        params=("exec_times",), directions={"exec_time": (1.0,) * 12})
    with pytest.raises(SpecificationError, match="exec_time"):
        replay_scenario(lab_ctx, scenario, seed=SEED, n_trajectories=2,
                        rho=lab_rho)


def test_bad_direction_length_fails_before_dispatch(lab_ctx, lab_rho):
    """A wrong-length direction raises in the caller, so the supervisor
    never retries or quarantines a doomed task."""
    scenario = ShockScenario(
        name="short", kind="drift", magnitude=1.0, n_steps=5,
        params=("exec_times",), directions={"exec_times": (1.0, 0.0)})
    with SupervisedExecutor(2, config=SupervisorConfig(), seed=SEED) as ex:
        with pytest.raises(SpecificationError, match="length"):
            replay_scenario(lab_ctx, scenario, seed=SEED, n_trajectories=4,
                            rho=lab_rho, executor=ex)
        assert ex.retries == 0
        assert ex.last_report is None


def test_negative_seed_fails_before_dispatch(lab_ctx, lab_rho):
    """A negative lab seed is a typed error in the caller: no chunk is
    sent, retried, quarantined or re-run in-process."""
    scenario = ShockScenario(name="spiky", kind="spike", magnitude=0.5,
                             n_steps=5)
    with SupervisedExecutor(2, config=SupervisorConfig(), seed=SEED) as ex:
        with pytest.raises(SpecificationError, match="seed"):
            replay_scenario(lab_ctx, scenario, seed=-1, n_trajectories=4,
                            rho=lab_rho, executor=ex)
        assert ex.retries == 0 and ex.quarantined == 0
        assert ex.last_report is None


def test_quarantined_chunks_rerun_bit_identically(lab_ctx, lab_system,
                                                  lab_rho):
    """Every chunk task fails and is quarantined; the in-process re-runs
    merge to the serial trajectories."""
    scenario = critical_drift_scenario(lab_system, BETA, n_steps=20)
    serial = replay_scenario(lab_ctx, scenario, seed=SEED,
                             n_trajectories=5, rho=lab_rho)
    chaos = ChaosPolicy(exception_rate=1.0, seed=SEED)
    with SupervisedExecutor(2, config=SupervisorConfig(max_task_retries=0),
                            chaos=chaos, seed=SEED) as ex:
        fanned = replay_scenario(lab_ctx, scenario, seed=SEED,
                                 n_trajectories=5, rho=lab_rho,
                                 executor=ex)
        assert ex.quarantined == 2
        assert [o.status for o in ex.last_report.outcomes] == \
            ["recovered", "recovered"]
    assert bit_identical(serial.trajectories, fanned.trajectories)
