"""The lab orchestrator: payload shape, gates, and the acceptance
criteria (deterministic artifacts; bootstrap CI brackets the analytic
FePIA prediction on the shipped critical-drift scenario)."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import SpecificationError
from repro.parallel.bench import LAB_SCHEMA, validate_bench_payload
from repro.resilience.chaos import bit_identical
from repro.scenarios import RobustnessGates, run_lab
from repro.systems.independent.scenarios import makespan_scenario_catalogue
from tests.scenarios.conftest import BETA, SEED


@pytest.fixture(scope="module")
def catalogue(lab_system):
    return makespan_scenario_catalogue(lab_system, BETA, n_steps=20)


@pytest.fixture(scope="module")
def payload(lab_system, catalogue):
    analysis = lab_system.robustness_analysis(beta=BETA, seed=SEED)
    return run_lab(analysis, catalogue, seed=SEED, n_trajectories=4,
                   n_boot=100, block=5, system="makespan")


def test_payload_validates_and_serializes(payload):
    assert payload["schema"] == LAB_SCHEMA
    validate_bench_payload(payload)
    assert json.loads(json.dumps(payload)) == payload


def test_rho_matches_analytic_radius(payload, lab_rho):
    assert payload["rho"] == pytest.approx(lab_rho)
    assert min(payload["radii"].values()) == pytest.approx(lab_rho)
    assert payload["per_parameter_radii"]["exec_times"] > 0


def test_acceptance_ci_brackets_analytic_prediction(payload):
    """Acceptance: on critical-drift, the block-bootstrap CI of the
    empirical violation rate brackets the radius-based prediction."""
    by_name = {e["scenario"]["name"]: e for e in payload["scenarios"]}
    entry = by_name["critical-drift"]
    assert 0.0 < entry["violation_rate"] < 1.0
    assert entry["ci_brackets_prediction"] is True
    ci = entry["bootstrap"]
    assert ci["lo"] <= entry["predicted_violation_rate"] <= ci["hi"]


def test_acceptance_rerun_is_bit_identical(lab_system, catalogue, payload):
    """Acceptance: same seed, fresh analysis -> byte-identical artifact."""
    analysis = lab_system.robustness_analysis(beta=BETA, seed=SEED)
    again = run_lab(analysis, catalogue, seed=SEED, n_trajectories=4,
                    n_boot=100, block=5, system="makespan")
    assert bit_identical(payload, again)
    assert json.dumps(payload, sort_keys=True) == \
        json.dumps(again, sort_keys=True)


def test_ablation_targets_first_violating_scenario(payload):
    assert payload["ablation"]["scenario"] == "critical-drift"
    assert payload["ablation"]["rank_agreement"] is True


def test_gates_fold_into_verdict(lab_system, catalogue):
    analysis = lab_system.robustness_analysis(beta=BETA, seed=SEED)
    gates = RobustnessGates({"violation_rate": ("<=", 0.0)})
    strict = run_lab(analysis, catalogue, seed=SEED, n_trajectories=2,
                     n_boot=20, block=5, gates=gates, system="makespan")
    assert strict["gates_passed"] is False
    checks = [e["gates"] for e in strict["scenarios"]]
    assert all(g is not None for g in checks)
    assert any(not g["passed"] for g in checks)
    validate_bench_payload(strict)


def test_duplicate_and_unknown_names_rejected(lab_system, catalogue):
    analysis = lab_system.robustness_analysis(beta=BETA, seed=SEED)
    with pytest.raises(SpecificationError, match="duplicate"):
        run_lab(analysis, [catalogue[0], catalogue[0]], seed=SEED,
                n_trajectories=1, n_boot=10)
    with pytest.raises(SpecificationError, match="nonesuch"):
        run_lab(analysis, catalogue, seed=SEED, n_trajectories=1,
                n_boot=10, ablate="nonesuch")
    with pytest.raises(SpecificationError, match="at least one"):
        run_lab(analysis, [], seed=SEED)


def test_negative_seed_rejected_before_any_task(lab_system, catalogue):
    from repro.resilience.supervisor import (SupervisedExecutor,
                                             SupervisorConfig)

    analysis = lab_system.robustness_analysis(beta=BETA, seed=SEED)
    with SupervisedExecutor(2, config=SupervisorConfig(), seed=SEED) as ex:
        with pytest.raises(SpecificationError, match="seed"):
            run_lab(analysis, catalogue, seed=-1, n_trajectories=2,
                    n_boot=10, executor=ex)
        assert ex.last_report is None


def test_artifact_has_no_environment_leakage(payload):
    """The determinism contract: nothing timing- or worker-shaped."""
    text = json.dumps(payload)
    for forbidden in ("workers", "seconds", "steps_per_sec"):
        assert forbidden not in text
