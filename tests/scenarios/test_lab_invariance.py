"""Acceptance: lab artifacts are bit-identical across execution modes.

For a fixed seed the ``repro-lab-v1`` payload must not depend on *how*
the lab ran: workers in {1, 3, 4} (three workers cut four trajectories
into uneven 1/1/2 chunks), tracing on or off — the same contract
``tests/resilience/test_chaos_invariance.py`` pins for the supervised
executor, lifted to the whole scenario-lab pipeline (replay, bootstrap,
ablation, gates)."""

from __future__ import annotations

import json

import pytest

from repro.observability import observing
from repro.parallel.bench import validate_bench_payload
from repro.resilience.chaos import bit_identical
from repro.resilience.supervisor import SupervisedExecutor, SupervisorConfig
from repro.scenarios import run_lab
from repro.systems.independent.scenarios import makespan_scenario_catalogue
from tests.scenarios.conftest import BETA, SEED

N_TRAJECTORIES = 4
N_BOOT = 60


def _run(lab_system, *, workers: int, traced: bool) -> dict:
    """One full lab run in the requested execution mode."""
    analysis = lab_system.robustness_analysis(beta=BETA, seed=SEED)
    catalogue = makespan_scenario_catalogue(lab_system, BETA, n_steps=14)

    def go(executor=None):
        return run_lab(analysis, catalogue, seed=SEED,
                       n_trajectories=N_TRAJECTORIES, n_boot=N_BOOT,
                       block=5, executor=executor, system="makespan")

    if workers == 1:
        if traced:
            with observing():
                return go()
        return go()
    with SupervisedExecutor(workers, config=SupervisorConfig(),
                            seed=SEED) as ex:
        if traced:
            with observing():
                return go(ex)
        return go(ex)


@pytest.fixture(scope="module")
def baseline(lab_system) -> dict:
    """The serial, untraced run every mode must reproduce."""
    return _run(lab_system, workers=1, traced=False)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workers", [1, 3, 4])
def test_artifact_is_bit_identical(lab_system, baseline, workers, traced):
    payload = _run(lab_system, workers=workers, traced=traced)
    validate_bench_payload(payload)
    assert bit_identical(payload, baseline)
    assert json.dumps(payload, sort_keys=True) == \
        json.dumps(baseline, sort_keys=True)
