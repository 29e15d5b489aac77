"""A pooled lab run is three supervised batches, equal to the serial run.

Through an executor, :func:`~repro.scenarios.run_lab` sends the
analysis' radii, then every scenario's replay chunks, then the
ablation's frozen replays together with every scenario's bootstrap.
These tests trace that layout, check that the bootstraps ran in the
workers, compare payloads against the serial run where the batches mix
the most (a later scenario ablated, two ablation jobs in one batch,
every task quarantined), and check that the executor is bound to the
analysis only for the call.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.analysis.degradation import degradation_curve
from repro.core.weighting import NormalizedWeighting
from repro.observability import observing
from repro.resilience.chaos import ChaosPolicy, bit_identical
from repro.resilience.supervisor import SupervisedExecutor, SupervisorConfig
from repro.scenarios import run_lab
from repro.systems.heuristics import MCT
from repro.systems.independent import generate_etc_gamma
from repro.systems.independent.makespan import MakespanSystem
from repro.systems.independent.scenarios import makespan_scenario_catalogue
from tests.scenarios.conftest import BETA, SEED

N_TRAJECTORIES = 4
N_BOOT = 40


def _analysis(system, **options):
    analysis = system.robustness_analysis(beta=BETA, seed=SEED, **options)
    # Solve the radii on every run: a hit in a radius cache filled by an
    # earlier run would leave the radii batch out.
    analysis.radius_cache = False
    return analysis


def _lab(system, catalogue, executor=None, **kwargs) -> dict:
    analysis = _analysis(system, **kwargs.pop("analysis", {}))
    return run_lab(analysis, catalogue, seed=SEED,
                   n_trajectories=N_TRAJECTORIES, n_boot=N_BOOT, block=5,
                   executor=executor, system="makespan", **kwargs)


def _children() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def _assert_same_payload(payload: dict, serial: dict) -> None:
    assert bit_identical(payload, serial)
    assert json.dumps(payload, sort_keys=True) == \
        json.dumps(serial, sort_keys=True)


def _below(spans, root) -> list:
    """Every span under ``root``."""
    inside = {root.span_id}
    out = []
    for s in spans:  # parents start (and are recorded) before children
        if s.parent_id in inside:
            inside.add(s.span_id)
            out.append(s)
    return out


@pytest.fixture(scope="module")
def catalogue(lab_system):
    return makespan_scenario_catalogue(lab_system, BETA, n_steps=12)


@pytest.fixture(scope="module")
def multi_kind_system() -> MakespanSystem:
    etc = generate_etc_gamma(12, 4, seed=SEED)
    loads = np.array([0.5, 1.5, 1.0, 2.0])
    return MakespanSystem(etc, MCT().allocate(etc), background_loads=loads)


def test_pooled_lab_is_three_batches(lab_system, catalogue):
    serial = _lab(lab_system, catalogue)
    with SupervisedExecutor(2, config=SupervisorConfig(), seed=SEED) as ex:
        with observing() as obs:
            pooled = _lab(lab_system, catalogue, ex)
    _assert_same_payload(pooled, serial)
    spans = obs.recorder.spans()
    (root,) = [s for s in spans if s.name == "lab.run"]
    below = _below(spans, root)
    batches = [s for s in below if s.name == "supervisor.batch"]
    assert len(batches) == 3
    chunks = min(2, N_TRAJECTORIES)
    assert [b.tags["tasks"] for b in batches[1:]] == [
        chunks * len(catalogue), chunks + len(catalogue)]
    boots = [s for s in below if s.name == "lab.bootstrap"]
    assert len(boots) == len(catalogue)
    pids = {s.tags.get("worker_pid") for s in boots}
    assert None not in pids and os.getpid() not in pids


def test_ablating_a_later_scenario_matches_serial(lab_system, catalogue):
    """The ablation's chunks sit beside every bootstrap in one batch,
    sent costliest first; the merge must still pair each output with
    its job."""
    ablate = catalogue[-1].name
    serial = _lab(lab_system, catalogue, ablate=ablate)
    assert serial["ablation"]["scenario"] == ablate
    with SupervisedExecutor(2, config=SupervisorConfig(), seed=SEED) as ex:
        _assert_same_payload(
            _lab(lab_system, catalogue, ex, ablate=ablate), serial)


def test_two_ablation_jobs_share_one_batch(multi_kind_system):
    """Two parameters: both frozen replays and every bootstrap run in
    the lab's last batch."""
    options = {"weighting": NormalizedWeighting(),
               "include_background": True}
    catalogue = makespan_scenario_catalogue(multi_kind_system, BETA,
                                            n_steps=12)
    serial = _lab(multi_kind_system, catalogue, analysis=dict(options))
    assert [e["param"] for e in serial["ablation"]["entries"]] == \
        ["exec_times", "background"]
    with SupervisedExecutor(3, config=SupervisorConfig(), seed=SEED) as ex:
        with observing() as obs:
            pooled = _lab(multi_kind_system, catalogue, ex,
                          analysis=dict(options))
    _assert_same_payload(pooled, serial)
    spans = obs.recorder.spans()
    (ablation,) = [s for s in spans if s.name == "lab.ablation"]
    (batch,) = [s for s in _below(spans, ablation)
                if s.name == "supervisor.batch"]
    assert batch.tags["tasks"] == 2 * 3 + len(catalogue)


def test_quarantined_tasks_rerun_to_the_serial_payload(lab_system,
                                                       catalogue):
    """Every task of every batch fails and is re-run in-process, in the
    order the batch sent it."""
    serial = _lab(lab_system, catalogue)
    chaos = ChaosPolicy(exception_rate=1.0, seed=SEED)
    with SupervisedExecutor(2, config=SupervisorConfig(max_task_retries=0),
                            chaos=chaos, seed=SEED) as ex:
        pooled = _lab(lab_system, catalogue, ex)
        assert ex.quarantined > 0
    _assert_same_payload(pooled, serial)


def test_executor_is_bound_only_for_the_call(lab_system, catalogue):
    """A later call that falls back to ``analysis.executor`` must not
    reopen a pool inside the caller's closed executor."""
    analysis = _analysis(lab_system)
    before = _children()
    with SupervisedExecutor(2, config=SupervisorConfig(), seed=SEED) as ex:
        run_lab(analysis, catalogue, seed=SEED, n_trajectories=2,
                n_boot=N_BOOT, executor=ex)
    assert analysis.executor is None
    assert _children() <= before
    degradation_curve(analysis, None, betas=[1.1, 1.2, 1.3])
    assert _children() <= before


def test_own_executor_is_kept(lab_system, catalogue):
    """An analysis with its own executor keeps it, and solves through
    it rather than the lab's."""
    analysis = _analysis(lab_system)
    with SupervisedExecutor(1, config=SupervisorConfig(), seed=SEED) as own:
        analysis.executor = own
        with SupervisedExecutor(2, config=SupervisorConfig(),
                                seed=SEED) as ex:
            run_lab(analysis, catalogue, seed=SEED, n_trajectories=2,
                    n_boot=N_BOOT, executor=ex)
        assert analysis.executor is own
