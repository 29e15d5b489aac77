"""Worker-count invariance: any parallelism, bit-identical results.

The determinism contract (docs/PERFORMANCE.md) promises that fanning work
out over worker processes never changes a numerical answer.  These tests
pin it down end to end: experiment sweeps, Monte-Carlo validation, the
per-bound radius fan-out, the analysis-level fan-out, and kill/resume of
a checkpointed parallel run.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.core.features import PerformanceFeature, ToleranceBounds
from repro.core.fepia import FeatureSpec, RobustnessAnalysis
from repro.core.mappings import LinearMapping, QuadraticMapping
from repro.core.perturbation import PerturbationParameter
from repro.parallel.executor import ParallelExecutor, Task
from repro.resilience.checkpoint import Checkpoint, run_checkpointed

EXPERIMENT_IDS = ["E2", "E5", "E11", "E16"]  # seeded and deterministic mix


def _experiments_payload(results) -> str:
    from repro.io.serialize import to_dict
    return json.dumps({k: to_dict(v) for k, v in results.items()},
                      sort_keys=True)


def _build_analysis(seed: int = 3) -> RobustnessAnalysis:
    """A small picklable two-feature, two-kind analysis."""
    loads = PerturbationParameter.nonnegative("loads", [2.0, 3.0])
    sizes = PerturbationParameter.nonnegative("sizes", [1.0])
    latency = LinearMapping([1.0, 1.0, 0.5])
    phi_lat = latency.value(np.array([2.0, 3.0, 1.0]))
    power = QuadraticMapping(np.eye(3) * 0.1, [0.2, 0.1, 0.3])
    phi_pow = power.value(np.array([2.0, 3.0, 1.0]))
    return RobustnessAnalysis(
        [FeatureSpec(PerformanceFeature(
             "latency", ToleranceBounds.relative(phi_lat, 1.3)), latency),
         FeatureSpec(PerformanceFeature(
             "power", ToleranceBounds.relative(phi_pow, 1.6)), power)],
        [loads, sizes], seed=seed)


class TestExperimentSweepInvariance:
    def test_run_all_experiments_workers_1_vs_4(self):
        from repro.analysis.runner import run_all_experiments
        serial = run_all_experiments(seed=2005, ids=EXPERIMENT_IDS)
        parallel = run_all_experiments(seed=2005, ids=EXPERIMENT_IDS,
                                       workers=4)
        assert _experiments_payload(serial) == _experiments_payload(parallel)

    def test_checkpoint_resumes_across_worker_counts(self, tmp_path):
        from repro.analysis.runner import run_all_experiments
        ckpt = tmp_path / "sweep.json"
        serial = run_all_experiments(seed=2005, ids=EXPERIMENT_IDS,
                                     checkpoint_path=ckpt)
        # meta deliberately excludes the worker count: a checkpoint written
        # serially must resume under parallelism (and vice versa)
        resumed = run_all_experiments(seed=2005, ids=EXPERIMENT_IDS,
                                      checkpoint_path=ckpt, resume=True,
                                      workers=4)
        assert _experiments_payload(serial) == _experiments_payload(resumed)


class TestValidationInvariance:
    def test_validate_analysis_workers_1_vs_4(self):
        from repro.montecarlo.validate import (
            _validation_to_payload,
            validate_analysis,
        )
        serial = validate_analysis(_build_analysis(), n_samples=400, seed=11)
        parallel = validate_analysis(_build_analysis(), n_samples=400,
                                     seed=11, workers=4)
        encode = _validation_to_payload
        assert json.dumps({k: encode(v) for k, v in serial.items()},
                          sort_keys=True) \
            == json.dumps({k: encode(v) for k, v in parallel.items()},
                          sort_keys=True)

    def test_validate_radius_chunked_workers_1_vs_4(self):
        from repro.montecarlo.validate import validate_radius
        analysis = _build_analysis()
        spec = analysis.features[0]
        problem = analysis.pspace_problem(spec)
        result = analysis.radius(spec)
        serial = validate_radius(problem, result, n_samples=900,
                                 chunk_size=300, seed=5)
        parallel = validate_radius(problem, result, n_samples=900,
                                   chunk_size=300, seed=5, workers=4)
        assert serial == parallel


class TestRadiusFanOutInvariance:
    def test_analysis_level_fan_out_matches_serial(self):
        serial = _build_analysis()
        parallel = _build_analysis()
        parallel_exec = ParallelExecutor(2)
        parallel.executor = parallel_exec
        parallel.workers = 2
        try:
            assert parallel.rho() == serial.rho()
            for name, result in serial.radii().items():
                other = parallel.radii()[name]
                assert other.radius == result.radius
                assert other.per_bound == result.per_bound
        finally:
            parallel_exec.close()

    def test_workers_constructor_argument(self):
        serial = _build_analysis()
        parallel = RobustnessAnalysis(
            serial.features, serial.params, seed=3, workers=2)
        try:
            assert parallel.rho() == serial.rho()
        finally:
            parallel.executor.close()


# ----------------------------------------------------------------------
# kill/resume of a checkpointed parallel run
# ----------------------------------------------------------------------
def _gated(x: int, flag: str):
    """Deterministic work that crashes past x=1 until the flag file exists."""
    if x >= 2 and not pathlib.Path(flag).exists():
        raise RuntimeError("simulated crash")
    return {"value": x * 10}


class TestParallelKillResume:
    def test_crash_keeps_completed_waves_and_resume_is_identical(
            self, tmp_path):
        flag = tmp_path / "recovered.flag"
        ckpt_path = tmp_path / "run.json"
        items = [(f"k{i}", Task(_gated, (i, str(flag)))) for i in range(6)]
        meta = {"kind": "gated", "n": 6}

        with ParallelExecutor(2) as pool:
            with pytest.raises(RuntimeError, match="simulated crash"):
                run_checkpointed(items, path=ckpt_path, meta=meta,
                                 executor=pool)

        # the first wave (two items with workers=2) survived the crash
        stored = Checkpoint(ckpt_path).load(expect_meta=meta)
        assert set(stored) == {"k0", "k1"}

        flag.touch()
        with ParallelExecutor(2) as pool:
            resumed = run_checkpointed(items, path=ckpt_path, meta=meta,
                                       executor=pool)
        uninterrupted = {f"k{i}": {"value": i * 10} for i in range(6)}
        assert resumed == uninterrupted

    def test_serial_crash_resumes_under_parallelism(self, tmp_path):
        flag = tmp_path / "recovered.flag"
        ckpt_path = tmp_path / "run.json"
        items = [(f"k{i}", Task(_gated, (i, str(flag)))) for i in range(6)]
        meta = {"kind": "gated", "n": 6}

        with pytest.raises(RuntimeError, match="simulated crash"):
            run_checkpointed(items, path=ckpt_path, meta=meta)

        flag.touch()
        with ParallelExecutor(3) as pool:
            resumed = run_checkpointed(items, path=ckpt_path, meta=meta,
                                       executor=pool)
        assert resumed == {f"k{i}": {"value": i * 10} for i in range(6)}
