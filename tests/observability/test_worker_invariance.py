"""Tracing must never change a computed number.

The acceptance bar for the observability subsystem: results are
bit-identical with tracing enabled for any worker count, and identical to
an untraced run — wall-clock numbers in a trace are observational
metadata, never inputs.
"""

import json

from repro.observability import Observability, observing

EXPERIMENT_IDS = ["E2", "E11", "E16"]  # seeded, deterministic, fast mix


def _experiments_payload(results) -> str:
    from repro.io.serialize import to_dict
    return json.dumps({k: to_dict(v) for k, v in results.items()},
                      sort_keys=True)


def _run_sweep(*, traced: bool, workers: int = 1):
    from repro.analysis.runner import run_all_experiments
    if not traced:
        return run_all_experiments(seed=2005, ids=EXPERIMENT_IDS,
                                   workers=workers), None
    obs = Observability()
    with observing(obs):
        results = run_all_experiments(seed=2005, ids=EXPERIMENT_IDS,
                                      workers=workers)
    return results, obs


class TestSweepInvariance:
    def test_traced_equals_untraced(self):
        untraced, _ = _run_sweep(traced=False)
        traced, obs = _run_sweep(traced=True)
        assert _experiments_payload(untraced) == _experiments_payload(traced)
        assert len(obs.recorder) > 0  # the trace did record

    def test_traced_workers_1_vs_4_bit_identical(self):
        serial, _ = _run_sweep(traced=True, workers=1)
        parallel, obs = _run_sweep(traced=True, workers=4)
        assert _experiments_payload(serial) == _experiments_payload(parallel)
        # the parallel trace carries the merged worker sub-trees
        names = [s.name for s in obs.recorder.spans()]
        assert "parallel.dispatch" in names
        assert "parallel.task" in names
        assert "experiment" in names

    def test_worker_metrics_ride_home(self):
        from repro.parallel.cache import (
            get_default_cache,
            install_default_cache,
            uninstall_default_cache,
        )
        from repro.parallel.executor import reset_shared_executor
        # A process-wide default cache (e.g. installed by a CLI test in
        # this pytest process) is inherited by forked workers and would
        # turn every solve into a cache hit; clear it so the solves
        # demonstrably happen inside the workers.  The shared pool must
        # also be reset: its workers forked earlier in this pytest
        # process and carry whatever cache was installed at fork time.
        previous = get_default_cache()
        uninstall_default_cache()
        reset_shared_executor()
        try:
            _, obs = _run_sweep(traced=True, workers=4)
        finally:
            if previous is not None:
                install_default_cache(previous)
        snap = obs.metrics.snapshot()
        # the solves happen inside worker processes; the parent only sees
        # them because the payloads were absorbed
        assert snap["radius.solves"]["value"] > 0
        assert snap["executor.dispatched"]["value"] == len(EXPERIMENT_IDS)
