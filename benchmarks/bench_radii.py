"""Radius-batch benchmark — per-problem loop vs the tensorised kernel.

Solves one structural group of 32 radius problems (a shared near-
isotropic quadratic feature probed from 32 operating points) through the
plain ``compute_radius`` loop and through
:func:`~repro.core.solvers.tensor.solve_group`, asserting the
bit-identity contract and the promised reduction in Python-level
``value`` and batched calls, then writes the stable
``repro-bench-radii-v1`` payload to
``benchmarks/results/BENCH_radii.json`` so the group-kernel speedup can
be tracked across commits.  CI runs the same harness through
``python -m repro bench-radii``.
"""

import json
import pathlib

from repro.core.solvers.radii_bench import run_radius_batch_benchmark
from repro.parallel.bench import validate_bench_payload, write_benchmark

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def test_radius_batch_benchmark(benchmark, show):
    payload = benchmark.pedantic(
        lambda: run_radius_batch_benchmark(problems=32, dimension=12),
        rounds=1, iterations=1)
    validate_bench_payload(payload)
    RESULTS_DIR.mkdir(exist_ok=True)
    write_benchmark(payload, RESULTS_DIR / "BENCH_radii.json")
    show(json.dumps(payload, indent=2))
    assert payload["identical"], \
        "tensorised results diverged from the per-problem loop"
    assert payload["eval_reduction"] >= 10.0, \
        f"tensor kernel saved only {payload['eval_reduction']:.1f}x calls"
    assert payload["speedup"] >= 3.0, \
        f"tensor kernel only {payload['speedup']:.2f}x of the loop"
