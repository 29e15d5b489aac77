"""Solver-kernel benchmark — scalar loops vs in-worker vectorisation.

Solves the same 32-dim MaxMapping robustness problem through the scalar
reference kernels and the batched ones (lock-step directional bisection,
one-shot finite-difference stencil), asserting the bit-identity contract
and the promised reduction in Python-level ``value`` and batched
calls, then writes the stable ``repro-bench-solvers-v1`` payload to
``benchmarks/results/BENCH_solvers.json`` so kernel speedups can be
tracked across commits.  CI runs the same harness through
``python -m repro bench-solvers``.
"""

import json
import pathlib

from repro.core.solvers.bench import run_solver_kernel_benchmark
from repro.parallel.bench import validate_bench_payload, write_benchmark

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def test_solver_kernel_benchmark(benchmark, show):
    payload = benchmark.pedantic(
        lambda: run_solver_kernel_benchmark(dimension=32, directions=128),
        rounds=1, iterations=1)
    validate_bench_payload(payload)
    RESULTS_DIR.mkdir(exist_ok=True)
    write_benchmark(payload, RESULTS_DIR / "BENCH_solvers.json")
    show(json.dumps(payload, indent=2))
    assert payload["identical"], "batched kernels diverged from scalar"
    bis = payload["bisection"]
    assert bis["eval_reduction"] >= 5.0, \
        f"batched bisection saved only {bis['eval_reduction']:.1f}x calls"
    assert bis["speedup"] > 1.0, \
        f"batched bisection slower than scalar ({bis['speedup']:.2f}x)"
    grad = payload["gradient"]
    assert grad["eval_reduction"] >= 5.0, \
        f"stencil gradient saved only {grad['eval_reduction']:.1f}x calls"
