"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload radii-batch --seed 1 --seconds 20 --trace 0

Inputs are generated from ``--seed`` before any timing and only the
generated inputs reach the program.  With ``--trace 0`` the run is
untraced and reports the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it repeats that measurement, adds one traced pass, the
benchmark's own layer timings and the serial baselines, and reports the
per-layer metrics.  Every metric is printed with its unit, followed by
one JSON line ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only when every output matched its serial reference.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: glibc malloc settings for the benchmark process and its forked workers:
#: serve large blocks from the heap and never trim it.  Without them one
#: curve-sweep call re-maps its numpy temporaries at the cost of ~5000
#: page faults, whose price on a virtual machine swings with host load.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "33554432",
              "MALLOC_TRIM_THRESHOLD_": "1073741824"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if any(os.environ.get(k) != v for k, v in MALLOC_ENV.items()):
        # The allocator reads these once at start-up: restart with them.
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()),
                   *(sys.argv[1:] if argv is None else argv)],
                  {**os.environ, **MALLOC_ENV})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    from perfbench.harness import stop_children

    workload = importlib.import_module(WORKLOADS[args.workload])
    try:
        inputs = workload.make_inputs(args.seed)
        outcome = workload.run(inputs, seconds=args.seconds,
                               trace=bool(args.trace))
    finally:
        stop_children()

    failed_frac = outcome.failed / max(1, outcome.attempted)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in declared}
    if args.trace:
        outcome.metrics["failed_frac"] = failed_frac
    unknown = sorted(set(outcome.metrics) - names)
    missing = sorted(names - set(outcome.metrics)) if not args.trace else []
    if unknown or missing:
        raise RuntimeError(f"metric table out of step with BENCHMARK.json: "
                           f"unknown {unknown}, missing {missing}")

    if outcome.layers:
        from perfbench.harness import layer_of

        print(f"self-time per call, traced pass ({args.workload}):")
        for name, seconds in sorted(outcome.layers.items(),
                                    key=lambda kv: -kv[1]):
            print(f"  {name:<28} {layer_of(name):<24} "
                  f"{seconds * 1e3:12.3f} ms")
    metrics = {}
    for m in declared:
        value = outcome.metrics.get(m["name"])
        shown = "n/a (layer not on this workload's path)"
        if value is None:
            value = 0.0
        else:
            shown = f"{value:.6g} {m['unit']}"
        if not math.isfinite(value):
            raise RuntimeError(f"metric {m['name']} is not finite: {value}")
        print(f"{m['name']:<32} {shown}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if not args.trace:
        print(f"{'failed_frac':<32} {failed_frac:.6g} ratio")
    for problem in outcome.problems:
        print(f"MISMATCH: {problem}")
    correct = outcome.failed == 0
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
