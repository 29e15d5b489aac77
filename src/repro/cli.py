"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    Run the quickstart two-kind analysis and print the report.
``degeneracy``
    Run the E2/E3 sweeps (the paper's central results) and print their
    tables.
``heuristics``
    Generate an ETC instance and print the heuristic comparison (E5).
``hiperd``
    Generate a HiPer-D system, run the multi-kind analysis, and print the
    robustness report, criticality decomposition, and the monitoring
    experiment (E6/E9).
``tradeoff``
    Print the makespan-robustness Pareto study (E10).

Every command accepts ``--seed`` for reproducibility,
``--solver-timeout`` to route radius computations through the
fault-tolerant :class:`~repro.resilience.SolverCascade`, ``--workers N``
to fan independent work out over worker processes (results are
bit-identical to a serial run — see ``docs/PERFORMANCE.md``), and
``--no-cache`` to disable the process-wide radius cache installed by
default, and ``--trace PATH`` to record an observability trace
(``repro-events-v1`` JSON-lines; render it with ``repro stats PATH``).

Fan-out can be *supervised* (see ``docs/CHAOS.md``): ``--task-timeout``
gives every task a wall-clock deadline, ``--max-task-retries`` bounds
per-task retries before quarantine, and ``--chaos SPEC`` injects a
deterministic fault schedule (worker kills, latency, exception storms,
pickling corruption) at the dispatch boundary — any of these routes the
sweep through a :class:`~repro.resilience.SupervisedExecutor`.  ``serve``
hands the first two to its service's supervisor and rejects ``--chaos``.

The ``experiments`` command additionally supports
``--checkpoint``/``--resume`` for kill-safe sweeps; ``bench-parallel``
times the sweep serially vs in parallel, writing a
``repro-bench-parallel-v1`` JSON payload; ``bench-solvers`` times the
scalar vs batched solver kernels, writing a ``repro-bench-solvers-v1``
payload; ``bench-radii`` times the per-problem radius loop against the
cross-problem tensor kernel, writing a ``repro-bench-radii-v1``
payload; ``chaos`` replays a seeded chaos schedule against the
sweep, verifying bit-identical recovery and writing a
``repro-bench-chaos-v1`` payload; ``curve`` walks a warm-started
degradation curve over the makespan substrate, writing a
``repro-curve-v1`` artifact; ``bench-sweep`` times that warm walk
against the cold per-point baseline, writing a ``repro-bench-sweep-v1``
payload; and ``selfhost`` closes the analytic-empirical loop — it solves
the radius of the executor's *own* dispatch policy, calibrates the
supervisor from the boundary witness, replays real chaos schedules
inside and outside the predicted radius, and writes a
``repro-selfhost-v1`` artifact (see ``docs/SELFHOST.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of 'A Measure of Robustness Against "
                     "Multiple Kinds of Perturbations' (IPDPS 2005)"))
    parser.add_argument("--seed", type=int, default=2005,
                        help="RNG seed (default 2005)")
    parser.add_argument("--solver-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-solver wall-clock budget; radii are then "
                             "computed through the fault-tolerant solver "
                             "cascade with graceful degradation")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes for parallelisable work "
                             "(default 1 = serial; results are "
                             "bit-identical for any value)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the process-wide radius result cache")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock deadline per fanned-out task; "
                             "implies supervised execution (timed-out "
                             "tasks are retried, then quarantined)")
    parser.add_argument("--max-task-retries", type=int, default=None,
                        metavar="N",
                        help="retries per fanned-out task before it is "
                             "quarantined (default 2; implies supervised "
                             "execution)")
    parser.add_argument("--chaos", default=None, metavar="SPEC",
                        help="inject a deterministic fault schedule at the "
                             "executor boundary, e.g. 'kill=0.1,"
                             "latency=0.2:0.005,exception=0.2,corrupt=0.1,"
                             "seed=7,cap=1' (implies supervised execution)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record spans, metrics and events of this run "
                             "to a repro-events-v1 JSON-lines file "
                             "(inspect it with 'repro stats PATH')")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v logs INFO progress, -vv full DEBUG trail")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="quickstart two-kind analysis")

    deg = sub.add_parser("degeneracy",
                         help="the 1/sqrt(n) degeneracy and its fix (E2/E3)")
    deg.add_argument("--cases", type=int, default=6,
                     help="random instances per n")

    heu = sub.add_parser("heuristics", help="heuristic comparison (E5)")
    heu.add_argument("--tasks", type=int, default=24)
    heu.add_argument("--machines", type=int, default=6)
    heu.add_argument("--tau-factor", type=float, default=1.3)

    hip = sub.add_parser("hiperd",
                         help="HiPer-D multi-kind analysis + monitor (E6/E9)")
    hip.add_argument("--kinds", default="loads,exec,msgsize",
                     help="comma-separated perturbation kinds")
    hip.add_argument("--latency-slack", type=float, default=1.4)

    tra = sub.add_parser("tradeoff",
                         help="makespan-robustness Pareto study (E10)")
    tra.add_argument("--tasks", type=int, default=20)
    tra.add_argument("--machines", type=int, default=5)

    fai = sub.add_parser("failures",
                         help="machine/link failure robustness (E13/E14)")
    fai.add_argument("--tasks", type=int, default=16)
    fai.add_argument("--machines", type=int, default=5)
    fai.add_argument("--tau-factor", type=float, default=2.0)

    pla = sub.add_parser("placement",
                         help="robustness-aware placement search (E15)")
    pla.add_argument("--rounds", type=int, default=5)

    exp = sub.add_parser("experiments",
                         help="run every registered experiment")
    exp.add_argument("--only", default=None,
                     help="comma-separated experiment ids (default: all)")
    exp.add_argument("--markdown", action="store_true",
                     help="emit GitHub-markdown instead of ASCII tables")
    exp.add_argument("--checkpoint", default=None, metavar="PATH",
                     help="persist each finished experiment to this JSON "
                          "checkpoint so a killed sweep can resume")
    exp.add_argument("--resume", action="store_true",
                     help="resume from an existing --checkpoint file "
                          "(without this flag a stale checkpoint is "
                          "discarded)")

    ben = sub.add_parser("bench-parallel",
                         help="time the experiment sweep serially vs in "
                              "parallel and write a JSON benchmark payload")
    ben.add_argument("--only", default=None,
                     help="comma-separated experiment ids (default: all)")
    ben.add_argument("--out", default="BENCH_parallel.json", metavar="PATH",
                     help="benchmark payload destination "
                          "(default BENCH_parallel.json)")

    sol = sub.add_parser("bench-solvers",
                         help="time the scalar vs batched solver kernels "
                              "and write a JSON benchmark payload")
    sol.add_argument("--dimension", type=int, default=32, metavar="N",
                     help="perturbation-space dimension (default 32)")
    sol.add_argument("--directions", type=int, default=128, metavar="N",
                     help="random bisection directions (default 128)")
    sol.add_argument("--out", default="BENCH_solvers.json", metavar="PATH",
                     help="benchmark payload destination "
                          "(default BENCH_solvers.json)")

    rad = sub.add_parser("bench-radii",
                         help="time the per-problem radius loop vs the "
                              "cross-problem tensor kernel and write a "
                              "JSON benchmark payload")
    rad.add_argument("--problems", type=int, default=32, metavar="N",
                     help="radius problems in the structural group "
                          "(default 32)")
    rad.add_argument("--dimension", type=int, default=12, metavar="N",
                     help="perturbation-space dimension (default 12)")
    rad.add_argument("--out", default="BENCH_radii.json", metavar="PATH",
                     help="benchmark payload destination "
                          "(default BENCH_radii.json)")

    cur = sub.add_parser("curve",
                         help="degradation curve rho(beta) of the makespan "
                              "max-feature via warm-started incremental "
                              "re-solve; writes a repro-curve-v1 artifact")
    cur.add_argument("--tasks", type=int, default=24)
    cur.add_argument("--machines", type=int, default=6)
    cur.add_argument("--points", type=int, default=40, metavar="N",
                     help="operating points in the sweep (default 40)")
    cur.add_argument("--beta-lo", type=float, default=1.05, metavar="B",
                     help="first requirement value, > 1 (default 1.05)")
    cur.add_argument("--beta-hi", type=float, default=2.0, metavar="B",
                     help="last requirement value (default 2.0)")
    cur.add_argument("--out", default="CURVE.json", metavar="PATH",
                     help="artifact destination (default CURVE.json)")

    swe = sub.add_parser("bench-sweep",
                         help="time the warm-started sweep against the cold "
                              "per-point baseline and write a JSON "
                              "benchmark payload")
    swe.add_argument("--points", type=int, default=100, metavar="N",
                     help="operating points in the sweep (default 100)")
    swe.add_argument("--tasks", type=int, default=32)
    swe.add_argument("--machines", type=int, default=8)
    swe.add_argument("--beta-lo", type=float, default=1.05, metavar="B",
                     help="first requirement value, > 1 (default 1.05)")
    swe.add_argument("--beta-hi", type=float, default=2.0, metavar="B",
                     help="last requirement value (default 2.0)")
    swe.add_argument("--out", default="BENCH_sweep.json", metavar="PATH",
                     help="benchmark payload destination "
                          "(default BENCH_sweep.json)")

    srv = sub.add_parser("serve",
                         help="run the radius service against a seeded "
                              "request stream and report service stats "
                              "(soak/smoke harness; no network layer)")
    srv.add_argument("--requests", type=int, default=10, metavar="N",
                     help="requests in the seeded stream (default 10)")
    srv.add_argument("--problems-per-request", type=int, default=8,
                     metavar="N",
                     help="radius problems per request (default 8)")
    srv.add_argument("--queue-limit", type=int, default=32, metavar="N",
                     help="bounded request queue size (default 32)")
    srv.add_argument("--repeat", type=int, default=2, metavar="N",
                     help="times the stream is replayed (default 2; "
                          "replays exercise the service cache)")

    bsv = sub.add_parser("bench-service",
                         help="time per-call pools vs the persistent "
                              "radius service on a seeded request stream "
                              "and write a JSON benchmark payload")
    bsv.add_argument("--requests", type=int, default=10, metavar="N",
                     help="requests in the seeded stream (default 10)")
    bsv.add_argument("--problems-per-request", type=int, default=8,
                     metavar="N",
                     help="radius problems per request (default 8)")
    bsv.add_argument("--out", default="BENCH_service.json", metavar="PATH",
                     help="benchmark payload destination "
                          "(default BENCH_service.json)")

    cha = sub.add_parser("chaos",
                         help="replay a seeded chaos schedule against the "
                              "experiment sweep, verify bit-identical "
                              "recovery, and write a JSON payload")
    cha.add_argument("--only", default=None,
                     help="comma-separated experiment ids (default: all)")
    cha.add_argument("--spec", default=None, metavar="SPEC",
                     help="chaos schedule (same format as --chaos; default: "
                          "a modest kill/latency/exception/corrupt mix "
                          "seeded from --seed)")
    cha.add_argument("--out", default="BENCH_chaos.json", metavar="PATH",
                     help="benchmark payload destination "
                          "(default BENCH_chaos.json)")

    lab = sub.add_parser("lab",
                         help="scenario lab: shock replay, bootstrap "
                              "confidence gates and perturbation-kind "
                              "ablation; writes a repro-lab-v1 artifact")
    lab.add_argument("--system", choices=("makespan", "hiperd", "selfhost"),
                     default="makespan",
                     help="which substrate to analyse (default makespan)")
    lab.add_argument("--beta", type=float, default=1.2,
                     help="relative makespan requirement (default 1.2)")
    lab.add_argument("--tasks", type=int, default=24)
    lab.add_argument("--machines", type=int, default=6)
    lab.add_argument("--latency-slack", type=float, default=1.4,
                     help="QoS latency slack for --system hiperd")
    lab.add_argument("--scenarios", default=None, metavar="NAMES",
                     help="comma-separated catalogue subset "
                          "(default: the full catalogue)")
    lab.add_argument("--shock", action="append", default=None,
                     metavar="SPEC",
                     help="append a custom scenario, e.g. 'kind=spike,"
                          "magnitude=0.3,rate=0.25,name=surge' (same "
                          "key=value grammar as --chaos; repeatable)")
    lab.add_argument("--trajectories", type=int, default=8, metavar="N",
                     help="trajectories per scenario (default 8)")
    lab.add_argument("--steps", type=int, default=40, metavar="N",
                     help="steps per trajectory for catalogue scenarios "
                          "(default 40)")
    lab.add_argument("--boot", type=int, default=200, metavar="N",
                     help="bootstrap replicates (default 200)")
    lab.add_argument("--block", type=int, default=10, metavar="N",
                     help="bootstrap circular block length (default 10)")
    lab.add_argument("--gate", action="append", default=None,
                     metavar="EXPR",
                     help="pass/fail threshold like 'violation_rate<=0.6' "
                          "(repeatable; metrics: violation_rate, ci_lo, "
                          "ci_hi, predicted_violation_rate, "
                          "worst_drawdown)")
    lab.add_argument("--ablate", default=None, metavar="NAME",
                     help="scenario to ablate parameter-by-parameter "
                          "(default: first scenario with violations)")
    lab.add_argument("--out", default="LAB.json", metavar="PATH",
                     help="artifact destination (default LAB.json)")

    sfh = sub.add_parser("selfhost",
                         help="closed analytic-empirical loop: solve the "
                              "radius of the executor's own dispatch "
                              "policy, calibrate the supervisor from it, "
                              "run real chaos schedules inside and outside "
                              "the radius; writes a repro-selfhost-v1 "
                              "artifact")
    sfh.add_argument("--beta", type=float, default=2.0,
                     help="relative requirement on every feature "
                          "(default 2.0)")
    sfh.add_argument("--tasks", type=int, default=96,
                     help="batch size of the modelled workload (default 96)")
    sfh.add_argument("--model-workers", type=int, default=3, metavar="W",
                     help="modelled pool size — the allocation under "
                          "study, independent of the runtime --workers "
                          "(default 3)")
    sfh.add_argument("--ratios", default="0.4,1.8", metavar="R1,R2",
                     help="boundary-direction scalings of the chaos legs; "
                          "<1 is inside the radius, >1 outside "
                          "(default '0.4,1.8')")
    sfh.add_argument("--quarantine-budget", type=float, default=0.5,
                     metavar="TASKS",
                     help="fluid quarantined mass the calibrated retry "
                          "budget must keep the boundary point under "
                          "(default 0.5)")
    sfh.add_argument("--out", default="SELFHOST.json", metavar="PATH",
                     help="artifact destination (default SELFHOST.json)")

    top = sub.add_parser("topology",
                         help="path-slack and bottleneck analysis of a "
                              "generated HiPer-D system")
    top.add_argument("--latency-slack", type=float, default=1.4)
    top.add_argument("--top", type=int, default=5)

    sta = sub.add_parser("stats",
                         help="render the span tree, metric table and "
                              "event tail of a --trace capture")
    sta.add_argument("trace_file", metavar="TRACE",
                     help="repro-events-v1 file written by --trace")
    sta.add_argument("--events", type=int, default=15, metavar="N",
                     help="show the last N events (default 15)")
    return parser


def _cmd_demo(args) -> int:
    from repro import (FeatureSpec, LinearMapping, PerformanceFeature,
                       PerturbationParameter, RobustnessAnalysis,
                       ToleranceBounds, robustness_metric)

    exec_times = PerturbationParameter.nonnegative(
        "exec_times", [2.0, 3.0], unit="s")
    msg_sizes = PerturbationParameter.nonnegative(
        "msg_sizes", [1e4], unit="bytes")
    mapping = LinearMapping([1.0, 1.0, 1e-6])
    phi0 = mapping.value(np.array([2.0, 3.0, 1e4]))
    feature = PerformanceFeature(
        "latency", ToleranceBounds.relative(phi0, 1.3), unit="s")
    analysis = RobustnessAnalysis([FeatureSpec(feature, mapping)],
                                  [exec_times, msg_sizes],
                                  seed=args.seed,
                                  solver_timeout=args.solver_timeout)
    print(robustness_metric(analysis))
    return 0


def _cmd_degeneracy(args) -> int:
    from repro.analysis import (normalized_dependence_sweep,
                                sensitivity_degeneracy_sweep)

    print(sensitivity_degeneracy_sweep(cases_per_n=args.cases,
                                       seed=args.seed))
    print()
    print(normalized_dependence_sweep(cases_per_n=args.cases,
                                      seed=args.seed))
    return 0


def _cmd_heuristics(args) -> int:
    from repro.analysis import compare_heuristics
    from repro.systems.independent import generate_etc_gamma

    etc = generate_etc_gamma(args.tasks, args.machines, seed=args.seed)
    print(compare_heuristics(etc, tau_factor=args.tau_factor,
                             seed=args.seed))
    return 0


def _cmd_hiperd(args) -> int:
    from repro.analysis.monitoring import monitoring_experiment
    from repro.core.criticality import criticality_report
    from repro.core.metric import robustness_metric
    from repro.systems.hiperd import (QoSSpec, build_analysis,
                                      generate_hiperd_system)

    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    system = generate_hiperd_system(seed=args.seed)
    print(system)
    qos = QoSSpec(latency_slack=args.latency_slack)
    analysis = build_analysis(system, qos, kinds=kinds, seed=args.seed,
                              solver_timeout=args.solver_timeout)
    print()
    print(robustness_metric(analysis))
    print()
    print(criticality_report(analysis))
    if "loads" in kinds:
        print()
        print(monitoring_experiment(system, analysis, seed=args.seed))
    return 0


def _cmd_tradeoff(args) -> int:
    from repro.analysis import tradeoff_experiment
    from repro.systems.independent import generate_etc_gamma

    etc = generate_etc_gamma(args.tasks, args.machines, seed=args.seed)
    print(tradeoff_experiment(etc, seed=args.seed))
    return 0


def _cmd_failures(args) -> int:
    from repro.systems.heuristics import MCT, Sufferage
    from repro.systems.hiperd import QoSSpec, generate_hiperd_system
    from repro.systems.hiperd.failures import critical_links
    from repro.systems.independent import (
        failure_radius,
        generate_etc_gamma,
        survival_probability,
    )
    from repro.utils.tables import format_table

    etc = generate_etc_gamma(args.tasks, args.machines, seed=args.seed)
    rows = []
    for heuristic in (MCT(), Sufferage()):
        alloc = heuristic.allocate(etc)
        tau = args.tau_factor * alloc.makespan(etc)
        fa = failure_radius(etc, alloc, tau)
        p = survival_probability(etc, alloc, tau, p_fail=0.2,
                                 n_samples=1000, seed=args.seed)
        rows.append([heuristic.name, alloc.makespan(etc), fa.radius, p])
    print(format_table(
        ["heuristic", "makespan", "failure radius", "P(survive p=0.2)"],
        rows, title="machine-failure robustness (E13)"))

    system = generate_hiperd_system(seed=args.seed)
    qos = QoSSpec(latency_slack=1.4)
    ranking = critical_links(system, qos, degraded_factor=0.05)
    print()
    print(format_table(
        ["link", "worst margin after failure"],
        [["-".join(pair), margin] for pair, margin in ranking[:8]],
        title="single-link criticality (E14, bandwidth degraded to 5%)"))
    return 0


def _cmd_placement(args) -> int:
    from repro.systems.hiperd import (
        HiPerDGenerationSpec,
        QoSSpec,
        generate_hiperd_system,
    )
    from repro.systems.hiperd.placement import improve_placement, placement_rho
    from repro.utils.tables import format_table

    spec = HiPerDGenerationSpec(balanced_placement=False)
    system = generate_hiperd_system(spec, seed=args.seed)
    qos = QoSSpec(latency_slack=1.4)
    before = placement_rho(system, qos)
    improved, steps = improve_placement(system, qos, max_rounds=args.rounds)
    rows = [[s.application, s.from_machine, s.to_machine, s.rho]
            for s in steps]
    print(format_table(
        ["moved app", "from", "to", "rho after"],
        rows,
        title=(f"placement search (E15): rho {before:.4g} -> "
               f"{placement_rho(improved, qos):.4g} in {len(steps)} moves")))
    return 0


def _make_executor(args):
    """The supervised executor the global flags ask for, or ``None``.

    Plain ``--workers`` keeps the historical behaviour (a
    :class:`~repro.parallel.executor.ParallelExecutor` built by the
    callee); any of ``--task-timeout`` / ``--max-task-retries`` /
    ``--chaos`` upgrades the run to a
    :class:`~repro.resilience.SupervisedExecutor` with per-task fault
    domains.  The caller owns the returned executor's lifetime.
    """
    if (args.task_timeout is None and args.max_task_retries is None
            and args.chaos is None):
        return None
    from repro.resilience.chaos import ChaosPolicy
    from repro.resilience.supervisor import SupervisedExecutor

    chaos = ChaosPolicy.parse(args.chaos) if args.chaos else None
    return SupervisedExecutor(max(1, args.workers),
                              config=_supervisor_config(args),
                              chaos=chaos, seed=args.seed)


def _supervisor_config(args):
    """``--task-timeout`` and ``--max-task-retries`` (default 2)."""
    from repro.resilience.supervisor import SupervisorConfig

    return SupervisorConfig(
        task_timeout=args.task_timeout,
        max_task_retries=(args.max_task_retries
                          if args.max_task_retries is not None else 2))


def _cmd_experiments(args) -> int:
    import contextlib

    from repro.analysis.runner import run_all_experiments
    from repro.reporting.markdown import experiment_to_markdown

    if args.only:
        ids = [e.strip().upper() for e in args.only.split(",") if e.strip()]
    else:
        ids = None
    executor = _make_executor(args)
    with executor if executor is not None else contextlib.nullcontext():
        results = run_all_experiments(
            seed=args.seed, ids=ids, checkpoint_path=args.checkpoint,
            resume=args.resume, workers=args.workers, executor=executor)
    if executor is not None and executor.last_report is not None:
        print(f"supervision: {executor.stats()}", file=sys.stderr)
    for result in results.values():
        if args.markdown:
            print(experiment_to_markdown(result))
        else:
            print(result)
        print()
    return 0


def _cmd_bench_parallel(args) -> int:
    from repro.parallel.bench import run_parallel_benchmark, write_benchmark

    if args.only:
        ids = [e.strip().upper() for e in args.only.split(",") if e.strip()]
    else:
        ids = None
    # --workers 1 (the global default) would make the parallel leg a
    # no-op; benchmark with every core instead unless told otherwise.
    workers = args.workers if args.workers > 1 else None
    payload = run_parallel_benchmark(workers=workers, seed=args.seed,
                                     ids=ids)
    write_benchmark(payload, args.out)
    print(f"serial   {payload['serial_seconds']:.3f}s")
    print(f"parallel {payload['parallel_seconds']:.3f}s "
          f"({payload['workers']} workers)")
    print(f"speedup  {payload['speedup']:.2f}x")
    print(f"identical results: {payload['identical']}")
    print(f"cache: {payload['cache']}")
    print(f"written to {args.out}")
    return 0 if payload["identical"] else 1


def _cmd_bench_solvers(args) -> int:
    from repro.core.solvers.bench import run_solver_kernel_benchmark
    from repro.parallel.bench import write_benchmark

    payload = run_solver_kernel_benchmark(dimension=args.dimension,
                                          directions=args.directions,
                                          seed=args.seed)
    write_benchmark(payload, args.out)
    bis, grad = payload["bisection"], payload["gradient"]
    print(f"bisection scalar  {bis['scalar_seconds']:.4f}s "
          f"({bis['scalar_evals']} evals)")
    print(f"bisection batched {bis['batched_seconds']:.4f}s "
          f"({bis['batched_evals']} evals, "
          f"{bis['eval_reduction']:.1f}x fewer, "
          f"{bis['speedup']:.2f}x faster)")
    print(f"gradient scalar   {grad['scalar_seconds']:.4f}s "
          f"({grad['scalar_evals']} evals)")
    print(f"gradient stencil  {grad['batched_seconds']:.4f}s "
          f"({grad['batched_evals']} evals, "
          f"{grad['eval_reduction']:.1f}x fewer, "
          f"{grad['speedup']:.2f}x faster)")
    print(f"identical results: {payload['identical']}")
    print(f"written to {args.out}")
    ok = (payload["identical"] and bis["speedup"] > 1.0
          and bis["eval_reduction"] >= 5.0
          and grad["eval_reduction"] >= 5.0)
    return 0 if ok else 1


def _cmd_bench_radii(args) -> int:
    from repro.core.solvers.radii_bench import run_radius_batch_benchmark
    from repro.parallel.bench import write_benchmark

    payload = run_radius_batch_benchmark(problems=args.problems,
                                         dimension=args.dimension,
                                         seed=args.seed)
    write_benchmark(payload, args.out)
    print(f"per-problem loop {payload['scalar_seconds']:.4f}s "
          f"({payload['scalar_evals']} evals over "
          f"{payload['problems']} problems)")
    print(f"tensor kernel    {payload['tensor_seconds']:.4f}s "
          f"({payload['tensor_evals']} evals, "
          f"{payload['eval_reduction']:.1f}x fewer, "
          f"{payload['speedup']:.2f}x faster)")
    print(f"identical results: {payload['identical']}")
    print(f"written to {args.out}")
    ok = (payload["identical"] and payload["speedup"] >= 3.0
          and payload["eval_reduction"] >= 10.0)
    return 0 if ok else 1


def _cmd_curve(args) -> int:
    import contextlib
    import math

    from repro.analysis import degradation_curve
    from repro.parallel.bench import CURVE_SCHEMA, write_benchmark
    from repro.systems.heuristics import MCT
    from repro.systems.independent import generate_etc_gamma
    from repro.systems.independent.makespan import MakespanSystem
    from repro.utils.tables import format_table

    etc = generate_etc_gamma(args.tasks, args.machines, seed=args.seed)
    system = MakespanSystem(etc, MCT().allocate(etc))
    analysis = system.makespan_analysis(beta=args.beta_lo,
                                        method="bisection", seed=args.seed)
    betas = np.linspace(args.beta_lo, args.beta_hi, args.points)

    executor = _make_executor(args)
    if executor is None and args.workers > 1:
        from repro.resilience.supervisor import (SupervisedExecutor,
                                                 SupervisorConfig)
        executor = SupervisedExecutor(args.workers, config=SupervisorConfig(),
                                      seed=args.seed)
    with executor if executor is not None else contextlib.nullcontext():
        curve = degradation_curve(analysis, "makespan", betas,
                                  executor=executor)

    payload = {
        "schema": CURVE_SCHEMA,
        "seed": int(args.seed),
        "system": "makespan",
        "feature": curve.feature,
        "points": len(curve.points),
        "curve": [
            {
                "beta": float(p.beta),
                "rho": float(p.rho) if math.isfinite(p.rho) else None,
                "feasible": bool(p.feasible),
                "critical": p.critical,
            }
            for p in curve.points
        ],
        "stats": {k: int(v) for k, v in curve.stats.items()},
    }
    write_benchmark(payload, args.out)

    rows = [[p.beta, p.rho, "yes" if p.feasible else "NO"]
            for p in curve.points]
    print(format_table(
        ["beta", "rho", "feasible"], rows,
        title=(f"degradation curve of '{curve.feature}' "
               f"({args.tasks} tasks on {args.machines} machines)")))
    if len(curve.points) >= 2:
        print()
        print(curve.plot())
    stats = curve.stats
    print(f"\n{stats['solves']} solves over {stats['points']} points "
          f"({stats['warm_starts']} warm-started, "
          f"{stats['warm_hits']} served entirely from the ray table)")
    print(f"written to {args.out}")
    return 0


def _cmd_bench_sweep(args) -> int:
    from repro.analysis.sweep_bench import run_sweep_benchmark
    from repro.parallel.bench import write_benchmark

    payload = run_sweep_benchmark(points=args.points, tasks=args.tasks,
                                  machines=args.machines,
                                  beta_lo=args.beta_lo,
                                  beta_hi=args.beta_hi, seed=args.seed)
    write_benchmark(payload, args.out)
    print(f"cold sweep {payload['cold_seconds']:.4f}s "
          f"({payload['cold_evals']} evals)")
    print(f"warm sweep {payload['warm_seconds']:.4f}s "
          f"({payload['warm_evals']} evals, "
          f"{payload['eval_reduction']:.1f}x fewer, "
          f"{payload['speedup']:.2f}x faster)")
    print(f"warm starts: {payload['warm_starts']}, served entirely from "
          f"the ray table: {payload['warm_hits']}")
    print(f"identical results: {payload['identical']}")
    print(f"written to {args.out}")
    ok = (payload["identical"] and payload["speedup"] > 1.0
          and payload["eval_reduction"] >= 5.0)
    return 0 if ok else 1


def _cmd_serve(args) -> int:
    from repro.core.radius import compute_radii
    from repro.service import RadiusService, ServiceConfig
    from repro.service.bench import _canonical, build_workload

    if args.chaos is not None:  # the service has no fault-injection hook
        print("error: serve does not support --chaos", file=sys.stderr)
        return 2
    workload = build_workload(
        seed=args.seed, requests=args.requests,
        problems_per_request=args.problems_per_request)
    solve_seed = args.seed + 1
    config = ServiceConfig(queue_limit=args.queue_limit,
                           supervisor=_supervisor_config(args))
    identical = True
    with RadiusService(args.workers, config=config,
                       seed=args.seed) as service:
        for round_no in range(1, args.repeat + 1):
            tickets = [service.submit(batch, seed=solve_seed)
                       for batch in workload]
            gathered = service.gather(tickets)
            flat = [r for leg in gathered for r in leg]
            want = [r for batch in workload
                    for r in compute_radii(batch, seed=solve_seed,
                                           cache=False)]
            round_identical = _canonical(flat) == _canonical(want)
            identical = identical and round_identical
            print(f"round {round_no}: {len(tickets)} request(s), "
                  f"{len(flat)} radii, identical to library path: "
                  f"{round_identical}")
        stats = service.stats()
        last_report = service.executor.last_report
    print(f"service: {stats['completed']} completed, {stats['shed']} shed, "
          f"{stats['failed']} failed "
          f"(queue limit {stats['queue_limit']}, admission breaker "
          f"{stats['admission']['state']})")
    ex = stats["executor"]
    print(f"executor: {ex['workers']} workers, {ex['dispatched']} "
          f"dispatched, {ex['pool_reuses']} pool reuses, "
          f"{ex['quarantined']} quarantined")
    brk = ex["breaker"]
    print(f"pool breaker: state {brk['state']}, {brk['opens']} open(s), "
          f"{brk['consecutive_failures']} consecutive failure(s)")
    if last_report is not None:
        print(f"last batch: {last_report.to_dict()}")
    if stats["cache"] is not None:
        print(f"cache: {stats['cache']}")
    print(f"identical results: {identical}")
    return 0 if identical else 1


def _cmd_bench_service(args) -> int:
    from repro.parallel.bench import write_benchmark
    from repro.service.bench import run_service_benchmark

    # --workers 1 (the global default) would serve in-process; a service
    # exists to own a pool, so use every core unless told otherwise.
    workers = args.workers if args.workers > 1 else None
    payload = run_service_benchmark(
        workers=workers, seed=args.seed, requests=args.requests,
        problems_per_request=args.problems_per_request)
    write_benchmark(payload, args.out)
    print(f"serial        {payload['serial_seconds']:.4f}s")
    print(f"per-call pool {payload['per_call_seconds']:.4f}s "
          f"({payload['workers']} workers/call)")
    print(f"service       {payload['service_seconds']:.4f}s "
          f"({payload['speedup']:.2f}x vs per-call)")
    ex = payload["executor"]
    print(f"pool reuses: {ex['pool_reuses']}, dispatched: "
          f"{ex['dispatched']}, quarantined: {ex['quarantined']}")
    print(f"identical results: {payload['identical']}")
    print(f"written to {args.out}")
    ok = payload["identical"] and payload["speedup"] >= 1.5
    return 0 if ok else 1


def _cmd_chaos(args) -> int:
    from repro.parallel.bench import write_benchmark
    from repro.resilience.chaos import ChaosPolicy, run_chaos_benchmark

    if args.only:
        ids = [e.strip().upper() for e in args.only.split(",") if e.strip()]
    else:
        ids = None
    spec = args.spec if args.spec is not None else args.chaos
    policy = ChaosPolicy.parse(spec) if spec else None
    # --workers 1 (the global default) would skip the process pool and
    # never exercise worker kills; use every core unless told otherwise.
    workers = args.workers if args.workers > 1 else None
    payload = run_chaos_benchmark(workers=workers, seed=args.seed, ids=ids,
                                  policy=policy)
    write_benchmark(payload, args.out)
    print(f"plain      {payload['plain_seconds']:.3f}s "
          f"({payload['workers']} workers)")
    print(f"supervised {payload['supervised_seconds']:.3f}s "
          f"({payload['supervision_overhead']:.2f}x)")
    print(f"chaos      {payload['chaos_seconds']:.3f}s "
          f"({payload['recovery_overhead']:.2f}x vs supervised)")
    print(f"schedule: {payload['chaos']}")
    ex = payload["executor"]
    print(f"recovery: {ex['retries']} retries, {ex['pool_breaks']} pool "
          f"breaks, {ex['respawns']} respawns, "
          f"{ex['quarantined']} quarantined")
    brk = ex["breaker"]
    print(f"breaker: state {brk['state']}, {brk['opens']} open(s), "
          f"{brk['consecutive_failures']} consecutive failure(s)")
    if payload["report"] is not None:
        print(f"last batch: {payload['report']}")
    print(f"identical results: {payload['identical']}")
    print(f"written to {args.out}")
    return 0 if payload["identical"] and not ex["quarantined"] else 1


def _lab_fixture(args):
    """The ``(analysis, catalogue, label)`` for ``repro lab --system``."""
    if args.system == "hiperd":
        from repro.systems.hiperd import (QoSSpec, build_analysis,
                                          generate_hiperd_system)
        from repro.systems.hiperd.scenarios import hiperd_scenario_catalogue

        system = generate_hiperd_system(seed=args.seed)
        qos = QoSSpec(latency_slack=args.latency_slack)
        analysis = build_analysis(system, qos, seed=args.seed,
                                  solver_timeout=args.solver_timeout)
        catalogue = hiperd_scenario_catalogue(analysis, n_steps=args.steps)
        return analysis, catalogue, "hiperd"

    if args.system == "selfhost":
        from repro.systems.selfhost import (SelfhostSystem,
                                            selfhost_scenario_catalogue)

        system = SelfhostSystem.baseline(seed=args.seed)
        analysis = system.robustness_analysis(
            args.beta, seed=args.seed, solver_timeout=args.solver_timeout)
        catalogue = selfhost_scenario_catalogue(system, n_steps=args.steps)
        return analysis, catalogue, "selfhost"

    from repro.systems.heuristics import MCT
    from repro.systems.independent import generate_etc_gamma
    from repro.systems.independent.makespan import MakespanSystem
    from repro.systems.independent.scenarios import (
        makespan_scenario_catalogue,
    )

    etc = generate_etc_gamma(args.tasks, args.machines, seed=args.seed)
    system = MakespanSystem(etc, MCT().allocate(etc))
    analysis = system.robustness_analysis(beta=args.beta, seed=args.seed)
    catalogue = makespan_scenario_catalogue(system, args.beta,
                                            n_steps=args.steps)
    return analysis, catalogue, "makespan"


def _cmd_lab(args) -> int:
    import contextlib

    from repro.exceptions import SpecificationError
    from repro.parallel.bench import write_benchmark
    from repro.scenarios import (
        RobustnessGates,
        parse_gate,
        parse_shock_spec,
        run_lab,
    )

    from repro.utils.rng import check_seed

    check_seed(args.seed)  # before the fixture draws its system from it
    analysis, catalogue, label = _lab_fixture(args)
    if args.scenarios:
        wanted = [n.strip() for n in args.scenarios.split(",") if n.strip()]
        have = {sc.name: sc for sc in catalogue}
        unknown = [n for n in wanted if n not in have]
        if unknown:
            raise SpecificationError(
                f"unknown scenario(s) {unknown}; catalogue has "
                f"{sorted(have)}")
        catalogue = [have[n] for n in wanted]
    for spec in args.shock or ():
        catalogue.append(parse_shock_spec(spec))
    gates = None
    if args.gate:
        gates = RobustnessGates(dict(parse_gate(g) for g in args.gate))

    executor = _make_executor(args)
    if executor is None and args.workers > 1:
        from repro.resilience.supervisor import (SupervisedExecutor,
                                                 SupervisorConfig)
        executor = SupervisedExecutor(args.workers, config=SupervisorConfig(),
                                      seed=args.seed)
    with executor if executor is not None else contextlib.nullcontext():
        payload = run_lab(
            analysis, catalogue, seed=args.seed,
            n_trajectories=args.trajectories, n_boot=args.boot,
            block=args.block, gates=gates, executor=executor,
            system=label, ablate=args.ablate)
    write_benchmark(payload, args.out)

    print(f"system {label}: rho = {payload['rho']} "
          f"(weighting {payload['weighting']}, norm {payload['norm']:g})")
    for entry in payload["scenarios"]:
        ci = entry["bootstrap"]
        verdict = ""
        if entry["gates"] is not None:
            verdict = ("  gates PASS" if entry["gates"]["passed"]
                       else "  gates FAIL")
        sc = entry["scenario"]
        print(f"  {sc['name']:<18} ({sc['kind']:<10}) "
              f"violation rate {entry['violation_rate']:.3f} "
              f"CI [{ci['lo']:.3f}, {ci['hi']:.3f}] "
              f"predicted {entry['predicted_violation_rate']:.3f} "
              f"brackets={entry['ci_brackets_prediction']}{verdict}")
    abl = payload["ablation"]
    print(f"ablation of {abl['scenario']}: dominant kind "
          f"{abl['dominant_param']} (rank agreement with per-parameter "
          f"radii: {abl['rank_agreement']})")
    print(f"written to {args.out}")
    return 0 if payload["gates_passed"] else 1


def _cmd_selfhost(args) -> int:
    from repro.exceptions import SpecificationError
    from repro.parallel.bench import write_benchmark
    from repro.resilience.calibrate import run_selfhost_loop
    from repro.systems.selfhost import SelfhostSystem

    try:
        ratios = tuple(float(r) for r in args.ratios.split(",") if r.strip())
    except ValueError:
        raise SpecificationError(
            f"--ratios must be comma-separated numbers, got {args.ratios!r}")
    system = SelfhostSystem.baseline(args.tasks, args.model_workers,
                                     seed=args.seed)
    payload = run_selfhost_loop(
        system, beta=args.beta, seed=args.seed, ratios=ratios,
        quarantine_budget=args.quarantine_budget,
        runtime_workers=max(1, args.workers),
        solver_workers=max(1, args.workers))
    write_benchmark(payload, args.out)

    print(f"selfhost ({args.tasks} tasks on {args.model_workers} modelled "
          f"workers): rho = {payload['rho']:.4f}, critical feature "
          f"{payload['critical_feature']} (beta {payload['beta']:g})")
    for name, entry in payload["radii"].items():
        radius = entry["radius"]
        shown = "inf" if radius is None else f"{radius:.4f}"
        print(f"  radius {name:<22} {shown:>8} "
              f"({entry['method']}, {entry['quality']})")
    cal = payload["calibration"]
    print(f"calibration: max_task_retries {cal['max_task_retries']} "
          f"(boundary needs {cal['required_retries']}), quarantined mass at "
          f"boundary {cal['boundary_quarantined_mass']:.3f} < budget "
          f"{cal['quarantine_budget']:g}")
    crit = payload["critical_feature"]
    for leg in payload["legs"]:
        side = "IN " if leg["inside_radius"] else "OUT"
        rep = leg["report"]
        inj = ", ".join(f"{k}={v}"
                        for k, v in leg["injections"].items()) or "none"
        mf = leg["measured_features"][crit]
        pred = "feasible" if leg["predicted_feasible"] else "VIOLATES"
        meas = "feasible" if leg["measured_feasible"] else "VIOLATES"
        print(f"  {side} ratio {leg['ratio']:g}: predicted {pred}, "
              f"measured {meas} ({crit} {mf['value']:.3f} vs bound "
              f"{mf['bound']:.3f})")
        print(f"      injections: {inj}; report: {rep['ok']}/{rep['tasks']} "
              f"ok, {rep['retries']} retries over {rep['waves']} wave(s), "
              f"{rep['quarantined']} quarantined, quality {rep['quality']}")
    print(f"in-radius recovered:    {payload['in_radius_recovered']}")
    print(f"out-of-radius violates: {payload['out_of_radius_violates']}")
    print(f"closed loop:            {payload['closed_loop']}")
    print(f"written to {args.out}")
    return 0 if payload["closed_loop"] else 1


def _cmd_topology(args) -> int:
    from repro.systems.hiperd import QoSSpec, generate_hiperd_system
    from repro.systems.hiperd.topology import topology_report

    system = generate_hiperd_system(seed=args.seed)
    print(system)
    print()
    print(topology_report(system,
                          QoSSpec(latency_slack=args.latency_slack),
                          top_k=args.top))
    return 0


def _cmd_stats(args) -> int:
    from repro.observability import render_report

    print(render_report(args.trace_file, events_tail=args.events))
    return 0


_COMMANDS = {
    "demo": _cmd_demo,
    "degeneracy": _cmd_degeneracy,
    "heuristics": _cmd_heuristics,
    "hiperd": _cmd_hiperd,
    "tradeoff": _cmd_tradeoff,
    "failures": _cmd_failures,
    "placement": _cmd_placement,
    "experiments": _cmd_experiments,
    "bench-parallel": _cmd_bench_parallel,
    "bench-solvers": _cmd_bench_solvers,
    "bench-radii": _cmd_bench_radii,
    "curve": _cmd_curve,
    "bench-sweep": _cmd_bench_sweep,
    "serve": _cmd_serve,
    "bench-service": _cmd_bench_service,
    "chaos": _cmd_chaos,
    "lab": _cmd_lab,
    "selfhost": _cmd_selfhost,
    "topology": _cmd_topology,
    "stats": _cmd_stats,
}


def log_level(verbosity: int) -> int | None:
    """Map the ``-v`` count to a logging level.

    ``0`` leaves logging unconfigured (``None``), ``1`` (-v) enables
    INFO progress lines, ``2`` or more (-vv) the full DEBUG trail.
    """
    import logging

    if verbosity <= 0:
        return None
    return logging.INFO if verbosity == 1 else logging.DEBUG


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    from repro.exceptions import SpecGrammarError

    args = build_parser().parse_args(argv)
    level = log_level(args.verbose)
    if level is not None:
        import logging
        logging.basicConfig(
            level=level,
            format="%(levelname)s %(name)s: %(message)s")
    if not args.no_cache:
        from repro.parallel.cache import install_default_cache
        install_default_cache()
    try:
        if args.trace:
            from repro.observability import Observability, observing, span
            obs = Observability()
            with observing(obs):
                with span(f"cli.{args.command}", seed=args.seed):
                    code = _COMMANDS[args.command](args)
            path = obs.write(args.trace, command=args.command, seed=args.seed)
            print(f"trace written to {path}", file=sys.stderr)
            return code
        return _COMMANDS[args.command](args)
    except SpecGrammarError as exc:
        # A malformed --chaos/--shock spec is a usage error, not a crash.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
