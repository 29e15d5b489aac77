"""Workload ``lab-replay``: ``run_lab`` through ``SupervisedExecutor(2)``.

Closed loop, one caller.  Each call is ``run_lab`` on a 24-task, 6-machine
MCT makespan system with its 3-scenario catalogue: 32 trajectories of 60
steps per scenario and 200 bootstrap replicates, fanned out through one
persistent ``SupervisedExecutor(2)``.  Calls cycle over a few seeded ETC
matrices, each with a freshly built analysis (an analysis memoises its
radii).  Only this workload measures ``scenarios.*`` and the supervisor's
wave loop on many medium tasks; its traced run also walks the lab
systems' degradation curves (see ``curve_layers``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from perfbench import curve_layers
from perfbench.harness import (
    WORKERS,
    Outcome,
    median,
    peak_rss_mb,
    per_call_layers,
    run_for,
    setup_median,
    subtree,
    timed,
    total,
)

TASKS, MACHINES = 24, 6
SYSTEMS = 6
BETA = 1.2
TRAJECTORIES = 32
STEPS = 60
BOOT = 200
#: Lab systems whose degradation curve the traced run also walks.
CURVE_SYSTEMS = 3


@dataclass
class Inputs:
    etcs: list
    lab_seed: int


def make_inputs(seed: int) -> Inputs:
    from repro.systems.independent import generate_etc_gamma

    seeds = np.random.SeedSequence([seed, 4]).generate_state(SYSTEMS)
    return Inputs(etcs=[generate_etc_gamma(TASKS, MACHINES, seed=int(s))
                        for s in seeds],
                  lab_seed=int(seed))


def _system(etc):
    from repro.systems.heuristics import MCT
    from repro.systems.independent.makespan import MakespanSystem
    from repro.systems.independent.scenarios import (
        makespan_scenario_catalogue,
    )

    system = MakespanSystem(etc, MCT().allocate(etc))
    return system, makespan_scenario_catalogue(system, BETA, n_steps=STEPS)


def _steps(payload: dict, catalogue) -> int:
    """Trajectory steps one ``run_lab`` call replayed (scenarios plus the
    ablation's frozen replays)."""
    n_steps = {sc.name: sc.n_steps for sc in catalogue}
    ablation = payload["ablation"]
    return payload["trajectories"] * (
        sum(n_steps.values())
        + len(ablation["entries"]) * n_steps[ablation["scenario"]])


def run(inputs: Inputs, *, seconds: float, trace: bool) -> Outcome:
    from repro.resilience.supervisor import SupervisedExecutor, SupervisorConfig
    from repro.scenarios import run_lab

    seed = inputs.lab_seed
    out = Outcome()

    def lab(system, catalogue, executor=None):
        analysis = system.robustness_analysis(beta=BETA, seed=seed)
        return run_lab(analysis, catalogue, seed=seed,
                       n_trajectories=TRAJECTORIES, n_boot=BOOT,
                       executor=executor, system="makespan")

    def start():
        executor = SupervisedExecutor(WORKERS, config=SupervisorConfig(),
                                      seed=seed)
        lab(*_system(inputs.etcs[0]), executor)
        return executor, executor.close

    executor, close, setup_s = setup_median(start)
    systems = [_system(etc) for etc in inputs.etcs]
    references, serial_s, steps = [], [], []
    for system, catalogue in systems:
        payload, dt = timed(lab, system, catalogue)
        references.append(json.dumps(payload, sort_keys=True))
        serial_s.append(dt)
        steps.append(_steps(payload, catalogue))

    try:
        calls = run_for(seconds, list(range(len(systems))),
                        lambda i: lab(*systems[i], executor))
        if trace:
            traced = _traced_pass(systems, lab, executor)
    finally:
        close()

    for i, payload, _ in calls:
        out.check(json.dumps(payload, sort_keys=True) == references[i],
                  f"system {i}: run_lab payload differs from serial run_lab")
    call_s = [dt for _, _, dt in calls]
    radii = sum(len(p["radii"]) + len(p["per_parameter_radii"])
                for _, p, _ in calls)
    out.metrics.update({
        "setup_s": setup_s,
        "radii_per_s": radii / sum(call_s),
        "latency_p50_ms": median(call_s) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    })
    if not trace:
        return out

    traced_calls, spans = traced
    for i, (payload, _, _) in enumerate(traced_calls):
        out.check(json.dumps(payload, sort_keys=True) == references[i],
                  f"system {i}: traced run_lab payload differs")
    out.metrics = _layers(traced_calls)
    out.metrics.update({
        "trace.overhead": median([dt for _, dt, _ in traced_calls])
        / median(call_s),
        "lab.steps_per_s": sum(steps[i] for i, _, _ in calls) / sum(call_s),
        "baseline.serial_steps_per_s": sum(steps) / sum(serial_s),
    })
    out.metrics.update(_radius_baselines(systems, seed))
    out.metrics.update(curve_layers.measure(
        [system for system, _ in systems[:CURVE_SYSTEMS]], seed, out))
    out.layers = per_call_layers(spans, len(traced_calls))
    return out


def _traced_pass(systems, lab, executor):
    from repro.observability import Observability, observing

    obs = Observability()
    traced = []
    with observing(obs):
        for system, catalogue in systems:
            payload, dt = timed(lab, system, catalogue, executor)
            root = [s for s in obs.recorder.spans()
                    if s.name == "lab.run"][-1]
            traced.append((payload, dt, subtree(obs.recorder.spans(), root)))
    return traced, obs.recorder.spans()


def _layers(traced_calls) -> dict:
    """Per-call layer times from the traced ``lab.run`` subtrees.

    ``replay.s`` covers the scenario replays outside the ablation;
    ``ablation.s`` covers the ablation including its frozen replays.
    """
    radii, replay, boot, ablation, tasks = [], [], [], [], []
    for _, _, spans in traced_calls:
        by_id = {s.span_id: s for s in spans}
        in_ablation = set()
        for s in spans:
            parent = by_id.get(s.parent_id)
            if s.name == "lab.ablation" or (parent is not None
                                            and parent.span_id in in_ablation):
                in_ablation.add(s.span_id)
        radii.append(total(spans, "analysis.radii")
                     + total(spans, "analysis.per_parameter_radii"))
        replay.append(sum(s.elapsed for s in spans if s.name == "lab.replay"
                          and s.span_id not in in_ablation))
        boot.append(total(spans, "lab.bootstrap"))
        ablation.append(total(spans, "lab.ablation"))
        tasks.append(sum(s.tags.get("tasks", 0) for s in spans
                         if s.name == "supervisor.batch"))
    return {
        "lab.radii_s": median(radii),
        "replay.s": median(replay),
        "bootstrap.s": median(boot),
        "ablation.s": median(ablation),
        "supervisor.tasks": median(tasks),
    }


def _radius_baselines(systems, seed: int, repeats: int = 20) -> dict:
    """The plain ``compute_radius`` loop and in-process ``compute_radii``
    over the lab analyses' P-space problems (repeated: they are cheap)."""
    from repro.core.radius import compute_radii, compute_radius

    loop_s = inproc_s = 0.0
    n = 0
    for system, _ in systems:
        analysis = system.robustness_analysis(beta=BETA, seed=seed)
        problems = [analysis.pspace_problem(spec)
                    for spec in analysis.features]
        for _ in range(repeats):
            loop_s += timed(lambda ps: [compute_radius(p, seed=seed,
                                                       cache=False)
                                        for p in ps], problems)[1]
            inproc_s += timed(compute_radii, problems, seed=seed,
                              cache=False)[1]
            n += len(problems)
    return {"baseline.loop_radii_per_s": n / loop_s,
            "baseline.inproc_radii_per_s": n / inproc_s}
