"""The scenario lab: catalogue → replay → bootstrap → ablation.

:func:`run_lab` orchestrates one full lab run against a
:class:`~repro.core.fepia.RobustnessAnalysis`:

1. resolve the analytic radii through the analysis (which routes them
   through the batched :func:`~repro.core.radius.compute_radii`
   frontend, so caching, observability and chaos-hardening all apply);
2. replay every scenario's trajectories as one batch of chunk tasks
   (fanned out through the supplied executor);
3. in one more batch, ablate the chosen scenario parameter by parameter
   and block-bootstrap every scenario's violation rate into a CI; then
   compare each CI against the radius-based prediction and any
   :class:`~repro.scenarios.bootstrap.RobustnessGates`, and cross-check
   the ablation's dominance ranking against the paper's Eq. 1 radii.

Through an executor a lab run is therefore three supervised batches:
the radii, the replays, and the ablation's replays with the bootstraps.

The emitted ``repro-lab-v1`` payload is validated by
:func:`repro.parallel.bench.validate_bench_payload` and contains **no
wall-clock timings and no worker counts** — everything in it is a pure
function of ``(analysis, scenarios, seed)``, which is what makes the
bit-identical-artifact contract (`repro lab --seed S` twice, any
``--workers``, traced or untraced) checkable with a plain byte diff.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.fepia import RobustnessAnalysis
from repro.exceptions import SpecificationError
from repro.observability import emit_event, span
from repro.parallel.bench import LAB_SCHEMA
from repro.parallel.executor import Task
from repro.scenarios.ablation import ablation_jobs, summarize_ablation
from repro.scenarios.bootstrap import (
    RobustnessGates,
    block_bootstrap_violation_rate,
    check_bootstrap,
)
from repro.scenarios.replay import (
    ReplayContext,
    check_replay,
    merge_replays,
    replay_batch,
    replay_tasks,
    run_tasks,
)
from repro.scenarios.shocks import ShockScenario
from repro.utils.rng import check_seed

__all__ = ["LAB_SCHEMA", "run_lab"]

#: Rough task costs in microseconds, used only to send the last batch's
#: tasks costliest first: a replay chunk per trajectory step, a
#: bootstrap per replicate (its two sequential draws dominate).  From
#: in-process timings on the 24x6 makespan lab at 32 trajectories of 60
#: steps: 0.8-5.8 us per step by shock kind, 26-31 us per replicate.
_STEP_US = 2.0
_REPLICATE_US = 28.0


def _finite_or_none(value: float) -> float | None:
    """JSON-safe float: ``inf``/``nan`` become ``None`` (unbounded)."""
    value = float(value)
    return value if math.isfinite(value) else None


def run_lab(
    analysis: RobustnessAnalysis,
    scenarios: Sequence[ShockScenario],
    *,
    seed: int = 2005,
    n_trajectories: int = 8,
    n_boot: int = 200,
    block: int = 10,
    gates: RobustnessGates | None = None,
    executor=None,
    system: str = "custom",
    ablate: str | None = None,
) -> dict:
    """Run the full scenario lab and return the ``repro-lab-v1`` payload.

    Parameters
    ----------
    analysis:
        The FePIA analysis of the allocation under study; must use a
        shared-P-space weighting (identity/normalized/custom).
    scenarios:
        The shock catalogue to replay (names must be unique).
    seed:
        Lab seed — the only entropy source of the whole run.
    n_trajectories:
        Trajectories per scenario.
    n_boot, block:
        Bootstrap replicates and circular block length.
    gates:
        Optional :class:`RobustnessGates` evaluated per scenario over
        ``violation_rate``, ``ci_lo``, ``ci_hi``,
        ``predicted_violation_rate`` and ``worst_drawdown``.
    executor:
        Optional (supervised) executor; trajectory replays and
        bootstraps fan out through it, and the analysis' radius solves
        adopt it for this call when the analysis has none of its own.
    system:
        Label for the artifact (e.g. ``"makespan"``).
    ablate:
        Name of the scenario to ablate; defaults to the first scenario
        with a non-zero violation rate (else the first scenario).
    """
    seed = check_seed(seed)
    scenarios = list(scenarios)
    if not scenarios:
        raise SpecificationError("need at least one scenario")
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        raise SpecificationError(f"duplicate scenario names in {names}")
    if ablate is not None and ablate not in names:
        raise SpecificationError(
            f"unknown ablation scenario {ablate!r}; have {names}")
    check_bootstrap(n_boot=n_boot, block=block)
    bound = executor is not None and analysis.executor is None
    if bound:
        # Route the analysis' batched radius solves through the same
        # executor the replays use, for this call only.
        analysis.executor = executor
    try:
        with span("lab.run", system=system, scenarios=len(scenarios),
                  trajectories=n_trajectories):
            ctx = ReplayContext.from_analysis(analysis)
            for scenario in scenarios:
                check_replay(ctx, scenario, seed=seed,
                             n_trajectories=n_trajectories)
            radii = {name: result.radius
                     for name, result in analysis.radii().items()}
            rho = min(radii.values())
            per_param = {p.name: math.inf for p in analysis.params}
            for spec in analysis.features:
                for pname, r in analysis.per_parameter_radii(spec).items():
                    per_param[pname] = min(per_param[pname], r)
            replays = dict(zip(names, replay_batch(
                ctx, [(scenario, None) for scenario in scenarios],
                seed=seed, n_trajectories=n_trajectories, rho=rho,
                executor=executor)))
            if ablate is None:
                ablate = next((name for name in names
                               if replays[name].violation_rate > 0),
                              names[0])
            target = replays[ablate].scenario
            cis, ablation = _ablate_and_bootstrap(
                ctx, target, replays, seed=seed,
                n_trajectories=n_trajectories, rho=rho, n_boot=n_boot,
                block=block, per_parameter_radii=per_param,
                executor=executor)
            scenario_payloads = [
                _scenario_entry(replays[name], ci, gates)
                for name, ci in zip(names, cis)]
    finally:
        if bound:
            analysis.executor = None

    payload = {
        "schema": LAB_SCHEMA,
        "seed": int(seed),
        "system": str(system),
        "weighting": analysis.weighting.name,
        "norm": float(analysis.norm),
        "rho": _finite_or_none(rho),
        "radii": {name: _finite_or_none(r) for name, r in radii.items()},
        "per_parameter_radii": {name: _finite_or_none(r)
                                for name, r in per_param.items()},
        "trajectories": int(n_trajectories),
        "bootstrap": {"n_boot": int(n_boot), "block": int(block)},
        "scenarios": scenario_payloads,
        "ablation": ablation,
        "gates_passed": all(entry["gates"] is None
                            or entry["gates"]["passed"]
                            for entry in scenario_payloads),
    }
    emit_event("lab.done", system=system, scenarios=len(scenarios),
               gates_passed=payload["gates_passed"])
    return payload


def _scenario_entry(replay, ci: dict, gates: RobustnessGates | None
                    ) -> dict:
    """One scenario's payload entry: its replay summary, bootstrap CI,
    whether the CI brackets the prediction, and its gate verdict."""
    predicted = replay.predicted_violation_rate
    entry = replay.to_dict()
    entry["bootstrap"] = ci
    entry["ci_brackets_prediction"] = bool(ci["lo"] <= predicted <= ci["hi"])
    entry["gates"] = None
    if gates is not None:
        entry["gates"] = gates.evaluate({
            "violation_rate": replay.violation_rate,
            "ci_lo": ci["lo"],
            "ci_hi": ci["hi"],
            "predicted_violation_rate": predicted,
            "worst_drawdown": max(replay.worst_drawdown.values(),
                                  default=0.0),
        }).to_dict()
    return entry


def _ablate_and_bootstrap(ctx, target, replays, *, seed, n_trajectories,
                          rho, n_boot, block, per_parameter_radii,
                          executor) -> tuple[list[dict], dict]:
    """The lab's last batch: the ablation's frozen replays of ``target``
    and every scenario's bootstrap, costliest first.

    Returns each scenario's CI (in ``replays`` order) and the ablation
    payload.
    """
    jobs = ablation_jobs(ctx, target)
    tasks = replay_tasks(ctx, jobs, seed=seed,
                         n_trajectories=n_trajectories, executor=executor)
    n_chunks = len(tasks)
    chunk_steps = target.n_steps * n_trajectories * len(jobs) / n_chunks
    costs = [_STEP_US * chunk_steps] * n_chunks
    for replay in replays.values():
        series = np.stack(replay.violation_series())
        tasks.append(Task(block_bootstrap_violation_rate, (series,),
                          {"n_boot": n_boot, "block": block, "seed": seed}))
        costs.append(_REPLICATE_US * n_boot)
    with span("lab.ablation", scenario=target.name, params=len(ctx.params),
              shards=n_chunks, bootstraps=len(replays)):
        outputs = run_tasks(tasks, executor, costs=costs)
    frozen = merge_replays(ctx, jobs, outputs[:n_chunks], rho=rho)
    ablation = summarize_ablation(
        target, replays[target.name],
        {name: replay for (_, name), replay in zip(jobs, frozen)},
        per_parameter_radii)
    # A worker's dict comes back with private copies of its key strings;
    # rebuild each with this module's keys so the payload pickles as the
    # serial one does (pickle memoizes shared strings).
    cis = [{key: ci[key] for key in
            ("mean", "lo", "hi", "n_boot", "block", "level")}
           for ci in outputs[n_chunks:]]
    return cis, ablation
