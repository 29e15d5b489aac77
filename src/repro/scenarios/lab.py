"""The scenario lab: catalogue → replay → bootstrap → ablation.

:func:`run_lab` orchestrates one full lab run against a
:class:`~repro.core.fepia.RobustnessAnalysis`:

1. resolve the analytic radii through the analysis (which routes them
   through the batched :func:`~repro.core.radius.compute_radii`
   frontend, so caching, observability and chaos-hardening all apply);
2. replay every scenario's trajectories (fanned out through the
   supplied executor);
3. block-bootstrap the empirical violation rate into a CI and compare
   it against the radius-based prediction and any
   :class:`~repro.scenarios.bootstrap.RobustnessGates`;
4. ablate the chosen scenario parameter-by-parameter and cross-check
   the dominance ranking against the paper's Eq. 1 radii.

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

from repro.core.fepia import RobustnessAnalysis
from repro.exceptions import SpecificationError
from repro.observability import emit_event, span
from repro.parallel.bench import LAB_SCHEMA
from repro.scenarios.ablation import run_ablation
from repro.scenarios.bootstrap import (
    RobustnessGates,
    block_bootstrap_violation_rate,
)
from repro.scenarios.replay import ReplayContext, replay_scenario
from repro.scenarios.shocks import ShockScenario
from repro.utils.rng import check_seed

__all__ = ["LAB_SCHEMA", "run_lab"]


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
        Optional (supervised) executor; trajectory replays fan out
        through it, and the analysis' radius solves adopt it too when
        the analysis has none of its own.
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
    if executor is not None and analysis.executor is None:
        # Route the analysis' batched radius solves through the same
        # executor the replays use.
        analysis.executor = executor

    with span("lab.run", system=system, scenarios=len(scenarios),
              trajectories=n_trajectories):
        ctx = ReplayContext.from_analysis(analysis)
        radii = {name: result.radius
                 for name, result in analysis.radii().items()}
        rho = min(radii.values())
        per_param = {p.name: math.inf for p in analysis.params}
        for spec in analysis.features:
            for pname, r in analysis.per_parameter_radii(spec).items():
                per_param[pname] = min(per_param[pname], r)

        scenario_payloads = []
        replays = {}
        all_passed = True
        for scenario in scenarios:
            replay = replay_scenario(
                ctx, scenario, seed=seed, n_trajectories=n_trajectories,
                rho=rho, executor=executor)
            replays[scenario.name] = replay
            ci = block_bootstrap_violation_rate(
                replay.violation_series(), n_boot=n_boot, block=block,
                seed=seed)
            predicted = replay.predicted_violation_rate
            brackets = bool(ci["lo"] <= predicted <= ci["hi"])
            entry = replay.to_dict()
            entry["bootstrap"] = ci
            entry["ci_brackets_prediction"] = brackets
            if gates is not None:
                worst = max(replay.worst_drawdown.values(), default=0.0)
                verdict = gates.evaluate({
                    "violation_rate": replay.violation_rate,
                    "ci_lo": ci["lo"],
                    "ci_hi": ci["hi"],
                    "predicted_violation_rate": predicted,
                    "worst_drawdown": worst,
                })
                entry["gates"] = verdict.to_dict()
                all_passed = all_passed and verdict.passed
            else:
                entry["gates"] = None
            scenario_payloads.append(entry)

        if ablate is None:
            ablate = next(
                (s.name for s in scenarios
                 if replays[s.name].violation_rate > 0),
                scenarios[0].name)
        target = next(s for s in scenarios if s.name == ablate)
        ablation = run_ablation(
            ctx, target, seed=seed, n_trajectories=n_trajectories,
            rho=rho, full=replays[ablate],
            per_parameter_radii=per_param, executor=executor)

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
        "gates_passed": bool(all_passed),
    }
    emit_event("lab.done", system=system, scenarios=len(scenarios),
               gates_passed=all_passed)
    return payload
