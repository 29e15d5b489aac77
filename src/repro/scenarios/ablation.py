"""Perturbation-kind ablation: which kind dominates the robustness?

The paper's Eq. 1 answers "how far can parameter ``pi_j`` move *alone*
before a requirement breaks" analytically; the lab answers the stochastic
twin — "how much of the realized violation rate disappears if kind ``j``
is frozen at its original values" — and cross-checks the two rankings.

For each perturbation parameter the ablation replays the scenario with
that parameter's displacements suppressed (same seed, same draws for the
others — the freeze is a projection, not a re-draw) and records the drop
in pooled violation rate.  The parameter whose freeze removes the most
violations *dominates* the scenario; the analytic counterpart is the
parameter with the smallest min-over-features single-parameter radius.
"""

from __future__ import annotations

from typing import Mapping

from repro.observability import emit_event, span
from repro.scenarios.replay import (
    ReplayContext,
    ReplayResult,
    check_replay,
    replay_batch,
)
from repro.scenarios.shocks import ShockScenario

__all__ = ["ablation_jobs", "run_ablation", "summarize_ablation"]


def ablation_jobs(ctx: ReplayContext, scenario: ShockScenario
                  ) -> list[tuple[ShockScenario, str]]:
    """The replay jobs of an ablation: the scenario once per parameter,
    with that parameter frozen (in ``ctx.params`` order)."""
    return [(scenario, p.name) for p in ctx.params]


def run_ablation(
    ctx: ReplayContext,
    scenario: ShockScenario,
    *,
    seed: int,
    n_trajectories: int,
    rho: float,
    full: ReplayResult,
    per_parameter_radii: Mapping[str, float],
    executor=None,
) -> dict:
    """Freeze one perturbation kind at a time and rank the damage.

    Every frozen replay's chunks run as one batch
    (:func:`~repro.scenarios.replay.replay_batch` over
    :func:`ablation_jobs`), ranked by :func:`summarize_ablation`.

    Parameters
    ----------
    ctx, scenario, seed, n_trajectories, rho, executor:
        As for :func:`~repro.scenarios.replay.replay_scenario`; the
        frozen replays reuse the exact seed so the unfrozen parameters'
        draws are identical to the full replay's.
    full:
        The unablated replay of the same scenario (the baseline rate).
    per_parameter_radii:
        ``{param: min-over-features single-parameter radius}`` — the
        paper's Eq. 1 numbers to cross-check the stochastic ranking
        against (smaller radius = analytically more dominant).

    Returns
    -------
    dict
        JSON-safe: per-parameter frozen rates and deltas, the stochastic
        dominance ranking, the analytic radius ranking, and whether the
        two agree on the dominant kind.
    """
    seed = check_replay(ctx, scenario, seed=seed,
                        n_trajectories=n_trajectories)
    jobs = ablation_jobs(ctx, scenario)
    with span("lab.ablation", scenario=scenario.name,
              params=len(ctx.params)):
        replays = replay_batch(ctx, jobs, seed=seed,
                               n_trajectories=n_trajectories, rho=rho,
                               executor=executor)
    frozen = {name: replay for (_, name), replay in zip(jobs, replays)}
    return summarize_ablation(scenario, full, frozen, per_parameter_radii)


def summarize_ablation(
    scenario: ShockScenario,
    full: ReplayResult,
    frozen: Mapping[str, ReplayResult],
    per_parameter_radii: Mapping[str, float],
) -> dict:
    """Rank the frozen replays against the full one.

    ``frozen`` maps each parameter name to the replay with that
    parameter frozen, in parameter order; the payload is
    :func:`run_ablation`'s.
    """
    full_rate = full.violation_rate
    entries = []
    for name, replay in frozen.items():
        frozen_rate = replay.violation_rate
        entries.append({
            "param": name,
            "frozen_violation_rate": float(frozen_rate),
            "delta_violation_rate": float(full_rate - frozen_rate),
            "radius": (float(per_parameter_radii[name])
                       if name in per_parameter_radii else None),
        })
    # Stochastic ranking: biggest rate drop first (ties broken by name
    # so the artifact is stable under dict-order changes).
    dominance = sorted(entries,
                       key=lambda e: (-e["delta_violation_rate"], e["param"]))
    # Analytic ranking: smallest Eq. 1 radius first (None = unranked).
    ranked_radii = sorted(
        (e for e in entries if e["radius"] is not None),
        key=lambda e: (e["radius"], e["param"]))
    radius_ranking = [e["param"] for e in ranked_radii]
    dominant = dominance[0]["param"] if dominance else None
    agreement = bool(radius_ranking
                     and dominance
                     and dominance[0]["delta_violation_rate"] > 0
                     and dominant == radius_ranking[0])
    emit_event("lab.ablated", scenario=scenario.name,
               dominant=dominant or "")
    return {
        "scenario": scenario.name,
        "full_violation_rate": float(full_rate),
        "entries": entries,
        "dominance_ranking": [e["param"] for e in dominance],
        "radius_ranking": radius_ranking,
        "dominant_param": dominant,
        "rank_agreement": agreement,
    }
