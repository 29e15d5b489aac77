"""Degradation-curve layers, measured inside ``lab-replay``'s traced run.

A ``curve-sweep`` workload (closed loop over ``degradation_curve``) was
dropped: on a shared 2-core virtual machine its per-run medians spread
by 0.29-0.36 of their median across ten seeds, beyond any bound the
benchmark may set.  ``analysis.degradation`` and ``core.solvers.warm`` stay
measured here instead, on the lab's own systems, which are the ``repro
curve`` default system: 24 tasks on 6 machines under MCT.  Each walk is
``degradation_curve(analysis, "makespan", betas)`` with 100 betas in
[1.05, 2.0] and ``method="bisection"``, run serially.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from perfbench.harness import Outcome, median, subtree, timed, total

BETAS = np.linspace(1.05, 2.0, 100)
FEATURE = "makespan"
#: Warm and cold walks per system (alternating, untraced).
ROUNDS = 2


def _analysis(system, seed: int, wrap=None):
    """The ``repro curve`` analysis of ``system``; ``wrap`` optionally
    replaces each feature mapping (for counting)."""
    from repro.core.fepia import RobustnessAnalysis

    analysis = system.makespan_analysis(beta=float(BETAS[0]),
                                        method="bisection", seed=seed)
    if wrap is None:
        return analysis
    return RobustnessAnalysis(
        [replace(spec, mapping=wrap(spec.mapping))
         for spec in analysis.features],
        analysis.params, weighting=analysis.weighting,
        respect_physical_bounds=analysis.respect_physical_bounds,
        method=analysis.method, norm=analysis.norm, seed=analysis.seed)


def _points(curve) -> list:
    return [(p.beta, p.rho, p.feasible, sorted(p.radii.items()), p.critical)
            for p in curve.points]


def measure(systems, seed: int, out: Outcome) -> dict:
    """Warm vs cold walk times, the traced ``curve.family`` time, the
    warm-table hit ratio and exact evaluations per point; every warm,
    traced and counted walk must equal its system's cold walk."""
    from repro.analysis import degradation_curve
    from repro.core.solvers.bench import CallCountingMapping
    from repro.observability import Observability, observing

    class Counted(CallCountingMapping):
        """Keeps the inner ``structure_key``, so every operating point
        still lands in one tensor family, exactly as unwrapped."""

        def structure_key(self):
            return self.inner.structure_key()

    analyses = [_analysis(system, seed) for system in systems]
    warm_s, cold_s, cold = [], [], []
    for analysis in analyses * ROUNDS:
        curve, dt = timed(degradation_curve, analysis, FEATURE, BETAS,
                          warm=False)
        cold.append(_points(curve))
        cold_s.append(dt)
        curve, dt = timed(degradation_curve, analysis, FEATURE, BETAS)
        out.check(_points(curve) == cold[-1],
                  "warm curve differs from its cold walk")
        warm_s.append(dt)

    obs = Observability()
    family, starts, hits = [], 0, 0
    with observing(obs):
        for k, analysis in enumerate(analyses):
            curve = degradation_curve(analysis, FEATURE, BETAS)
            root = [s for s in obs.recorder.spans()
                    if s.name == "analysis.curve"][-1]
            family.append(total(subtree(obs.recorder.spans(), root),
                                "curve.family"))
            starts += curve.stats["warm_starts"]
            hits += curve.stats["warm_hits"]
            out.check(_points(curve) == cold[k],
                      "traced curve differs from its cold walk")

    calls = 0
    for k, system in enumerate(systems):
        analysis = _analysis(system, seed, wrap=Counted)
        curve = degradation_curve(analysis, FEATURE, BETAS)
        out.check(_points(curve) == cold[k],
                  "counted curve differs from its cold walk")
        calls += sum(spec.mapping.calls for spec in analysis.features)
    return {
        "curve.warm_s": median(warm_s),
        "curve.cold_s": median(cold_s),
        "curve.family_s": median(family),
        "warm.hit_ratio": hits / starts,
        "curve.evals_per_point": calls / (len(systems) * len(BETAS)),
    }
