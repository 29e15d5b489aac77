"""The scalar replay loop, kept as the oracle of the block replay.

This is the step-by-step engine the scenario lab used before replay
became one array block per trajectory: one fresh draw per step, one
scalar ``mapping.value`` call per feature and step, and drawdown folded
in with Python ``max``.  The block engine in
:mod:`repro.scenarios.replay` must reproduce its
:class:`~repro.scenarios.replay.TrajectoryResult` bit for bit.

The per-step draws are kept here too, so the oracle does not share the
block draw routines it checks.
"""

from __future__ import annotations

import math

import numpy as np

from repro.scenarios.replay import ReplayContext, TrajectoryResult
from repro.scenarios.shocks import _STATIC_STEP, ShockScenario


def scalar_displacements(scenario: ShockScenario, seed: int,
                         trajectory: int, step: int,
                         params) -> dict[str, np.ndarray]:
    """One step's per-parameter displacement, drawn on its own."""
    active = scenario.active_params(params)

    def rng(at: int) -> np.random.Generator:
        return scenario._rng(seed, trajectory, at)

    if scenario.kind == "spike":
        gen = rng(step)
        if gen.random() >= scenario.rate:
            return {p.name: np.zeros(p.dimension) for p in active}
        out = {}
        for p in active:
            noise = gen.standard_normal(p.dimension)
            mask = gen.random(p.dimension) < 0.5
            out[p.name] = scenario.magnitude * noise * mask
        return out
    if scenario.kind == "drift":
        ramp = scenario.magnitude * (step + 1) / scenario.n_steps
        if scenario.jitter:
            u = rng(step).random()
            ramp *= 1.0 + scenario.jitter * (2.0 * u - 1.0)
        if scenario.directions is None:
            scale = 1.0 / math.sqrt(sum(p.dimension for p in active))
            return {p.name: ramp * np.full(p.dimension, scale)
                    for p in active}
        return {p.name: ramp * np.asarray(
                    scenario.directions.get(p.name, np.zeros(p.dimension)),
                    dtype=np.float64)
                for p in active}
    static = rng(_STATIC_STEP)
    loadings = [static.standard_normal(p.dimension) for p in active]
    norm = math.sqrt(sum(float(b @ b) for b in loadings))
    factor = float(rng(step).standard_normal())
    scale = scenario.magnitude * factor / norm
    return {p.name: scale * block for p, block in zip(active, loadings)}


def _margin_used(value: float, original: float, beta_min: float,
                 beta_max: float) -> float:
    """Fraction of the margin from the original value to a bound consumed."""
    used = 0.0
    if math.isfinite(beta_max) and beta_max > original and value > original:
        used = max(used, (value - original) / (beta_max - original))
    if math.isfinite(beta_min) and beta_min < original and value < original:
        used = max(used, (original - value) / (original - beta_min))
    return used


def scalar_replay(ctx: ReplayContext, scenario: ShockScenario, seed: int,
                  trajectory: int,
                  frozen: str | None = None) -> TrajectoryResult:
    """Replay one trajectory a step at a time."""
    pspace = ctx.pspace()
    originals = {spec.name: spec.mapping.value(pspace.pi_orig)
                 for spec in ctx.features}
    order = np.inf if ctx.norm in (np.inf, "inf") else ctx.norm
    violations: list[bool] = []
    distances: list[float] = []
    drawdown = {name: 0.0 for name in originals}
    first_violation: int | None = None
    for step in range(scenario.n_steps):
        disp = scalar_displacements(scenario, seed, trajectory, step,
                                    ctx.params)
        if frozen is not None:
            disp.pop(frozen, None)
        values = {}
        for p in ctx.params:
            block = disp.get(p.name)
            if block is None:
                continue
            values[p.name] = p.clip_to_bounds(p.original + block)
        flat = pspace.flatten_values(values)
        distances.append(float(np.linalg.norm(
            pspace.to_p(flat) - pspace.p_orig, ord=order)))
        violated = False
        for spec in ctx.features:
            value = float(spec.mapping.value(flat))
            bounds = spec.feature.bounds
            drawdown[spec.name] = max(
                drawdown[spec.name],
                _margin_used(value, originals[spec.name],
                             bounds.beta_min, bounds.beta_max))
            if not spec.feature.is_satisfied(value):
                violated = True
        violations.append(violated)
        if violated and first_violation is None:
            first_violation = step
    return TrajectoryResult(
        scenario=scenario.name,
        trajectory=trajectory,
        violations=tuple(violations),
        distances=tuple(distances),
        first_violation_step=first_violation,
        max_drawdown=drawdown,
    )
