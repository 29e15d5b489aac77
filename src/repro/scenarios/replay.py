"""Replay engine: drive an allocation through a shock trajectory.

For each step of a :class:`~repro.scenarios.shocks.ShockScenario` the
engine applies the drawn displacement to the perturbation parameters
(clipped into their physical boxes), evaluates every performance
feature, and records:

* the **violation series** — whether any feature left its tolerance
  interval at that step;
* the **P-space distance** from the original operating point (the
  paper's step (b)), comparable against the analytic radius ``rho``;
* per-feature **drawdown** — the worst fraction of the margin to
  ``beta`` consumed along the trajectory (1.0 = the bound was reached);
* **time-to-first-violation**.

A trajectory is evaluated as one ``(steps x dim)`` block rather than a
loop of scalar steps.  Trajectories are independent and fan out through
a :class:`~repro.resilience.SupervisedExecutor` as one contiguous chunk
per worker; each is a pure function of ``(seed, scenario, trajectory)``,
so the merged result is bit-identical for any worker count, traced or
untraced.

The lab measures distances in a *shared* P-space (one weighting for all
features), so radius-dependent weightings (sensitivity) are rejected —
their per-feature alphas would give one trajectory several incomparable
distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.core.fepia import FeatureSpec, RobustnessAnalysis
from repro.core.perturbation import PerturbationParameter
from repro.core.pspace import ConcatenatedPerturbation
from repro.exceptions import SpecificationError
from repro.observability import emit_event, span
from repro.parallel.executor import Task
from repro.scenarios.shocks import ShockScenario
from repro.utils.linalg import vector_norm_many

__all__ = [
    "ReplayContext",
    "TrajectoryResult",
    "ReplayResult",
    "replay_scenario",
]


@dataclass(frozen=True)
class ReplayContext:
    """The picklable slice of an analysis a replay worker needs.

    Built once per lab run with :meth:`from_analysis` and shipped to
    worker processes alongside each chunk of trajectories; everything in
    it is plain data (parameters, feature specs, the shared P-space
    alphas and the norm), so the supervised executor can fan
    trajectories out.
    """

    params: tuple[PerturbationParameter, ...]
    features: tuple[FeatureSpec, ...]
    alphas: np.ndarray
    norm: float

    @classmethod
    def from_analysis(cls, analysis: RobustnessAnalysis) -> "ReplayContext":
        """Extract the replay context of an analysis.

        Raises
        ------
        SpecificationError
            For radius-dependent weightings (sensitivity): their
            P-space is per-feature, so a single trajectory distance is
            undefined.  Use identity/normalized/custom weightings.
        """
        if analysis.weighting.requires_radii:
            raise SpecificationError(
                f"the scenario lab needs a shared P-space, but "
                f"{type(analysis.weighting).__name__} builds one per "
                "feature; use an identity/normalized/custom weighting")
        pspace = analysis.pspace(None)
        return cls(params=tuple(analysis.params),
                   features=tuple(analysis.features),
                   alphas=np.array(pspace.alphas, dtype=np.float64),
                   norm=float(analysis.norm))

    def pspace(self) -> ConcatenatedPerturbation:
        """Rebuild the shared P-space (cheap, done once per task)."""
        return ConcatenatedPerturbation(list(self.params), self.alphas,
                                        weighting_name="lab")


@dataclass(frozen=True)
class TrajectoryResult:
    """One replayed trajectory, step by step.

    Attributes
    ----------
    scenario:
        Name of the scenario that generated the trajectory.
    trajectory:
        Trajectory index within its scenario.
    violations:
        Per-step flag: did *any* feature leave its tolerance interval?
    distances:
        Per-step P-space distance from the original operating point.
    first_violation_step:
        Index of the first violating step, or ``None``.
    max_drawdown:
        Per feature, the worst fraction of the margin to its ``beta``
        bound consumed along the trajectory (can exceed 1 on violation).
    """

    scenario: str
    trajectory: int
    violations: tuple[bool, ...]
    distances: tuple[float, ...]
    first_violation_step: int | None
    max_drawdown: dict[str, float]

    @property
    def n_steps(self) -> int:
        """Trajectory length."""
        return len(self.violations)

    @property
    def n_violations(self) -> int:
        """Number of violating steps."""
        return sum(1 for v in self.violations if v)

    @property
    def violation_rate(self) -> float:
        """Fraction of violating steps."""
        return self.n_violations / self.n_steps if self.n_steps else 0.0


def _max_drawdown(values: np.ndarray, original: float, beta_min: float,
                  beta_max: float) -> float:
    """Worst fraction of the margin to a bound consumed over ``values``.

    Each step is measured against whichever finite bound its value moved
    towards: 0 when it moved away from every finite bound, > 1 once
    violated.
    """
    used = np.zeros(values.shape)
    if math.isfinite(beta_max) and beta_max > original:
        up = values > original
        used[up] = (values[up] - original) / (beta_max - original)
    if math.isfinite(beta_min) and beta_min < original:
        down = values < original
        used[down] = (original - values[down]) / (original - beta_min)
    return float(used.max())


def _replay_chunk_task(ctx: ReplayContext, scenario: ShockScenario,
                       seed: int, start: int, stop: int,
                       frozen: str | None = None
                       ) -> list[TrajectoryResult]:
    """Replay trajectories ``start..stop-1`` — a pure, picklable task.

    Each trajectory is evaluated as one ``(steps x dim)`` block: one
    block draw, one clip per parameter, row-wise distances and one
    row-exact :meth:`~repro.core.mappings.FeatureMapping.value_rows`
    call per feature.  ``frozen`` names one perturbation parameter whose
    displacement is suppressed (held at its original value) — the
    ablation lever.
    """
    pspace = ctx.pspace()
    originals = [spec.mapping.value(pspace.pi_orig) for spec in ctx.features]
    moved = [(p, pspace.block_slice(p.name)) for p in ctx.params
             if p.name != frozen]
    results = []
    for trajectory in range(start, stop):
        disp = scenario.displacement_block(seed, trajectory, ctx.params)
        flats = np.tile(pspace.pi_orig, (scenario.n_steps, 1))
        for p, sl in moved:
            if p.name in disp:
                flats[:, sl] = p.clip_to_bounds(p.original + disp[p.name])
        distances = vector_norm_many(
            pspace.alphas * flats - pspace.p_orig, ctx.norm)
        violated = np.zeros(scenario.n_steps, dtype=bool)
        drawdown = {}
        for spec, original in zip(ctx.features, originals):
            values = spec.mapping.value_rows(flats)
            bounds = spec.feature.bounds
            violated |= ~((bounds.beta_min <= values)
                          & (values <= bounds.beta_max))
            drawdown[spec.name] = _max_drawdown(
                values, original, bounds.beta_min, bounds.beta_max)
        results.append(TrajectoryResult(
            scenario=scenario.name,
            trajectory=trajectory,
            violations=tuple(violated.tolist()),
            distances=tuple(distances.tolist()),
            first_violation_step=(int(np.argmax(violated))
                                  if violated.any() else None),
            max_drawdown=drawdown,
        ))
    return results


@dataclass(frozen=True)
class ReplayResult:
    """All trajectories of one scenario, plus the radius to compare to.

    Attributes
    ----------
    scenario:
        The generating scenario.
    trajectories:
        Per-trajectory results, in trajectory order.
    rho:
        The analytic FePIA robustness metric of the analysed allocation
        (``min_i r(phi_i, P)``), against which the realized P-space
        distances are judged.
    """

    scenario: ShockScenario
    trajectories: tuple[TrajectoryResult, ...]
    rho: float

    @property
    def n_steps_total(self) -> int:
        """Total replayed steps across trajectories."""
        return sum(t.n_steps for t in self.trajectories)

    @property
    def violation_rate(self) -> float:
        """Pooled fraction of violating (trajectory, step) cells."""
        total = self.n_steps_total
        if not total:
            return 0.0
        return sum(t.n_violations for t in self.trajectories) / total

    @property
    def predicted_violation_rate(self) -> float:
        """The radius-based prediction on the same trajectories.

        FePIA guarantees no violation strictly inside the radius ball;
        the fraction of steps whose realized P-distance exceeds ``rho``
        is therefore an *upper bound* on the violation rate — and exact
        along a critical direction.  Comparing the bootstrap CI of the
        empirical rate against this number is the lab's confidence gate.
        """
        total = self.n_steps_total
        if not total:
            return 0.0
        outside = sum(1 for t in self.trajectories
                      for d in t.distances if d > self.rho)
        return outside / total

    @property
    def mean_first_violation_step(self) -> float | None:
        """Mean time-to-first-violation over violating trajectories."""
        firsts = [t.first_violation_step for t in self.trajectories
                  if t.first_violation_step is not None]
        if not firsts:
            return None
        return sum(firsts) / len(firsts)

    @property
    def worst_drawdown(self) -> dict[str, float]:
        """Per feature, the worst drawdown over all trajectories."""
        out: dict[str, float] = {}
        for t in self.trajectories:
            for name, value in t.max_drawdown.items():
                out[name] = max(out.get(name, 0.0), value)
        return out

    def violation_series(self) -> list[np.ndarray]:
        """Per-trajectory boolean violation series (bootstrap input)."""
        return [np.asarray(t.violations, dtype=bool)
                for t in self.trajectories]

    def to_dict(self) -> dict:
        """JSON-safe summary — derived statistics only, fully seeded."""
        mean_first = self.mean_first_violation_step
        return {
            "scenario": self.scenario.to_dict(),
            "trajectories": len(self.trajectories),
            "violation_rate": float(self.violation_rate),
            "predicted_violation_rate": float(self.predicted_violation_rate),
            "mean_first_violation_step": (
                None if mean_first is None else float(mean_first)),
            "worst_drawdown": {k: float(v)
                               for k, v in self.worst_drawdown.items()},
        }


def replay_scenario(
    ctx: ReplayContext,
    scenario: ShockScenario,
    *,
    seed: int,
    n_trajectories: int = 8,
    rho: float,
    executor=None,
    frozen: str | None = None,
) -> ReplayResult:
    """Replay a scenario's trajectories, optionally fanned out.

    Parameters
    ----------
    ctx:
        The analysis slice (see :meth:`ReplayContext.from_analysis`).
    scenario:
        The shock process to realize.
    seed:
        Lab seed; trajectory ``t`` draws from spawn keys
        ``(scenario_key, t, step)`` under this entropy.
    n_trajectories:
        Independent trajectories to replay.
    rho:
        Analytic robustness metric for the prediction comparison.
    executor:
        Optional executor (typically a
        :class:`~repro.resilience.SupervisedExecutor`) to fan
        trajectories out through, as ``min(executor.workers,
        n_trajectories)`` contiguous chunks; quarantined chunks are
        re-run in-process so the result never contains sentinels.
    frozen:
        Optional parameter name whose displacements are suppressed
        (the ablation lever); must name a parameter of ``ctx``.

    Raises
    ------
    SpecificationError
        For a non-positive trajectory count, a ``frozen`` name that is
        not a parameter, or a scenario whose parameter names or drift
        directions do not fit ``ctx.params`` — before any task runs.
    """
    if n_trajectories < 1:
        raise SpecificationError(
            f"n_trajectories must be >= 1, got {n_trajectories}")
    # Validate names and drift directions up front: a bad scenario must
    # raise here, not inside workers the supervisor would retry.
    scenario.active_params(ctx.params)
    names = [p.name for p in ctx.params]
    if frozen is not None and frozen not in names:
        raise SpecificationError(
            f"cannot freeze unknown parameter {frozen!r}; have {names}")
    # One contiguous chunk of trajectories per worker, merged back in
    # trajectory order; a chunk's results do not depend on its bounds.
    chunks = 1 if executor is None else min(executor.workers, n_trajectories)
    cuts = [n_trajectories * i // chunks for i in range(chunks + 1)]
    tasks = [Task(_replay_chunk_task,
                  (ctx, scenario, int(seed), start, stop, frozen))
             for start, stop in zip(cuts, cuts[1:])]
    with span("lab.replay", scenario=scenario.name,
              trajectories=n_trajectories, frozen=frozen or "",
              shards=len(tasks)):
        if executor is not None:
            # Imported lazily (resilience imports core modules this
            # package sits next to; avoid any chance of a cycle).
            from repro.resilience.supervisor import resolve_task_failures

            chunk_results = resolve_task_failures(executor.run(tasks), tasks,
                                                  executor=executor)
        else:
            chunk_results = [task() for task in tasks]
    results = [t for chunk in chunk_results for t in chunk]
    # Workers return private copies of the scenario-name and feature-name
    # strings; re-point every trajectory at the caller's instances so the
    # merged result pickles byte-identically to a serial run (pickle
    # memoizes shared references, so copies change the bytes).
    results = [
        replace(t, scenario=scenario.name,
                max_drawdown={spec.name: t.max_drawdown[spec.name]
                              for spec in ctx.features})
        for t in results]
    result = ReplayResult(scenario=scenario,
                          trajectories=tuple(results), rho=float(rho))
    emit_event("lab.replayed", scenario=scenario.name,
               trajectories=n_trajectories,
               violation_rate=result.violation_rate)
    return result
