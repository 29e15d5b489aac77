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

A chunk of trajectories is evaluated as one ``(trajectories * steps x
dim)`` block rather than a loop of scalar steps.  Trajectories are
independent and fan out through a
:class:`~repro.resilience.SupervisedExecutor` as one contiguous chunk per
worker; each is a pure function of ``(seed, scenario, trajectory)``, so
the merged result is bit-identical for any worker count, traced or
untraced.  Several replays (the lab's scenarios, the ablation's frozen
parameters) share one batch: :func:`replay_tasks` cuts every job into
the same chunks, :func:`run_tasks` runs any task list as one batch and
:func:`merge_replays` reassembles each job's result;
:func:`replay_scenario` is the one-job case.

The lab measures distances in a *shared* P-space (one weighting for all
features), so radius-dependent weightings (sensitivity) are rejected —
their per-feature alphas would give one trajectory several incomparable
distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.core.fepia import FeatureSpec, RobustnessAnalysis
from repro.core.perturbation import PerturbationParameter
from repro.core.pspace import ConcatenatedPerturbation
from repro.exceptions import SpecificationError
from repro.observability import emit_event, span
from repro.parallel.executor import Task
from repro.scenarios.shocks import ShockScenario
from repro.utils.linalg import vector_norm_many
from repro.utils.rng import check_seed

__all__ = [
    "ReplayContext",
    "TrajectoryResult",
    "ReplayResult",
    "check_replay",
    "merge_replays",
    "replay_batch",
    "replay_scenario",
    "replay_tasks",
    "run_tasks",
]

#: One replay to run: a scenario and the parameter it freezes (or None).
ReplayJob = tuple[ShockScenario, "str | None"]


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
                  beta_max: float) -> np.ndarray:
    """Worst fraction of the margin to a bound consumed along each row
    of ``values``.

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
    return used.max(axis=-1)


def _replay_chunk_task(ctx: ReplayContext, scenario: ShockScenario,
                       seed: int, start: int, stop: int,
                       frozen: str | None = None
                       ) -> list[TrajectoryResult]:
    """Replay trajectories ``start..stop-1`` — a pure, picklable task.

    The chunk's displacements are drawn at once
    (:meth:`~repro.scenarios.shocks.ShockScenario.displacement_blocks`)
    and evaluated as one ``(trajectories * steps x dim)`` block: one
    clip per parameter, one row-wise norm, one row-exact
    :meth:`~repro.core.mappings.FeatureMapping.value_rows` call and one
    row-wise drawdown max per feature.  Every step is a row of its own,
    so the chunk's bounds never change a trajectory.  ``frozen`` names
    one perturbation parameter whose displacement is suppressed (held at
    its original value) — the ablation lever.
    """
    pspace = ctx.pspace()
    trajectories = range(start, stop)
    shape = (len(trajectories), scenario.n_steps)
    rows = shape[0] * shape[1]
    disp = scenario.displacement_blocks(seed, trajectories, ctx.params)
    flats = np.tile(pspace.pi_orig, (rows, 1))
    for p in ctx.params:
        if p.name != frozen and p.name in disp:
            flats[:, pspace.block_slice(p.name)] = p.clip_to_bounds(
                p.original + disp[p.name]).reshape(rows, p.dimension)
    distances = vector_norm_many(
        pspace.alphas * flats - pspace.p_orig, ctx.norm).reshape(shape)
    violated = np.zeros(shape, dtype=bool)
    drawdowns = []
    for spec in ctx.features:
        values = spec.mapping.value_rows(flats).reshape(shape)
        bounds = spec.feature.bounds
        violated |= ~((bounds.beta_min <= values)
                      & (values <= bounds.beta_max))
        drawdowns.append(_max_drawdown(
            values, spec.mapping.value(pspace.pi_orig), bounds.beta_min,
            bounds.beta_max).tolist())
    firsts = np.where(violated.any(axis=1), violated.argmax(axis=1), -1)
    return [
        TrajectoryResult(
            scenario=scenario.name,
            trajectory=trajectory,
            violations=tuple(steps),
            distances=tuple(row),
            first_violation_step=first if first >= 0 else None,
            max_drawdown={spec.name: drawdown[i]
                          for spec, drawdown in zip(ctx.features,
                                                    drawdowns)},
        )
        for i, (trajectory, steps, row, first) in enumerate(zip(
            trajectories, violated.tolist(), distances.tolist(),
            firsts.tolist()))]


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


def check_replay(ctx: ReplayContext, scenario: ShockScenario, *,
                 seed: int, n_trajectories: int,
                 frozen: str | None = None) -> int:
    """Validate one replay before any task is built; return the seed.

    Raises
    ------
    SpecificationError
        For a negative seed, a non-positive trajectory count, a
        ``frozen`` name that is not a parameter, or a scenario whose
        parameter names or drift directions do not fit ``ctx.params``:
        a bad replay must raise here, not inside workers the supervisor
        would retry.
    """
    seed = check_seed(seed)
    if n_trajectories < 1:
        raise SpecificationError(
            f"n_trajectories must be >= 1, got {n_trajectories}")
    scenario.active_params(ctx.params)
    names = [p.name for p in ctx.params]
    if frozen is not None and frozen not in names:
        raise SpecificationError(
            f"cannot freeze unknown parameter {frozen!r}; have {names}")
    return seed


def replay_tasks(ctx: ReplayContext, jobs: Sequence[ReplayJob], *,
                 seed: int, n_trajectories: int, executor=None
                 ) -> list[Task]:
    """The chunk tasks of several replays, job by job.

    Each job ``(scenario, frozen)`` is cut into the same
    ``min(executor.workers, n_trajectories)`` contiguous trajectory
    chunks (one without an executor); :func:`merge_replays` takes the
    tasks' outputs back in this order.  Jobs are not validated here (see
    :func:`check_replay`).
    """
    chunks = 1 if executor is None else min(executor.workers, n_trajectories)
    cuts = [n_trajectories * i // chunks for i in range(chunks + 1)]
    return [Task(_replay_chunk_task,
                 (ctx, scenario, seed, start, stop, frozen))
            for scenario, frozen in jobs
            for start, stop in zip(cuts, cuts[1:])]


def run_tasks(tasks: Sequence[Task], executor=None,
              costs: Sequence[float] | None = None) -> list:
    """Run ``tasks`` as one batch and return their outputs in task order.

    Without an executor the tasks run in-process.  Through an executor
    they are submitted costliest first when ``costs`` (one estimate per
    task) is given, so the longest tasks start while every worker is
    free; quarantined tasks are re-run in-process, so the outputs never
    contain sentinels.
    """
    tasks = list(tasks)
    if executor is None:
        return [task() for task in tasks]
    # Imported lazily (resilience imports core modules this package sits
    # next to; avoid any chance of a cycle).
    from repro.resilience.supervisor import resolve_task_failures

    order = list(range(len(tasks)))
    if costs is not None:
        order.sort(key=lambda i: -costs[i])
    batch = [tasks[i] for i in order]
    outputs = resolve_task_failures(executor.run(batch), batch,
                                    executor=executor)
    merged = [None] * len(tasks)
    for i, output in zip(order, outputs):
        merged[i] = output
    return merged


def merge_replays(ctx: ReplayContext, jobs: Sequence[ReplayJob],
                  outputs: Sequence[list[TrajectoryResult]], *,
                  rho: float) -> list[ReplayResult]:
    """Each job's :class:`ReplayResult` from its chunks' outputs, in the
    order :func:`replay_tasks` built them."""
    per_job = len(outputs) // len(jobs)
    results = []
    for j, (scenario, _) in enumerate(jobs):
        chunks = outputs[j * per_job:(j + 1) * per_job]
        # Workers return private copies of the scenario-name and
        # feature-name strings; re-point every trajectory at the
        # caller's instances so the merged result pickles
        # byte-identically to a serial run (pickle memoizes shared
        # references, so copies change the bytes).
        trajectories = tuple(
            replace(t, scenario=scenario.name,
                    max_drawdown={spec.name: t.max_drawdown[spec.name]
                                  for spec in ctx.features})
            for chunk in chunks for t in chunk)
        result = ReplayResult(scenario=scenario, trajectories=trajectories,
                              rho=float(rho))
        emit_event("lab.replayed", scenario=scenario.name,
                   trajectories=len(trajectories),
                   violation_rate=result.violation_rate)
        results.append(result)
    return results


def replay_batch(ctx: ReplayContext, jobs: Sequence[ReplayJob], *,
                 seed: int, n_trajectories: int, rho: float,
                 executor=None) -> list[ReplayResult]:
    """Replay jobs (validated by :func:`check_replay`) as one batch under
    a ``lab.replay`` span: :func:`replay_tasks`, :func:`run_tasks`,
    :func:`merge_replays`."""
    tasks = replay_tasks(ctx, jobs, seed=seed,
                         n_trajectories=n_trajectories, executor=executor)
    with span("lab.replay",
              scenario=",".join(dict.fromkeys(s.name for s, _ in jobs)),
              frozen=",".join(f for _, f in jobs if f),
              trajectories=n_trajectories, shards=len(tasks)):
        outputs = run_tasks(tasks, executor)
    return merge_replays(ctx, jobs, outputs, rho=rho)


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

    The one-job case of :func:`replay_batch`.

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
        As :func:`check_replay`, before any task runs.
    """
    seed = check_replay(ctx, scenario, seed=seed,
                        n_trajectories=n_trajectories, frozen=frozen)
    (result,) = replay_batch(ctx, [(scenario, frozen)], seed=seed,
                             n_trajectories=n_trajectories, rho=rho,
                             executor=executor)
    return result
