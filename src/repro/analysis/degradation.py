"""Degradation curves: rho as a function of the requirement ``beta``.

The paper's headline artifact is not a point estimate but the *curve* —
how the robustness metric decays as the QoS requirement tightens (E11's
rho-vs-beta sweep).  Every operating point of such a sweep shares all of
its geometry with its neighbours: the mappings, origins, boxes, and norm
are fixed and only the tolerance bounds move.  :func:`degradation_curve`
exploits that by grouping the sweep into *problem families* (one per
feature, plus one per feature x parameter for radius-dependent
weightings), walking each family's operating points in order.  Under a
stateless seed a family whose points share a directional tier (bisection
or numeric) is solved as one
:class:`~repro.core.solvers.tensor.ProblemTensor` group: one lock-step
expansion and one batched refinement for the whole walk.  A bisection family also threads a
:class:`~repro.core.solvers.warm.WarmStart` through the walk, so each
bound replays the previous points' ray probes instead of re-evaluating
the mapping; the numeric tier keeps no warm state.  Family and warm
radii are bit-identical to cold per-point solves (pinned by
``tests/core/test_warm_solvers.py`` and
``tests/analysis/test_degradation.py``), so cache entries, reports, and
goldens are unaffected — the sweep is just cheaper.

Families fan out over a process pool when an executor is available;
points stay *ordered within* a family's task, so warm-starts survive
the fan-out (each worker walks its own families serially).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.features import ToleranceBounds
from repro.core.fepia import FeatureSpec, RobustnessAnalysis
from repro.core.radius import (
    RadiusProblem,
    RadiusResult,
    _cache_pass,
    compute_radius,
)
from repro.core.solvers.warm import WarmStart
from repro.exceptions import SpecificationError
from repro.observability import get_metrics, span
from repro.parallel.executor import Task
from repro.utils.ascii_plot import line_plot

__all__ = ["CurvePoint", "DegradationCurve", "degradation_curve"]


@dataclass(frozen=True)
class CurvePoint:
    """One operating point of a degradation curve.

    Attributes
    ----------
    beta:
        The requirement multiplier this point was evaluated at.
    rho:
        The robustness metric at this requirement: the minimum P-space
        radius over the curve's features, or ``0.0`` at an infeasible
        point (the original operating point already violates a bound —
        there is no robust region left to measure).
    feasible:
        Whether the original operating point satisfies every feature's
        bounds at this requirement.
    radii:
        Per-feature P-space radii (empty at an infeasible point).
    critical:
        Name of the feature attaining ``rho`` (ties: declaration order),
        ``None`` at an infeasible point.
    """

    beta: float
    rho: float
    feasible: bool
    radii: dict
    critical: str | None


@dataclass(frozen=True)
class DegradationCurve:
    """A walked degradation curve plus its warm-start accounting.

    ``stats`` reports ``points`` / ``feasible`` counts, the number of
    problem ``families`` walked, total ``solves`` dispatched, and the
    aggregated ``warm_starts`` / ``warm_hits`` counters (a *hit* is a
    solve whose bracket location needed zero fresh batched mapping
    evaluations).
    """

    feature: str | None
    betas: tuple
    points: tuple
    stats: dict

    def rhos(self) -> list[float]:
        """The rho value of every point, in beta order."""
        return [p.rho for p in self.points]

    def plot(self, *, width: int = 64, height: int = 16,
             title: str | None = None) -> str:
        """ASCII rendering of the curve (needs at least two points)."""
        if title is None:
            what = self.feature if self.feature is not None else "rho"
            title = f"{what} vs beta"
        return line_plot([p.beta for p in self.points], self.rhos(),
                         xlabel="beta", ylabel="rho", title=title,
                         width=width, height=height)


def _walk_family(
    family: str,
    items: Sequence[tuple[float, RadiusProblem]],
    method: str,
    seed,
    use_warm: bool,
    cache,
) -> tuple[list[RadiusResult], dict]:
    """Solve one family's operating points in order, sharing warm state.

    Picklable unit of work: a family walks as *one* task so its points
    stay ordered and the :class:`WarmStart` threads through every solve
    even when families fan out across processes.
    """
    warm = WarmStart() if use_warm else None
    results: list[RadiusResult] | None = None
    if len(items) >= 2 and not isinstance(seed, np.random.Generator):
        # A family shares its whole geometry across points — exactly one
        # ProblemTensor group.  Directional families ride the tensor
        # kernel: one flattened expansion (or, bisection tier, one
        # warm-table replay) and one batched refinement for the entire
        # walk, with the same warm-start accounting the per-point path
        # keeps per bound.  The points keep compute_radius's cache pass;
        # the misses are solved as one tensor, whose warm ray table binds
        # the shared geometry exactly as the per-point walk would bind it.
        from repro.core.solvers.tensor import (
            ProblemTensor,
            solve_problem_tensor,
        )

        problems = [problem for _, problem in items]
        keys = {ProblemTensor.batch_key(p, method) for p in problems}
        if len(keys) == 1 and None not in keys:
            with span("curve.family", family=family, points=len(items)):
                results = _cache_pass(
                    problems,
                    lambda misses: solve_problem_tensor(
                        ProblemTensor.pack(misses, method), seed=seed,
                        warm=warm) if misses else [],
                    method=method, seed=seed, cache=cache)
    if results is None:
        results = []
        for beta, problem in items:
            with span("curve.point", family=family, beta=float(beta)):
                results.append(compute_radius(problem, method=method,
                                              seed=seed, cache=cache,
                                              warm=warm))
    if warm is None:
        return results, {"warm_starts": 0, "warm_hits": 0}
    return results, {"warm_starts": warm.warm_starts,
                     "warm_hits": warm.warm_hits}


def _solve_families(
    families: list[tuple[str, list[tuple[float, RadiusProblem]]]],
    analysis: RobustnessAnalysis,
    executor,
    use_warm: bool,
) -> tuple[dict[str, list[RadiusResult]], dict]:
    """Dispatch family walks, fanned out when an executor allows it."""
    totals = {"warm_starts": 0, "warm_hits": 0, "solves": 0}
    out: dict[str, list[RadiusResult]] = {}
    if not families:
        return out, totals
    cache = analysis.radius_cache
    fan_out = (executor is not None
               and getattr(executor, "workers", 1) > 1
               and len(families) > 1
               and not isinstance(analysis.seed, np.random.Generator))
    if fan_out:
        # Workers keep their own default caches (a RadiusCache does not
        # cross process boundaries); an explicit False still disables.
        task_cache = cache if cache is False else None
        from repro.resilience.supervisor import resolve_task_failures

        tasks = [Task(_walk_family, (name, items, analysis.method,
                                     analysis.seed, use_warm, task_cache))
                 for name, items in families]
        solved = resolve_task_failures(executor.run(tasks), tasks,
                                       executor=executor)
    else:
        solved = [_walk_family(name, items, analysis.method, analysis.seed,
                               use_warm, cache)
                  for name, items in families]
    for (name, items), (results, stats) in zip(families, solved):
        out[name] = results
        totals["solves"] += len(items)
        totals["warm_starts"] += stats["warm_starts"]
        totals["warm_hits"] += stats["warm_hits"]
    return out, totals


def degradation_curve(
    analysis: RobustnessAnalysis,
    feature: "FeatureSpec | str | None" = None,
    betas: Sequence[float] = (),
    *,
    bounds_for: Callable[[FeatureSpec, float], ToleranceBounds] | None = None,
    executor=None,
    warm: bool = True,
) -> DegradationCurve:
    """Walk an analysis through a requirement sweep, warm-starting solves.

    For each ``beta``, every curve feature's tolerance bounds are moved
    (by default to ``<-inf, beta * phi_orig>``, the paper's relative
    requirement for upper-bounded features) and the robustness metric is
    recomputed.  Neighbouring operating points share all solver geometry,
    so under a stateless seed a directional family is solved as one
    tensor group (one lock-step expansion and one batched refinement for
    the walk), and a bisection family also threads a
    :class:`~repro.core.solvers.warm.WarmStart` through its solves, its
    brackets replaying the previous points' ray probes.  The results are
    **bit-identical** to cold solves — a 100-point sweep costs about a
    handful of cold solves in mapping evaluations.

    Parameters
    ----------
    analysis:
        The template analysis; it is not mutated.  Its method, norm,
        seed, weighting, physical-bounds flag, and radius cache carry
        over to every operating point.
    feature:
        Restrict the curve to one feature (name or spec).  ``None``
        sweeps every feature and reports ``rho = min_i r(phi_i, P)``.
    betas:
        Requirement multipliers, walked in the order given — pass them
        monotone for the warm-start to pay off.
    bounds_for:
        Optional ``(spec, beta) -> ToleranceBounds`` override for
        features whose requirement is not an upper bound scaled off the
        original value.
    executor:
        Optional :class:`~repro.parallel.executor.ParallelExecutor` for
        per-family fan-out (defaults to the analysis's own); points stay
        ordered within each family's task, so warm-starts survive the
        fan-out.
    warm:
        ``False`` forces cold solves (the bench harness uses this to
        measure the cold baseline; results are identical either way).

    Returns
    -------
    DegradationCurve

    Notes
    -----
    Operating points where the original feature value already violates
    its moved bounds (e.g. ``beta <= 1`` for an upper-bounded feature)
    are reported as infeasible ``rho = 0`` points rather than raising —
    a curve may cross the feasibility boundary.  A configured
    :class:`~repro.resilience.cascade.SolverCascade` is honoured but
    bypasses warm-starting (its retry state is per-solve).
    """
    betas = [float(b) for b in betas]
    if not betas:
        raise SpecificationError("need at least one beta")
    specs = (list(analysis.features) if feature is None
             else [analysis._get_spec(feature)])
    feature_name = None if feature is None else specs[0].name

    with span("analysis.curve", points=len(betas),
              feature=feature_name or "*"):
        phi_orig = {
            spec.name: float(spec.mapping.value(analysis.pi_orig))
            for spec in specs
        }
        if bounds_for is None:
            def bounds_for(spec: FeatureSpec, beta: float) -> ToleranceBounds:
                return ToleranceBounds.upper(beta * phi_orig[spec.name])

        point_bounds = [{spec.name: bounds_for(spec, beta) for spec in specs}
                        for beta in betas]
        feasible = [
            all(bounds[spec.name].contains(phi_orig[spec.name])
                for spec in specs)
            for bounds in point_bounds
        ]
        clones: list[RobustnessAnalysis | None] = [
            analysis.with_feature_bounds(bounds) if ok else None
            for bounds, ok in zip(point_bounds, feasible)
        ]
        get_metrics().inc("curve.points", len(betas))
        get_metrics().inc("curve.infeasible_points",
                          sum(1 for ok in feasible if not ok))

        totals = {"warm_starts": 0, "warm_hits": 0, "solves": 0}
        if analysis.cascade is not None:
            # The cascade owns its own retry/timeout state per solve;
            # walk each operating point through it cold.
            for clone in clones:
                if clone is None:
                    continue
                for spec in specs:
                    # By name: the clone's spec carries this point's
                    # bounds, the template spec the original ones.
                    clone.radius(spec.name)
                    totals["solves"] += 1
        else:
            executor = executor if executor is not None else analysis.executor
            walked = list(enumerate(clones))
            walked = [(i, c) for i, c in walked if c is not None]
            if analysis.weighting.requires_radii:
                # Stage 1 (Eq. 1): per-(feature, parameter) families feed
                # the radius-dependent weighting before any P-space
                # problem can even be built.
                families = []
                for spec in specs:
                    for p in analysis.params:
                        items = [(betas[i],
                                  clone._single_parameter_problem(
                                      clone._get_spec(spec.name), p))
                                 for i, clone in walked]
                        families.append((f"{spec.name}/{p.name}", items))
                solved, stage = _solve_families(families, analysis,
                                                executor, warm)
                for key, value in stage.items():
                    totals[key] += value
                for spec in specs:
                    for p in analysis.params:
                        results = solved[f"{spec.name}/{p.name}"]
                        for (i, clone), result in zip(walked, results):
                            clone._per_param_cache[(spec.name, p.name)] = \
                                result
            # Stage 2 (Eq. 2): per-feature P-space families.
            families = []
            membership: dict[str, list[int]] = {}
            for spec in specs:
                items = []
                members = []
                for i, clone in walked:
                    clone_spec = clone._get_spec(spec.name)
                    if analysis.weighting.requires_radii \
                            and not clone._effective_params(clone_spec)[0]:
                        # Insensitive at this operating point: the clone
                        # reports an infinite radius without solving.
                        continue
                    items.append((betas[i], clone.pspace_problem(clone_spec)))
                    members.append(i)
                if items:
                    families.append((spec.name, items))
                    membership[spec.name] = members
            solved, stage = _solve_families(families, analysis, executor,
                                            warm)
            for key, value in stage.items():
                totals[key] += value
            by_index = {i: clone for i, clone in walked}
            for name, results in solved.items():
                for i, result in zip(membership[name], results):
                    by_index[i]._radius_cache[name] = result

        points = []
        for i, beta in enumerate(betas):
            clone = clones[i]
            if clone is None:
                points.append(CurvePoint(beta=beta, rho=0.0, feasible=False,
                                         radii={}, critical=None))
                continue
            radii = {spec.name: clone.radius(spec.name).radius
                     for spec in specs}
            rho = min(radii.values())
            critical = next(spec.name for spec in specs
                            if radii[spec.name] == rho)
            points.append(CurvePoint(beta=beta, rho=rho, feasible=True,
                                     radii=radii, critical=critical))

        stats = {
            "points": len(betas),
            "feasible": sum(1 for ok in feasible if ok),
            "families": _count_families(analysis, specs, feasible),
        }
        stats.update(totals)
    return DegradationCurve(feature=feature_name, betas=tuple(betas),
                            points=tuple(points), stats=stats)


def _count_families(analysis: RobustnessAnalysis,
                    specs: list[FeatureSpec],
                    feasible: list[bool]) -> int:
    """Number of warm-start families a curve walk decomposes into."""
    if not any(feasible) or analysis.cascade is not None:
        return 0
    n = len(specs)
    if analysis.weighting.requires_radii:
        n += len(specs) * len(analysis.params)
    return n
