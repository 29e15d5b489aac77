"""Robustness radius computation (FePIA step 4, Equations 1 and 2).

The robustness radius of a feature ``phi`` against a perturbation vector is
the minimum distance from the original perturbation values to the boundary
set ``{x : f(x) = beta_min or f(x) = beta_max}``:

    r = min over finite bounds b of  min_{x : f(x)=b} ||x - x_orig|| .

:func:`compute_radius` dispatches on the mapping's structure: affine
features go to the exact hyperplane solver, and positive-definite
quadratics (unboxed, Euclidean) to the exact ellipsoid projection in their
centred, rotated frame; everything else goes through a multistart numeric
projection seeded by directional bisection, or directional bisection
itself under the 1- and inf-norms.  A bound
whose level set is unreachable contributes ``inf``; if *no* finite bound is
reachable, the radius is infinite (the allocation can never be driven out
of specification by these perturbations).

Every path that produces a radius — :func:`compute_radius`,
:func:`compute_radii`, the tensor kernel, the radius cache and the
:class:`~repro.resilience.cascade.SolverCascade` — shares one pipeline:
:func:`_tier_ladder` decides the solver tiers a problem walks and
:data:`_SOLVERS` holds one solver per tier; :func:`_cache_pass` serves
cached radii and stores fresh ones; :func:`_preflight` and :func:`_fold`
turn per-bound crossings into a :class:`RadiusResult`.  A pooled
:func:`compute_radii` batch is cut by :func:`_worker_shards`, which
prices each structural group (:func:`_estimate_ms`) and splits across
workers only the groups worth another pool round trip.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Literal, Sequence, get_args

import numpy as np

from repro.core.boundary import (
    BoundaryCrossing,
    EllipsoidFrame,
    as_ellipsoid,
    as_linear,
)
from repro.core.diagnostics import Quality, SolverAttempt, quality_of_method
from repro.core.features import ToleranceBounds
from repro.core.mappings import FeatureMapping, LinearMapping
from repro.core.solvers.analytic import solve_linear_radius
from repro.core.solvers.bisection import solve_bisection_radius
from repro.core.solvers.box_linear import solve_linear_box_radius
from repro.core.solvers.ellipsoid import solve_ellipsoid_frame
from repro.core.solvers.numeric import solve_numeric_radius
from repro.exceptions import (
    BoundaryNotFoundError,
    InfeasibleAllocationError,
    SpecificationError,
)
from repro.observability import emit_event, get_metrics, span
from repro.parallel.cache import resolve_cache
from repro.parallel.executor import Task
from repro.utils.validation import as_1d_float_array, check_finite

__all__ = ["RadiusProblem", "RadiusResult", "compute_radius", "compute_radii"]

logger = logging.getLogger(__name__)

Method = Literal["auto", "analytic", "numeric", "bisection"]


def _check_method(method) -> None:
    """Reject a solve ``method`` that is not a :data:`Method`.

    :func:`_tier_ladder` would read any unknown string as ``"numeric"``
    and silently solve with it, so the entry points check first.
    """
    if method not in get_args(Method):
        raise SpecificationError(
            f"unknown method {method!r}; use one of "
            f"{', '.join(map(repr, get_args(Method)))}")


@dataclass(frozen=True)
class RadiusProblem:
    """A fully-specified robustness-radius computation.

    Attributes
    ----------
    mapping:
        The impact function ``f`` of the feature under study, over the flat
        perturbation vector being searched (pi-space or P-space).
    origin:
        The original values of that vector (``pi_orig`` or ``P_orig``).
    bounds:
        The feature's tolerable-variation interval.
    lower, upper:
        Optional box bounds restricting the search to physically reachable
        perturbations (``None`` reproduces the paper's unconstrained
        geometry).
    norm:
        Distance norm ``p`` in {1, 2, inf}; the paper uses the Euclidean
        norm (2).
    """

    mapping: FeatureMapping
    origin: np.ndarray
    bounds: ToleranceBounds
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    norm: float = 2

    def __post_init__(self) -> None:
        if not isinstance(self.mapping, FeatureMapping):
            raise SpecificationError(
                f"mapping must be a FeatureMapping, got {type(self.mapping).__name__}")
        if not isinstance(self.bounds, ToleranceBounds):
            raise SpecificationError(
                f"bounds must be a ToleranceBounds, got {type(self.bounds).__name__}")
        origin = check_finite(as_1d_float_array(self.origin, name="origin"),
                              name="origin")
        if origin.size != self.mapping.n_inputs:
            raise SpecificationError(
                f"origin has length {origin.size} but mapping expects "
                f"{self.mapping.n_inputs}")
        object.__setattr__(self, "origin", origin)
        for attr in ("lower", "upper"):
            value = getattr(self, attr)
            if value is None:
                continue
            bound = as_1d_float_array(value, name=attr)
            if bound.size != origin.size:
                raise SpecificationError(
                    f"{attr} has length {bound.size}, expected {origin.size}")
            object.__setattr__(self, attr, bound)
        if self.norm not in (1, 2, math.inf, np.inf, "inf"):
            raise SpecificationError(
                f"unsupported norm {self.norm!r}; use 1, 2 or inf")

    @property
    def original_value(self) -> float:
        """Feature value at the original point, ``f(x_orig)``."""
        return self.mapping.value(self.origin)


@dataclass(frozen=True)
class RadiusResult:
    """Result of a robustness-radius computation.

    Attributes
    ----------
    radius:
        The robustness radius (``inf`` when no tolerance bound is reachable).
    boundary_point:
        The witness boundary point ``pi*``/``P*`` realising the radius,
        or ``None`` for an infinite radius.
    bound_hit:
        Which bound value (``beta_min`` or ``beta_max``) the witness attains.
    method:
        The solver that produced the winning answer
        (``"analytic" | "numeric" | "bisection" | "degenerate"``).
    original_value:
        Feature value at the original point.
    per_bound:
        Mapping from each finite bound value to the distance found for it
        (``inf`` for unreachable bounds), for diagnostic reporting.
    quality:
        How trustworthy the radius is (see
        :class:`~repro.core.diagnostics.Quality`): closed-form answers are
        ``EXACT``, verified numeric projections ``CONVERGED``, degraded
        answers rigorous ``UPPER_BOUND``\\s, and ``FAILED`` results carry a
        NaN radius.
    diagnostics:
        Chronological :class:`~repro.core.diagnostics.SolverAttempt` trail
        of every solver invocation behind this result, including failures
        that used to be swallowed silently.
    """

    radius: float
    boundary_point: np.ndarray | None
    bound_hit: float | None
    method: str
    original_value: float
    per_bound: dict = field(default_factory=dict)
    quality: Quality = Quality.EXACT
    diagnostics: tuple[SolverAttempt, ...] = ()

    @property
    def is_finite(self) -> bool:
        """Whether the radius is finite (some bound is reachable)."""
        return math.isfinite(self.radius)

    @property
    def is_degraded(self) -> bool:
        """Whether the result is weaker than a converged radius."""
        return self.quality in (Quality.UPPER_BOUND, Quality.FAILED)


#: Tiers with a closed-form answer: exact, and they never draw from the seed.
_CLOSED_FORM = frozenset({"analytic", "analytic-box", "ellipsoid"})

#: One solver per tier, called as ``(problem, form, bound, seed, warm)``.
#: ``form`` is the affine view or the ellipsoid frame the closed-form tiers
#: solve over (see :func:`_tier_ladder`); ``warm`` is an optional
#: :class:`~repro.core.solvers.warm.WarmStart` the bisection tier replays
#: (the other tiers keep no warm state).
_SOLVERS = {
    "analytic": lambda p, form, b, seed, warm: solve_linear_radius(
        form, p.origin, b, norm=p.norm, lower=p.lower, upper=p.upper),
    "analytic-box": lambda p, form, b, seed, warm: solve_linear_box_radius(
        form, p.origin, b, lower=p.lower, upper=p.upper),
    "ellipsoid": lambda p, form, b, seed, warm: solve_ellipsoid_frame(
        form, p.origin, b),
    "numeric": lambda p, form, b, seed, warm: solve_numeric_radius(
        p.mapping, p.origin, b, lower=p.lower, upper=p.upper, seed=seed),
    "bisection": lambda p, form, b, seed, warm: solve_bisection_radius(
        p.mapping, p.origin, b, norm=p.norm, lower=p.lower, upper=p.upper,
        seed=seed, warm=warm),
}


def _tier_ladder(problem: RadiusProblem, method: str
                 ) -> tuple[tuple[str, ...],
                            LinearMapping | EllipsoidFrame | None]:
    """The ordered solver tiers ``problem`` walks per bound under ``method``.

    Returns ``(ladder, form)``.  Each bound tries the ladder's tiers in
    order and keeps the first crossing found; otherwise the last tier's
    answer stands.  ``form`` is the affine view
    (:class:`~repro.core.mappings.LinearMapping`) or the
    :class:`~repro.core.boundary.EllipsoidFrame` the closed-form tiers
    solve over (``None`` for a directional ladder).

    * An affine mapping under ``"auto"`` or ``"analytic"`` takes the exact
      hyperplane solver.  Under ``"auto"`` with a box, the Euclidean norm
      takes the exact clamped-multiplier projection (``analytic-box``);
      other norms try the unboxed hyperplane and fall through to
      bisection when the box keeps it out of reach.
    * A positive-definite quadratic ``x'Qx + k.x + c`` under ``"auto"``,
      unboxed and Euclidean, directly or through a
      :class:`~repro.core.mappings.ReweightedMapping`, takes the exact
      ellipsoid projection in its centred, rotated frame
      (:func:`~repro.core.boundary.as_ellipsoid`; a semidefinite,
      indefinite or ill-conditioned ``Q`` does not qualify, nor a problem
      whose frame does not :meth:`~repro.core.boundary.EllipsoidFrame.holds`
      its radius to ``FRAME_RTOL``).
    * Everything else takes directional bisection (forced, or any
      non-Euclidean norm: the numeric projection minimises the Euclidean
      distance only) or the numeric multistart.

    Raises
    ------
    SpecificationError
        For ``method="analytic"`` on a mapping that is not structurally
        affine.
    """
    has_box = problem.lower is not None or problem.upper is not None
    if method in ("auto", "analytic"):
        linear = as_linear(problem.mapping)
        if linear is not None:
            if method == "analytic" or not has_box:
                return ("analytic",), linear
            if problem.norm == 2:
                return ("analytic-box",), linear
            return ("analytic", "bisection"), linear
        if method == "analytic":
            raise SpecificationError(
                "method='analytic' requires a structurally affine mapping; "
                f"got {type(problem.mapping).__name__}")
        if problem.norm == 2 and not has_box:
            frame = as_ellipsoid(problem.mapping)
            if frame is not None and frame.holds(
                    problem.origin, problem.bounds.finite_bounds):
                return ("ellipsoid",), frame
    if method == "bisection" or problem.norm != 2:
        return ("bisection",), None
    return ("numeric",), None


def _timed_solve(solver: str, bound: float, fn,
                 trail: list[SolverAttempt]) -> BoundaryCrossing | None:
    """Run one solver call, recording its attempt (success or suppressed
    :class:`BoundaryNotFoundError`) in the diagnostics trail."""
    t0 = time.perf_counter()
    try:
        crossing = fn()
    except BoundaryNotFoundError as exc:
        trail.append(SolverAttempt(
            solver=solver, bound=float(bound), attempt=1,
            elapsed=time.perf_counter() - t0, outcome="unreachable",
            detail=str(exc)))
        logger.debug("solver %s found no boundary at %g: %s",
                     solver, bound, exc)
        return None
    trail.append(SolverAttempt(
        solver=solver, bound=float(bound), attempt=1,
        elapsed=time.perf_counter() - t0, outcome="ok",
        detail=f"distance={crossing.distance:.6g}"))
    return crossing


def _preflight(problem: RadiusProblem) -> tuple[float, RadiusResult | None]:
    """Count one solve and check the original operating point.

    Returns ``(f(x_orig), degenerate)``: ``degenerate`` is the zero radius
    (by definition) when the original point sits exactly on a finite
    bound, else ``None``.

    Raises
    ------
    InfeasibleAllocationError
        If the feature already violates its tolerance interval at the
        original point — there is no robust region to measure.
    """
    get_metrics().inc("radius.solves")
    value0 = problem.original_value
    if not problem.bounds.contains(value0):
        raise InfeasibleAllocationError(
            f"feature value {value0:g} violates the tolerance interval "
            f"[{problem.bounds.beta_min:g}, {problem.bounds.beta_max:g}] at "
            "the original operating point; robustness is undefined")
    for b in problem.bounds.finite_bounds:
        if value0 == b:
            return value0, RadiusResult(
                radius=0.0, boundary_point=problem.origin.copy(),
                bound_hit=b, method="degenerate", original_value=value0,
                per_bound={b: 0.0}, quality=Quality.EXACT)
    return value0, None


def _fold(problem: RadiusProblem, method: str,
          preflight: tuple[float, RadiusResult | None],
          solve_bound) -> RadiusResult:
    """Equations 1–2: the minimum over the finite bounds of the distance to
    each bound's level set, counted under ``radius.method.<winner>``.

    ``preflight`` is :func:`_preflight`'s answer (a degenerate problem
    solves no bound).  ``solve_bound(bound, trail)`` returns one bound's
    ``(crossing | None, tier)`` and runs inside that bound's
    ``radius.bound`` span.
    """
    value0, result = preflight
    if result is None:
        best: BoundaryCrossing | None = None
        best_method = method
        per_bound: dict[float, float] = {}
        trail: list[SolverAttempt] = []
        quality = Quality.EXACT
        for b in problem.bounds.finite_bounds:
            with span("radius.bound", bound=float(b)) as sp:
                crossing, used = solve_bound(b, trail)
                if sp is not None:
                    sp.tags["solver"] = used
                    sp.tags["found"] = crossing is not None
            # The radius is exact only if every bound was resolved by an
            # exact solver; one numeric/bisection answer degrades the claim.
            quality = max(quality, quality_of_method(used),
                          key=list(Quality).index)
            per_bound[b] = crossing.distance if crossing is not None \
                else math.inf
            if crossing is not None and (best is None
                                         or crossing.distance < best.distance):
                best, best_method = crossing, used
        result = RadiusResult(
            radius=math.inf if best is None else best.distance,
            boundary_point=None if best is None else best.point,
            bound_hit=None if best is None else best.bound,
            method=best_method, original_value=value0, per_bound=per_bound,
            quality=quality, diagnostics=tuple(trail))
    get_metrics().inc(f"radius.method.{result.method}")
    return result


def _solve_problem(problem: RadiusProblem, method: str, seed,
                   warm=None) -> RadiusResult:
    """One uncached solve: preflight, then each bound walks the problem's
    tier ladder until a tier finds a crossing (the last tier's answer
    stands otherwise).

    Every solver invocation — including the ones whose
    :class:`BoundaryNotFoundError` is absorbed into an infinite per-bound
    distance — lands in the diagnostics trail.
    """
    ladder, form = _tier_ladder(problem, method)

    def solve_one_bound(bound, trail):
        for tier in ladder:
            logger.debug("bound %g: dispatching to %s solver", bound, tier)
            crossing = _timed_solve(
                tier, bound,
                lambda: _SOLVERS[tier](problem, form, bound, seed, warm),
                trail)
            if crossing is not None:
                break
        return crossing, tier

    return _fold(problem, method, _preflight(problem), solve_one_bound)


def _cache_pass(problems: list[RadiusProblem], solve, *, method, seed,
                cache) -> list[RadiusResult]:
    """Serve ``problems`` through ``cache``, solving only the misses.

    ``cache`` follows the tri-state convention of
    :func:`~repro.parallel.cache.resolve_cache`.  Each problem is keyed
    and looked up in order; ``solve(misses)`` returns the misses' results
    in order (it runs even when nothing missed), and the fresh results are
    stored back.  ``method`` is the key's solver token (see
    :meth:`~repro.parallel.cache.RadiusCache.key`).
    """
    cache = resolve_cache(cache)
    keys: list[str | None] = [None] * len(problems)
    results: list[RadiusResult | None] = [None] * len(problems)
    if cache is not None:
        for i, problem in enumerate(problems):
            keys[i] = cache.key(problem, method=method, seed=seed)
            results[i] = cache.get(keys[i])
    pending = [i for i, r in enumerate(results) if r is None]
    for i, result in zip(pending, solve([problems[i] for i in pending])):
        results[i] = result
    if cache is not None:
        for i in pending:
            cache.put(keys[i], results[i])
    return results


def compute_radius(problem: RadiusProblem, *, method: Method = "auto",
                   seed=None, cache=None, warm=None) -> RadiusResult:
    """Compute the robustness radius for ``problem``.

    Parameters
    ----------
    problem:
        The radius computation to perform.
    method:
        ``"auto"`` (default) walks the problem's tier ladder (see
        :func:`_tier_ladder`): the exact solvers for affine features and,
        unboxed under the Euclidean norm, for every positive-definite
        quadratic; the numeric projection or directional bisection
        otherwise.  ``"analytic"``, ``"numeric"`` and
        ``"bisection"`` force a specific solver.
    seed:
        Seed for the stochastic components (multistart, random directions).
    cache:
        A :class:`~repro.parallel.cache.RadiusCache` to consult before
        solving (and populate after), ``None`` to defer to the installed
        process-wide default cache, or ``False`` to disable caching for
        this call.  Cached answers are bit-identical to fresh solves.
    warm:
        Optional :class:`~repro.core.solvers.warm.WarmStart` shared by a
        family of solves that differ only in their bounds (a degradation
        curve walking one problem through its operating points).  The
        bisection tier replays memoised ray probes instead of
        re-evaluating the mapping; results are bit-identical to cold
        solves, which is why warm state never enters cache keys — a
        warm-started solve records (and hits) the *same*
        :class:`~repro.parallel.cache.RadiusCache` entry as its cold
        twin.

    Returns
    -------
    RadiusResult

    Raises
    ------
    InfeasibleAllocationError
        If the feature already violates its tolerance interval at the
        original point — there is no robust region to measure.
    SpecificationError
        For an unknown ``method``, or ``method="analytic"`` on a mapping
        that is not structurally affine.
    """
    _check_method(method)
    with span("radius.solve", method=method, dim=problem.origin.size) as sp:
        [result] = _cache_pass(
            [problem],
            lambda misses: [_solve_problem(p, method, seed, warm)
                            for p in misses],
            method=method, seed=seed, cache=cache)
        if sp is not None:
            sp.tags["solver"] = result.method
            sp.tags["quality"] = result.quality.name
    return result


#: Estimated in-process cost, in ms, of solving one bound of one problem
#: by tier and dimension (the bisection tier's per-problem work scales
#: with its ``2 * dim + 128`` directions), and of one directional tensor
#: (its direction matrix, lock-step expansion and Brent rounds).
#: Calibrated in docs/PERFORMANCE.md.
_BOUND_MS = {
    "analytic": lambda dim: 0.015,
    "ellipsoid": lambda dim: 0.1,
    "numeric": lambda dim: 9.0 * dim,
    "bisection": lambda dim: 1e-3 * (2 * dim + 128) * (1.0 + 0.1 * dim),
}
_TENSOR_MS = 0.9
#: Estimated cost below which cutting a group across two workers does
#: not pay: the extra pool round trip (publish, decode, a repeated
#: tensor set-up) eats the halved solve.  It applies unless a worker
#: would sit idle in a batch that goes to the pool anyway; there a cut
#: only adds a task run in parallel, and any group worth more than its
#: share is cut (see :func:`compute_radii`).
_CUT_MS = 4.0


def _estimate_ms(structure: tuple, problems: int) -> float:
    """Estimated cost of solving ``problems`` problems of one
    :func:`_solver_structure` as one tensor (or one closed-form loop)."""
    tier, dim, bounds = structure
    fixed = _TENSOR_MS if tier in ("bisection", "numeric") else 0.0
    return fixed + problems * bounds * _BOUND_MS[tier](dim)


class _Shard(list):
    """One executor task's problem indices, with its estimated cost in ms
    (``None`` when the groups came unpriced)."""

    def __init__(self, indices, cost: float | None = None) -> None:
        super().__init__(indices)
        self.cost = cost


def _worker_shards(group_indices: list[list[int]], workers: int,
                   structures: list[tuple] | None = None,
                   subgroups=None, break_even: float = _CUT_MS
                   ) -> list[_Shard]:
    """Split structural groups into executor shards, costliest first.

    Every group is one shard unless it is priced and worth cutting:
    ``structures[g]`` is group ``g``'s :func:`_solver_structure` key, from
    which :func:`_estimate_ms` prices it.  A group is cut only when its
    estimate exceeds both the per-worker share of the batch (total /
    ``workers``) and ``break_even`` (ms), into ``ceil(estimate / share)``
    (at most ``workers``) pieces.  The pieces follow the group's tensor
    sub-groups, ``subgroups(indices)`` (required with ``structures``),
    which is called only for a group being cut (see :func:`_cut_group`).
    Shard boundaries never change results: element ``i`` is bit-identical
    to ``compute_radius(problems[i])`` regardless of grouping.
    """
    if structures is None:
        return [_Shard(idxs) for idxs in group_indices]
    costs = [_estimate_ms(structure, len(idxs))
             for structure, idxs in zip(structures, group_indices)]
    share = sum(costs) / workers
    shards: list[_Shard] = []
    for idxs, structure, cost in zip(group_indices, structures, costs):
        if cost <= max(share, break_even):
            shards.append(_Shard(idxs, cost))
            continue
        pieces = min(workers, math.ceil(cost / share))
        shards.extend(_cut_group(subgroups(idxs), structure, pieces))
    shards.sort(key=lambda shard: -shard.cost)
    return shards


def _cut_group(subs: list[list[int]], structure: tuple,
               pieces: int) -> list[_Shard]:
    """Pack one group's tensor sub-groups into ``pieces`` shards.

    Each sub-group stays whole unless it alone exceeds a piece's share of
    the group, in which case it is cut into contiguous slices (each slice
    repeats the tensor's fixed cost).  The items then go, costliest
    first, onto the least-loaded piece.
    """
    share = sum(_estimate_ms(structure, len(sub)) for sub in subs) / pieces
    items: list[list[int]] = []
    for sub in subs:
        cuts = min(pieces,
                   math.ceil(_estimate_ms(structure, len(sub)) / share))
        size = -(-len(sub) // cuts)  # ceil division
        items.extend(sub[k:k + size] for k in range(0, len(sub), size))
    items.sort(key=len, reverse=True)
    bins: list[list[int]] = [[] for _ in range(pieces)]
    loads = [0.0] * pieces
    for item in items:
        j = loads.index(min(loads))
        bins[j].extend(item)
        loads[j] += _estimate_ms(structure, len(item))
    return [_Shard(sorted(b), load) for b, load in zip(bins, loads) if b]


def _solver_structure(problem: RadiusProblem, method: str) -> tuple:
    """Fingerprint of the solver path a problem will take: its first
    tier (``analytic-box`` counts as ``analytic``), dimension and bound
    count.

    Problems sharing this key exercise the same solver tier over the
    same dimensionality, so batching them into one worker task keeps the
    per-task workloads comparable (no group dominated by one slow
    numeric solve sitting behind many instant analytic ones).
    """
    tier = _tier_ladder(problem, method)[0][0]
    return ("analytic" if tier == "analytic-box" else tier,
            problem.origin.size, len(problem.bounds.finite_bounds))


def compute_radii(problems: Sequence[RadiusProblem], *,
                  method: Method = "auto", seed=None, cache=None,
                  executor=None, service=None) -> list[RadiusResult]:
    """Batched frontend over :func:`compute_radius`, in problem order.

    The whole batch is fingerprinted against the cache first; the misses
    are grouped by :func:`_solver_structure`, cut into
    :func:`_worker_shards`, published once into shared memory and solved
    as one executor task per shard (a :class:`~repro.service.RadiusService`
    solves each batch this way too).  Serial, batched, and fanned-out
    paths return identical :class:`RadiusResult`\\s — element ``i`` is
    bit-identical to ``compute_radius(problems[i], ...)``.

    Parameters
    ----------
    problems:
        The radius computations to perform.
    method, seed:
        Forwarded to every solve, as in :func:`compute_radius`.
    cache:
        Tri-state cache selection (``None`` default cache / ``False``
        off / a :class:`~repro.parallel.cache.RadiusCache`).  Hits are
        served without dispatching; fresh solves are stored back.
    executor:
        Optional :class:`~repro.parallel.executor.ParallelExecutor`;
        shards fan out when it has workers and the seed is stateless.
        A batch whose mapping does not pickle is solved in-process (a
        ``pool.fallback`` event).
    service:
        Optional running :class:`~repro.service.RadiusService`; the
        batch is submitted there instead of being solved in-process
        (``cache`` and ``executor`` are then ignored — the service owns
        its own).  Results stay bit-identical to the in-process path.
        A stateful :class:`numpy.random.Generator` seed keeps the batch
        in-process, through ``cache`` as usual: the draws must come from
        the caller's stream in problem order, which the service's worker
        processes cannot do.

        **Cache-bypass contract**: on the service path the ``cache``
        argument (and any installed process-wide default cache) is
        *neither consulted nor populated* — the service's dispatcher
        owns its own cache, and its entries do not flow back into the
        caller's :class:`RadiusCache`.  A later in-process call with the
        same problems therefore starts cold.  The bypass is observable:
        a ``cache.bypass`` event (with the batch size) and a
        ``radius.cache_bypass`` metric are emitted whenever a cache
        *would* have been consulted but the batch went to the service
        instead.

    Raises
    ------
    SpecificationError
        For an unknown ``method``, or ``method="analytic"`` on a mapping
        that is not structurally affine.
    """
    _check_method(method)
    stateful = isinstance(seed, np.random.Generator)
    if service is not None and not stateful:
        if resolve_cache(cache) is not None:
            emit_event("cache.bypass", reason="service",
                       problems=len(problems))
            get_metrics().inc("radius.cache_bypass")
        return service.compute(problems, method=method, seed=seed)
    problems = list(problems)
    # Imported lazily: the tensor kernel imports this module for result
    # assembly, so the edge must point this way at call time.
    from repro.core.solvers.tensor import solve_group

    with span("radius.batch", problems=len(problems)) as sp:

        def solve(misses: list[RadiusProblem]) -> list[RadiusResult]:
            groups: dict[tuple, list[int]] = {}
            for i, problem in enumerate(misses):
                groups.setdefault(_solver_structure(problem, method),
                                  []).append(i)
            if sp is not None:
                sp.tags["hits"] = len(problems) - len(misses)
                sp.tags["groups"] = len(groups)
            get_metrics().inc("radius.batches")
            inline = not misses or executor is None or stateful \
                or getattr(executor, "workers", 1) <= 1
            if not inline:
                # A cut pays for a pool round trip of its own unless the
                # batch goes to the pool anyway with a worker left idle.
                idle = len(groups) < executor.workers \
                    and not executor.runs_inline(len(groups))
                shards = _worker_shards(
                    list(groups.values()), executor.workers, list(groups),
                    lambda idxs: _tensor_subgroups(misses, idxs, method),
                    break_even=0.0 if idle else _CUT_MS)
                # A lone shard on an executor that runs it in-process:
                # publishing would only copy the batch there and back.
                inline = executor.runs_inline(len(shards))
            if inline:
                # The cache pass already ran; solving with the cache
                # re-enabled would double-count its misses.
                return solve_group(misses, method=method, seed=seed,
                                   cache=False)
            if sp is not None:
                sp.tags["shards"] = len(shards)
                sp.tags["shard_cost_ms"] = [round(shard.cost, 3)
                                            for shard in shards]
            return _solve_shards(misses, shards, method, seed, executor)

        return _cache_pass(problems, solve, method=method, seed=seed,
                           cache=cache)


def _tensor_subgroups(problems: list[RadiusProblem], idxs: list[int],
                      method: str) -> list[list[int]]:
    """Split one structural group's indices by
    :meth:`~repro.core.solvers.tensor.ProblemTensor.batch_key`, in
    first-seen order: the tensors its shard would solve."""
    from repro.core.solvers.tensor import ProblemTensor

    by_key: dict = {}
    for i in idxs:
        by_key.setdefault(ProblemTensor.batch_key(problems[i], method),
                          []).append(i)
    return list(by_key.values())


def _solve_shards(misses: list[RadiusProblem], shards: list[list[int]],
                  method: str, seed, executor) -> list[RadiusResult]:
    """Publish ``misses`` once into shared memory and solve one executor
    task per shard, merging the results in problem order."""
    # Imported lazily to avoid cycles: the tensor kernel, the supervisor
    # (through the cascade) and the shm batch all import this module.
    from repro.core.solvers.tensor import _solve_group_task
    from repro.resilience.supervisor import resolve_task_failures
    from repro.service.shm import SharedProblemBatch

    try:
        published = SharedProblemBatch.publish(misses)
    except Exception as exc:  # a mapping that does not pickle, most often
        # Nothing can reach a worker: solve here, on the executor's
        # record exactly like its own pickling pre-flight.
        [results] = executor._fallback(
            [Task(_solve_group_task, (misses, method, seed))],
            f"unpublishable batch: {exc!r}")
        return results
    with published:
        tasks = [Task(_solve_group_task, (published.shard(idxs), method, seed))
                 for idxs in shards]
        # A supervised executor quarantines permanently-failing tasks
        # into TaskFailure sentinels; the batch needs real results (and
        # the cache must never store a sentinel), so survivors re-run
        # in-process, re-raising genuine failures serially.
        solved = resolve_task_failures(executor.run(tasks), tasks,
                                       executor=executor)
    results: list[RadiusResult | None] = [None] * len(misses)
    for idxs, shard_results in zip(shards, solved):
        for i, result in zip(idxs, shard_results):
            results[i] = result
    return results
