"""Cross-problem tensorised radius solves (struct-of-arrays groups).

:func:`compute_radii` fingerprints a batch by
:func:`~repro.core.radius._solver_structure`; problems landing in the same
directional tier (``bisection`` or ``numeric``) over the same dimension,
norm, and mapping structure repeat the *same* solver schedule — the same
direction matrix (stateless seed), the same canonical probe grid, the same
bracket expansion — differing only in their origins, boxes, and bound
levels.  :class:`ProblemTensor` packs such a group into stacked arrays so
the whole group advances through the directional kernel of
:mod:`repro.core.solvers.bisection` (the one every per-problem
directional search runs as a group of one):

* **Lock-step expansion over a problems axis.**  Every still-active
  ``(problem, bound, direction)`` ray advances one rung per iteration and
  all surviving rays' probe points are evaluated with a single
  ``mapping.value_rows`` call over the flattened point tensor
  (:func:`~repro.core.solvers.bisection._expand_units`) — one
  Python-level evaluation per *iteration* instead of one per problem per
  iteration.  The probe parameters are the scalar reference's exact
  decision grid (``t_1 = min(t_init, t_stop)``, ``t_{k+1} = min(4 t_k,
  t_stop)`` with per-problem box exits), so the located bracket
  endpoints are the scalar path's floats.

* **Exact pruning, then batched Brent refinement.**  A bracket whose
  lower end exceeds its unit's smallest bracket top cannot hold the
  winning crossing and is dropped; all survivors refine in lock-step
  (:func:`~repro.core.solvers.bisection._refine_brackets`).

* **Roots are results.**  ``value_rows`` is row-exact — each row's float
  is ``mapping.value``'s whatever the batch shape — and ``batched_brentq``
  is a float-for-float port of SciPy's ``brentq``, so every batched root
  *is* the scalar reference's float.  Each unit's winner is the
  lexicographic ``(t, row)`` minimum over its roots, exactly the scalar
  pruned scan's answer.

The numeric tier shares the expansion and the refinement: its SLSQP seed
crossings are the same batched roots.

Eval accounting (see ``PERFORMANCE.md``): for ``P`` problems, ``E``
expansion rungs and ``R`` refined brackets per problem (``~I`` scalar
calls per Brent refinement), the per-problem loop spends
``P * (1 + E + R*I)`` Python-level evaluation calls; the tensor spends
``E' + 1 + I'`` with ``E' ~ E`` union rungs, one batched round at the
bracket bottoms and ``I' ~ I`` lock-step refinement rounds — independent
of ``P`` and ``R``.  When crossing distances cluster (isotropic level
sets — the common FePIA geometry) the scalar scan cannot prune
(``R ~`` all directions) and the tensor's advantage is ``O(P * R)``.

Results are bit-identical to :func:`~repro.core.radius.compute_radius`
per problem — radius, boundary point, per-bound table, quality,
diagnostics trail — pinned by ``tests/core/test_tensor_identity.py``;
``tests/core/test_tensor_roots.py`` pins each batched root against SciPy.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.boundary import BoundaryCrossing
from repro.core.radius import (
    _cache_pass,
    _fold,
    _preflight,
    _solver_structure,
    _timed_solve,
    compute_radius,
)
from repro.core.solvers.bisection import (
    _T_INIT,
    _T_MAX,
    _bisection_directions,
    _brackets_from_table,
    _expand_units,
    _numeric_directions,
    _ray_exit_ts,
    _refine_brackets,
    _unit_crossings,
)
from repro.core.solvers.numeric import solve_numeric_radius
from repro.exceptions import BoundaryNotFoundError, SpecificationError
from repro.observability import get_metrics, span

__all__ = ["ProblemTensor", "solve_problem_tensor", "solve_group"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ProblemTensor:
    """A struct-of-arrays view of one batchable problem group.

    Attributes
    ----------
    problems:
        The member :class:`~repro.core.radius.RadiusProblem`\\s, in
        dispatch order.
    method:
        The ``compute_radius`` method parameter the group was packed
        under (fixes the solver tier).
    tier:
        ``"bisection"`` or ``"numeric"`` — the directional tier every
        member dispatches to.
    norm:
        The shared distance norm (``math.inf`` for the sup norm).
    origins:
        ``(P, n)`` stacked original points.
    betas:
        Per-problem tuples of finite tolerance bounds (equal length
        across the group).
    """

    problems: tuple
    method: str
    tier: str
    norm: float
    origins: np.ndarray
    betas: tuple

    @property
    def n_problems(self) -> int:
        return len(self.problems)

    @property
    def dim(self) -> int:
        return int(self.origins.shape[1])

    @staticmethod
    def batch_key(problem, method: str = "auto") -> tuple | None:
        """Grouping fingerprint, or ``None`` when the problem cannot ride
        the tensor path.

        Problems share a key when they dispatch to the same directional
        tier over the same dimension, bound count, norm, and mapping
        *function* (equal ``structure_key``, or the identical object when
        the mapping cannot fingerprint itself).  Origins, boxes and bound
        levels may differ — they are data, not structure.
        """
        structure = _solver_structure(problem, method)
        if structure[0] not in ("bisection", "numeric"):
            return None
        mkey = problem.mapping.structure_key()
        identity = ("structure", mkey) if mkey is not None \
            else ("object", id(problem.mapping))
        norm = np.inf if problem.norm in (np.inf, "inf") \
            else float(problem.norm)
        return (structure, norm, identity)

    @classmethod
    def pack(cls, problems, method: str = "auto") -> "ProblemTensor":
        """Stack ``problems`` into one tensor; they must share a batch key."""
        problems = tuple(problems)
        if not problems:
            raise SpecificationError("cannot pack an empty problem group")
        keys = {cls.batch_key(p, method) for p in problems}
        if len(keys) != 1 or None in keys:
            raise SpecificationError(
                "problems do not share a solver structure; use "
                "ProblemTensor.partition to split a mixed batch")
        structure, norm, _ = next(iter(keys))
        return cls(
            problems=problems,
            method=method,
            tier=structure[0],
            norm=norm,
            origins=np.stack([p.origin for p in problems]),
            betas=tuple(p.bounds.finite_bounds for p in problems),
        )

    @classmethod
    def partition(cls, problems, method: str = "auto"):
        """Split a batch into tensor groups and scalar leftovers.

        Returns ``[(indices, tensor_or_none), ...]`` in first-seen order:
        ``tensor`` is a packed :class:`ProblemTensor` for every group of
        batchable problems, a group of one included; ``None`` marks a
        problem on another tier (the caller solves those through
        :func:`compute_radius`).
        """
        groups: dict = {}
        order: list = []
        for i, p in enumerate(problems):
            key = cls.batch_key(p, method)
            if key is None:
                key = ("scalar", i)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(i)
        out = []
        for key in order:
            idxs = groups[key]
            if key[0] == "scalar":
                out.append((idxs, None))
            else:
                out.append((idxs,
                            cls.pack([problems[i] for i in idxs], method)))
        return out


# ---------------------------------------------------------------------------
# shared geometry


def _shared_geometry(problems) -> bool:
    """Whether every member shares the first one's origin and box — the
    precondition for replaying one warm :class:`RayTable` across the
    group (a degradation family walking bounds over one geometry)."""
    first = problems[0]

    def _eq(a, b):
        if a is None or b is None:
            return a is None and b is None
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    return all(_eq(p.origin, first.origin) and _eq(p.lower, first.lower)
               and _eq(p.upper, first.upper) for p in problems[1:])


def _bracket_arrays(per_unit):
    """Flatten per-unit ``[(row, lo, hi, h_hi), ...]`` lists (the warm
    ray table's output) into :func:`_expand_units`'s arrays."""
    flat = [(u, *b) for u, brackets in enumerate(per_unit) for b in brackets]
    if not flat:
        return (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp),
                np.empty(0), np.empty(0), np.empty(0))
    unit, row, lo, hi, h_hi = zip(*flat)
    return (np.asarray(unit, dtype=np.intp), np.asarray(row, dtype=np.intp),
            np.asarray(lo), np.asarray(hi), np.asarray(h_hi))


def _unit_t_stops(tensor, units, directions):
    """Per-unit box-exit arrays (bound-independent, computed once per
    problem and shared by its units)."""
    per_problem: dict[int, np.ndarray] = {}
    out = []
    for pi, _, _ in units:
        if pi not in per_problem:
            problem = tensor.problems[pi]
            per_problem[pi] = _ray_exit_ts(problem.origin, directions,
                                           problem.lower, problem.upper,
                                           _T_MAX)
        out.append(per_problem[pi])
    return out


# ---------------------------------------------------------------------------
# bisection tier: exact pruning, batched refinement, winners from the roots


def _select_winners(tensor, units, brackets, directions, h0s):
    """Each unit's winning ``(t, row)`` crossing (or ``None``),
    bit-identical to the scalar pruned scan.

    A bracket whose lower end exceeds its unit's smallest bracket top
    cannot win — its root is at least ``lo``, beyond the root inside that
    smallest bracket — and skips refinement.  The survivors refine in one
    :func:`_refine_brackets` pass, and each unit's lexicographic
    ``(t, row)`` minimum over those roots is the scalar scan's first
    strict minimiser.
    """
    winners: list[tuple[float, int] | None] = [None] * len(units)
    unit, row, lo, hi, _ = brackets
    if unit.size == 0:
        return winners
    top = np.full(len(units), np.inf)
    np.minimum.at(top, unit, hi)
    keep = lo <= top[unit]
    pruned = int(keep.size - np.count_nonzero(keep))
    if pruned:
        get_metrics().inc("solver.tensor_pruned", pruned)
    kept = tuple(a[keep] for a in brackets)
    roots = _refine_brackets(tensor.problems[0].mapping, tensor.origins,
                             units, h0s, directions, kept)
    unit, row = kept[0], kept[1]
    order = np.lexsort((row, roots, unit))
    first = order[np.r_[True, unit[order[1:]] != unit[order[:-1]]]]
    for k in first:
        winners[unit[k]] = (float(roots[k]), int(row[k]))
    return winners


def _solve_bisection_units(tensor, units, value0s, seed, warm):
    """Locate and refine every ``(problem, bound)`` unit's winning
    crossing over the shared direction matrix.

    With ``warm`` carrying a :class:`~repro.core.solvers.warm.WarmStart`
    and the whole group sharing one geometry (a degradation family), the
    bound ray table replays stored probes instead of fresh expansion —
    the same keying ``solve_bisection_radius`` uses, so curve sweeps and
    tensor solves feed the same table.
    """
    directions = _bisection_directions(tensor.dim, tensor.norm, seed)
    h0s = [value0s[pi] - b for pi, _, b in units]
    t_stops = _unit_t_stops(tensor, units, directions)
    metrics = get_metrics()

    table = None
    if warm is not None and units and _shared_geometry(tensor.problems):
        first = tensor.problems[0]
        table = warm.table
        table.bind(first.origin, directions, first.lower, first.upper,
                   _T_MAX, _T_INIT)
        if table.g0 is None:
            table.g0 = float(value0s[0])
    if table is not None:
        per_unit = []
        for (pi, _, b), h0, t_stop in zip(units, h0s, t_stops):
            warm.warm_starts += 1
            metrics.inc("solver.warm_starts")
            fresh_before = table.fresh_evals
            per_unit.append(_brackets_from_table(
                tensor.problems[pi].mapping, tensor.problems[pi].origin,
                directions, b, h0, t_stop, table))
            if table.fresh_evals == fresh_before:
                warm.warm_hits += 1
                metrics.inc("solver.warm_hits")
        brackets = _bracket_arrays(per_unit)
    else:
        brackets = _expand_units(tensor.problems[0].mapping, tensor.origins,
                                 directions, units, h0s, t_stops)
    winners = _select_winners(tensor, units, brackets, directions, h0s)
    if table is not None:
        for u, winner in enumerate(winners):
            if winner is not None:
                side = "upper" if h0s[u] < 0.0 else "lower"
                warm.hints[side] = winner[1]
    return winners, directions


# ---------------------------------------------------------------------------
# numeric tier: shared expansion and refinement of every seed crossing


def _numeric_unit_crossings(tensor, units, value0s, seed):
    """Per-unit crossing arrays for the numeric tier's SLSQP seeding, each
    bit-identical to the one-problem kernel's
    (:func:`~repro.core.solvers.bisection._ray_crossings`): the bracket
    expansion and the Brent refinement are shared across the whole group,
    and every located bracket is refined, since the crossings seed the
    multistart.
    """
    directions = _numeric_directions(tensor.dim, seed)
    h0s = [value0s[pi] - b for pi, _, b in units]
    return _unit_crossings(tensor.problems[0].mapping, tensor.origins,
                           directions, units, h0s,
                           _unit_t_stops(tensor, units, directions))


# ---------------------------------------------------------------------------
# group solve


def solve_problem_tensor(tensor: ProblemTensor, *, seed=None, warm=None):
    """Solve every member of ``tensor`` through the batched kernel.

    Returns one :class:`~repro.core.radius.RadiusResult` per member, in
    order, each bit-identical to ``compute_radius(problem,
    method=tensor.method, seed=seed, cache=False)`` — including the
    per-bound table, quality, and diagnostics trail — and each wrapped in
    its own ``radius.solve``/``radius.bound`` spans so traces keep their
    per-problem shape.  Members share ``compute_radius``'s preflight and
    per-bound fold; a group whose members all sit on a bound runs no
    kernel at all.

    ``warm`` optionally threads a family
    :class:`~repro.core.solvers.warm.WarmStart` (bisection tier, shared
    geometry only); it changes evaluation counts, never results.
    """
    problems = tensor.problems
    results: list = []
    if seed is None:
        # One fresh draw for the whole group: each numeric member re-derives
        # its rays from the seed, and they must be the rays its crossings
        # were found along.
        seed = np.random.SeedSequence().entropy
    with span("radius.tensor", problems=len(problems), tier=tensor.tier,
              dim=tensor.dim) as tsp:
        get_metrics().inc("radius.tensor_solves")
        preflights = [_preflight(problem) for problem in problems]
        value0s = [value0 for value0, _ in preflights]
        units = [(pi, j, float(b))
                 for pi, (problem, (_, degenerate)) in enumerate(
                     zip(problems, preflights)) if degenerate is None
                 for j, b in enumerate(problem.bounds.finite_bounds)]
        unit_of = {(pi, b): u for u, (pi, _, b) in enumerate(units)}
        if units and tensor.tier == "bisection":
            winners, directions = _solve_bisection_units(
                tensor, units, value0s, seed, warm)
        elif units:
            crossings_ts = _numeric_unit_crossings(tensor, units, value0s,
                                                   seed)

        def solve_bound(pi, b, trail):
            problem, u = problems[pi], unit_of[(pi, float(b))]
            if tensor.tier == "bisection":
                fn = _bisection_crossing_fn(problem, b, directions,
                                            winners[u], value0s[pi])
            else:
                def fn():
                    return solve_numeric_radius(
                        problem.mapping, problem.origin, b,
                        lower=problem.lower, upper=problem.upper, seed=seed,
                        crossings_ts=crossings_ts[u])
            return _timed_solve(tensor.tier, b, fn, trail), tensor.tier

        for pi, (problem, preflight) in enumerate(zip(problems, preflights)):
            with span("radius.solve", method=tensor.method,
                      dim=problem.origin.size) as sp:
                result = _fold(problem, tensor.method, preflight,
                               partial(solve_bound, pi))
                if sp is not None:
                    sp.tags["solver"] = result.method
                    sp.tags["quality"] = result.quality.name
            results.append(result)
        if tsp is not None:
            tsp.tags["units"] = len(units)
    return results


def _bisection_crossing_fn(problem, bound, directions, winner, value0):
    """Package a refined winner as the deferred solver call
    ``_timed_solve`` expects, reproducing ``solve_bisection_radius``'s
    terminal behaviour (crossing or :class:`BoundaryNotFoundError`)."""
    def fn():
        if value0 - bound == 0.0:
            return BoundaryCrossing(point=problem.origin + 0.0 * directions[0],
                                    bound=float(bound), distance=0.0)
        if winner is None:
            raise BoundaryNotFoundError(
                f"no boundary crossing for bound {bound} within "
                f"t_max={_T_MAX} over {directions.shape[0]} directions")
        t, row = winner
        point = problem.origin + t * directions[row]
        return BoundaryCrossing(point=point, bound=float(bound), distance=t)
    return fn


def solve_group(problems, *, method: str = "auto", seed=None, cache=None):
    """Cache-aware group solve: the in-process batched counterpart of a
    ``compute_radius`` loop, and (uncached, through
    :func:`_solve_group_task`) the body of every pooled shard.

    Consults the cache once up front, partitions the misses into
    :class:`ProblemTensor` groups (solving leftovers through
    :func:`compute_radius`), and stores fresh results back.  A stateful
    ``numpy.random.Generator`` seed forces the per-problem loop in
    problem order — batching would reorder draws from the shared stream.
    """
    def solve(misses):
        if isinstance(seed, np.random.Generator):
            return [compute_radius(p, method=method, seed=seed, cache=False)
                    for p in misses]
        results: list = [None] * len(misses)
        for idxs, tensor in ProblemTensor.partition(misses, method):
            solved = solve_problem_tensor(tensor, seed=seed) \
                if tensor is not None \
                else [compute_radius(misses[k], method=method, seed=seed,
                                     cache=False) for k in idxs]
            for k, result in zip(idxs, solved):
                results[k] = result
        return results

    return _cache_pass(list(problems), solve, method=method, seed=seed,
                       cache=cache)


def _solve_group_task(problems, method, seed):
    """Picklable executor-worker body: one shard (a list or a
    :class:`~repro.service.shm.BatchShard`) solved through the tensor
    kernel, uncached: the caller's cache pass is the only one."""
    return solve_group(problems, method=method, seed=seed, cache=False)
