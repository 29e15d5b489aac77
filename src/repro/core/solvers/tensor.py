"""Cross-problem tensorised radius solves (struct-of-arrays groups).

:func:`compute_radii` fingerprints a batch by
:func:`~repro.core.radius._solver_structure`; problems landing in the same
directional tier (``bisection`` or ``numeric``) over the same dimension,
norm, and mapping structure repeat the *same* solver schedule — the same
direction matrix (stateless seed), the same canonical probe grid, the same
bracket expansion — differing only in their origins, boxes, and bound
levels.  :class:`ProblemTensor` packs such a group into stacked arrays so
the whole group advances as one kernel:

* **Lock-step expansion over a problems axis.**  Every still-active
  ``(problem, bound, direction)`` ray advances one rung per iteration and
  all surviving rays' probe points are evaluated with a single
  ``mapping.value_many`` call over the flattened point tensor — one
  Python-level evaluation per *iteration* instead of one per problem per
  iteration.  The probe parameters are the scalar kernel's exact decision
  grid (``t_1 = min(t_init, t_stop)``, ``t_{k+1} = min(4 t_k, t_stop)``
  with per-problem box exits), so the located bracket endpoints are the
  scalar path's floats.

* **Batched Brent refinement with cross-problem pruning.**  All surviving
  brackets refine in lock-step through
  :func:`~repro.core.solvers.brent.batched_brentq`.  Brackets that cannot
  contain their problem's winning crossing are pruned before refinement
  (their lower end exceeds the problem's smallest bracket top), and the
  batched roots prune the rest: only the candidates within ``PIN_TOL`` of
  each problem's smallest root survive.

* **Scalar re-pinning of the winners.**  ``value_many`` is *not*
  row-stable across batch shapes (BLAS blocking makes a row's value
  depend on how many other rows share the call), so batched floats are
  never returned: every surviving candidate is re-refined by
  :func:`~repro.core.solvers.bisection._refine_bracket` — the same scalar
  ``brentq`` call on the same bracket the per-problem path makes — and
  the winner is the lexicographic ``(t, row)`` minimum over them, exactly
  the scalar pruned scan's answer.  Batched evaluations only feed *sign
  decisions* and *candidate selection*, which is the standing contract of
  the per-problem batched kernel as well.

The numeric tier shares the expansion (its crossing seeds all come from
one flattened tensor) but re-pins **every** bracket: the crossings seed
the SLSQP multistart, so each must be the scalar reference float, not a
locator.

Eval accounting (see ``PERFORMANCE.md``): for ``P`` problems, ``E``
expansion rungs and ``R`` refined brackets per problem (``~I`` scalar
calls per Brent refinement), the per-problem loop spends
``P * (1 + E + R*I)`` Python-level evaluation calls; the tensor spends
``E' + I' + P * (c*I)`` with ``E' ~ E`` union rungs, ``I' ~ I`` lock-step
refinement rounds and ``c`` candidates per problem (typically 1).  When
crossing distances cluster (isotropic level sets — the common FePIA
geometry) the scalar scan cannot prune (``R ~`` all directions) and the
tensor's advantage is ``O(R)``.

Results are bit-identical to :func:`~repro.core.radius.compute_radius`
per problem — radius, boundary point, per-bound table, quality,
diagnostics trail — pinned by ``tests/core/test_tensor_identity.py``.
"""

from __future__ import annotations

import logging
import math
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
    _batch_values,
    _brackets_from_table,
    _ray_exit_ts,
    _refine_bracket,
)
from repro.core.solvers.brent import batched_brentq
from repro.core.solvers.numeric import solve_numeric_radius
from repro.exceptions import BoundaryNotFoundError, SpecificationError
from repro.observability import get_metrics, span
from repro.utils.linalg import sample_on_sphere
from repro.utils.rng import default_rng

__all__ = ["ProblemTensor", "solve_problem_tensor", "solve_group"]

logger = logging.getLogger(__name__)

#: Relative tolerance under which batched crossings count as tied with the
#: smallest one: every bracket within it is re-pinned through the scalar
#: reference kernel before the winner is chosen.  It dwarfs both the Brent
#: tolerance and any ``value_many`` row drift, mirroring the warm path's
#: certificate guard margin.
PIN_TOL = 1e-9

# The directional solvers' fixed schedule (their keyword defaults); the
# dispatcher in repro.core.radius never overrides these.
_T_MAX = 1e6
_T_INIT = 1e-3
_XTOL = 1e-12
_N_RANDOM_DIRECTIONS = 128
_N_SEED_DIRECTIONS = 32


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
        ``tensor`` is a packed :class:`ProblemTensor` for groups of two
        or more batchable problems, ``None`` for everything else (the
        caller solves those through :func:`compute_radius`).
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
            if key[0] == "scalar" or len(idxs) < 2:
                out.append((idxs, None))
            else:
                out.append((idxs,
                            cls.pack([problems[i] for i in idxs], method)))
        return out


# ---------------------------------------------------------------------------
# shared geometry


def _bisection_directions(n: int, norm, seed) -> np.ndarray:
    """The direction matrix ``solve_bisection_radius`` derives from a
    stateless seed: signed axes plus sphere samples, normalised in the
    distance norm.  Stateless seeding makes it identical for every member
    of the group."""
    rng = default_rng(seed)
    eye = np.eye(n)
    directions = np.vstack([eye, -eye,
                            sample_on_sphere(rng, _N_RANDOM_DIRECTIONS, n)])
    p = np.inf if norm in (np.inf, "inf") else norm
    norms = np.linalg.norm(directions, ord=p, axis=1, keepdims=True)
    return directions / norms


def _numeric_directions(n: int, seed) -> np.ndarray:
    """The seeding rays of ``solve_numeric_radius`` (unnormalised)."""
    rng = default_rng(seed)
    return np.vstack([np.eye(n), -np.eye(n),
                      sample_on_sphere(rng, _N_SEED_DIRECTIONS, n)])


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


# ---------------------------------------------------------------------------
# flattened lock-step expansion


def _expand_units(mapping, origins, directions, units, h0s, t_stops):
    """Lock-step bracket expansion over a flattened
    ``(problem, bound) x direction`` point tensor.

    ``units`` lists ``(problem_index, bound_index, bound)`` rows; ``h0s``
    their scalar ``f(x0) - b`` values; ``t_stops`` their per-direction
    box exits.  Each iteration evaluates every still-active ray's probe
    point — across *all* units — with one ``mapping.value_many`` call.
    The probe grid and sign decisions per ray are exactly
    :func:`~repro.core.solvers.bisection._directional_brackets`'s, so the
    returned brackets carry the scalar kernel's endpoint floats.

    Returns per-unit bracket lists ``{unit_index: [(row, lo, hi, h_hi),
    ...]}`` sorted by ``(lo, row)`` like the scalar kernel's.
    """
    m = directions.shape[0]
    n_units = len(units)
    total = n_units * m
    unit_of = np.repeat(np.arange(n_units), m)
    row_of = np.tile(np.arange(m), n_units)
    p_of = np.repeat(np.asarray([u[0] for u in units], dtype=np.intp), m)
    beta_of = np.repeat(np.asarray([u[2] for u in units], dtype=np.float64),
                        m)
    h0_of = np.repeat(np.asarray(h0s, dtype=np.float64), m)
    t_stop = np.concatenate(t_stops)

    active = t_stop > 0.0
    t_lo = np.zeros(total)
    t_hi = np.minimum(_T_INIT, t_stop)
    brackets: dict[int, list] = {u: [] for u in range(n_units)}
    idx_all = np.arange(total)
    while np.any(active):
        rows = idx_all[active]
        points = origins[p_of[rows]] + t_hi[rows, None] * directions[row_of[rows]]
        values, in_domain = _batch_values(mapping, points)
        h_hi = values - beta_of[rows]
        # Out-of-domain probes end their rays exactly like the scalar
        # kernel's per-direction SpecificationError: no crossing.
        active[rows[~in_domain]] = False
        with np.errstate(invalid="ignore"):
            flipped = in_domain & (h0_of[rows] * h_hi <= 0.0)
        for k, hv in zip(rows[flipped], h_hi[flipped]):
            brackets[int(unit_of[k])].append(
                (int(row_of[k]), float(t_lo[k]), float(t_hi[k]), float(hv)))
        active[rows[flipped]] = False
        exhausted = active[rows] & (t_hi[rows] >= t_stop[rows])
        active[rows[exhausted]] = False
        still = idx_all[active]
        t_lo[still] = t_hi[still]
        t_hi[still] = np.minimum(4.0 * t_hi[still], t_stop[still])
    for unit_brackets in brackets.values():
        unit_brackets.sort(key=lambda b: (b[1], b[0]))
    return brackets


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
# bisection tier: batched refinement, candidate selection, scalar re-pin


def _select_winners(tensor, units, brackets, directions, origins, h0s):
    """Refine every unit's brackets in lock-step and return each unit's
    winning ``(t, row)`` crossing (or ``None``), bit-identical to the
    scalar pruned scan.

    Three pruning layers cut the scalar work: brackets whose lower end
    exceeds their unit's smallest bracket top cannot win and skip
    refinement entirely; the batched Brent roots then discard everything
    outside ``PIN_TOL`` of each unit's smallest root; the survivors — the
    winner and any near-ties, plus rows the batched kernel could not
    certify (``ok=False``) — are re-pinned through the scalar reference
    kernel, and the lexicographic ``(t, row)`` minimum over those scalar
    floats is returned.
    """
    metrics = get_metrics()
    flat: list[tuple[int, int, float, float, float]] = []
    pruned = 0
    for u, unit_brackets in brackets.items():
        if not unit_brackets:
            continue
        top = min(b[2] for b in unit_brackets)
        cutoff = top + PIN_TOL * (1.0 + top)
        for row, lo, hi, h_hi in unit_brackets:
            if lo > cutoff:
                pruned += 1
                continue
            flat.append((u, row, lo, hi, h_hi))
    winners: dict[int, tuple[float, int] | None] = {
        u: None for u in brackets}
    if not flat:
        if pruned:
            metrics.inc("solver.tensor_pruned", pruned)
        return winners

    unit_b = np.asarray([f[0] for f in flat], dtype=np.intp)
    row_b = np.asarray([f[1] for f in flat], dtype=np.intp)
    lo_b = np.asarray([f[2] for f in flat])
    hi_b = np.asarray([f[3] for f in flat])
    f_hi = np.asarray([f[4] for f in flat])
    p_b = np.asarray([units[u][0] for u in unit_b], dtype=np.intp)
    beta_b = np.asarray([units[u][2] for u in unit_b])
    h0_b = np.asarray([h0s[u] for u in unit_b])

    def evaluate(ts, rows):
        points = origins[p_b[rows]] + ts[:, None] * directions[row_b[rows]]
        values, _ = _batch_values(tensor.problems[0].mapping, points)
        return values - beta_b[rows]

    # Endpoint values: the expansion's h_hi floats on top, and a fresh
    # batched round at the bottoms — except t=0 rows, whose value is the
    # problem's scalar h0 (no drift where the exact float is free).
    at_zero = lo_b == 0.0
    f_lo = np.empty(lo_b.shape[0])
    f_lo[at_zero] = h0_b[at_zero]
    inner = np.flatnonzero(~at_zero)
    if inner.size:
        points = origins[p_b[inner]] \
            + lo_b[inner, None] * directions[row_b[inner]]
        values, _ = _batch_values(tensor.problems[0].mapping, points)
        f_lo[inner] = values - beta_b[inner]

    roots, ok = batched_brentq(evaluate, lo_b, hi_b, f_lo, f_hi, xtol=_XTOL)
    metrics.inc("solver.tensor_refined", len(flat))

    by_unit: dict[int, list[int]] = {}
    for k, u in enumerate(unit_b):
        by_unit.setdefault(int(u), []).append(k)
    repinned = 0
    for u, ks in by_unit.items():
        finite = [k for k in ks if ok[k] and math.isfinite(roots[k])]
        if finite:
            t_min = min(float(roots[k]) for k in finite)
            slack = PIN_TOL * (1.0 + t_min)
            cands = [k for k in ks
                     if not ok[k] or float(roots[k]) <= t_min + slack]
        else:
            cands = list(ks)
        pruned += len(ks) - len(cands)
        problem = tensor.problems[units[u][0]]
        bound = units[u][2]
        best_t, best_row = np.inf, -1
        for k in sorted(cands, key=lambda k: (float(lo_b[k]), int(row_b[k]))):
            t = _refine_bracket(problem.mapping, problem.origin,
                                directions[int(row_b[k])], bound,
                                float(lo_b[k]), float(hi_b[k]),
                                float(f_hi[k]), _XTOL)
            if t < best_t or (t == best_t and int(row_b[k]) < best_row):
                best_t, best_row = t, int(row_b[k])
        repinned += len(cands)
        winners[u] = (best_t, best_row)
    if pruned:
        metrics.inc("solver.tensor_pruned", pruned)
    if repinned:
        metrics.inc("solver.repinned_brackets", repinned)
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
        table = warm.table("bisection")
        table.bind(first.origin, directions, first.lower, first.upper,
                   _T_MAX, _T_INIT)
        if table.g0 is None:
            table.g0 = float(value0s[0])
    if table is not None:
        brackets = {}
        for u, ((pi, _, b), h0, t_stop) in enumerate(
                zip(units, h0s, t_stops)):
            warm.warm_starts += 1
            metrics.inc("solver.warm_starts")
            fresh_before = table.fresh_evals
            brackets[u] = _brackets_from_table(
                tensor.problems[pi].mapping, tensor.problems[pi].origin,
                directions, b, h0, t_stop, _T_INIT, table)
            if table.fresh_evals == fresh_before:
                warm.warm_hits += 1
                metrics.inc("solver.warm_hits")
    else:
        brackets = _expand_units(tensor.problems[0].mapping, tensor.origins,
                                 directions, units, h0s, t_stops)
    winners = _select_winners(tensor, units, brackets, directions,
                              tensor.origins, h0s)
    if warm is not None and table is not None:
        for u, (pi, _, b) in enumerate(units):
            if winners[u] is not None:
                side = "upper" if h0s[u] < 0.0 else "lower"
                warm.hints[side] = winners[u][1]
    return winners, directions


# ---------------------------------------------------------------------------
# numeric tier: shared expansion, scalar re-pin of every seed crossing


def _numeric_unit_crossings(tensor, units, value0s, seed):
    """Per-unit directional crossing arrays for the numeric tier's SLSQP
    seeding, bit-identical to ``directional_crossings`` per unit.

    The bracket expansion is shared across the whole group (one flattened
    tensor); every located bracket is then re-pinned through the scalar
    reference kernel because the crossings seed the multistart — they are
    results, not locators.
    """
    directions = _numeric_directions(tensor.dim, seed)
    h0s = [value0s[pi] - b for pi, _, b in units]
    t_stops = _unit_t_stops(tensor, units, directions)
    brackets = _expand_units(tensor.problems[0].mapping, tensor.origins,
                             directions, units, h0s, t_stops)
    m = directions.shape[0]
    out = {}
    for u, (pi, _, b) in enumerate(units):
        problem = tensor.problems[pi]
        ts = np.full(m, np.nan)
        if h0s[u] == 0.0:
            ts[:] = 0.0
        else:
            for row, lo, hi, h_hi in brackets[u]:
                ts[row] = _refine_bracket(problem.mapping, problem.origin,
                                          directions[row], b, lo, hi, h_hi,
                                          _XTOL)
        out[u] = ts
    return out


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
    ``compute_radius`` loop, and the worker body of the executor and
    service dispatch paths.

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
    """Picklable executor-worker body: one structural shard solved through
    the tensor kernel, consulting the worker's own default cache."""
    return solve_group(problems, method=method, seed=seed)
