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
  ``mapping.value_rows`` call over the flattened point tensor — one
  Python-level evaluation per *iteration* instead of one per problem per
  iteration.  The probe parameters are the scalar kernel's exact decision
  grid (``t_1 = min(t_init, t_stop)``, ``t_{k+1} = min(4 t_k, t_stop)``
  with per-problem box exits), so the located bracket endpoints are the
  scalar path's floats.

* **Exact pruning, then batched Brent refinement.**  A bracket whose
  lower end exceeds its unit's smallest bracket top cannot hold the
  winning crossing and is dropped; all survivors refine in lock-step
  through :func:`~repro.core.solvers.brent.batched_brentq`.

* **Roots are results.**  ``value_rows`` is row-exact — each row's float
  is ``mapping.value``'s whatever the batch shape — and ``batched_brentq``
  is a float-for-float port of SciPy's ``brentq``, so every batched root
  *is* the scalar reference's float.  Each unit's winner is the
  lexicographic ``(t, row)`` minimum over its roots, exactly the scalar
  pruned scan's answer.  Only rows the batched kernel flags (``ok=False``)
  re-run through the scalar
  :func:`~repro.core.solvers.bisection._refine_bracket`, which raises as
  SciPy does.

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
    point — across *all* units — with one row-exact ``value_rows`` call.
    The probe grid and sign decisions per ray are exactly
    :func:`~repro.core.solvers.bisection._directional_brackets`'s, so the
    returned brackets carry the scalar kernel's endpoint floats.

    Returns the flat bracket arrays ``(unit, row, lo, hi, h_hi)``, one
    entry per ray whose sign flipped, in no particular order.
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
    hits: list[np.ndarray] = [np.empty(0, dtype=np.intp)]
    h_hits: list[np.ndarray] = [np.empty(0)]
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
        # A flipped ray stops here, so its t_lo/t_hi stay as they are.
        hits.append(rows[flipped])
        h_hits.append(h_hi[flipped])
        active[rows[flipped]] = False
        exhausted = active[rows] & (t_hi[rows] >= t_stop[rows])
        active[rows[exhausted]] = False
        still = idx_all[active]
        t_lo[still] = t_hi[still]
        t_hi[still] = np.minimum(4.0 * t_hi[still], t_stop[still])
    ks = np.concatenate(hits)
    return unit_of[ks], row_of[ks], t_lo[ks], t_hi[ks], np.concatenate(h_hits)


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


def _refine_brackets(tensor, units, h0s, directions, brackets):
    """Brent roots of every flat bracket, each ``scipy.optimize.brentq``'s
    float on that bracket.

    All brackets refine in lock-step through :func:`batched_brentq`, whose
    evaluations go through the row-exact :func:`_batch_values`, so each
    root *is* the scalar reference's float.  Rows the batched kernel
    flags (``ok=False``: no sign change, or ``maxiter`` exhausted) re-run
    through the scalar :func:`_refine_bracket`, which raises exactly as
    SciPy does.
    """
    unit, row, lo, hi, f_hi = brackets
    if unit.size == 0:
        return np.empty(0)
    mapping = tensor.problems[0].mapping
    p_b = np.asarray([pi for pi, _, _ in units], dtype=np.intp)[unit]
    beta_b = np.asarray([b for _, _, b in units], dtype=np.float64)[unit]
    origins = tensor.origins

    def evaluate(ts, rows):
        points = origins[p_b[rows]] + ts[:, None] * directions[row[rows]]
        values, _ = _batch_values(mapping, points)
        return values - beta_b[rows]

    # Endpoint values: the expansion's h_hi floats on top, and a fresh
    # batched round at the bottoms — except t=0 rows, whose value is the
    # problem's h0 (the float scalar brentq computes there).
    at_zero = lo == 0.0
    f_lo = np.empty(lo.shape[0])
    f_lo[at_zero] = np.asarray(h0s, dtype=np.float64)[unit[at_zero]]
    inner = np.flatnonzero(~at_zero)
    if inner.size:
        f_lo[inner] = evaluate(lo[inner], inner)

    roots, ok = batched_brentq(evaluate, lo, hi, f_lo, f_hi, xtol=_XTOL)
    get_metrics().inc("solver.tensor_refined", lo.shape[0])
    for k in np.flatnonzero(~ok):
        problem = tensor.problems[p_b[k]]
        roots[k] = _refine_bracket(problem.mapping, problem.origin,
                                   directions[row[k]], float(beta_b[k]),
                                   float(lo[k]), float(hi[k]),
                                   float(f_hi[k]), _XTOL)
    return roots


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
    roots = _refine_brackets(tensor, units, h0s, directions, kept)
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
        table = warm.table("bisection")
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
                directions, b, h0, t_stop, _T_INIT, table))
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
    """Per-unit directional crossing arrays for the numeric tier's SLSQP
    seeding, bit-identical to ``directional_crossings`` per unit.

    The bracket expansion and the Brent refinement are shared across the
    whole group (one flattened tensor each); every located bracket is
    refined, since the crossings seed the multistart.
    """
    directions = _numeric_directions(tensor.dim, seed)
    h0s = [value0s[pi] - b for pi, _, b in units]
    t_stops = _unit_t_stops(tensor, units, directions)
    brackets = _expand_units(tensor.problems[0].mapping, tensor.origins,
                             directions, units, h0s, t_stops)
    roots = _refine_brackets(tensor, units, h0s, directions, brackets)
    unit, row = brackets[0], brackets[1]
    out = np.full((len(units), directions.shape[0]), np.nan)
    out[unit, row] = roots
    out[np.asarray(h0s) == 0.0] = 0.0
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
