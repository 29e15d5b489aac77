"""Directional root-bracketing radius solver, and the directional kernel.

Along a ray ``x(t) = x0 + t d`` with ``||d||_p = 1``, the feature value is a
scalar function ``h(t) = f(x(t)) - bound`` with ``h(0) != 0`` (the original
point is strictly feasible).  The first sign change of ``h`` brackets a
boundary crossing; Brent's method then locates it to machine precision.
Every crossing found is a true boundary point, so the minimum crossing
distance over a set of directions is a rigorous **upper bound** on the
robustness radius that converges to it as directions are added.

This solver is derivative-free and therefore works with any
:class:`~repro.core.mappings.CallableMapping`; it also seeds the numeric
projection solver with good starting points.

Every directional search in the package runs through the one kernel
defined here, over a group of *units* — ``(problem, bound)`` pairs
sharing a mapping and a direction matrix:

* the probe schedule (``_T_MAX``, ``_T_INIT``, ``_XTOL`` and the
  direction counts) and one direction builder per tier
  (:func:`_bisection_directions`, :func:`_numeric_directions`);
* :func:`_expand_units` — the lock-step bracket expansion: every unit's
  every ray advances one rung per iteration, and one row-exact
  ``mapping.value_rows`` call evaluates all of them;
* :func:`_refine_brackets` — the batched crossing refinement through
  :func:`~repro.core.solvers.brent.batched_brentq`, whose roots are
  ``scipy.optimize.brentq``'s floats on the same brackets.

The tensor kernel (:mod:`repro.core.solvers.tensor`) runs whole groups
through it.  A lone problem is a group of one: the cold bracket location
of :func:`solve_bisection_radius`, the numeric tier's SLSQP seed
crossings (:func:`_ray_crossings`) and the ray fan of
:func:`~repro.reporting.figures.boundary_figure`.  Only the refinement of
:func:`solve_bisection_radius` stays per problem: a scalar Brent scan that
prunes brackets which can no longer win, or, warm, a convexity
certificate (:func:`_refine_with_certificate`).

``value_rows`` is row-exact — each row's float is ``mapping.value``'s —
so the kernel makes the scalar reference's decisions from the scalar
reference's floats, and its crossings are bit-identical to the
per-direction scalar loop kept in :mod:`repro.core.solvers.bench` — a
contract pinned by ``tests/core/test_solver_kernels.py``.
"""

from __future__ import annotations

import logging

import numpy as np
from scipy.optimize import brentq

from repro.core.boundary import BoundaryCrossing
from repro.core.mappings import FeatureMapping
from repro.core.solvers.brent import batched_brentq
from repro.exceptions import BoundaryNotFoundError, SpecificationError
from repro.observability import get_metrics
from repro.utils.linalg import sample_on_sphere
from repro.utils.rng import default_rng

__all__ = ["solve_bisection_radius"]

logger = logging.getLogger(__name__)

#: The directional probe schedule: a ray ends at ``_T_MAX`` (or its box
#: exit), its first probe sits at ``_T_INIT`` and each next one four times
#: further out, and Brent stops at ``_XTOL``.
_T_MAX = 1e6
_T_INIT = 1e-3
_XTOL = 1e-12
#: Random rays beyond the ``2n`` signed axes: the bisection tier's, and
#: the numeric tier's seeding pre-pass's.
_N_RANDOM_DIRECTIONS = 128
_N_SEED_DIRECTIONS = 32


def _bisection_directions(n: int, norm, seed,
                          n_random: int = _N_RANDOM_DIRECTIONS,
                          include_axes: bool = True) -> np.ndarray:
    """The bisection tier's rays: the ``2n`` signed axes (optional) plus
    ``n_random`` sphere samples drawn from ``seed``, each normalised to
    unit length in the distance norm so a crossing's ray parameter is its
    distance.  A stateless seed gives every member of a group the same
    matrix."""
    rng = default_rng(seed)
    dirs = []
    if include_axes:
        eye = np.eye(n)
        dirs.append(eye)
        dirs.append(-eye)
    if n_random > 0:
        dirs.append(sample_on_sphere(rng, n_random, n))
    directions = np.vstack(dirs)
    p = np.inf if norm in (np.inf, "inf") else norm
    norms = np.linalg.norm(directions, ord=p, axis=1, keepdims=True)
    return directions / norms


def _numeric_directions(n: int, seed,
                        n_seed: int = _N_SEED_DIRECTIONS) -> np.ndarray:
    """The numeric tier's seeding rays (unnormalised): the signed axes plus
    ``n_seed`` sphere samples.  ``seed`` may be the solver's own
    generator, whose stream then continues into the multistart."""
    rng = default_rng(seed)
    return np.vstack([np.eye(n), -np.eye(n),
                      sample_on_sphere(rng, n_seed, n)])


def _ray_exit_ts(origin: np.ndarray, directions: np.ndarray,
                 lower: np.ndarray | None, upper: np.ndarray | None,
                 t_max: float) -> np.ndarray:
    """Per-direction box-exit parameters: the largest ``t`` such that
    ``origin + t*direction`` stays in the box, capped at ``t_max``."""
    t_exit = np.full(directions.shape[0], float(t_max))
    for bound, side in ((lower, -1.0), (upper, 1.0)):
        if bound is None:
            continue
        slack = side * (np.asarray(bound) - origin)
        move = side * directions
        with np.errstate(divide="ignore", invalid="ignore"):
            ts = np.where(move > 0, slack / move, np.inf)
        t_exit = np.minimum(t_exit, np.min(ts, axis=1))
    return np.maximum(t_exit, 0.0)


def _batch_values(mapping: FeatureMapping,
                  points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate raw ``f`` for a batch of probe points.

    Returns ``(values, in_domain)``.  The fast path is one row-exact
    ``mapping.value_rows`` call (counted in the ``solver.batch_evals``
    metric), so every caller — sign tests, ray tables, certificate
    probes, lock-step Brent steps — sees ``mapping.value``'s float for
    each row.  A mapping with a restricted domain raises
    :class:`SpecificationError` for the *whole* batch when any row has
    left it; the scalar reference instead drops only the offending
    directions, so on such a failure the batch degrades to per-row
    scalar evaluation and marks the out-of-domain rows — preserving the
    per-direction semantics exactly.

    Callers subtract the bound themselves: the raw values are what the
    warm-start :class:`~repro.core.solvers.warm.RayTable` memoises
    (bound-independent), and ``(values - bound)[i]`` is elementwise
    identical to ``values[i] - bound``, so cold and warm sign tests see
    the same floats.
    """
    try:
        values = mapping.value_rows(points)
    except SpecificationError:
        values = np.empty(points.shape[0])
        in_domain = np.ones(points.shape[0], dtype=bool)
        for i, row in enumerate(points):
            try:
                values[i] = mapping.value(row)
            except SpecificationError:
                values[i] = np.nan
                in_domain[i] = False
        get_metrics().inc("solver.batch_evals")
        get_metrics().inc("solver.batch_points", points.shape[0])
        return values, in_domain
    get_metrics().inc("solver.batch_evals")
    get_metrics().inc("solver.batch_points", points.shape[0])
    return values, np.ones(points.shape[0], dtype=bool)


# ---------------------------------------------------------------------------
# the directional kernel: lock-step expansion and batched refinement


def _expand_units(mapping, origins, directions, units, h0s, t_stops):
    """Lock-step bracket expansion over a flattened
    ``(problem, bound) x direction`` point tensor.

    ``units`` lists ``(problem_index, bound_index, bound)`` rows; ``h0s``
    their scalar ``f(x0) - b`` values; ``t_stops`` their per-direction
    box exits.  Each ray probes ``t_1 = min(_T_INIT, t_stop)``,
    ``t_{k+1} = min(4 t_k, t_stop)`` until ``h`` changes sign, leaves the
    mapping's domain (no crossing, as a scalar ``SpecificationError``
    would end the ray) or reaches its stop.  Each iteration evaluates
    every still-active ray's probe point — across *all* units — with one
    row-exact ``value_rows`` call, so the Python-level evaluation cost is
    ``O(iterations)`` instead of ``O(units x directions x iterations)``.

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
        # Out-of-domain probes end their rays: no crossing.
        active[rows[~in_domain]] = False
        with np.errstate(invalid="ignore"):
            flipped = in_domain & (h0_of[rows] * h_hi <= 0.0)
        # A flipped ray stops here, so its t_lo/t_hi stay as they are.
        hits.append(rows[flipped])
        h_hits.append(h_hi[flipped])
        active[rows[flipped]] = False
        # Directions at the segment end without a sign flip: no crossing.
        exhausted = active[rows] & (t_hi[rows] >= t_stop[rows])
        active[rows[exhausted]] = False
        still = idx_all[active]
        t_lo[still] = t_hi[still]
        t_hi[still] = np.minimum(4.0 * t_hi[still], t_stop[still])
    ks = np.concatenate(hits)
    return unit_of[ks], row_of[ks], t_lo[ks], t_hi[ks], np.concatenate(h_hits)


def _refine_bracket(mapping: FeatureMapping, origin: np.ndarray,
                    direction: np.ndarray, bound: float,
                    lo: float, hi: float, h_hi: float) -> float:
    """Scalar Brent refinement of one bracket through ``mapping.value``,
    which raises exactly as SciPy does."""
    if h_hi == 0.0:
        return float(hi)

    def h(t: float) -> float:
        return mapping.value(origin + t * direction) - bound

    return float(brentq(h, lo, hi, xtol=_XTOL))


def _refine_brackets(mapping, origins, units, h0s, directions, brackets):
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
    p_b = np.asarray([pi for pi, _, _ in units], dtype=np.intp)[unit]
    beta_b = np.asarray([b for _, _, b in units], dtype=np.float64)[unit]

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
        roots[k] = _refine_bracket(mapping, origins[p_b[k]],
                                   directions[row[k]], float(beta_b[k]),
                                   float(lo[k]), float(hi[k]),
                                   float(f_hi[k]))
    return roots


def _unit_crossings(mapping, origins, directions, units, h0s, t_stops):
    """Every unit's crossing distance along every direction, as a
    ``(units, directions)`` array: :func:`_expand_units`, then every
    located bracket through :func:`_refine_brackets`.  ``nan`` marks a
    ray that does not cross within its reachable segment; a unit whose
    origin sits on its bound (``h0 == 0``) crosses at 0 on every ray."""
    brackets = _expand_units(mapping, origins, directions, units, h0s,
                             t_stops)
    out = np.full((len(units), directions.shape[0]), np.nan)
    out[brackets[0], brackets[1]] = _refine_brackets(
        mapping, origins, units, h0s, directions, brackets)
    out[np.asarray(h0s) == 0.0] = 0.0
    return out


def _ray_crossings(mapping: FeatureMapping, origin: np.ndarray,
                   directions: np.ndarray, bound: float, *,
                   t_max: float = _T_MAX,
                   lower: np.ndarray | None = None,
                   upper: np.ndarray | None = None) -> np.ndarray:
    """One problem's crossing distance along each row of ``directions``
    (``nan`` where ``f`` does not reach ``bound`` within the reachable
    segment), through the group kernel as a group of one.

    Each direction must be normalised in the distance norm for its
    crossing parameter to be a distance.
    """
    origin = np.asarray(origin, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    h0 = mapping.value(origin) - bound
    t_stop = _ray_exit_ts(origin, directions, lower, upper, t_max)
    return _unit_crossings(mapping, origin[None], directions,
                           [(0, 0, float(bound))], [h0], [t_stop])[0]


# ---------------------------------------------------------------------------
# the bisection tier, per problem


def _directional_brackets(
    mapping: FeatureMapping,
    origin: np.ndarray,
    directions: np.ndarray,
    bound: float,
    *,
    t_max: float,
    lower: np.ndarray | None,
    upper: np.ndarray | None,
    table=None,
) -> tuple[float, list[tuple[int, float, float, float]]]:
    """One problem's brackets over rows of ``directions``.

    Returns ``(h0, brackets)`` where ``brackets`` holds one
    ``(row, t_lo, t_hi, h_hi)`` tuple per direction whose bracket showed
    a sign change, sorted by ascending ``(t_lo, row)`` — the order the
    pruned refinement in :func:`solve_bisection_radius` consumes.  When
    ``h0 == 0.0`` the origin itself is on the boundary and no expansion
    runs.  Cold, the brackets come from :func:`_expand_units` over a
    group of one.

    With a bound :class:`~repro.core.solvers.warm.RayTable` in ``table``,
    stored raw values replay the same expansion schedule without
    re-evaluating the mapping (see :func:`_brackets_from_table`); fresh
    probes are only spent where a ladder runs out, and are recorded for
    the next bound.
    """
    if table is not None:
        h0 = table.ensure_g0(mapping, origin) - bound
    else:
        h0 = mapping.value(origin) - bound
    if h0 == 0.0:
        return h0, []
    t_stop = _ray_exit_ts(origin, directions, lower, upper, t_max)
    if table is not None:
        return h0, _brackets_from_table(mapping, origin, directions, bound,
                                        h0, t_stop, table)
    _, row, lo, hi, h_hi = _expand_units(mapping, origin[None], directions,
                                         [(0, 0, bound)], [h0], [t_stop])
    return h0, [(int(row[k]), float(lo[k]), float(hi[k]), float(h_hi[k]))
                for k in np.lexsort((row, lo))]


def _brackets_from_table(
    mapping: FeatureMapping,
    origin: np.ndarray,
    directions: np.ndarray,
    bound: float,
    h0: float,
    t_stop: np.ndarray,
    table,
) -> list[tuple[int, float, float, float]]:
    """Bracket location that replays a ray table before evaluating.

    Walks each ray's canonical probe grid — ``t_1 = min(_T_INIT,
    t_stop)``, ``t_{k+1} = min(4 t_k, t_stop)`` — consuming stored raw
    values first.  The sign test ``h0 * (g - bound) <= 0.0`` sees the same
    floats as the cold batch (which computes ``values - bound``
    elementwise), and a stored ``nan`` terminates the ray exactly like the
    cold kernel's out-of-domain deactivation, so the located brackets are
    identical to a cold run's.  Rays whose ladders run out advance
    together through batched fresh probes, each recorded in the table for
    the next bound.
    """
    brackets: list[tuple[int, float, float, float]] = []
    pending: list[int] = []
    cursor_lo: dict[int, float] = {}
    cursor_hi: dict[int, float] = {}
    for row in range(directions.shape[0]):
        stop = float(t_stop[row])
        if not stop > 0.0:
            continue
        t_lo, t_hi = 0.0, min(_T_INIT, stop)
        ts, gs = table.ladder(row)
        resolved = False
        for g in gs:
            if np.isnan(g):
                # Terminal marker: the cold kernel deactivates the ray at
                # an out-of-domain probe regardless of the bound.
                resolved = True
                break
            h_hi = g - bound
            if h0 * h_hi <= 0.0:
                brackets.append((row, t_lo, t_hi, float(h_hi)))
                resolved = True
                break
            if t_hi >= stop:
                resolved = True
                break
            t_lo, t_hi = t_hi, min(4.0 * t_hi, stop)
        if not resolved:
            cursor_lo[row] = t_lo
            cursor_hi[row] = t_hi
            pending.append(row)
    while pending:
        rows = np.asarray(pending, dtype=np.intp)
        probe_ts = np.asarray([cursor_hi[r] for r in pending])
        points = origin + probe_ts[:, None] * directions[rows]
        values, in_domain = _batch_values(mapping, points)
        table.fresh_evals += 1
        still: list[int] = []
        for row, t_hi, g, ok in zip(pending, probe_ts, values, in_domain):
            table.append(row, t_hi, g if ok else np.nan)
            if not ok:
                continue
            h_hi = g - bound
            if h0 * h_hi <= 0.0:
                brackets.append((row, cursor_lo[row], float(t_hi),
                                 float(h_hi)))
                continue
            stop = float(t_stop[row])
            if t_hi >= stop:
                continue
            cursor_lo[row] = float(t_hi)
            cursor_hi[row] = min(4.0 * float(t_hi), stop)
            still.append(row)
        pending = still
    brackets.sort(key=lambda b: (b[1], b[0]))
    return brackets


def _refine_with_certificate(
    mapping: FeatureMapping,
    origin: np.ndarray,
    directions: np.ndarray,
    bound: float,
    brackets: list[tuple[int, float, float, float]],
    hint: int | None,
) -> tuple[float, int]:
    """Warm bracket refinement for convex mappings on the upper-bound side.

    With ``h0 < 0`` and ``f`` ray-convex, each ray's ``h`` crosses zero
    once and is strictly increasing past the crossing.  Refine the hinted
    candidate bracket first (the previous operating point's argmin ray);
    every other bracket is then either

    * pruned outright when ``lo > t_cand`` (its crossing exceeds ``lo``),
    * *certified* away by one probe at ``t_guard`` slightly beyond
      ``t_cand``: ``h(t_guard) < 0`` proves the crossing lies beyond
      ``t_guard > t_cand`` and cannot win, or
    * refined with the same scalar Brent call the cold path makes.

    The guard margin (``1e-9`` relative) dwarfs the Brent tolerance, so a
    ray whose crossing *ties* the candidate (e.g. duplicated component
    geometry under a max) sees ``h(t_guard) >= 0``, is force-refined, and
    the final lexicographic ``(t, row)`` minimum matches the cold scan's
    bit-for-bit.  Guard probes are off the canonical grid and are *not*
    recorded in the ray table.
    """
    cand = brackets[0]
    if hint is not None:
        for b in brackets:
            if b[0] == hint:
                cand = b
                break
    t_cand = _refine_bracket(mapping, origin, directions[cand[0]], bound,
                             cand[1], cand[2], cand[3])
    best_t, best_row = t_cand, cand[0]
    t_guard = t_cand + 1e-9 * (1.0 + t_cand)
    must: list[tuple[int, float, float, float]] = []
    guardable: list[tuple[int, float, float, float]] = []
    for b in brackets:
        if b is cand or b[1] > t_cand:
            continue
        (guardable if t_guard < b[2] else must).append(b)
    certified = 0
    if guardable:
        rows = np.asarray([b[0] for b in guardable], dtype=np.intp)
        points = origin + t_guard * directions[rows]
        values, in_domain = _batch_values(mapping, points)
        for b, g, ok in zip(guardable, values, in_domain):
            if ok and g - bound < 0.0:
                certified += 1
            else:
                must.append(b)
    for row, lo, hi, h_hi in must:
        t = _refine_bracket(mapping, origin, directions[row], bound,
                            lo, hi, h_hi)
        if t < best_t or (t == best_t and row < best_row):
            best_t, best_row = t, row
    if certified:
        get_metrics().inc("solver.certified_brackets", certified)
    return best_t, best_row


def solve_bisection_radius(
    mapping: FeatureMapping,
    origin: np.ndarray,
    bound: float,
    *,
    norm: float = 2,
    n_random_directions: int = _N_RANDOM_DIRECTIONS,
    include_axes: bool = True,
    t_max: float = _T_MAX,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
    seed=None,
    warm=None,
) -> BoundaryCrossing:
    """Upper-bound the radius by the best crossing over many directions.

    Directions comprise the ``2n`` signed coordinate axes (optional) plus
    ``n_random_directions`` uniform sphere samples, each normalised to unit
    length in ``norm`` so crossing parameters are distances.  Every
    direction's bracket advances in lock-step through the directional
    kernel (:func:`_expand_units` over a group of one) — one
    ``value_rows`` call per expansion step — and the brackets are refined
    by a pruned scalar Brent scan.  The result is bit-identical to the
    per-direction scalar loop
    (:func:`~repro.core.solvers.bench.scalar_bisection_radius`, pinned by
    ``tests/core/test_solver_kernels.py``).

    ``warm`` optionally carries a
    :class:`~repro.core.solvers.warm.WarmStart` shared with neighbouring
    solves of the same geometry (a sweep walking the bound): stored ray
    values replay the bracket expansion without fresh evaluations, and
    for ray-convex mappings on the upper-bound side the previous argmin
    direction seeds a certified refinement that skips provably-losing
    brackets.  Warm results are bit-identical to cold ones (pinned by
    ``tests/core/test_warm_solvers.py``).

    Raises
    ------
    BoundaryNotFoundError
        If no direction crosses the boundary within ``t_max`` — evidence
        (not proof, for general mappings) that the radius is infinite.
    """
    origin = np.asarray(origin, dtype=np.float64)
    n = origin.size
    if mapping.n_inputs != n:
        raise SpecificationError(
            f"origin has length {n} but mapping expects {mapping.n_inputs}")
    directions = _bisection_directions(n, norm, seed, n_random_directions,
                                       include_axes)

    logger.debug("bisection search at level %g over %d directions",
                 bound, directions.shape[0])
    table = None
    if warm is not None:
        table = warm.table
        table.bind(origin, directions, lower, upper, t_max, _T_INIT)
        warm.warm_starts += 1
        get_metrics().inc("solver.warm_starts")
    best_t = np.inf
    best_dir = None
    fresh_before = table.fresh_evals if table is not None else 0
    h0, brackets = _directional_brackets(mapping, origin, directions,
                                         bound, t_max=t_max,
                                         lower=lower, upper=upper,
                                         table=table)
    if table is not None and table.fresh_evals == fresh_before:
        # Every bracket came straight out of the table: a warm hit.
        warm.warm_hits += 1
        get_metrics().inc("solver.warm_hits")
    side = "upper" if h0 < 0.0 else "lower"
    if h0 == 0.0:
        best_t, best_dir = 0.0, directions[0]
    elif (table is not None and brackets and h0 < 0.0
            and warm.ray_convex(mapping)):
        best_t, best_row = _refine_with_certificate(
            mapping, origin, directions, bound, brackets,
            warm.hints.get(side))
        best_dir = directions[best_row]
        warm.hints[side] = best_row
    else:
        # Refine in ascending (t_lo, row) order, skipping brackets that
        # can no longer win: Brent's result always lies inside its
        # bracket, so once `lo > best_t` neither this bracket nor any
        # later one (they are sorted) can produce a strictly smaller —
        # or row-tie-winning — crossing.  Combined with the (t, row)
        # lexicographic update below, this selects exactly the scalar
        # loop's first strict minimiser.
        best_row = -1
        pruned = 0
        for i, (row, lo, hi, h_hi) in enumerate(brackets):
            if lo > best_t:
                pruned = len(brackets) - i
                break
            t = _refine_bracket(mapping, origin, directions[row], bound,
                                lo, hi, h_hi)
            if t < best_t or (t == best_t and row < best_row):
                best_t, best_row = t, row
        if pruned:
            get_metrics().inc("solver.pruned_brackets", pruned)
        if best_row >= 0:
            best_dir = directions[best_row]
            if warm is not None:
                warm.hints[side] = best_row
    if best_dir is None:
        logger.debug("no crossing at level %g within t_max=%g", bound, t_max)
        raise BoundaryNotFoundError(
            f"no boundary crossing for bound {bound} within t_max={t_max} "
            f"over {directions.shape[0]} directions")
    point = origin + best_t * best_dir
    return BoundaryCrossing(point=point, bound=float(bound), distance=best_t)
