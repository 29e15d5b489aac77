"""Directional root-bracketing radius solver.

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

Two equivalent kernels compute the crossings:

* :func:`directional_crossing` — the scalar reference: one direction at a
  time, one ``mapping.value`` call per bracket-expansion step;
* :func:`directional_crossings` — the batched kernel: every direction's
  bracket advances in lock-step, one ``mapping.value_rows`` call per
  iteration over the still-active directions.

The batched kernel only replaces *where* the bracket probes are evaluated
(a vectorised batch instead of a Python loop).  ``value_rows`` is
row-exact — each row's float is ``mapping.value``'s — so the probe
parameters, the sign decisions they feed, and the final Brent refinement
(scalar ``mapping.value`` calls here; lock-step in the tensor kernel)
are the same arithmetic, and the two kernels return bit-identical
crossings — a contract pinned by ``tests/core/test_solver_kernels.py``.
"""

from __future__ import annotations

import logging

import numpy as np
from scipy.optimize import brentq

from repro.core.boundary import BoundaryCrossing
from repro.core.mappings import FeatureMapping
from repro.exceptions import BoundaryNotFoundError, SpecificationError
from repro.observability import get_metrics
from repro.utils.linalg import sample_on_sphere
from repro.utils.rng import default_rng

__all__ = [
    "directional_crossing",
    "directional_crossings",
    "solve_bisection_radius",
]

logger = logging.getLogger(__name__)


def _ray_exit_t(origin: np.ndarray, direction: np.ndarray,
                lower: np.ndarray | None, upper: np.ndarray | None,
                t_max: float) -> float:
    """Largest ``t`` such that ``origin + t*direction`` stays in the box."""
    t_exit = float(t_max)
    for bound, side in ((lower, -1.0), (upper, 1.0)):
        if bound is None:
            continue
        slack = side * (np.asarray(bound) - origin)
        move = side * direction
        with np.errstate(divide="ignore", invalid="ignore"):
            ts = np.where(move > 0, slack / move, np.inf)
        t_exit = min(t_exit, float(np.min(ts)))
    return max(t_exit, 0.0)


def _ray_exit_ts(origin: np.ndarray, directions: np.ndarray,
                 lower: np.ndarray | None, upper: np.ndarray | None,
                 t_max: float) -> np.ndarray:
    """Per-direction box-exit parameters, elementwise-identical to
    :func:`_ray_exit_t` (same divisions, same exact min reductions)."""
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


def directional_crossing(
    mapping: FeatureMapping,
    origin: np.ndarray,
    direction: np.ndarray,
    bound: float,
    *,
    t_max: float = 1e6,
    t_init: float = 1e-3,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
    xtol: float = 1e-12,
) -> float | None:
    """Distance ``t`` of the first boundary crossing along a unit ray.

    Parameters
    ----------
    mapping, origin, bound:
        The feature, the original point, and the bound defining the boundary.
    direction:
        Ray direction; the caller is responsible for normalising it in the
        norm that distances are measured in, so the return value *is* the
        distance.
    t_max:
        Give up beyond this ray parameter.
    t_init:
        Initial bracket-expansion step.
    lower, upper:
        Optional reachability box; crossings beyond the box exit are
        ignored (they are not physically reachable perturbations).
    xtol:
        Brent tolerance.

    Returns
    -------
    float or None
        The crossing distance, or ``None`` if the feature does not cross
        ``bound`` along this ray within the reachable segment.
    """
    origin = np.asarray(origin, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)

    def h(t: float) -> float:
        return mapping.value(origin + t * direction) - bound

    h0 = h(0.0)
    if h0 == 0.0:
        return 0.0
    t_stop = _ray_exit_t(origin, direction, lower, upper, t_max)
    if t_stop <= 0.0:
        return None
    t_lo, t_hi = 0.0, min(t_init, t_stop)
    # Geometric bracket expansion until the sign flips or the segment ends.
    # A mapping with a restricted domain (e.g. ProductMapping needs positive
    # inputs) raises once the ray leaves it; the ray effectively ends there.
    while True:
        try:
            h_hi = h(t_hi)
        except SpecificationError:
            return None
        if h0 * h_hi <= 0.0:
            break
        if t_hi >= t_stop:
            return None
        t_lo, t_hi = t_hi, min(4.0 * t_hi, t_stop)
    if h_hi == 0.0:
        return float(t_hi)
    return float(brentq(h, t_lo, t_hi, xtol=xtol))


def _batch_values(mapping: FeatureMapping,
                  points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate raw ``f`` for a batch of probe points.

    Returns ``(values, in_domain)``.  The fast path is one row-exact
    ``mapping.value_rows`` call (counted in the ``solver.batch_evals``
    metric), so every caller — sign tests, ray tables, certificate
    probes, lock-step Brent steps — sees ``mapping.value``'s float for
    each row.  A mapping with a restricted domain raises
    :class:`SpecificationError` for the *whole* batch when any row has
    left it; the scalar kernel instead drops only the offending
    directions, so on such a failure the batch degrades to per-row
    scalar evaluation and marks the out-of-domain rows — preserving the
    scalar kernel's per-direction semantics exactly.

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


def _directional_brackets(
    mapping: FeatureMapping,
    origin: np.ndarray,
    directions: np.ndarray,
    bound: float,
    *,
    t_max: float,
    t_init: float,
    lower: np.ndarray | None,
    upper: np.ndarray | None,
    table=None,
) -> tuple[float, list[tuple[int, float, float, float]]]:
    """Lock-step bracket expansion over rows of ``directions``.

    Each iteration evaluates the still-active directions' probe points
    with a single ``mapping.value_rows`` call, so the Python-level
    evaluation cost is ``O(iterations)`` instead of
    ``O(directions x iterations)``.  Returns ``(h0, brackets)`` where
    ``brackets`` holds one ``(row, t_lo, t_hi, h_hi)`` tuple per
    direction whose bracket showed a sign change, sorted by ascending
    ``(t_lo, row)`` — the order the pruned refinement in
    :func:`solve_bisection_radius` consumes.  When ``h0 == 0.0`` the
    origin itself is on the boundary and no expansion runs.

    With a bound :class:`~repro.core.solvers.warm.RayTable` in ``table``,
    stored raw values replay the same expansion schedule without
    re-evaluating the mapping (see :func:`_brackets_from_table`); fresh
    probes are only spent where a ladder runs out, and are recorded for
    the next bound.
    """
    m = directions.shape[0]
    if table is not None:
        h0 = table.ensure_g0(mapping, origin) - bound
    else:
        h0 = mapping.value(origin) - bound
    if h0 == 0.0:
        return h0, []
    t_stop = _ray_exit_ts(origin, directions, lower, upper, t_max)
    if table is not None:
        return h0, _brackets_from_table(mapping, origin, directions, bound,
                                        h0, t_stop, t_init, table)
    active = t_stop > 0.0
    t_lo = np.zeros(m)
    t_hi = np.minimum(t_init, t_stop)
    brackets: list[tuple[int, float, float, float]] = []
    idx_all = np.arange(m)
    while np.any(active):
        rows = idx_all[active]
        points = origin + t_hi[rows, None] * directions[rows]
        values, in_domain = _batch_values(mapping, points)
        h_hi = values - bound
        # Out-of-domain probes end their rays exactly like the scalar
        # kernel's per-direction SpecificationError: no crossing.
        active[rows[~in_domain]] = False
        with np.errstate(invalid="ignore"):
            flipped = in_domain & (h0 * h_hi <= 0.0)
        for row, hv in zip(rows[flipped], h_hi[flipped]):
            brackets.append((int(row), float(t_lo[row]), float(t_hi[row]),
                             float(hv)))
        active[rows[flipped]] = False
        # Directions at the segment end without a sign flip: no crossing.
        exhausted = active[rows] & (t_hi[rows] >= t_stop[rows])
        active[rows[exhausted]] = False
        still = idx_all[active]
        t_lo[still] = t_hi[still]
        t_hi[still] = np.minimum(4.0 * t_hi[still], t_stop[still])
    brackets.sort(key=lambda b: (b[1], b[0]))
    return h0, brackets


def _brackets_from_table(
    mapping: FeatureMapping,
    origin: np.ndarray,
    directions: np.ndarray,
    bound: float,
    h0: float,
    t_stop: np.ndarray,
    t_init: float,
    table,
) -> list[tuple[int, float, float, float]]:
    """Bracket location that replays a ray table before evaluating.

    Walks each ray's canonical probe grid — ``t_1 = min(t_init, t_stop)``,
    ``t_{k+1} = min(4 t_k, t_stop)`` — consuming stored raw values first.
    The sign test ``h0 * (g - bound) <= 0.0`` sees the same floats as the
    cold batch (which computes ``values - bound`` elementwise), and a
    stored ``nan`` terminates the ray exactly like the cold kernel's
    out-of-domain deactivation, so the located brackets are identical to
    a cold run's.  Rays whose ladders run out advance together through
    batched fresh probes, each recorded in the table for the next bound.
    """
    brackets: list[tuple[int, float, float, float]] = []
    pending: list[int] = []
    cursor_lo: dict[int, float] = {}
    cursor_hi: dict[int, float] = {}
    for row in range(directions.shape[0]):
        stop = float(t_stop[row])
        if not stop > 0.0:
            continue
        t_lo, t_hi = 0.0, min(t_init, stop)
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


def _refine_bracket(mapping: FeatureMapping, origin: np.ndarray,
                    direction: np.ndarray, bound: float,
                    lo: float, hi: float, h_hi: float, xtol: float) -> float:
    """Brent refinement of one bracket — the same scalar ``mapping.value``
    calls the scalar kernel makes on the same bracket, hence bit-identical
    crossings."""
    if h_hi == 0.0:
        return float(hi)

    def h(t: float) -> float:
        return mapping.value(origin + t * direction) - bound

    return float(brentq(h, lo, hi, xtol=xtol))


def directional_crossings(
    mapping: FeatureMapping,
    origin: np.ndarray,
    directions: np.ndarray,
    bound: float,
    *,
    t_max: float = 1e6,
    t_init: float = 1e-3,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
    xtol: float = 1e-12,
    table=None,
) -> np.ndarray:
    """Batched :func:`directional_crossing` over rows of ``directions``.

    Advances every direction's bracket in lock-step (see
    :func:`_directional_brackets`), then refines every bracket with
    scalar Brent — the same call the scalar kernel makes on the same
    bracket, so the returned distances are bit-identical to calling
    :func:`directional_crossing` per row.  ``table`` optionally threads a
    :class:`~repro.core.solvers.warm.RayTable` into the bracket location
    (the caller is responsible for having bound it to this geometry).

    Returns
    -------
    numpy.ndarray
        Crossing distance per direction; ``nan`` where the feature does
        not cross ``bound`` within the reachable segment.
    """
    origin = np.asarray(origin, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    out = np.full(directions.shape[0], np.nan)
    if directions.shape[0] == 0:
        return out
    h0, brackets = _directional_brackets(mapping, origin, directions, bound,
                                         t_max=t_max, t_init=t_init,
                                         lower=lower, upper=upper,
                                         table=table)
    if h0 == 0.0:
        out[:] = 0.0
        return out
    for row, lo, hi, h_hi in brackets:
        out[row] = _refine_bracket(mapping, origin, directions[row], bound,
                                   lo, hi, h_hi, xtol)
    return out


def _refine_with_certificate(
    mapping: FeatureMapping,
    origin: np.ndarray,
    directions: np.ndarray,
    bound: float,
    brackets: list[tuple[int, float, float, float]],
    hint: int | None,
    xtol: float = 1e-12,
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
                             cand[1], cand[2], cand[3], xtol)
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
                            lo, hi, h_hi, xtol)
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
    n_random_directions: int = 128,
    include_axes: bool = True,
    t_max: float = 1e6,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
    seed=None,
    batch: bool = True,
    warm=None,
) -> BoundaryCrossing:
    """Upper-bound the radius by the best crossing over many directions.

    Directions comprise the ``2n`` signed coordinate axes (optional) plus
    ``n_random_directions`` uniform sphere samples, each normalised to unit
    length in ``norm`` so crossing parameters are distances.

    ``batch=True`` (the default) advances every direction's bracket in
    lock-step through :func:`directional_crossings` — one ``value_rows``
    call per expansion step instead of one ``value`` call per direction
    per step.  ``batch=False`` keeps the scalar reference kernel; the two
    produce bit-identical results (pinned by
    ``tests/core/test_solver_kernels.py``).

    ``warm`` optionally carries a
    :class:`~repro.core.solvers.warm.WarmStart` shared with neighbouring
    solves of the same geometry (a sweep walking the bound): stored ray
    values replay the bracket expansion without fresh evaluations, and
    for ray-convex mappings on the upper-bound side the previous argmin
    direction seeds a certified refinement that skips provably-losing
    brackets.  Warm results are bit-identical to cold ones (pinned by
    ``tests/core/test_warm_solvers.py``); ``batch=False`` ignores
    ``warm``.

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
    rng = default_rng(seed)
    dirs = []
    if include_axes:
        eye = np.eye(n)
        dirs.append(eye)
        dirs.append(-eye)
    if n_random_directions > 0:
        dirs.append(sample_on_sphere(rng, n_random_directions, n))
    directions = np.vstack(dirs)
    # Normalise every direction to unit length in the distance norm so the
    # ray parameter of a crossing equals its distance.
    p = np.inf if norm in (np.inf, "inf") else norm
    norms = np.linalg.norm(directions, ord=p, axis=1, keepdims=True)
    directions = directions / norms

    logger.debug("bisection search at level %g over %d directions",
                 bound, directions.shape[0])
    table = None
    if warm is not None and batch:
        table = warm.table("bisection")
        table.bind(origin, directions, lower, upper, t_max, 1e-3)
        warm.warm_starts += 1
        get_metrics().inc("solver.warm_starts")
    best_t = np.inf
    best_dir = None
    if batch:
        fresh_before = table.fresh_evals if table is not None else 0
        h0, brackets = _directional_brackets(mapping, origin, directions,
                                             bound, t_max=t_max, t_init=1e-3,
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
                                    lo, hi, h_hi, xtol=1e-12)
                if t < best_t or (t == best_t and row < best_row):
                    best_t, best_row = t, row
            if pruned:
                get_metrics().inc("solver.pruned_brackets", pruned)
            if best_row >= 0:
                best_dir = directions[best_row]
                if warm is not None and batch:
                    warm.hints[side] = best_row
    else:
        for d in directions:
            t = directional_crossing(mapping, origin, d, bound,
                                     t_max=t_max, lower=lower, upper=upper)
            if t is not None and t < best_t:
                best_t = t
                best_dir = d
    if best_dir is None:
        logger.debug("no crossing at level %g within t_max=%g", bound, t_max)
        raise BoundaryNotFoundError(
            f"no boundary crossing for bound {bound} within t_max={t_max} "
            f"over {directions.shape[0]} directions")
    point = origin + best_t * best_dir
    return BoundaryCrossing(point=point, bound=float(bound), distance=best_t)
