"""Warm-start state shared between neighbouring solves of a sweep.

Along a requirement sweep only the tolerance bound changes: the mapping,
the origin, the direction set, and the reachability box — the *geometry*
— are fixed, so the raw feature values ``g(t) = f(origin + t d)`` probed
along each ray are bound-independent.  :class:`RayTable` memoises those
raw values at the canonical probe grid of the bisection kernel
(``t_1 = min(t_init, t_stop)``, ``t_{k+1} = min(4 t_k, t_stop)``).  A
warm solve *replays* the cold kernel's bracket-expansion schedule against
the stored values — the sign test ``h0 * (g(t) - bound) <= 0`` uses
elementwise-identical arithmetic to the cold batch's ``values - bound``
— and only evaluates the mapping where the stored ladder runs out.  A
solve whose brackets were fully located from the table performed **zero**
fresh batched evaluations and counts as a *warm hit*.

:class:`WarmStart` bundles the bisection tier's table with the previous
point's argmin direction (the *hint* that seeds the convexity-certified
refinement in :func:`~repro.core.solvers.bisection.solve_bisection_radius`)
and the ``warm_starts`` / ``warm_hits`` counters surfaced through
observability metrics of the same names.  Only the bisection tier keeps
warm state: a family of numeric-tier solves under a stateless seed rides
the tensor kernel as one group instead (see
:func:`~repro.analysis.degradation.degradation_curve`), and under a
``Generator`` seed each solve draws new rays, so no table would survive.

Warm state never enters :class:`~repro.parallel.cache.RadiusCache` keys:
a warm-started solve is bit-identical to its cold twin by construction,
so both record (and hit) the *same* cache entry.
"""

from __future__ import annotations

import numpy as np

from repro.core.mappings import (
    CallableMapping,
    FeatureMapping,
    LinearMapping,
    MaxMapping,
    ProductMapping,
    QuadraticMapping,
    RestrictedMapping,
    ReweightedMapping,
    SumMapping,
)

__all__ = ["RayTable", "WarmStart", "is_ray_convex"]


def is_ray_convex(mapping: FeatureMapping) -> bool:
    """Whether ``f`` is provably convex, hence convex along every ray.

    For a convex ``f`` with ``f(origin) < bound``, the crossing of
    ``h(t) = f(origin + t d) - bound`` is unique on each ray and ``h`` is
    strictly increasing past it — the structural fact behind the
    certified bracket refinement in the warm bisection path.  The check
    is conservative: anything not recognisably convex returns ``False``
    (the warm solve then refines every candidate bracket, which is still
    bit-identical to cold, just less lazy).
    """
    if isinstance(mapping, LinearMapping):
        return True
    if isinstance(mapping, QuadraticMapping):
        # Positive-semidefinite quadratic part <=> convex.  Strict test:
        # a numerically borderline matrix falls back to the uncertified
        # (correct, merely less lazy) path.
        return bool(np.linalg.eigvalsh(mapping.quadratic).min() >= 0.0)
    if isinstance(mapping, (MaxMapping, SumMapping)):
        return all(is_ray_convex(comp) for comp in mapping.components)
    if isinstance(mapping, (RestrictedMapping, ReweightedMapping)):
        # Affine section / elementwise-linear reparameterisation of a
        # convex function is convex.
        return is_ray_convex(mapping.base)
    if isinstance(mapping, (ProductMapping, CallableMapping)):
        return False
    # Transparent wrappers (e.g. the benchmark's call counter) expose the
    # wrapped mapping as `.inner`.
    inner = getattr(mapping, "inner", None)
    if isinstance(inner, FeatureMapping):
        return is_ray_convex(inner)
    return False


def _box_bytes(bound) -> bytes | None:
    if bound is None:
        return None
    return np.ascontiguousarray(np.asarray(bound, dtype=np.float64)).tobytes()


class RayTable:
    """Memo of raw feature values along a fixed family of rays.

    One table serves every bound of every sweep point that shares the ray
    geometry ``(origin, directions, box, t_max, t_init)``; :meth:`bind`
    silently resets the memo when the geometry changes, which degrades
    the solve to a cold (still bit-identical) one.

    Stored values are *raw* ``g(t) = f(origin + t d)`` floats — the
    kernel subtracts the current bound itself, because ``(g - b') `` is
    only elementwise-identical to the cold batch when computed from the
    raw value (``(g - b) + b != g`` in floats).  A stored ``nan`` marks
    an out-of-domain probe; the cold kernel deactivates such a ray for
    *every* bound, so ``nan`` is a terminal, bound-independent marker.
    """

    def __init__(self) -> None:
        self._key: tuple | None = None
        self.g0: float | None = None
        self._ts: list[list[float]] = []
        self._gs: list[list[float]] = []
        #: Number of fresh batched evaluations spent extending ladders.
        self.fresh_evals = 0

    def bind(self, origin: np.ndarray, directions: np.ndarray,
             lower: np.ndarray | None, upper: np.ndarray | None,
             t_max: float, t_init: float) -> None:
        """(Re)attach the table to a ray geometry, resetting on mismatch."""
        key = (
            np.ascontiguousarray(origin).tobytes(),
            directions.shape,
            np.ascontiguousarray(directions).tobytes(),
            _box_bytes(lower),
            _box_bytes(upper),
            float(t_max),
            float(t_init),
        )
        if key != self._key:
            self._key = key
            self.g0 = None
            m = directions.shape[0]
            self._ts = [[] for _ in range(m)]
            self._gs = [[] for _ in range(m)]

    @property
    def n_rows(self) -> int:
        return len(self._ts)

    def ensure_g0(self, mapping: FeatureMapping, origin: np.ndarray) -> float:
        """The (memoised) raw feature value at the origin."""
        if self.g0 is None:
            self.g0 = float(mapping.value(origin))
        return self.g0

    def ladder(self, row: int) -> tuple[list[float], list[float]]:
        """The stored ``(t, g)`` probe ladder of one ray, grid order."""
        return self._ts[row], self._gs[row]

    def append(self, row: int, t: float, g: float) -> None:
        self._ts[row].append(float(t))
        self._gs[row].append(float(g))

    def stats(self) -> dict:
        return {
            "rows": self.n_rows,
            "entries": sum(len(ts) for ts in self._ts),
            "fresh_evals": self.fresh_evals,
        }


class WarmStart:
    """Per-family warm-start state threaded through neighbouring solves.

    Create one per *problem family* — a sequence of solves that share the
    mapping, origin, box, and norm and differ only in their bounds (one
    operating-point walk of a degradation curve) — and pass it to every
    :func:`~repro.core.radius.compute_radius` call of that family via its
    ``warm=`` keyword.  Reusing one instance across unrelated geometries
    is safe (the tables reset) but pointless.
    """

    def __init__(self) -> None:
        #: The bisection tier's ray table.
        self.table = RayTable()
        #: Previous argmin direction row per bound side ("upper"/"lower").
        self.hints: dict[str, int] = {}
        self.warm_starts = 0
        self.warm_hits = 0
        self._convex_memo: dict = {}

    def ray_convex(self, mapping: FeatureMapping) -> bool:
        """Memoised :func:`is_ray_convex` (one PSD check per family)."""
        key = mapping.structure_key()
        memo_key = key if key is not None else id(mapping)
        if memo_key not in self._convex_memo:
            self._convex_memo[memo_key] = is_ray_convex(mapping)
        return self._convex_memo[memo_key]

    def stats(self) -> dict:
        return {
            "warm_starts": self.warm_starts,
            "warm_hits": self.warm_hits,
            "tables": {"bisection": self.table.stats()},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WarmStart(starts={self.warm_starts}, "
                f"hits={self.warm_hits})")
