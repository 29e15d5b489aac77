"""Radius-result caching keyed by a stable problem fingerprint.

Requirement sweeps, weighting-sensitivity studies, and placement
comparisons revisit the same operating points over and over: the same
mapping, origin, tolerance interval, norm, and box constraints produce
the same :class:`~repro.core.radius.RadiusResult` every time (for a fixed
seed), yet each visit used to pay for a fresh solve.  "Fast Construction
of Robustness Degradation Function" (Chen et al.) motivates exactly this
reuse across repeated radius evaluations at nearby operating points.

:class:`RadiusCache` memoises solved radii under a fingerprint built from

* the mapping's *structure key* (see
  :meth:`~repro.core.mappings.FeatureMapping.structure_key`) — exact
  coefficient bytes, recursively for composite mappings;
* the origin vector, tolerance bounds, norm, and box constraints;
* the solver ``method`` and the ``seed`` (stochastic solvers draw from
  it, so different seeds must never share an entry) — *except* for
  structurally deterministic solves, whose tier ladder is closed-form
  throughout (an affine mapping, or a positive-definite quadratic under
  ``method="auto"`` with no box and the Euclidean norm) and so can never
  reach a seeded solver: those are keyed on a ``deterministic`` marker
  instead, so repeated ``validate_radius`` sweeps across seeds share one
  entry.  A :class:`~repro.resilience.cascade.SolverCascade` solve is
  never cached: the cascade draws a fresh stream on every call, so no
  key can make a stored answer equal a fresh one.

Mappings without a stable structure key (arbitrary callables) and — for
seed-dependent solves only — stateful :class:`numpy.random.Generator`
seeds are *unfingerprintable*: lookups skip the cache entirely and are
counted separately, so the diagnostics distinguish "no reuse available"
from "reuse missed".

A process-wide default cache can be installed (the CLI does this unless
``--no-cache`` is given); :func:`~repro.core.radius.compute_radius`
consults it whenever no explicit cache decision is passed.
"""

from __future__ import annotations

import hashlib
import threading
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import SpecificationError
from repro.observability import emit_event, get_metrics

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.radius import RadiusProblem, RadiusResult

__all__ = [
    "RadiusCache",
    "install_default_cache",
    "uninstall_default_cache",
    "get_default_cache",
    "resolve_cache",
]


def _is_deterministic_solve(problem: "RadiusProblem", method: str) -> bool:
    """Whether every tier of the problem's solver ladder is closed-form
    (see :func:`~repro.core.radius._tier_ladder`), so no solve of it can
    ever draw from the seed."""
    # Imported lazily: repro.core.radius imports this module at import time.
    from repro.core.radius import _CLOSED_FORM, _tier_ladder

    return _CLOSED_FORM.issuperset(_tier_ladder(problem, method)[0])


def _digest_array(arr: np.ndarray | None) -> str:
    """Exact, shape-aware digest of an array (``-`` for ``None``)."""
    if arr is None:
        return "-"
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


class RadiusCache:
    """Memoisation of radius solves keyed by problem fingerprint.

    Parameters
    ----------
    max_entries:
        Optional size bound; when full, the oldest entry is evicted
        (insertion order).  ``None`` means unbounded.

    Notes
    -----
    Cached :class:`~repro.core.radius.RadiusResult` objects are returned
    as-is (they are frozen dataclasses); callers must not mutate the
    arrays they carry.  The cache is thread-safe; it is *not* shared
    across worker processes — each worker builds its own, and the solves
    a worker performs are deterministic, so cross-process reuse is a pure
    wall-clock optimisation, never a correctness concern.
    """

    def __init__(self, max_entries: int | None = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise SpecificationError(
                f"max_entries must be >= 1 or None, got {max_entries}")
        self.max_entries = max_entries
        self._store: dict[str, "RadiusResult"] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        #: Lookups that could not be fingerprinted (callable mappings,
        #: stateful Generator seeds) and therefore bypassed the cache.
        self.skips = 0
        #: Entries dropped to make room under ``max_entries``.
        self.evictions = 0

    # ------------------------------------------------------------------
    # fingerprinting
    # ------------------------------------------------------------------
    def key(self, problem: "RadiusProblem", *, method: str = "auto",
            seed=None) -> str | None:
        """Stable cache key for a problem, or ``None`` if unfingerprintable.

        ``None`` is returned (and counted as a skip) when the mapping has
        no structure key, or when the solve is seed-dependent and the
        seed is a stateful :class:`numpy.random.Generator` whose stream
        position cannot be fingerprinted.  Structurally deterministic
        solves (see :func:`_is_deterministic_solve`) replace the seed
        with a fixed marker, so every seed shares their entries — no
        randomness is ever drawn for them.  ``method`` is hashed as
        given: besides the solver methods it may be any other token
        naming how the radius is solved, and such a token is always
        seed-keyed.

        Raises :class:`~repro.exceptions.SpecificationError` for
        ``method="analytic"`` on a mapping that is not structurally
        affine, exactly as the solve itself would.
        """
        structure = problem.mapping.structure_key()
        deterministic = (structure is not None
                         and _is_deterministic_solve(problem, method))
        if structure is None or (not deterministic
                                 and isinstance(seed, np.random.Generator)):
            with self._lock:
                self.skips += 1
            get_metrics().inc("cache.skips")
            emit_event("cache.skip",
                       reason=("no structure key" if structure is None
                               else "stateful Generator seed"))
            return None
        h = hashlib.sha256()
        h.update(repr(structure).encode())
        h.update(_digest_array(problem.origin).encode())
        h.update(repr((float(problem.bounds.beta_min),
                       float(problem.bounds.beta_max))).encode())
        h.update(repr(problem.norm).encode())
        h.update(_digest_array(problem.lower).encode())
        h.update(_digest_array(problem.upper).encode())
        h.update(repr(method).encode())
        h.update(b"deterministic" if deterministic else repr(seed).encode())
        return h.hexdigest()

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------
    def get(self, key: str | None) -> "RadiusResult | None":
        """Look a key up, counting the hit or miss (``None`` key: no-op)."""
        if key is None:
            return None
        with self._lock:
            result = self._store.get(key)
            if result is None:
                self.misses += 1
            else:
                self.hits += 1
        if result is None:
            get_metrics().inc("cache.misses")
            emit_event("cache.miss", key=key[:12])
        else:
            get_metrics().inc("cache.hits")
            emit_event("cache.hit", key=key[:12])
        return result

    def put(self, key: str | None, result: "RadiusResult") -> None:
        """Store a solved result (``None`` key: no-op)."""
        if key is None:
            return
        evicted = None
        with self._lock:
            if self.max_entries is not None \
                    and key not in self._store \
                    and len(self._store) >= self.max_entries:
                evicted = next(iter(self._store))
                self._store.pop(evicted)
                self.evictions += 1
            self._store[key] = result
        if evicted is not None:
            get_metrics().inc("cache.evictions")
            emit_event("cache.evict", key=evicted[:12])

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._store.clear()
            self.hits = self.misses = self.skips = self.evictions = 0

    def __len__(self) -> int:
        return len(self._store)

    def stats(self) -> dict:
        """Hit/miss/skip/eviction counters for diagnostics and payloads.

        Returns an immutable *snapshot* taken under the lock: a fresh
        dict of plain values decoupled from the live cache, so callers
        holding a stats dict never observe later mutation.  With an
        observability session active the same traffic also lands in the
        ``cache.*`` metrics and as ``cache.hit``/``cache.miss``/
        ``cache.skip``/``cache.evict`` events.
        """
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "skips": self.skips,
                "evictions": self.evictions,
                "entries": len(self._store),
                "hit_rate": (self.hits / total) if total else 0.0,
            }

    def __repr__(self) -> str:
        s = self.stats()
        return (f"RadiusCache(entries={s['entries']}, hits={s['hits']}, "
                f"misses={s['misses']}, skips={s['skips']}, "
                f"evictions={s['evictions']})")


# ----------------------------------------------------------------------
# process-wide default cache
# ----------------------------------------------------------------------
_default_cache: RadiusCache | None = None


def install_default_cache(cache: RadiusCache | None = None) -> RadiusCache:
    """Install (or replace) the process-wide default radius cache.

    ``compute_radius`` and :class:`~repro.core.fepia.RobustnessAnalysis`
    consult the default cache whenever no explicit cache decision is made.
    Returns the installed cache (a fresh one when ``cache`` is ``None``).
    """
    global _default_cache
    _default_cache = cache if cache is not None else RadiusCache()
    return _default_cache


def uninstall_default_cache() -> None:
    """Remove the process-wide default cache (radius solves stop caching)."""
    global _default_cache
    _default_cache = None


def get_default_cache() -> RadiusCache | None:
    """The installed process-wide default cache, or ``None``."""
    return _default_cache


def resolve_cache(cache) -> RadiusCache | None:
    """Resolve the tri-state cache convention used across the library.

    ``None``
        defer to the installed default cache (possibly none);
    ``False``
        caching explicitly disabled for this call;
    a :class:`RadiusCache`
        use exactly that cache.
    """
    if cache is None:
        return _default_cache
    if cache is False:
        return None
    if isinstance(cache, RadiusCache):
        return cache
    raise SpecificationError(
        f"cache must be a RadiusCache, None or False, got {type(cache).__name__}")
