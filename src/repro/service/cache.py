"""A radius cache shared across processes, so clients warm each other.

:class:`~repro.service.RadiusService` no longer uses this class on its
own: its dispatcher runs every cache pass and owns a plain
:class:`~repro.parallel.cache.RadiusCache`, so one service's clients
already share entries without a manager round trip per lookup.  A
deployment that wants several *service processes* to share entries can
still pass an instance as ``ServiceConfig(cache=SharedRadiusCache())``;
the dispatcher then reads and writes it like any other cache.

:class:`~repro.parallel.cache.RadiusCache` is process-local: every worker
builds its own, and a solve cached by one client is invisible to the
next.  :class:`SharedRadiusCache` keeps the exact same fingerprinting
(:meth:`~repro.parallel.cache.RadiusCache.key` is inherited unchanged, so
a problem hits the shared store under precisely the key it would hit a
local cache under) but backs the entry store with a
:class:`multiprocessing.managers.SyncManager` dict.  The cache object —
manager proxies included — pickles into worker tasks, so a solve stored
by one process is served from cache to every other holder of the store.

Cached results are bit-identical to fresh solves (the library's cache
contract), so sharing them across processes is a pure wall-clock
optimisation, never a correctness concern.

Accounting: besides the inherited hit/miss/skip/eviction counters (which
stay *per client*: each process counts its own traffic), a
:class:`SharedRadiusCache` counts ``warm_hits`` — hits served from an
entry that some *other* client stored.  That is the number a serving
deployment cares about: how often did concurrent clients warm each other.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import uuid
from typing import TYPE_CHECKING

from repro.observability import emit_event, get_metrics
from repro.parallel.cache import RadiusCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.radius import RadiusResult

__all__ = ["SharedRadiusCache"]


def _client_id() -> str:
    return f"{os.getpid()}:{uuid.uuid4().hex[:8]}"


class SharedRadiusCache(RadiusCache):
    """Fingerprint-keyed radius memoisation shared across processes.

    Parameters
    ----------
    max_entries:
        Optional size bound; when full, the oldest entry is evicted
        (insertion order, like the local cache).  ``None`` = unbounded.
    manager:
        An existing :class:`multiprocessing.managers.SyncManager` to
        allocate the store from; by default the cache starts (and owns)
        its own.  Call :meth:`close` — or use the cache as a context
        manager — to shut an owned manager down.

    Notes
    -----
    Pickling a :class:`SharedRadiusCache` into a worker task ships the
    manager proxies; the unpickled copy in the worker talks to the *same*
    store under a fresh client id with zeroed local counters.  The
    manager process must outlive every worker that holds a proxy — the
    radius service guarantees this by closing the cache last.
    """

    def __init__(self, max_entries: int | None = None, *,
                 manager=None) -> None:
        super().__init__(max_entries)
        self._owns_manager = manager is None
        self._manager = (manager if manager is not None
                         else multiprocessing.Manager())
        self._shared = self._manager.dict()
        self._shared_lock = self._manager.Lock()
        self._client = _client_id()
        #: Hits served from an entry stored by a *different* client.
        self.warm_hits = 0

    # ------------------------------------------------------------------
    # pickling: ship the proxies, re-identify the client
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {"max_entries": self.max_entries, "_shared": self._shared,
                "_shared_lock": self._shared_lock}

    def __setstate__(self, state: dict) -> None:
        self.max_entries = state["max_entries"]
        self._shared = state["_shared"]
        self._shared_lock = state["_shared_lock"]
        self._owns_manager = False
        self._manager = None
        self._store = {}
        self._lock = threading.Lock()
        self.hits = self.misses = self.skips = self.evictions = 0
        self.warm_hits = 0
        self._client = _client_id()

    # ------------------------------------------------------------------
    # storage (same key() as the local cache, shared entries)
    # ------------------------------------------------------------------
    def get(self, key: str | None) -> "RadiusResult | None":
        """Look a key up in the shared store (``None`` key: no-op)."""
        if key is None:
            return None
        entry = self._shared.get(key)
        warm = False
        with self._lock:
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
                warm = entry[0] != self._client
                if warm:
                    self.warm_hits += 1
        if entry is None:
            get_metrics().inc("cache.misses")
            emit_event("cache.miss", key=key[:12])
            return None
        get_metrics().inc("cache.hits")
        emit_event("cache.hit", key=key[:12])
        if warm:
            get_metrics().inc("cache.warm_hits")
            emit_event("cache.warm_hit", key=key[:12], owner=entry[0])
        return entry[1]

    def put(self, key: str | None, result: "RadiusResult") -> None:
        """Store a solved result tagged with this client (``None``: no-op)."""
        if key is None:
            return
        evicted = None
        with self._shared_lock:
            if self.max_entries is not None and key not in self._shared \
                    and len(self._shared) >= self.max_entries:
                evicted = next(iter(self._shared.keys()))
                self._shared.pop(evicted, None)
                with self._lock:
                    self.evictions += 1
            self._shared[key] = (self._client, result)
        if evicted is not None:
            get_metrics().inc("cache.evictions")
            emit_event("cache.evict", key=evicted[:12])

    def clear(self) -> None:
        """Drop every shared entry and reset this client's counters."""
        with self._shared_lock:
            self._shared.clear()
        with self._lock:
            self.hits = self.misses = self.skips = self.evictions = 0
            self.warm_hits = 0

    def __len__(self) -> int:
        return len(self._shared)

    def stats(self) -> dict:
        """This client's counters plus the shared entry count.

        ``warm_hits`` counts hits served from entries other clients
        stored — the cross-client warming a serving deployment exists
        for.  Counters are per client; ``entries`` is global.
        """
        stats = super().stats()
        with self._lock:
            stats["warm_hits"] = self.warm_hits
        stats["entries"] = len(self._shared)
        stats["shared"] = True
        return stats

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the owned manager down (no-op for adopted managers)."""
        if self._owns_manager and self._manager is not None:
            self._manager.shutdown()
            self._manager = None

    def __enter__(self) -> "SharedRadiusCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        try:
            entries = len(self._shared)
        except Exception:  # pragma: no cover - manager already gone
            entries = -1
        return (f"SharedRadiusCache(entries={entries}, hits={self.hits}, "
                f"warm_hits={self.warm_hits}, misses={self.misses})")
