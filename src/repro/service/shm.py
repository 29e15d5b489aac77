"""Shared-memory batch publication for pooled radius batches.

Pickling every :class:`~repro.core.radius.RadiusProblem` into each worker
task ships the same origin/bounds/coefficient payload once per problem.
A :class:`SharedProblemBatch` publishes a batch **once** into two
:class:`multiprocessing.shared_memory.SharedMemory` blocks:

* a *data* block — one contiguous ``float64`` array holding every
  problem's origin and box-bound vectors back to back;
* a *meta* block — a single pickled header with the deduplicated mapping
  table (problems sharing one mapping object, e.g. a group of operating
  points over the same system, serialize it once), per-problem offsets
  into the data block, tolerance bounds, and norms.

:func:`~repro.core.radius.compute_radii` ships every pooled batch this
way: each task carries a :class:`BatchShard`, which pickles as a tiny
:class:`BatchDescriptor` plus indices.  Workers attach by name and decode
the header **once per process** (module-level cache), so a long-lived
pool stops unpickling whole problems on every task.

Lifecycle discipline is absolute: every published segment is tracked in a
module registry, unlinked via context-manager exit *and* an ``atexit``
safety net, and accounted in the ``shm.bytes`` gauge.  Publication is not
a service activity (every pooled batch publishes, service or not), so its
observability names carry no ``service.`` prefix: ``shm.publish`` /
``shm.unlink`` events, the ``shm.batches`` counter and the ``shm.bytes``
gauge.
:func:`assert_no_leaked_segments` turns a stranded ``/dev/shm`` block into
a loud test failure instead of silent disk-backed garbage.
"""

from __future__ import annotations

import atexit
import logging
import os
import pickle
import uuid
from collections.abc import Sequence
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.core.radius import RadiusProblem
from repro.exceptions import SpecificationError
from repro.observability import emit_event, get_metrics

__all__ = [
    "SEGMENT_PREFIX",
    "BatchDescriptor",
    "BatchShard",
    "SharedProblemBatch",
    "attach_batch",
    "active_segments",
    "assert_no_leaked_segments",
    "worker_batch_cache_info",
]

logger = logging.getLogger(__name__)

#: Prefix of every shared-memory segment this module creates.  Scoped by
#: pid so concurrent services on one machine never collide, and so the
#: leak guard can tell this process's strands from a sibling's.
SEGMENT_PREFIX = "repro_svc"

#: Publisher-side registry of live batches, keyed by data-segment name.
_LIVE: dict[str, "SharedProblemBatch"] = {}

#: Worker-side cache of decoded batches, keyed by data-segment name.
#: Bounded: decoding is cheap next to a solve, but attached segments pin
#: their pages, so a worker keeps only the most recent few batches.
_WORKER_BATCHES: dict[str, "_DecodedBatch"] = {}
_WORKER_CACHE_LIMIT = 4

_atexit_registered = False


def _segment_name(kind: str) -> str:
    return f"{SEGMENT_PREFIX}_{os.getpid()}_{kind}_{uuid.uuid4().hex[:12]}"


def _update_shm_gauge() -> None:
    get_metrics().set_gauge(
        "shm.bytes",
        float(sum(batch.nbytes for batch in _LIVE.values())))


def _release_all_segments() -> None:
    """``atexit`` safety net: unlink whatever close() never reached."""
    for batch in list(_LIVE.values()):
        logger.warning("unlinking shared-memory batch %s at interpreter "
                       "exit; close() was never called",
                       batch.descriptor.data_name)
        batch.close()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach a segment without registering it with the resource tracker.

    On attach (``create=False``) CPython <= 3.12 registers the segment
    with the resource tracker exactly as if this process had created it
    — under the ``fork`` start method all processes share one tracker,
    so attach/detach cycles in workers corrupt the publisher's
    registration (double-unregister noise, or the tracker unlinking the
    block out from under the publisher).  Only the publisher owns the
    unlink; attaching must not track.  The tracker has no public opt-out
    before Python 3.13's ``track=False``, so registration is suppressed
    for the duration of the attach call.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def _register_skipping_shm(rname, rtype):  # pragma: no cover - trivial
        if rtype != "shared_memory":
            original(rname, rtype)

    resource_tracker.register = _register_skipping_shm
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


@dataclass(frozen=True)
class BatchDescriptor:
    """Everything a worker needs to attach one published batch.

    A few dozen bytes that replace the pickled problems in every task:
    the segment names, the data-block length (attaching maps whole pages;
    the logical length restores the exact array), and the problem count
    for sanity checks.
    """

    data_name: str
    meta_name: str
    data_length: int
    n_problems: int


class SharedProblemBatch:
    """One radius-problem batch published into shared memory.

    Build with :meth:`publish`; hand each task a :meth:`shard` (or
    :attr:`descriptor` plus indices); release with :meth:`close` (or use
    as a context manager — the batch unlinks on exit even when a solve
    fails).

    Notes
    -----
    The publisher must outlive every task that reads the batch: tasks
    attach by name, and an unlinked segment cannot be attached.
    :func:`~repro.core.radius.compute_radii` guarantees this by closing
    a batch only after every shard task has returned.
    """

    def __init__(self, data: shared_memory.SharedMemory,
                 meta: shared_memory.SharedMemory, data_length: int,
                 problems: list[RadiusProblem]) -> None:
        self._data = data
        self._meta = meta
        self._problems = problems
        n_problems = len(problems)
        self.descriptor = BatchDescriptor(
            data_name=data.name, meta_name=meta.name,
            data_length=data_length, n_problems=n_problems)
        self.nbytes = data.size + meta.size
        self.closed = False
        global _atexit_registered
        if not _atexit_registered:
            atexit.register(_release_all_segments)
            _atexit_registered = True
        _LIVE[data.name] = self
        get_metrics().inc("shm.batches")
        emit_event("shm.publish", name=data.name,
                   problems=n_problems, bytes=self.nbytes)
        _update_shm_gauge()

    # ------------------------------------------------------------------
    # publication
    # ------------------------------------------------------------------
    @classmethod
    def publish(cls, problems: Sequence[RadiusProblem]
                ) -> "SharedProblemBatch":
        """Pack a problem batch into fresh shared-memory blocks.

        The mapping table is deduplicated by object identity — a group of
        problems over one system's mapping serializes it exactly once —
        and every numeric vector lands in one contiguous ``float64``
        block.  Decoding (:func:`attach_batch`) reconstructs problems
        that are bit-identical to the originals.
        """
        problems = list(problems)
        if not problems:
            raise SpecificationError("cannot publish an empty batch")
        mapping_table: list = []
        mapping_index: dict[int, int] = {}
        chunks: list[np.ndarray] = []
        headers: list[dict] = []
        offset = 0

        def _push(arr: np.ndarray | None) -> int:
            nonlocal offset
            if arr is None:
                return -1
            arr = np.ascontiguousarray(arr, dtype=np.float64)
            chunks.append(arr)
            start = offset
            offset += arr.size
            return start

        for problem in problems:
            key = id(problem.mapping)
            if key not in mapping_index:
                mapping_index[key] = len(mapping_table)
                mapping_table.append(problem.mapping)
            headers.append({
                "mapping": mapping_index[key],
                "n": int(problem.origin.size),
                "origin": _push(problem.origin),
                "lower": _push(problem.lower),
                "upper": _push(problem.upper),
                "bounds": problem.bounds,
                "norm": problem.norm,
            })
        flat = (np.concatenate(chunks) if chunks
                else np.empty(0, dtype=np.float64))
        meta_blob = pickle.dumps(
            {"mappings": mapping_table, "problems": headers},
            protocol=pickle.HIGHEST_PROTOCOL)

        data = shared_memory.SharedMemory(
            name=_segment_name("data"), create=True,
            size=max(1, flat.nbytes))
        try:
            meta = shared_memory.SharedMemory(
                name=_segment_name("meta"), create=True,
                size=max(1, len(meta_blob)))
        except Exception:
            data.close()
            data.unlink()
            raise
        if flat.size:
            np.ndarray(flat.shape, dtype=np.float64,
                       buffer=data.buf)[:] = flat
        meta.buf[:len(meta_blob)] = meta_blob
        return cls(data, meta, int(flat.size), problems)

    def shard(self, indices: Sequence[int]) -> "BatchShard":
        """Problems ``indices`` of this batch, for one task to solve."""
        return BatchShard(self.descriptor, indices,
                          [self._problems[i] for i in indices])

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unlink both segments (idempotent)."""
        if self.closed:
            return
        self.closed = True
        _LIVE.pop(self.descriptor.data_name, None)
        for segment in (self._data, self._meta):
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        emit_event("shm.unlink", name=self.descriptor.data_name)
        _update_shm_gauge()

    def __enter__(self) -> "SharedProblemBatch":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"SharedProblemBatch(name={self.descriptor.data_name!r}, "
                f"problems={self.descriptor.n_problems}, "
                f"bytes={self.nbytes}, closed={self.closed})")


class BatchShard(Sequence):
    """Some problems of a published batch, as a read-only sequence.

    It pickles as the batch's :class:`BatchDescriptor` plus the indices.
    In the publishing process it yields the original problems; unpickled
    in a worker, it decodes them on first access, inside the task, so a
    missing segment fails the task rather than the worker.
    """

    def __init__(self, descriptor: BatchDescriptor, indices: Sequence[int],
                 problems: list[RadiusProblem] | None = None) -> None:
        self.descriptor = descriptor
        self.indices = tuple(indices)
        self._problems = problems

    def __reduce__(self):
        return BatchShard, (self.descriptor, self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, index):
        if self._problems is None:  # unpickled in a worker: decode once
            batch = attach_batch(self.descriptor)
            self._problems = [batch.problem(i) for i in self.indices]
        return self._problems[index]


class _DecodedBatch:
    """A worker's attached, header-decoded view of one published batch."""

    def __init__(self, descriptor: BatchDescriptor) -> None:
        self._data = _attach_untracked(descriptor.data_name)
        meta_shm = _attach_untracked(descriptor.meta_name)
        try:
            meta = pickle.loads(bytes(meta_shm.buf))
        finally:
            meta_shm.close()
        self._flat = np.ndarray((descriptor.data_length,),
                                dtype=np.float64, buffer=self._data.buf)
        self._mappings = meta["mappings"]
        self._headers = meta["problems"]
        if len(self._headers) != descriptor.n_problems:
            raise SpecificationError(
                f"batch {descriptor.data_name} header carries "
                f"{len(self._headers)} problem(s), descriptor says "
                f"{descriptor.n_problems}")

    def _slice(self, start: int, n: int) -> np.ndarray | None:
        if start < 0:
            return None
        # Copy out of the mapped buffer: the reconstructed problem must
        # stay valid after this batch is evicted from the worker cache.
        return self._flat[start:start + n].copy()

    def problem(self, index: int) -> RadiusProblem:
        """Reconstruct problem ``index`` exactly as it was published."""
        h = self._headers[index]
        n = h["n"]
        return RadiusProblem(
            mapping=self._mappings[h["mapping"]],
            origin=self._slice(h["origin"], n),
            bounds=h["bounds"],
            lower=self._slice(h["lower"], n),
            upper=self._slice(h["upper"], n),
            norm=h["norm"],
        )

    def release(self) -> None:
        self._flat = None
        self._data.close()


def attach_batch(descriptor: BatchDescriptor) -> _DecodedBatch:
    """Attach (or reuse) a published batch in this process.

    The first task of a batch reaching a worker pays one attach + one
    header unpickle; every later task of the same batch is served from
    the module cache.  The cache holds the most recent
    ``_WORKER_CACHE_LIMIT`` batches; evicted entries detach their
    segments (the publisher still owns the unlink).
    """
    cached = _WORKER_BATCHES.get(descriptor.data_name)
    if cached is not None:
        return cached
    decoded = _DecodedBatch(descriptor)
    while len(_WORKER_BATCHES) >= _WORKER_CACHE_LIMIT:
        oldest = next(iter(_WORKER_BATCHES))
        _WORKER_BATCHES.pop(oldest).release()
    _WORKER_BATCHES[descriptor.data_name] = decoded
    return decoded


def worker_batch_cache_info() -> dict:
    """Size and keys of this process's decoded-batch cache (diagnostics)."""
    return {"entries": len(_WORKER_BATCHES),
            "names": sorted(_WORKER_BATCHES)}


# ----------------------------------------------------------------------
# leak guard
# ----------------------------------------------------------------------
def active_segments() -> list[str]:
    """Names of the batches this process has published and not yet closed."""
    return sorted(_LIVE)


def _stranded_dev_shm_segments() -> list[str]:
    """``/dev/shm`` entries carrying our prefix but unknown to the registry.

    These are strands of a *crashed* publisher (this process or an
    earlier one); a live publisher's segments are in :data:`_LIVE` and
    reported separately.
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux
        return []
    try:
        entries = os.listdir(shm_dir)
    except OSError:  # pragma: no cover - permission oddities
        return []
    return sorted(name for name in entries
                  if name.startswith(SEGMENT_PREFIX + "_")
                  and name not in _LIVE)


def assert_no_leaked_segments(*, cleanup: bool = True) -> None:
    """Fail loudly when shared-memory segments were stranded.

    The test-time half of the leak guard: call it after exercising the
    service and it raises :class:`AssertionError` naming every segment
    that is still live in this process's registry or stranded under
    ``/dev/shm`` with our prefix.  With ``cleanup`` (the default) the
    offenders are unlinked first, so one failing test cannot poison the
    next; pass ``cleanup=False`` to inspect the strands post mortem.
    """
    live = active_segments()
    stranded = _stranded_dev_shm_segments()
    if not live and not stranded:
        return
    if cleanup:
        for batch in list(_LIVE.values()):
            batch.close()
        for name in stranded:
            try:
                segment = shared_memory.SharedMemory(name=name)
                segment.close()
                segment.unlink()
            except FileNotFoundError:
                pass
    raise AssertionError(
        "leaked shared-memory segment(s): "
        f"live={live} stranded={stranded}"
        + ("; cleaned up" if cleanup else ""))
