"""Shared pieces of the benchmark: timing, statistics, identity and traces.

Everything here is benchmark-owned.  Layer timings use :class:`Stopwatch`,
never ``repro.observability.span``: the program's ``TraceRecorder`` keeps
one process-wide nesting stack, so a span opened on a client thread while
the service dispatcher runs would re-parent ``service.request`` and
corrupt its self-time.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Worker processes per workload: the benchmark is sized for a 2-core box.
WORKERS = 2
#: Set-up is repeated this many times per run and reported as a median.
SETUP_REPEATS = 9


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``metrics`` maps metric names (as declared in ``BENCHMARK.json``) to
    values; ``attempted`` counts entry-point operations and ``failed``
    those that failed, were shed, timed out, differed from the serial
    reference, or leaked a shared-memory segment.  ``layers`` is the
    traced run's self-time table, ``{span name: seconds per call}``.
    """

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Count one attempted operation, failing it unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what)


class Stopwatch:
    """Benchmark-owned wall-clock samples, keyed by label."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)

    @contextmanager
    def time(self, label: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.samples[label].append(time.perf_counter() - t0)

    def median(self, label: str) -> float:
        return statistics.median(self.samples[label])


def median(values) -> float:
    return float(statistics.median(values))


def p95(values) -> float:
    """95th percentile; callers keep at least 200 samples so that ten or
    more lie beyond it."""
    return float(statistics.quantiles(values, n=20)[-1])


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call, with the GC quiesced first."""
    gc.collect()
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def setup_median(start, repeats: int = SETUP_REPEATS):
    """Time ``start()`` (which returns ``(handle, close)``) ``repeats``
    times; close every handle but the last and return it with the median.
    """
    seconds = []
    handle = None
    for i in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        handle, close = start()
        seconds.append(time.perf_counter() - t0)
        if i < repeats - 1:
            close()
    return handle, close, median(seconds)


def run_for(seconds: float, items, call):
    """Closed loop with one caller: cycle ``items`` through ``call`` until
    ``seconds`` of wall time have passed (at least one full cycle).

    Returns ``[(item, result, call_seconds), ...]``.
    """
    done = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(items) or time.perf_counter() < deadline:
        item = items[i % len(items)]
        result, dt = timed(call, item)
        done.append((item, result, dt))
        i += 1
    return done


def stop_children(grace: float = 10.0) -> None:
    """Wait for every process the run started, on any path out of it.

    Joins the multiprocessing children still alive (terminating any that
    outlast ``grace`` seconds), then stops the resource tracker the first
    shared-memory segment launched: it is not a child the pools join,
    and left alone it outlives this process by the moment it takes to
    notice the exit.
    """
    import multiprocessing
    import os
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(grace)
        if child.is_alive():
            child.terminate()
            child.join()
    tracker = resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
    elif tracker._fd is not None:  # Python versions without _stop()
        os.close(tracker._fd)
        tracker._fd = None
        os.waitpid(tracker._pid, 0)
        tracker._pid = None


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child.

    Children count once they have been waited for, so call this after
    every pool, manager and service has been closed.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def canonical(results) -> str:
    """Canonical JSON of radius results with wall-clock fields zeroed.

    ``SolverAttempt.elapsed`` is the one ``RadiusResult`` field outside
    the determinism contract, so it is zeroed before comparison (as the
    private ``repro.service.bench._canonical`` does; the benchmark keeps
    its own copy so it does not lean on a private helper).
    """
    from repro.io.serialize import to_dict

    dicts = [to_dict(r) for r in results]
    for d in dicts:
        for attempt in d.get("diagnostics", []):
            attempt["elapsed"] = 0.0
    return json.dumps(dicts, sort_keys=True)


# ----------------------------------------------------------------------
# traces
# ----------------------------------------------------------------------

#: Span-name prefix -> program layer (module) it times.
SPAN_LAYERS = (
    ("radius.tensor", "core.solvers.tensor"),
    ("radius.", "core.radius"),
    ("parallel.", "parallel.executor"),
    ("supervisor.", "resilience.supervisor"),
    ("service.", "service.service"),
    ("analysis.", "core.fepia"),
    ("lab.replay", "scenarios.replay"),
    ("lab.bootstrap", "scenarios.bootstrap"),
    ("lab.ablation", "scenarios.ablation"),
    ("lab.", "scenarios.lab"),
)


def layer_of(span_name: str) -> str:
    for prefix, layer in SPAN_LAYERS:
        if span_name.startswith(prefix):
            return layer
    return "?"


def subtree(spans, root) -> list:
    """``root`` and every span below it (spans in id order)."""
    keep = {root.span_id}
    out = [root]
    for s in spans:
        if s.parent_id in keep and s.span_id not in keep:
            keep.add(s.span_id)
            out.append(s)
    return out


def self_times(spans) -> dict[str, float]:
    """Total self-time per span name: a span's duration minus the part
    its children cover (clamped at zero where concurrent worker children
    overlap their parent)."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent_id is not None:
            child_time[s.parent_id] += s.elapsed or 0.0
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += max(0.0, (s.elapsed or 0.0) - child_time[s.span_id])
    return dict(out)


def per_call_layers(spans, calls: int) -> dict[str, float]:
    """The self-time table divided by the number of traced calls."""
    return {name: t / calls for name, t in self_times(spans).items()}


def total(spans, name: str) -> float:
    return sum(s.elapsed or 0.0 for s in spans if s.name == name)
