"""Measurement helpers shared by every workload of the benchmark.

Everything here runs inside the workload process.  Tracing is done from
the outside: :func:`instrument` replaces public functions and methods of
the ``repro`` package with span-recording wrappers for the duration of a
traced unit and restores the originals afterwards, so ``src/`` carries
no tracing code and an untraced unit runs the unmodified program.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import resource
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


# -- result fingerprints -------------------------------------------------------

def fingerprint(run) -> str:
    """Canonical SHA-256 of a ``RunResult``, excluding ``wall_time_s``.

    Every other field is deterministic given the run's config, so two
    runs of one cell fingerprint equal on any executor and any host.
    """
    data = dataclasses.asdict(run)
    data.pop("wall_time_s", None)
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Checker:
    """Counts attempted and failed operations and keeps the first errors."""

    def __init__(self, expected: Optional[Dict[str, str]] = None):
        #: Fingerprints recorded for the default seed, keyed by cell
        #: label; ``None`` for other seeds.
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok

    def fail(self, what: str) -> None:
        self.record(False, what)

    def against_expected(self, label: str, fp: str) -> bool:
        """True when ``fp`` matches the recorded fingerprint (or none is
        recorded for this seed)."""
        if self.expected is None:
            return True
        return self.expected.get(label) == fp

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# -- statistics ----------------------------------------------------------------

def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct`` percentile, or 0.0 unless at least ten samples lie
    beyond it (a tail read off fewer samples is not reported)."""
    if len(values) * (100 - pct) < 1000:
        return 0.0
    return statistics.quantiles(values, n=100)[pct - 1]


# -- process resources ---------------------------------------------------------

def peak_rss_mb(worker_processes: int = 0) -> float:
    """Peak resident memory of this process, plus ``worker_processes``
    times the largest peak among its reaped child processes (an upper
    bound on what that many concurrent workers held)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + worker_processes * child) / 1024.0


# -- spans ---------------------------------------------------------------------

@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder.

    Spans nest through a stack, so a span's parent is the innermost span
    open when it started.  Only the thread that created the tracer
    records: calls made on executor helper threads run untraced rather
    than appearing as unparented roots.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._thread = threading.get_ident()
        #: Work counters accumulated from wrapped calls' return values.
        self.counts: Dict[str, float] = {}

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:  # pragma: no cover - wrapper misuse
            raise RuntimeError(f"span stack corrupted at {self.spans[index].name}")

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn: Callable, counter: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span; ``counter(args, kwargs, result)``
        returns counts to add to :attr:`counts`."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if counter is not None:
                for key, value in counter(args, kwargs, out).items():
                    tracer.counts[key] = tracer.counts.get(key, 0) + value
            return out

        return wrapper

    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus the time direct children
        cover (children of one span never overlap: one stack)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        out: Dict[str, float] = {}
        for i, span in enumerate(self.spans):
            out[span.name] = out.get(span.name, 0.0) + span.duration - child_time[i]
        return out

    def totals(self, name: str) -> float:
        """Summed duration of the spans called ``name`` (which the traced
        call sites never nest)."""
        return sum(span.duration for span in self.spans if span.name == name)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (name, start, end, parent)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")


#: A traced call site: (owner object, attribute name, span name,
#: counter or None).  The owner is a class (methods) or a module
#: (functions).
Target = Tuple[Any, str, str, Optional[Callable]]


def instrument(tracer: Tracer, targets: Iterable[Target]) -> Callable[[], None]:
    """Wrap every target in a span; returns the function that undoes it.

    A module-level function is also replaced wherever another loaded
    module imported it by name, so ``from .engine import simulate`` call
    sites (and the workloads' own imports) record spans too.
    """
    undo: List[Tuple[Any, str, Any]] = []
    for owner, attr, name, counter in targets:
        original = owner.__dict__[attr]
        wrapped = tracer.wrap(name, original, counter)
        undo.append((owner, attr, original))
        setattr(owner, attr, wrapped)
        if isinstance(owner, type):
            continue
        for module in list(sys.modules.values()):
            if module is None or module is owner:
                continue
            if getattr(module, "__dict__", {}).get(attr) is original:
                undo.append((module, attr, original))
                setattr(module, attr, wrapped)

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def calibrate_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop, for normalising results
    across hosts.  Metadata only: nothing is ever gated on it."""
    laps = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        laps.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(laps)
