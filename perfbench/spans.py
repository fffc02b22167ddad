"""Span tracing from outside the package, by wrapping layer-boundary names.

Each boundary is a public name that one module looks up in another (for
example ``parse_daily_path`` as ``marketreg.cli`` sees it). While tracing,
the name is replaced by a wrapper that records a span: name, start, end,
the CPU time its thread spent in it, parent span, thread and operation id.
Spans stay in memory and are written out when the run ends; self time and
per-layer figures are derived from them.

Wall times of spans on different threads overlap, and a pool thread's wall
time includes its wait for the GIL, so a layer's own cost is its CPU time.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter, thread_time
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    cpu: float  # CPU seconds of the span's thread between start and end
    thread: int
    op: int


class MissingSpan(RuntimeError):
    """A span or counter the workload must produce was never recorded."""


class Boundary(NamedTuple):
    owner: str  # module path, or "module:Class" for a method
    attr: str
    span: str
    count: Callable | None = None  # count(tracer, args, result), run after the span ends


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op = 0
        self._op_stack: list[int] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name: str, fn, /, *args, **kwargs):
        stack = self._stack()
        # A pool thread starts with an empty stack; the span that waits for
        # it is the innermost one open on the operation's own thread.
        parent = stack[-1] if stack else (self._op_stack[-1] if self._op_stack else None)
        sid = next(self._ids)
        stack.append(sid)
        start, cpu_start = perf_counter(), thread_time()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            with self._lock:
                self.errors[name.split(".", 1)[0]] += 1
            raise
        finally:
            end, cpu = perf_counter(), thread_time() - cpu_start
            stack.pop()
            self.spans.append(
                Span(sid, parent, name, start, end, cpu, threading.get_ident(), self._op)
            )

    def run_op(self, op_id: int, fn, *args):
        """Run one operation under a root span named ``op``."""
        self._op = op_id
        self._op_stack = self._stack()
        return self.call("op", fn, *args)

    def add(self, counter: str, amount: float) -> None:
        with self._lock:
            self.counters[counter] += amount

    def wrap(self, boundary: Boundary, fn):
        def wrapper(*args, **kwargs):
            result = self.call(boundary.span, fn, *args, **kwargs)
            if boundary.count is not None:
                boundary.count(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def require(self, spans, counters) -> None:
        """Fail loudly when a boundary this workload crosses left no record,
        as it would after a rename that the wrapping did not follow."""
        seen = {s.name for s in self.spans}
        missing = [f"span {n}" for n in spans if n not in seen]
        missing += [f"counter {n}" for n in counters if self.counters[n] <= 0]
        if missing:
            raise MissingSpan("traced run never recorded: " + ", ".join(missing))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@contextmanager
def traced(tracer: Tracer, boundaries):
    """Wrap every boundary for the duration of the block; a boundary name
    that no longer exists raises AttributeError before anything runs."""
    saved = []
    try:
        for b in boundaries:
            owner = _resolve(b.owner)
            original = getattr(owner, b.attr)
            saved.append((owner, b.attr, original))
            setattr(owner, b.attr, tracer.wrap(b, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - union_length(children[s.id], s.start, s.end) for s in spans
    }


def ancestors(spans: list[Span]) -> dict[int, set[str]]:
    """Span id -> names of every span above it."""
    by_id = {s.id: s for s in spans}
    out = {}
    for s in spans:
        names, parent = set(), s.parent
        while parent is not None:
            names.add(by_id[parent].name)
            parent = by_id[parent].parent
        out[s.id] = names
    return out
