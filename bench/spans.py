"""In-memory spans at layer boundaries, their self times, Chrome export.

The benchmark never edits the program: :class:`Tracer` wraps a layer's
function at run time (:meth:`Tracer.patch`) and restores it afterwards.
Only coarse boundaries are wrapped — a job, a device run, a store append
— so a span costs two clock reads and a list append, never a per-cycle
timer (cf. Metz & Lencevicius, *Efficient Instrumentation for
Performance Profiling*).  Spans stay in memory until :meth:`chrome`
writes them out.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Span:
    __slots__ = ("name", "start", "end", "parent", "args")

    def __init__(self, name: str, start: float, parent: Optional[int]
                 ) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent          # index of the enclosing span
        self.args: Dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._restore: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(),
                               self._stack[-1] if self._stack else None))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index].end = time.perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable,
             note: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``note(result, *args)`` fills span args
        after the span closes, and a raised exception is recorded as
        ``args["error"]``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(index)
                self.spans[index].args["error"] = type(exc).__name__
                raise
            self._close(index)
            if note is not None:
                self.spans[index].args.update(note(result, *args))
            return result
        return traced

    # -- run-time patching -----------------------------------------------------
    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` (a module or class) until :meth:`unpatch_all`."""
        inherited = isinstance(owner, type) and attr not in vars(owner)
        original = getattr(owner, attr)
        setattr(owner, attr, value)
        if inherited:
            self._restore.append(lambda: delattr(owner, attr))
        else:
            self._restore.append(lambda: setattr(owner, attr, original))

    def patch(self, owner, attr: str, name: str,
              note: Optional[Callable] = None) -> None:
        """Trace every call of ``owner.attr`` until :meth:`unpatch_all`."""
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), note))

    def unpatch_all(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- export ----------------------------------------------------------------
    def chrome(self, path: str) -> str:
        """Write the spans as Chrome trace-event JSON; returns ``path``."""
        pid = os.getpid()
        t0 = min((s.start for s in self.spans), default=0.0)
        events = []
        for index, span in enumerate(self.spans):
            args = dict(span.args, id=index)
            if span.parent is not None:
                args["parent"] = span.parent
            events.append({
                "name": span.name, "cat": span.name.split(".", 1)[0],
                "ph": "X", "ts": (span.start - t0) * 1e6,
                "dur": span.duration * 1e6, "pid": pid, "tid": 0,
                "args": args,
            })
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump({"traceEvents": events}, handle)
        os.replace(tmp, path)
        return path


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            lo, hi = max(span.start, parent.start), min(span.end, parent.end)
            if hi > lo:
                children.setdefault(span.parent, []).append((lo, hi))
    return [span.duration - _covered(children.get(index, []))
            for index, span in enumerate(spans)]


def by_name(spans: List[Span]) -> Dict[str, List]:
    """``{name: [self seconds, calls]}`` over all spans."""
    table: Dict[str, List] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name, [0.0, 0])
        row[0] += own
        row[1] += 1
    return table
