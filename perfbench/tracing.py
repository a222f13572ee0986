"""Spans recorded from the benchmark's own files around calls into the library.

A span is (id, parent id, name, start, end) with times from
``time.perf_counter``.  Spans stay in memory until ``dump``, next to counts of work done that the
operations add under a name.  Untraced rounds use ``NO_TRACE``: its spans and
counts do nothing, and ``workloads.call`` skips them.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start", "seconds")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.sid = len(tracer.spans)
        self.parent = tracer.stack[-1] if tracer.stack else None
        tracer.spans.append(None)
        tracer.stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tracer = self.tracer
        tracer.stack.pop()
        tracer.spans[self.sid] = (self.sid, self.parent, self.name, self.start, end)
        self.seconds = end - self.start
        return False


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def add(self, name: str, n: int) -> None:
        self.counts[name] += n

    def total(self, *names: str) -> float:
        """Summed duration of every span with one of these names."""
        return sum(s[4] - s[3] for s in self.spans if s[2] in names)

    def number(self, name: str) -> int:
        """How many spans have this name."""
        return sum(1 for s in self.spans if s[2] == name)

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time covered by child spans."""
        child = defaultdict(float)
        for sid, parent, _name, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, _parent, name, start, end in self.spans:
            out[name] += end - start - child[sid]
        return dict(out)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"], "spans": self.spans,
                       "counts": self.counts}, fh)
            fh.write("\n")


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _NoTracer:
    enabled = False
    _span = _NoSpan()

    def span(self, name: str) -> _NoSpan:
        return self._span

    def add(self, name: str, n: int) -> None:
        pass


NO_TRACE = _NoTracer()
