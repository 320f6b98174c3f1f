"""In-memory span recorder for the benchmark.

A span is one timed call: its name, start and end (``perf_counter_ns``)
and the index of the span that was open when it began (-1 for a root).
Spans are appended to parallel lists while the benchmark runs and are
written out once, when it ends. Names are ``<layer>.<function>``; the
layer is the part before the first dot.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field


class SpanRecorder:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def add(self, name: str, start: int, end: int, parent: int = -1) -> int:
        """Record a finished span directly; returns its index."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.names) - 1

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        i = self.add(name, 0, 0, parent)
        self._open.append(i)
        self.starts[i] = self.clock()
        return i

    def end(self, i: int) -> None:
        self.ends[i] = self.clock()
        if self._open.pop() != i:
            raise RuntimeError(f"span {self.names[i]!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        i = self.begin(name)
        try:
            yield
        finally:
            self.end(i)

    def call(self, name: str, fn, /, *args, **kwargs):
        """Call ``fn`` inside a span called ``name`` and return its result."""
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            i = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(i)

        return recorded

    def self_times(self) -> list[float]:
        """Seconds of each span not covered by any of its child spans.

        Children are clipped to their parent's interval and overlapping
        children are counted once.
        """
        children: list[list[int]] = [[] for _ in self.names]
        for i, p in enumerate(self.parents):
            if p >= 0:
                children[p].append(i)
        out = []
        for i, kids in enumerate(children):
            lo, hi = self.starts[i], self.ends[i]
            covered, reached = 0, lo
            for c in sorted(kids, key=self.starts.__getitem__):
                s, e = max(self.starts[c], reached), min(self.ends[c], hi)
                if e > s:
                    covered += e - s
                    reached = e
            out.append((hi - lo - covered) / 1e9)
        return out

    def summarize(self, name: str, speed=None) -> list["Summary"]:
        """One summary per span called ``name``, in order, of the spans
        below it. Given a ``hostspeed.HostSpeed`` that sampled while they
        ran, the span's own duration leaves out the probes, and ``scaled``
        holds its time and its children's at the reference speed."""
        own = self.self_times()
        owner: list[int] = []  # nearest span called ``name`` at or above each span
        found: dict[int, Summary] = {}
        for i, p in enumerate(self.parents):
            span, start, end = self.names[i], self.starts[i], self.ends[i]
            if span == name:
                owner.append(i)
                found[i] = Summary(
                    speed.work_s(start, end) if speed else (end - start) / 1e9
                )
            else:
                owner.append(owner[p] if p >= 0 else -1)
            o = owner[i]
            if o < 0:
                continue
            summary = found[o]
            if speed and (i == o or p == o):
                summary.scaled[span] += speed.scaled_s(start, end)
            if i == o:
                continue
            layer = span.split(".", 1)[0]
            summary.inclusive[span] += (end - start) / 1e9
            summary.self_s[layer] += own[i]
            summary.calls[layer] += 1
        return list(found.values())

    def write(self, path) -> None:
        """Write every span as gzipped JSON: a name table and
        [name index, start ns, end ns, parent] rows."""
        table = sorted(set(self.names))
        index = {n: k for k, n in enumerate(table)}
        rows = [
            [index[n], s, e, p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": table, "spans": rows}, fh, separators=(",", ":"))


@dataclass
class Summary:
    """Totals of the spans under one span."""

    duration: float
    inclusive: Counter = field(default_factory=Counter)  # span name -> s
    scaled: Counter = field(default_factory=Counter)  # itself and children -> s
    self_s: Counter = field(default_factory=Counter)  # layer -> s
    calls: Counter = field(default_factory=Counter)  # layer -> spans


def public_functions(owner) -> list[str]:
    """Names of the public plain functions defined on a module or class."""
    module = getattr(owner, "__module__", None) or owner.__name__
    return sorted(
        name
        for name, value in vars(owner).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module
    )


@contextmanager
def wrapped(rec: SpanRecorder, targets):
    """Replace attributes by recording wrappers for the duration of a block.

    ``targets`` holds (owner, attribute, span name) triples; owners are
    modules or classes. Calls that reach the function without going
    through the attribute are not recorded.
    """
    saved = []
    try:
        for owner, attr, name in targets:
            original = vars(owner)[attr]
            setattr(owner, attr, rec.wrap(name, original))
            saved.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
