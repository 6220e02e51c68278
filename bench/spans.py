"""Spans recorded from outside the package, around the calls the benchmark makes.

A span is (name, start, end, parent, items): `parent` is the index of the
enclosing span, `items` the number of samples the call handled (0 when the
call is not per-sample).  Library objects are traced by a proxy that wraps a
chosen set of their methods and forwards every other attribute, so the
library code runs unchanged and never sees the tracer.

`NoTrace` offers the same interface and calls straight through; untraced
runs use it, so traced and untraced passes execute the same workload code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    items: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(spans: list[Span], name: str) -> float:
    """Summed duration of the spans called `name`, minus what their children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return sum(
        span.duration - _covered(children.get(i, []), span.start, span.end)
        for i, span in enumerate(spans)
        if span.name == name
    )


class _Proxy:
    """Forwards attribute access to `target`, except for the wrapped methods."""

    def __init__(self, target, wrapped: dict):
        self.__dict__.update(wrapped)
        self.__dict__["_target"] = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Collects spans in memory; read them with `total`, `count`, `items`."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock

    def call(self, name: str, fn, *args, items: int = 0, **kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, self._clock(), 0.0, parent, items))
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index].end = self._clock()

    def proxy(self, target, layer: str, methods, per_sample=()):
        """`target` with each named method recorded as span "<layer>.<method>".

        Methods listed in `per_sample` take a batch as first argument; its
        length is recorded as the span's item count.
        """

        def wrap(method):
            fn = getattr(target, method)
            name = f"{layer}.{method}"
            if method in per_sample:
                return lambda batch, *a, **k: self.call(
                    name, fn, batch, *a, items=len(batch), **k
                )
            return lambda *a, **k: self.call(name, fn, *a, **k)

        return _Proxy(target, {m: wrap(m) for m in methods})

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def items(self, name: str) -> int:
        return sum(s.items for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        return self_time(self.spans, name)


class NoTrace:
    """The Tracer interface with no recording: calls go straight through."""

    @staticmethod
    def call(name, fn, *args, items: int = 0, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def proxy(target, layer, methods, per_sample=()):
        return target
