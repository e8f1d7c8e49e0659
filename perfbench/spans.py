"""In-memory spans for the traced run, and the self-time arithmetic.

A span is a dict with a name, start and end (time.perf_counter seconds,
a clock shared by every process on the machine), the index of its parent
span in the same list (or None) and the op id it belongs to. A span's self
time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Callable

Span = dict[str, Any]
CountFn = Callable[[tuple, Any], tuple[str, int]]


class Tracer:
    """Records spans around calls while `active`; passes calls straight
    through otherwise."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.active = False
        self.op: int | None = None
        self._stack: list[int] = []

    def call(self, name: str | None, fn: Callable, *args: Any, count: CountFn | None = None) -> Any:
        if not self.active:
            return fn(*args)
        if name is None:
            result = fn(*args)
        else:
            index = len(self.spans)
            span: Span = {"name": name, "start": 0.0, "end": 0.0,
                          "parent": self._stack[-1] if self._stack else None, "op": self.op}
            self.spans.append(span)
            self._stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
        if count is not None:
            key, amount = count(args, result)
            self.counts[key] += amount
        return result

    def wrap(self, name: str | None, fn: Callable, count: CountFn | None = None) -> Callable:
        """`fn` with a span named `name` (and a count) around each call."""

        def traced(*args: Any) -> Any:
            return self.call(name, fn, *args, count=count)

        return traced

    def drain(self) -> tuple[list[Span], dict[str, int]]:
        """Hand over and forget the spans and counts recorded so far."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], Counter()
        return spans, counts


def append_spans(into: list[Span], spans: list[Span], op: int | None = None) -> None:
    """Add another list's spans to `into`, re-basing their parent indices."""
    offset = len(into)
    for span in spans:
        parent = span["parent"]
        into.append({**span, "parent": None if parent is None else parent + offset,
                     "op": span["op"] if op is None else op})


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: its duration minus the union of its
    children's intervals, clipped to the span itself."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = []
    for index, span in enumerate(spans):
        start, end = span["start"], span["end"]
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children.get(index, [])):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def total(spans: list[Span], name: str) -> float:
    return sum((span["end"] - span["start"] for span in spans if span["name"] == name), 0.0)


def self_total(spans: list[Span], name: str) -> float:
    return sum((t for span, t in zip(spans, self_times(spans)) if span["name"] == name), 0.0)
