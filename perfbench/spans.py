"""Benchmark-side span recorder and self-time arithmetic.

The traced replay wraps every call into a layer's public function in a
span.  A span records its name, its wall start and end, the
``time.thread_time()`` it consumed, its parent span and a batch id.
Spans stay in memory and are written out once, at the end of a run.

A layer's self time is its span's duration minus the part of that
interval its child spans cover; over a serial replay the self times of
all spans, the root included, add up to the replay's wall time.
"""

from __future__ import annotations

import json
import time
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    #: ``time.thread_time()`` consumed between start and end.
    cpu: float
    #: Index of the enclosing span in the recorder, ``-1`` for a root.
    parent: int
    batch: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    __slots__ = ("_rec", "_name", "_batch", "_index", "_t0", "_c0")

    def __init__(self, rec: "Recorder", name: str, batch: int) -> None:
        self._rec = rec
        self._name = name
        self._batch = batch

    def __enter__(self) -> "_Open":
        rec = self._rec
        # Reserve the slot on entry so a parent always precedes its children.
        self._index = len(rec.spans)
        rec.spans.append(None)
        rec._stack.append(self._index)
        self._c0 = time.thread_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        t1 = time.perf_counter()
        c1 = time.thread_time()
        rec = self._rec
        rec._stack.pop()
        parent = rec._stack[-1] if rec._stack else -1
        rec.spans[self._index] = Span(
            self._name, self._t0, t1, c1 - self._c0, parent, self._batch
        )


class _Noop:
    __slots__ = ()

    def __enter__(self) -> "_Noop":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NOOP = _Noop()


class Recorder:
    """Spans of one thread, in memory; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str, batch: int = -1):
        return _Open(self, name, batch) if self.enabled else _NOOP

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump([s._asdict() for s in self.spans], handle)


def covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    lo_run = hi_run = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if hi_run is None or lo > hi_run:
            if hi_run is not None:
                total += hi_run - lo_run
            lo_run, hi_run = lo, hi
        else:
            hi_run = max(hi_run, hi)
    if hi_run is not None:
        total += hi_run - lo_run
    return total


def self_times(spans: list[Span]) -> list[tuple[float, float]]:
    """``(self wall s, self cpu s)`` of every span."""
    children: list[list[Span]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        wall = s.duration - covered(s.start, s.end, [(k.start, k.end) for k in kids])
        cpu = s.cpu - sum(k.cpu for k in kids)
        out.append((wall, cpu))
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``count``, summed self wall ``self_s`` and ``cpu_s``."""
    totals: dict[str, dict[str, float]] = {}
    for s, (wall, cpu) in zip(spans, self_times(spans)):
        entry = totals.setdefault(s.name, {"count": 0, "self_s": 0.0, "cpu_s": 0.0})
        entry["count"] += 1
        entry["self_s"] += wall
        entry["cpu_s"] += cpu
    return totals
