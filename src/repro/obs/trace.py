"""Low-overhead span tracing for the matching pipeline.

The paper's evaluation (§4.3–§4.5) attributes time to pipeline stages —
pre-processing, kernel execution, transfers, post-processing — and every
scheduling argument (stream counts, thread splits, batch deadlines)
rests on that attribution.  :class:`Tracer` makes the attribution a
first-class runtime facility instead of ad-hoc benchmark timers: hot
paths wrap their work in ``trace.span("kernel", rows=n)`` and a bounded
ring buffer keeps the most recent spans for the ``stats``/``trace``
verbs and the metrics endpoint.

Overhead discipline
-------------------
Tracing is *disabled* by default and the disabled path is one attribute
check plus one shared no-op context manager — no allocation, no clock
read.  The enabled path is two ``perf_counter`` calls and one locked
ring append per span; ``bench_obs_overhead.py`` pins the end-to-end cost
below 5 % of pipeline throughput.
"""

from __future__ import annotations

import threading
from collections import deque
from time import perf_counter
from typing import Any, NamedTuple

__all__ = [
    "STAGES",
    "Span",
    "Tracer",
    "TRACER",
    "span",
    "record",
    "enable",
    "disable",
    "is_enabled",
    "drain",
    "since",
    "recent",
    "clear",
    "count",
    "stage_summary",
]

#: Canonical stage names of the four-stage pipeline (§3, Figure 1), as
#: recorded by the built-in instrumentation.  Other names are legal —
#: the tracer is generic — but these are the ones the serving layer's
#: histograms and the acceptance criteria care about.
STAGES = ("pre_process", "kernel", "transfer", "post_process")


class Span(NamedTuple):
    """One completed traced operation.

    ``start_s`` is in the recording process's ``perf_counter`` domain —
    only comparable within one process; ``duration_s`` is always valid,
    which is what the per-stage aggregation uses.
    """

    name: str
    start_s: float
    duration_s: float
    attrs: dict[str, Any]


class _LiveSpan:
    """Context manager recording one span on exit (enabled path)."""

    __slots__ = ("_tracer", "_name", "_attrs", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_LiveSpan":
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        t0 = self._t0
        self._tracer.record(self._name, t0, perf_counter() - t0, self._attrs)


class _NoopSpan:
    """Shared do-nothing context manager (disabled path)."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NOOP = _NoopSpan()


class Tracer:
    """Bounded ring buffer of :class:`Span` records.

    Appends are serialized by a lock (every thread that matches or builds
    an engine records, e.g. the server's matcher and rebuild threads);
    readers get consistent copies.  The ring drops the oldest spans past
    ``capacity`` — telemetry is best-effort recent history, never an
    unbounded log.
    """

    def __init__(self, capacity: int = 8192, enabled: bool = False) -> None:
        self.capacity = int(capacity)
        self._ring: deque[Span] = deque(maxlen=self.capacity)
        self._count = 0
        self._lock = threading.Lock()
        self._enabled = bool(enabled)

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def enable(self, capacity: int | None = None) -> None:
        """Turn tracing on (optionally resizing the ring)."""
        with self._lock:
            if capacity is not None and capacity != self.capacity:
                self.capacity = int(capacity)
                self._ring = deque(self._ring, maxlen=self.capacity)
            self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def is_enabled(self) -> bool:
        return self._enabled

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any):
        """Context manager timing one operation.

        ``with tracer.span("kernel", rows=n): ...`` — a no-op when
        tracing is disabled.
        """
        if not self._enabled:
            return _NOOP
        return _LiveSpan(self, name, attrs)

    def record(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        """Append one pre-timed span (used for simulated durations)."""
        if not self._enabled:
            return
        span_ = Span(name, float(start_s), float(duration_s), attrs or {})
        with self._lock:
            self._ring.append(span_)
            self._count += 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Total spans ever recorded (monotonic, survives ring wrap)."""
        return self._count

    def drain(self) -> list[Span]:
        """Take every buffered span and clear the ring."""
        with self._lock:
            spans = list(self._ring)
            self._ring.clear()
            return spans

    def since(self, cursor: int) -> tuple[int, list[Span]]:
        """Spans recorded after ``cursor`` (a previous ``count`` value).

        Returns ``(new_cursor, spans)``; spans older than the ring
        capacity are lost — the caller gets whatever survives.
        """
        with self._lock:
            new = self._count - cursor
            if new <= 0:
                return self._count, []
            if new >= len(self._ring):
                return self._count, list(self._ring)
            buffered = len(self._ring)
            return self._count, [self._ring[i] for i in range(buffered - new, buffered)]

    def recent(self, n: int) -> list[Span]:
        """The most recent ``n`` spans, oldest first."""
        with self._lock:
            if n >= len(self._ring):
                return list(self._ring)
            buffered = len(self._ring)
            return [self._ring[i] for i in range(buffered - n, buffered)]

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._count = 0


def stage_summary(spans) -> dict[str, dict[str, float]]:
    """Aggregate spans per stage: count, total and extremal durations.

    This is the exact (non-bucketed) aggregation used by the ``trace``
    verb's flame summary; the serving layer's *histograms* (bounded
    memory, mergeable) live in :mod:`repro.obs.registry`.
    """
    out: dict[str, dict[str, float]] = {}
    for span_ in spans:
        entry = out.setdefault(
            span_.name,
            {"count": 0, "total_s": 0.0, "min_s": float("inf"), "max_s": 0.0},
        )
        entry["count"] += 1
        entry["total_s"] += span_.duration_s
        if span_.duration_s < entry["min_s"]:
            entry["min_s"] = span_.duration_s
        if span_.duration_s > entry["max_s"]:
            entry["max_s"] = span_.duration_s
    for entry in out.values():
        entry["mean_s"] = entry["total_s"] / entry["count"] if entry["count"] else 0.0
        if entry["min_s"] == float("inf"):
            entry["min_s"] = 0.0
    return out


#: The process-wide tracer every built-in instrumentation point records
#: to.  Module-level aliases below make call sites read naturally:
#: ``from repro.obs import trace`` … ``with trace.span("kernel"): ...``.
TRACER = Tracer()

span = TRACER.span
record = TRACER.record
enable = TRACER.enable
disable = TRACER.disable
is_enabled = TRACER.is_enabled
drain = TRACER.drain
since = TRACER.since
recent = TRACER.recent
clear = TRACER.clear


def count() -> int:
    return TRACER.count
