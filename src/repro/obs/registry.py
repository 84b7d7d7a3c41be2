"""Metrics registry: counters, gauges, and fixed-bucket histograms.

One :class:`Registry` unifies every counter the system previously kept
in scattered ad-hoc structures — ``ServiceMetrics`` attributes and the
per-device :class:`~repro.gpu.timing.DeviceClock` — behind a single name/label namespace that both
the ``stats`` verb and the Prometheus endpoint render from.

Histograms use *fixed* bucket bounds, so p50/p90/p99 estimates cost
O(buckets) memory regardless of traffic — no raw-sample reservoirs (the
seed's ``latencies_s`` deque) on the serving hot path.  Quantiles are
linearly interpolated within the winning bucket, the same estimator
Prometheus's ``histogram_quantile`` uses.

:class:`SlidingRate` is the ring-buffer rate estimator behind the
``qps`` fix: the seed divided lifetime publishes by lifetime uptime, so
any idle second dragged reported throughput toward zero forever.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_left
from typing import Any, Callable

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "SlidingRate",
    "Registry",
]

#: Log-spaced 1-2.5-5 decades from 10 µs to 10 s — wide enough for both
#: sub-millisecond kernel launches and multi-second consolidations.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    1e-1, 2.5e-1, 5e-1,
    1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """Monotonic integer counter."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A value that goes up and down; always reported as-is."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value: float | int = 0

    def set(self, value: float | int) -> None:
        self._value = value

    @property
    def value(self) -> float | int:
        return self._value


class Histogram:
    """Fixed-bucket histogram with interpolated quantiles.

    ``bounds[i]`` is the inclusive upper edge of bucket ``i``; one
    implicit overflow bucket catches everything above the last bound.
    Counts are plain ints, so the whole structure is mergeable and
    JSON-safe.
    """

    __slots__ = (
        "bounds", "counts", "overflow", "total", "sum_s", "min_seen", "max_seen", "_lock"
    )

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS) -> None:
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * len(self.bounds)
        self.overflow = 0
        self.total = 0
        self.sum_s = 0.0
        self.min_seen = math.inf
        self.max_seen = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        idx = bisect_left(self.bounds, value)
        with self._lock:
            if idx < len(self.counts):
                self.counts[idx] += 1
            else:
                self.overflow += 1
            self.total += 1
            self.sum_s += value
            if value < self.min_seen:
                self.min_seen = value
            if value > self.max_seen:
                self.max_seen = value

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 < q < 1); 0.0 when empty.

        Linear interpolation inside the winning bucket; the overflow
        bucket reports its lower edge (the last finite bound) — a
        deliberate underestimate rather than an invented upper edge.
        The estimate is clamped to ``[min_seen, max_seen]``: bucket
        edges can lie outside what was observed (three 0.2 s samples
        would otherwise read p99 = 0.2485 s).
        """
        with self._lock:
            if self.total == 0:
                return 0.0
            rank = q * self.total
            cumulative = 0
            estimate = self.bounds[-1]
            for i, c in enumerate(self.counts):
                if c == 0:
                    continue
                if cumulative + c >= rank:
                    lo = self.bounds[i - 1] if i > 0 else 0.0
                    hi = self.bounds[i]
                    frac = (rank - cumulative) / c
                    estimate = lo + (hi - lo) * min(max(frac, 0.0), 1.0)
                    break
                cumulative += c
            return min(max(estimate, self.min_seen), self.max_seen)

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe copy: counts plus the standard percentile trio."""
        with self._lock:
            counts = list(self.counts)
            overflow = self.overflow
            total = self.total
            sum_s = self.sum_s
            max_seen = self.max_seen
        return {
            "count": total,
            "sum_s": sum_s,
            "max_s": max_seen,
            "p50_s": self.quantile(0.50),
            "p90_s": self.quantile(0.90),
            "p99_s": self.quantile(0.99),
            "buckets": {
                "bounds_s": list(self.bounds),
                "counts": counts,
                "overflow": overflow,
            },
        }


class SlidingRate:
    """Events/second over a sliding window of per-bucket rings.

    The window is a ring of ``resolution_s``-wide buckets; recording
    lazily retires buckets that aged out, so idle periods cost nothing
    and an idle *window* reads exactly 0.0 — the regression the
    lifetime-average ``qps`` could never express.
    """

    def __init__(
        self,
        window_s: float = 30.0,
        resolution_s: float = 1.0,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if window_s <= 0 or resolution_s <= 0 or resolution_s > window_s:
            raise ValueError("need 0 < resolution_s <= window_s")
        self.window_s = float(window_s)
        self.resolution_s = float(resolution_s)
        self._clock = clock
        self._nbuckets = int(math.ceil(window_s / resolution_s)) + 1
        self._counts = [0] * self._nbuckets
        self._epochs = [-1] * self._nbuckets
        self._lock = threading.Lock()
        self._started = clock()

    def record(self, n: int = 1) -> None:
        epoch = int(self._clock() / self.resolution_s)
        idx = epoch % self._nbuckets
        with self._lock:
            if self._epochs[idx] != epoch:
                self._epochs[idx] = epoch
                self._counts[idx] = 0
            self._counts[idx] += n

    def rate(self) -> float:
        """Events per second over the trailing window.

        Early in life the divisor is the actual uptime (not the full
        window), so a fresh server under load reports its true rate
        instead of a diluted one.
        """
        now = self._clock()
        current = int(now / self.resolution_s)
        oldest = current - self._nbuckets + 1
        with self._lock:
            events = sum(
                c
                for c, e in zip(self._counts, self._epochs)
                if e >= oldest
            )
        span = min(self.window_s, max(now - self._started, self.resolution_s))
        return events / span


class Registry:
    """Get-or-create namespace of metrics keyed on ``(name, labels)``.

    ``register_collector`` hooks late-bound sources (device clocks, the
    delta store): collectors run right before every
    ``snapshot()``/render so gauges reflect the current state without
    the sources pushing on their own hot paths.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], Any] = {}
        self._lock = threading.Lock()
        self._collectors: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    @staticmethod
    def _key(name: str, labels: dict[str, Any]) -> tuple[str, tuple[tuple[str, str], ...]]:
        return name, tuple(sorted((k, str(v)) for k, v in labels.items()))

    def _get_or_create(self, name: str, labels: dict[str, Any], factory):
        key = self._key(name, labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory()
                self._metrics[key] = metric
            return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(name, labels, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create(name, labels, Gauge)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        return self._get_or_create(name, labels, lambda: Histogram(buckets))

    def register_collector(self, fn: Callable[[], None]) -> None:
        with self._lock:
            self._collectors.append(fn)

    # ------------------------------------------------------------------
    def collect(self) -> list[tuple[str, dict[str, str], Any]]:
        """Run collectors, then list ``(name, labels, metric)`` sorted."""
        with self._lock:
            collectors = list(self._collectors)
        for fn in collectors:
            fn()
        with self._lock:
            items = sorted(self._metrics.items())
        return [(name, dict(labels), metric) for (name, labels), metric in items]

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe dump: ``{name: {label_repr: value_or_histogram}}``.

        Unlabelled metrics collapse to ``{name: value}`` directly.
        """
        out: dict[str, Any] = {}
        for name, labels, metric in self.collect():
            value = (
                metric.snapshot() if isinstance(metric, Histogram) else metric.value
            )
            if not labels:
                out[name] = value
            else:
                label_repr = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                out.setdefault(name, {})[label_repr] = value
        return out
