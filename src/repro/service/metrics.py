"""Serving-layer metrics, exposed through the ``stats`` verb.

Counters are mutated from the event-loop thread only; ``snapshot()``
renders a JSON-safe dict with the quantities the benchmarks and the
acceptance criteria care about: qps, publishes per pipeline run,
latency percentiles, delta size, reconsolidation count, and overload
rejects.

Since the observability layer landed, :class:`ServiceMetrics` is a thin
façade over one :class:`repro.obs.registry.Registry`:

* publish latency is a fixed-bucket :class:`~repro.obs.registry.Histogram`
  (``repro_publish_latency_seconds``) instead of a raw-sample reservoir,
* ``qps`` is a :class:`~repro.obs.registry.SlidingRate` over a trailing
  window — the seed divided lifetime publishes by lifetime uptime, so a
  server that idled overnight reported a throughput near zero forever
  (the old number survives as ``lifetime_qps``),
* pipeline spans ingested via :meth:`ingest_trace` become per-stage
  ``repro_stage_seconds{stage=...}`` histograms — the paper's §4.3 stage
  breakdown, live; spans the tracer ring overwrote before they were
  ingested are counted in ``trace_dropped_spans``,
* the plain attribute counters (``subscribes``, ``overloads``, …) are
  mirrored into registry counters by a collector at render time, so the
  Prometheus endpoint and the ``stats`` verb can never disagree.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable

from repro.obs.registry import Histogram, Registry, SlidingRate
from repro.obs.trace import STAGES, Span, Tracer

__all__ = ["ServiceMetrics"]

#: Attribute counters mirrored into ``repro_<name>_total`` registry
#: counters by the render-time collector.
_COUNTER_ATTRS = (
    "publishes",
    "subscribes",
    "unsubscribes",
    "overloads",
    "errors",
    "match_runs",
    "reconsolidations",
    "trace_dropped_spans",
)

#: Bucket bounds of the publishes-per-run histogram: powers of two up
#: to the default ``max_inflight``, the most one run can carry.
RUN_SIZE_BUCKETS: tuple[float, ...] = tuple(float(2**i) for i in range(11))


class ServiceMetrics:
    """Aggregate counters + fixed-bucket latency/stage histograms."""

    def __init__(
        self,
        *,
        rate_window_s: float = 30.0,
        registry: Registry | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.registry = registry if registry is not None else Registry()
        self._clock = clock
        self.started_at = clock()
        self.publishes = 0
        self.subscribes = 0
        self.unsubscribes = 0
        self.overloads = 0
        self.errors = 0
        #: Pipeline runs and the publishes they carried: a run coalesces
        #: every publish queued while the previous run was going.
        self.match_runs = 0
        self.run_queries = 0
        self.reconsolidations = 0
        self.trace_dropped_spans = 0
        self._rate = SlidingRate(rate_window_s, clock=clock)
        self.latency = self.registry.histogram("repro_publish_latency_seconds")
        self.run_size = self.registry.histogram(
            "repro_match_run_publishes", buckets=RUN_SIZE_BUCKETS
        )
        # Pre-create the four canonical stage histograms so the stats
        # verb and the metrics endpoint always expose the full §4.3
        # breakdown, even before the first span arrives.
        self._stage_hists: dict[str, Histogram] = {
            stage: self.registry.histogram("repro_stage_seconds", stage=stage)
            for stage in STAGES
        }
        self.registry.register_collector(self._mirror_counters)

    # ------------------------------------------------------------------
    def record_run(self, publishes: int) -> None:
        self.match_runs += 1
        self.run_queries += publishes
        self.run_size.observe(publishes)

    def record_publish(self, latency_s: float) -> None:
        self.publishes += 1
        self._rate.record()
        self.latency.observe(latency_s)

    def ingest_trace(self, tracer: Tracer, cursor: int) -> int:
        """Ingest the spans ``tracer`` recorded after ``cursor``.

        Returns the new cursor.  Spans the ring overwrote since
        ``cursor`` are counted in ``trace_dropped_spans``, so ingested
        plus dropped always equals recorded.
        """
        new_cursor, spans = tracer.since(cursor)
        self.trace_dropped_spans += max(0, new_cursor - cursor - len(spans))
        self.ingest_spans(spans)
        return new_cursor

    def ingest_spans(self, spans: Iterable[Span]) -> None:
        """Feed tracer spans into the per-stage latency histograms."""
        for span in spans:
            hist = self._stage_hists.get(span.name)
            if hist is None:
                hist = self.registry.histogram(
                    "repro_stage_seconds", stage=span.name
                )
                self._stage_hists[span.name] = hist
            hist.observe(span.duration_s)

    # ------------------------------------------------------------------
    def _mirror_counters(self) -> None:
        """Collector: sync plain attributes into the registry.

        Attributes only ever grow, so pushing the delta keeps the
        registry counters monotonic; the gauges are plain mirrors.
        """
        for attr in _COUNTER_ATTRS:
            counter = self.registry.counter(f"repro_{attr}_total")
            counter.inc(getattr(self, attr) - counter.value)
        self.registry.gauge("repro_publish_rate_qps").set(self._rate.rate())
        self.registry.gauge("repro_uptime_seconds").set(
            self._clock() - self.started_at
        )

    def stage_snapshot(self) -> dict[str, dict[str, Any]]:
        """Per-stage latency summary in milliseconds (stats verb v2)."""
        stages: dict[str, dict[str, Any]] = {}
        for name, hist in sorted(self._stage_hists.items()):
            snap = hist.snapshot()
            stages[name] = {
                "count": snap["count"],
                "total_s": snap["sum_s"],
                "p50_ms": snap["p50_s"] * 1e3,
                "p90_ms": snap["p90_s"] * 1e3,
                "p99_ms": snap["p99_s"] * 1e3,
                "max_ms": snap["max_s"] * 1e3,
            }
        return stages

    # ------------------------------------------------------------------
    def snapshot(
        self,
        *,
        epoch: int,
        delta_size: int,
        inflight: int,
        connections: int,
        device: dict | None = None,
    ) -> dict:
        elapsed = max(self._clock() - self.started_at, 1e-9)
        lat = self.latency.snapshot()
        run_occupancy = (
            self.run_queries / self.match_runs if self.match_runs else 0.0
        )
        return {
            "uptime_s": elapsed,
            #: Windowed rate — an idle window reads 0.0 and recovers
            #: immediately under load, unlike the lifetime average.
            "qps": self._rate.rate(),
            "lifetime_qps": self.publishes / elapsed,
            "publishes": self.publishes,
            "subscribes": self.subscribes,
            "unsubscribes": self.unsubscribes,
            "overloads": self.overloads,
            "errors": self.errors,
            "match_runs": self.match_runs,
            #: Publishes per pipeline run.
            "run_occupancy": run_occupancy,
            #: The ingress-batch keys, defined over runs: a run is the
            #: only batch a publish joins, and no publish waits on a
            #: flush timer.
            "batches": self.match_runs,
            "batch_occupancy": run_occupancy,
            "flush_reasons": {},
            "batch_deadline_ms": 0.0,
            "latency": {
                "p50_ms": lat["p50_s"] * 1e3,
                "p90_ms": lat["p90_s"] * 1e3,
                "p99_ms": lat["p99_s"] * 1e3,
                "max_ms": lat["max_s"] * 1e3,
            },
            #: §4.3's per-stage breakdown, from ingested tracer spans.
            "stages": self.stage_snapshot(),
            #: Simulated device clocks (per device), integer launches.
            "device": device,
            "epoch": epoch,
            "delta_size": delta_size,
            "reconsolidations": self.reconsolidations,
            #: Spans lost to tracer ring wrap between two ingests.
            "trace_dropped_spans": self.trace_dropped_spans,
            "inflight": inflight,
            "connections": connections,
        }
