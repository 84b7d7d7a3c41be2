"""``repro.obs`` — shared observability: tracing, metrics, exposition.

The layer every execution path reports into (DESIGN.md §11):

* :mod:`repro.obs.trace` — low-overhead span tracer with bounded ring
  buffers; wired into the pipeline stage boundaries, kernel launches,
  and device transfers.
* :mod:`repro.obs.registry` — counters / gauges / fixed-bucket
  histograms (p50/p90/p99 without raw samples) plus the sliding-window
  rate estimator.
* :mod:`repro.obs.export` — Prometheus text exposition, the
  ``--metrics-port`` endpoint, and the ``repro trace`` flame renderer.
"""

from repro.obs import trace
from repro.obs.export import MetricsServer, format_flame, render_prometheus
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Registry,
    SlidingRate,
)
from repro.obs.trace import STAGES, Span, Tracer, stage_summary

__all__ = [
    "trace",
    "STAGES",
    "Span",
    "Tracer",
    "stage_summary",
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "SlidingRate",
    "DEFAULT_LATENCY_BUCKETS",
    "MetricsServer",
    "format_flame",
    "render_prometheus",
]
