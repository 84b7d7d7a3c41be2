"""ServiceMetrics: windowed qps (PR 5 regression), stages, registry sync."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.export import render_prometheus
from repro.obs.trace import STAGES, Span, Tracer
from repro.service.metrics import ServiceMetrics


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def snap(metrics, **over):
    defaults = dict(
        epoch=1, delta_size=0, inflight=0, connections=0
    )
    defaults.update(over)
    return metrics.snapshot(**defaults)


# ----------------------------------------------------------------------
# Regression (PR 5): qps must not decay with idle uptime
# ----------------------------------------------------------------------
def test_qps_survives_idle_periods():
    clock = FakeClock()
    m = ServiceMetrics(rate_window_s=10.0, clock=clock)
    clock.advance(3600.0)  # an hour of idle before any traffic
    for _ in range(50):
        m.record_publish(0.002)
        clock.advance(0.1)
    stats = snap(m)
    # The windowed rate sees 50 publishes over 5s; the seed's lifetime
    # average reported ~0.014/s after the idle hour.
    assert stats["qps"] == pytest.approx(5.0, rel=0.3)
    assert stats["lifetime_qps"] < 0.1


def test_qps_decays_to_zero_after_traffic_stops():
    clock = FakeClock()
    m = ServiceMetrics(rate_window_s=5.0, clock=clock)
    for _ in range(10):
        m.record_publish(0.001)
    assert snap(m)["qps"] > 0.0
    clock.advance(60.0)
    assert snap(m)["qps"] == 0.0
    assert snap(m)["publishes"] == 10  # the counter itself never decays


# ----------------------------------------------------------------------
# Latency histogram replaces the reservoir
# ----------------------------------------------------------------------
def test_latency_percentiles_come_from_histogram():
    m = ServiceMetrics()
    for _ in range(99):
        m.record_publish(0.002)
    m.record_publish(1.9)
    lat = snap(m)["latency"]
    assert 1.0 <= lat["p50_ms"] <= 2.5
    assert lat["p99_ms"] >= lat["p90_ms"] >= lat["p50_ms"]
    assert lat["max_ms"] == pytest.approx(1900.0)


# ----------------------------------------------------------------------
# Stage histograms from ingested spans
# ----------------------------------------------------------------------
def test_snapshot_always_exposes_the_four_canonical_stages():
    stages = snap(ServiceMetrics())["stages"]
    for name in STAGES:
        assert stages[name]["count"] == 0


def test_ingest_spans_populates_stage_histograms():
    m = ServiceMetrics()
    m.ingest_spans(
        [
            Span("kernel", 0.0, 0.004, {}),
            Span("kernel", 0.0, 0.006, {}),
            Span("transfer", 0.0, 0.001, {}),
            Span("custom_op", 0.0, 0.002, {}),  # non-canonical: auto-added
        ]
    )
    stages = snap(m)["stages"]
    assert stages["kernel"]["count"] == 2
    assert stages["kernel"]["total_s"] == pytest.approx(0.010)
    assert stages["kernel"]["p99_ms"] > 0.0
    assert stages["transfer"]["count"] == 1
    assert stages["custom_op"]["count"] == 1


# ----------------------------------------------------------------------
# Registry mirror: stats verb and Prometheus can never disagree
# ----------------------------------------------------------------------
def test_registry_mirrors_attribute_counters():
    m = ServiceMetrics()
    m.subscribes += 3
    m.overloads += 1
    m.record_run(10)
    m.record_publish(0.001)
    reg = m.registry.snapshot()
    assert reg["repro_subscribes_total"] == 3
    assert reg["repro_overloads_total"] == 1
    assert reg["repro_match_runs_total"] == 1
    assert reg["repro_publishes_total"] == 1
    # Render twice: the delta-sync must not double count.
    assert m.registry.snapshot()["repro_subscribes_total"] == 3


def test_snapshot_keeps_seed_keys_and_adds_device_section():
    m = ServiceMetrics()
    stats = snap(m, device={"0": {"kernel_s": 0.0, "launches": 4}})
    for key in (
        "uptime_s",
        "qps",
        "publishes",
        "overloads",
        "batches",
        "batch_occupancy",
        "flush_reasons",
        "latency",
        "epoch",
        "delta_size",
        "reconsolidations",
        "inflight",
        "connections",
    ):
        assert key in stats
    assert stats["device"]["0"]["launches"] == 4


# ----------------------------------------------------------------------
# Coalescing: publishes per pipeline run
# ----------------------------------------------------------------------
def test_match_runs_and_run_occupancy_in_stats_and_prometheus():
    m = ServiceMetrics()
    assert snap(m)["run_occupancy"] == 0.0
    m.record_run(2)
    m.record_run(10)
    stats = snap(m)
    assert stats["match_runs"] == 2
    assert stats["run_occupancy"] == 6.0
    text = render_prometheus(m.registry)
    assert "repro_match_runs_total 2" in text
    assert "repro_match_run_publishes_count 2" in text
    assert "repro_match_run_publishes_sum 12" in text
    assert 'repro_match_run_publishes_bucket{le="2.0"} 1' in text


def test_ingress_batch_keys_are_defined_over_runs():
    """The four ingress-batch keys ``perfbench/runners.py`` reads stay,
    with run-based values: no publish waits on a flush timer."""
    m = ServiceMetrics()
    stats = snap(m)
    assert stats["batches"] == 0 and stats["batch_occupancy"] == 0.0
    m.record_run(2)
    m.record_run(10)
    stats = snap(m)
    assert stats["batches"] == stats["match_runs"] == 2
    assert stats["batch_occupancy"] == stats["run_occupancy"] == 6.0
    assert stats["flush_reasons"] == {}
    assert stats["batch_deadline_ms"] == 0.0
    text = render_prometheus(m.registry)
    for family in (
        "repro_batches_total",
        "repro_batched_queries_total",
        "repro_flushes_total",
    ):
        assert family not in text


# ----------------------------------------------------------------------
# Span loss is counted, not silent
# ----------------------------------------------------------------------
def ingested(metrics) -> int:
    return sum(stage["count"] for stage in metrics.stage_snapshot().values())


@settings(max_examples=100, deadline=None)
@given(
    capacity=st.integers(1, 8),
    steps=st.lists(st.integers(0, 20), min_size=1, max_size=12),
)
def test_ingested_plus_dropped_equals_recorded(capacity, steps):
    """Each step records that many spans, then ingests: whatever the ring
    overwrote in between shows up in ``trace_dropped_spans``."""
    tracer = Tracer(capacity=capacity, enabled=True)
    m = ServiceMetrics()
    cursor = recorded = 0
    for n in steps:
        for i in range(n):
            tracer.record(STAGES[i % len(STAGES)], 0.0, 0.001)
        recorded += n
        cursor = m.ingest_trace(tracer, cursor)
        assert ingested(m) + m.trace_dropped_spans == recorded
    assert m.trace_dropped_spans == sum(max(0, n - capacity) for n in steps)


def test_dropped_spans_in_stats_and_prometheus():
    tracer = Tracer(capacity=2, enabled=True)
    m = ServiceMetrics()
    for _ in range(5):
        tracer.record("kernel", 0.0, 0.001)
    m.ingest_trace(tracer, 0)
    assert snap(m)["trace_dropped_spans"] == 3
    assert "repro_trace_dropped_spans_total 3" in render_prometheus(m.registry)
