"""Registry primitives: counters, histograms, sliding rate, collectors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Registry,
    SlidingRate,
)


class FakeClock:
    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------
def test_histogram_quantiles_interpolate_within_bucket():
    h = Histogram(bounds=(1.0, 2.0, 4.0))
    for v in (0.5, 1.5, 1.6, 3.0):
        h.observe(v)
    # p50 rank=2 lands in bucket (1, 2]; p99 in (2, 4].
    assert 1.0 <= h.quantile(0.50) <= 2.0
    assert 2.0 <= h.quantile(0.99) <= 4.0
    assert h.quantile(0.50) <= h.quantile(0.90) <= h.quantile(0.99)


def test_histogram_overflow_bucket_and_max():
    h = Histogram(bounds=(1.0, 2.0))
    h.observe(100.0)
    snap = h.snapshot()
    assert snap["buckets"]["overflow"] == 1
    assert snap["max_s"] == 100.0
    # A lone overflow sample: the clamp to the observed range is exact.
    assert h.quantile(0.99) == 100.0
    h.observe(0.5)
    # Overflow quantile reports the last finite bound, never invents one.
    assert h.quantile(0.99) == 2.0


def test_histogram_quantiles_stay_within_observed_range():
    h = Histogram()
    for _ in range(3):
        h.observe(0.2)
    # The winning bucket is (0.1, 0.25]; interpolation alone reads
    # p99 = 0.2485 s, past every observation.
    assert h.quantile(0.99) == 0.2
    assert h.quantile(0.01) == 0.2


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False), min_size=1, max_size=50
    ),
    qs=st.lists(
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6), min_size=2, max_size=6
    ),
)
def test_histogram_quantiles_monotone_and_within_observed_range(values, qs):
    h = Histogram()
    for v in values:
        h.observe(v)
    estimates = [h.quantile(q) for q in sorted(qs)]
    assert estimates == sorted(estimates)
    assert all(min(values) <= e <= max(values) for e in estimates)


def test_histogram_empty_snapshot_is_zeroes():
    snap = Histogram().snapshot()
    assert snap["count"] == 0
    assert snap["p50_s"] == 0.0
    assert snap["p99_s"] == 0.0


def test_histogram_counts_are_integers():
    h = Histogram()
    h.observe(0.001)
    snap = h.snapshot()
    assert isinstance(snap["count"], int)
    assert all(isinstance(c, int) for c in snap["buckets"]["counts"])


def test_histogram_rejects_unsorted_bounds():
    with pytest.raises(ValueError):
        Histogram(bounds=(2.0, 1.0))


def test_default_buckets_cover_microseconds_to_seconds():
    assert DEFAULT_LATENCY_BUCKETS[0] <= 1e-5
    assert DEFAULT_LATENCY_BUCKETS[-1] >= 10.0


# ----------------------------------------------------------------------
# SlidingRate — the qps-decay regression (satellite bugfix)
# ----------------------------------------------------------------------
def test_sliding_rate_reflects_recent_traffic_only():
    clock = FakeClock()
    rate = SlidingRate(window_s=10.0, resolution_s=1.0, clock=clock)
    clock.advance(100.0)  # long idle warm-up, then traffic
    for _ in range(50):
        rate.record()
        clock.advance(0.1)
    # 50 events over 5 s of a 10 s window: the lifetime average would
    # report ~0.5/s (105 s uptime); the window reports the true rate.
    assert rate.rate() == pytest.approx(5.0, rel=0.3)


def test_sliding_rate_decays_to_zero_when_idle():
    clock = FakeClock()
    rate = SlidingRate(window_s=5.0, resolution_s=1.0, clock=clock)
    rate.record(10)
    clock.advance(1.0)
    assert rate.rate() > 0.0
    clock.advance(20.0)  # entire window ages out
    assert rate.rate() == 0.0


def test_sliding_rate_fresh_start_uses_uptime_not_window():
    clock = FakeClock()
    rate = SlidingRate(window_s=30.0, resolution_s=1.0, clock=clock)
    for _ in range(10):
        rate.record()
    clock.advance(2.0)
    # 10 events in 2 s of uptime: ~5/s, not 10/30 diluted by the window.
    assert rate.rate() == pytest.approx(5.0, rel=0.1)


def test_sliding_rate_validates_geometry():
    with pytest.raises(ValueError):
        SlidingRate(window_s=1.0, resolution_s=2.0)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_get_or_create_is_stable_per_name_and_labels():
    reg = Registry()
    a = reg.counter("hits", stage="kernel")
    b = reg.counter("hits", stage="kernel")
    c = reg.counter("hits", stage="transfer")
    assert a is b
    assert a is not c


def test_registry_snapshot_renders_labels_and_values():
    reg = Registry()
    reg.counter("repro_hits_total").inc(3)
    reg.gauge("repro_depth", device=0).set(7)
    reg.histogram("repro_lat_seconds").observe(0.01)
    snap = reg.snapshot()
    assert snap["repro_hits_total"] == 3
    assert snap["repro_depth"]["device=0"] == 7
    assert snap["repro_lat_seconds"]["count"] == 1


def test_registry_collectors_run_before_snapshot():
    reg = Registry()
    state = {"value": 0}
    reg.register_collector(lambda: reg.gauge("live").set(state["value"]))
    state["value"] = 42
    assert reg.snapshot()["live"] == 42


def test_counter_and_gauge_primitives():
    c = Counter()
    c.inc()
    c.inc(4)
    assert c.value == 5
    g = Gauge()
    g.set(1.5)
    assert g.value == 1.5
