"""The span tracer: ring bounds, disabled-path no-ops, cursor reads."""

import threading

import pytest

from repro.obs.trace import STAGES, Span, Tracer, stage_summary


@pytest.fixture
def tracer():
    t = Tracer()
    t.enable(capacity=64)
    yield t
    t.disable()


def test_disabled_tracer_records_nothing():
    t = Tracer()
    assert not t.is_enabled()
    with t.span("kernel", rows=10):
        pass
    t.record("transfer", 0.0, 1.0, {"nbytes": 4})
    assert t.count == 0
    assert t.drain() == []


def test_span_context_manager_records_duration_and_attrs(tracer):
    with tracer.span("kernel", rows=7):
        pass
    (span,) = tracer.drain()
    assert span.name == "kernel"
    assert span.duration_s >= 0.0
    assert span.attrs["rows"] == 7


def test_ring_buffer_is_bounded(tracer):
    for i in range(200):
        tracer.record("kernel", float(i), 0.001, {})
    assert len(tracer.recent(1000)) == 64  # capacity
    assert tracer.count == 200  # monotonic total survives eviction


def test_since_cursor_returns_only_new_spans(tracer):
    tracer.record("kernel", 0.0, 0.1, {})
    cursor, spans = tracer.since(0)
    assert [s.name for s in spans] == ["kernel"]
    cursor, spans = tracer.since(cursor)
    assert spans == []
    tracer.record("transfer", 1.0, 0.2, {})
    cursor, spans = tracer.since(cursor)
    assert [s.name for s in spans] == ["transfer"]


def test_since_reports_evicted_spans_best_effort(tracer):
    for i in range(100):
        tracer.record("kernel", float(i), 0.001, {})
    # Cursor 0 predates the ring: we get what survived, not an error.
    cursor, spans = tracer.since(0)
    assert len(spans) == 64
    assert cursor == 100


def test_span_records_even_when_body_raises(tracer):
    with pytest.raises(ValueError):
        with tracer.span("kernel"):
            raise ValueError("boom")
    assert tracer.count == 1


def test_enable_is_idempotent_and_clear_resets(tracer):
    tracer.record("kernel", 0.0, 0.1, {})
    tracer.enable(capacity=64)  # re-enable keeps existing spans
    assert tracer.count == 1
    tracer.disable()
    assert not tracer.is_enabled()
    tracer.record("kernel", 0.0, 0.1, {})  # ignored while disabled
    assert tracer.count == 1
    tracer.clear()
    assert tracer.count == 0


def test_concurrent_recording_is_threadsafe(tracer):
    def worker():
        for _ in range(500):
            tracer.record("kernel", 0.0, 0.001, {})

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert tracer.count == 2000


def test_stage_summary_aggregates_per_name():
    spans = [
        Span("kernel", 0.0, 0.2, {}),
        Span("kernel", 1.0, 0.4, {}),
        Span("transfer", 0.0, 0.1, {}),
    ]
    summary = stage_summary(spans)
    assert summary["kernel"]["count"] == 2
    assert summary["kernel"]["total_s"] == pytest.approx(0.6)
    assert summary["kernel"]["mean_s"] == pytest.approx(0.3)
    assert summary["transfer"]["max_s"] == pytest.approx(0.1)


def test_canonical_stage_names_are_stable():
    assert STAGES == ("pre_process", "kernel", "transfer", "post_process")
