"""Observability acceptance: stats v2, trace verb, Prometheus endpoint.

The acceptance criterion for the PR: a running ``repro serve`` exposes
per-stage latency histograms (pre-process, kernel, transfer,
post-process) both through the ``stats`` verb and through the metrics
endpoint.
"""

import asyncio
import urllib.request

from repro.core.config import ServiceConfig, TagMatchConfig
from repro.obs import trace
from repro.obs.trace import STAGES
from repro.service.protocol import ServiceClient
from repro.service.server import MatchServer

ASSOCIATIONS = [(("a", "b"), 1), (("b", "c"), 2), (("d",), 3)]


def _engine():
    from repro.core.engine import TagMatch

    engine = TagMatch(
        TagMatchConfig(
            max_partition_size=8,
            num_gpus=1,
            batch_timeout_s=None,
        )
    )
    for tags, key in ASSOCIATIONS:
        engine.add_set(tags, key=key)
    engine.consolidate()
    return engine


async def _serve(**overrides):
    defaults = dict(
        port=0,
        reconsolidate_threshold=0,
    )
    defaults.update(overrides)
    server = MatchServer(_engine(), ServiceConfig(**defaults))
    await server.start()
    client = await ServiceClient.connect("127.0.0.1", server.port)
    return server, client


def test_stats_exposes_per_stage_latency_histograms():
    async def run():
        server, client = await _serve()
        try:
            for _ in range(4):
                await client.publish(["a", "b"])
            stats = await client.stats()
            stages = stats["stages"]
            for name in STAGES:
                assert name in stages, f"missing stage {name}"
            for name in ("pre_process", "kernel", "transfer", "post_process"):
                assert stages[name]["count"] > 0, f"no spans for {name}"
                assert stages[name]["p99_ms"] >= stages[name]["p50_ms"] >= 0.0
            # Device clocks ride along, with integral launch counts.
            dev = stats["device"]["0"]
            assert isinstance(dev["launches"], int)
            assert dev["launches"] > 0
            assert stats["qps"] > 0.0
        finally:
            await client.close()
            await server.shutdown()

    asyncio.run(run())


def test_trace_verb_returns_stage_summary():
    async def run():
        server, client = await _serve()
        try:
            await client.publish(["a", "b"])
            summary = await client.trace(limit=512)
            assert summary["enabled"] is True
            assert summary["span_count"] > 0
            assert summary["window"] > 0
            kernel = summary["stages"]["kernel"]
            assert kernel["count"] >= 1
            assert kernel["total_s"] > 0.0
            assert "p50_ms" in kernel  # percentile columns merged in
        finally:
            await client.close()
            await server.shutdown()

    asyncio.run(run())


def test_metrics_endpoint_serves_prometheus_exposition():
    async def run():
        server, client = await _serve(metrics_port=0)
        try:
            for _ in range(3):
                await client.publish(["b", "c"])
            assert server.metrics_port is not None
            url = f"http://127.0.0.1:{server.metrics_port}/metrics"
            body = await asyncio.to_thread(
                lambda: urllib.request.urlopen(url, timeout=5).read().decode()
            )
            assert "# TYPE repro_stage_seconds histogram" in body
            for name in STAGES:
                assert f'repro_stage_seconds_count{{stage="{name}"}}' in body
            assert "repro_publishes_total 3" in body
            assert "repro_publish_latency_seconds_count 3" in body
            assert 'repro_device_launches{device="0"}' in body
            assert "repro_match_runs_total 3" in body
            assert "deadline" not in body  # no ingress timer to report
        finally:
            await client.close()
            await server.shutdown()

    asyncio.run(run())


def test_metrics_endpoint_disabled_by_default():
    async def run():
        server, client = await _serve()
        try:
            assert server.metrics_port is None
        finally:
            await client.close()
            await server.shutdown()

    asyncio.run(run())


def test_trace_disabled_server_still_answers():
    async def run():
        # The tracer is process-global: scrub state left by earlier
        # tests so cursor-0 ingestion cannot see their spans.
        trace.disable()
        trace.clear()
        server, client = await _serve(trace=False)
        try:
            await client.publish(["a", "b"])
            stats = await client.stats()
            assert stats["stages"]["kernel"]["count"] == 0
            summary = await client.trace()
            assert summary["enabled"] is False
        finally:
            await client.close()
            await server.shutdown()

    asyncio.run(run())
