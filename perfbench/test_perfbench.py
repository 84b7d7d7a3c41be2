"""Tests of the benchmark's own parts.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import asyncio
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import driver  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import spec  # noqa: E402
from repro.service.protocol import decode_frame, encode_frame  # noqa: E402
from spans import Span, layer_totals, self_times  # noqa: E402


@pytest.mark.parametrize(
    "got", [[1, 2, 2, 3, 7], [1, 2, 3], [1, 2, 2, 2, 3]], ids=["extra", "missing", "duplicated"]
)
def test_oracle_catches_extra_missing_and_duplicated_keys(got):
    want = np.array([1, 2, 2, 3])
    assert oracle.multiset_error(got, want) is not None
    assert oracle.multiset_error([3, 2, 1, 2], want) is None


def test_churn_oracle_checks_base_keys_and_subscriptions():
    base = spec.CHURN_KEY_BASE
    query = np.array([[0b1110, 0, 0]], dtype=np.uint64)
    subs = np.array([[0b0110, 0, 0], [0b0001, 0, 0]], dtype=np.uint64)
    orc = oracle.ChurnOracle([np.array([5])], query, subs)
    assert orc.check_publish(0, [5, base]) is not None  # not acknowledged yet
    orc.on_subscribed(0)
    orc.on_subscribed(1)
    assert orc.check_publish(0, [5, base]) is None
    assert orc.check_publish(0, [base]) is not None  # base key missing
    assert orc.check_publish(0, [5, base, base]) is not None  # duplicated
    assert orc.check_publish(0, [5, base + 1]) is not None  # not a subset
    assert orc.expected(np.array([0]))[0].tolist() == [5, base]
    assert orc.unsubscribe_target() == 0
    orc.on_unsubscribed(0, removed=True)
    assert orc.expected(np.array([0]))[0].tolist() == [5]
    assert not orc.errors
    orc.on_unsubscribed(1, removed=False)
    assert orc.errors


def test_driver_times_from_schedule_and_counts_unanswered_as_failed():
    async def scenario():
        async def handle(reader, writer):
            try:
                while True:
                    header = await reader.readexactly(4)
                    body = await reader.readexactly(int.from_bytes(header, "big"))
                    if decode_frame(body)["id"] == 0:  # request 1 is never answered
                        await asyncio.sleep(0.05)
                        writer.write(encode_frame({"id": 0, "ok": True, "keys": []}))
            except asyncio.IncompleteReadError:
                pass
            finally:
                writer.close()

        server = await asyncio.start_server(handle, driver.HOST, 0)
        port = server.sockets[0].getsockname()[1]

        def message(i):
            if i == 0:
                time.sleep(0.1)  # a stalled generator sends request 0 late
            return {"verb": "pub", "tags": ["a"]}

        try:
            return await driver.drive(port, np.zeros(2), message, 1, grace_s=0.5)
        finally:
            server.close()
            await server.wait_closed()

    late, lost = asyncio.run(scenario())
    assert late.sent - late.due >= 0.1
    # Latency counts the generator's lateness as well as the server's delay.
    assert late.latency_s >= 0.15
    assert lost.reply is None
    assert driver.failures([late, lost]) == 1


def test_saturate_keeps_the_window_outstanding_and_counts_unanswered_as_failed():
    replied = []

    async def scenario():
        outstanding, peak = 0, 0

        async def handle(reader, writer):
            nonlocal outstanding, peak
            try:
                while True:
                    header = await reader.readexactly(4)
                    request = decode_frame(await reader.readexactly(int.from_bytes(header, "big")))
                    outstanding += 1
                    peak = max(peak, outstanding)
                    await asyncio.sleep(0.01)
                    if request["id"] != 0:  # request 0 is never answered
                        outstanding -= 1
                        writer.write(encode_frame({"id": request["id"], "ok": True, "keys": []}))
            except asyncio.IncompleteReadError:
                pass
            finally:
                writer.close()

        server = await asyncio.start_server(handle, driver.HOST, 0)
        port = server.sockets[0].getsockname()[1]
        try:
            records = await driver.saturate(
                port,
                lambda i: {"verb": "pub", "tags": ["a"]},
                1,
                3,
                0.2,
                on_reply=lambda i, reply: replied.append(i),
                grace_s=0.3,
            )
        finally:
            server.close()
            await server.wait_closed()
        return records, peak

    records, peak = asyncio.run(scenario())
    assert len(records) > 3
    assert peak <= 3
    assert records[0].reply is None
    assert driver.failures(records) == 1
    assert sorted(replied) == [r.index for r in records if r.reply is not None]


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("root", 0.0, 10.0, 9.0, -1, -1),
        Span("a", 1.0, 4.0, 3.0, 0, 0),
        Span("b", 3.0, 6.0, 2.0, 0, 0),  # overlaps the first "a"
        Span("leaf", 2.0, 3.0, 1.0, 1, 0),
        Span("a", 7.0, 8.0, 0.5, 0, 1),
    ]
    walls, cpus = zip(*self_times(spans))
    assert walls == pytest.approx((4.0, 2.0, 3.0, 1.0, 1.0))
    assert cpus == pytest.approx((3.5, 2.0, 2.0, 1.0, 0.5))
    totals = layer_totals(spans)
    assert totals["a"]["count"] == 2
    assert totals["a"]["self_s"] == pytest.approx(3.0)
    assert totals["a"]["cpu_s"] == pytest.approx(2.5)


def test_same_seed_gives_same_inputs_and_another_seed_changes_them():
    def fingerprint(seed):
        return inputs.fingerprint(inputs.make_inputs("churn_swap", seed, 1.0, num_users=400))

    assert fingerprint(3) == fingerprint(3)
    assert fingerprint(3) != fingerprint(4)


def test_benchmark_json_lists_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(spec.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(spec.SHOULD_MOVE)
