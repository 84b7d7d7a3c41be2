"""The work-conserving publish path: one pipeline run in flight at a time.

Publishes admitted while a run is going queue up and ride the next run
together.  These tests hold a run open with a gated engine, so the
queueing is deterministic, and check every reply against
``LinearScanMatcher`` over the subscription multiset the run saw.

No pytest-asyncio in the image, so each test drives its own loop with
``asyncio.run``.
"""

import asyncio
import socket

import numpy as np

from repro.baselines.linear_scan import LinearScanMatcher
from repro.core.config import ServiceConfig, TagMatchConfig
from repro.core.engine import TagMatch
from repro.service.protocol import ServiceClient, encode_frame
from repro.service.server import MatchServer

ASSOCIATIONS = [
    (("a", "b"), 1),
    (("a", "b"), 1),
    (("a",), 2),
    (("b", "c"), 3),
    (("d",), 4),
    (("a", "c", "d"), 5),
]

QUERIES = [
    ["a", "b"],
    ["a", "b", "c"],
    ["a", "c", "d"],
    ["d"],
    ["a", "b", "c", "d"],
    ["z"],
]


def _engine() -> TagMatch:
    engine = TagMatch(
        TagMatchConfig(max_partition_size=2, num_gpus=1, batch_timeout_s=None)
    )
    for tags, key in ASSOCIATIONS:
        engine.add_set(tags, key=key)
    engine.consolidate()
    return engine


async def _serve(gated, fail_runs: tuple[int, ...] = (), **overrides):
    config = dict(port=0, reconsolidate_threshold=0)
    config.update(overrides)
    engine = _engine()
    gate = gated(engine, fail_runs)
    server = MatchServer(engine, ServiceConfig(**config))
    await server.start()
    client = await ServiceClient.connect("127.0.0.1", server.port)
    return server, client, gate


async def _until(predicate, timeout_s: float = 5.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "condition never held"
        await asyncio.sleep(0.002)


def _oracle(engine: TagMatch, associations) -> LinearScanMatcher:
    matcher = LinearScanMatcher()
    blocks = np.vstack([engine.encode(tags) for tags, _ in associations])
    keys = np.array([key for _, key in associations], dtype=np.int64)
    matcher.build(blocks, keys)
    return matcher


def _expected(matcher, engine, tags, unique: bool) -> list[int]:
    return sorted(matcher.match_blocks(engine.encode(tags), unique=unique).tolist())


def _publish(client, tags, unique=False):
    return asyncio.get_running_loop().create_task(client.publish(tags, unique=unique))


def test_batches_queued_behind_a_run_ride_the_next_run_together(gated):
    async def run():
        server, client, gate = await _serve(gated)
        try:
            first = _publish(client, QUERIES[0])
            await _until(lambda: gate.sizes == [1])
            queued = [_publish(client, QUERIES[i % len(QUERIES)]) for i in range(14)]
            # All 14 publishes queue behind the held run.
            await _until(lambda: server._inflight == 15)
            gate.open()
            replies = await asyncio.gather(first, *queued)

            assert gate.sizes == [1, 14]
            stats = await client.stats()
            assert stats["match_runs"] == 2
            assert stats["run_occupancy"] == 7.5
            assert stats["batches"] == 2
            assert stats["batch_occupancy"] == 7.5

            oracle = _oracle(server.engine, ASSOCIATIONS)
            publishes = [QUERIES[0]] + [QUERIES[i % len(QUERIES)] for i in range(14)]
            for tags, (keys, epoch) in zip(publishes, replies):
                assert sorted(keys) == _expected(oracle, server.engine, tags, False)
                assert epoch == server.engine.epoch
        finally:
            gate.open()
            await client.close()
            await server.shutdown()

    asyncio.run(run())


def test_coalesced_run_keeps_per_ticket_unique_and_sees_updates_made_before_it(
    gated,
):
    async def run():
        server, client, gate = await _serve(gated)
        try:
            held = _publish(client, ["a", "b", "c"])
            await _until(lambda: gate.sizes == [1])
            # Updates while the first run is held: it took its delta view
            # before them, the next run takes one after them.
            await client.subscribe(["a"], key=2)
            await client.subscribe(["a", "b"], key=9)
            assert await client.unsubscribe(["b", "c"], key=3)
            assert await client.unsubscribe(["a", "b"], key=1)
            mixed = [(QUERIES[i % len(QUERIES)], i % 3 == 0) for i in range(12)]
            queued = [_publish(client, tags, unique) for tags, unique in mixed]
            await _until(lambda: server._inflight == 13)
            gate.open()
            held_keys, _ = await held
            replies = await asyncio.gather(*queued)

            assert gate.sizes == [1, 12]
            before = _oracle(server.engine, ASSOCIATIONS)
            assert sorted(held_keys) == _expected(
                before, server.engine, ["a", "b", "c"], False
            )
            live = list(ASSOCIATIONS) + [(("a",), 2), (("a", "b"), 9)]
            live.remove((("b", "c"), 3))
            live.remove((("a", "b"), 1))
            after = _oracle(server.engine, live)
            for (tags, unique), (keys, _) in zip(mixed, replies):
                got = sorted(keys)
                assert got == _expected(after, server.engine, tags, unique)
                if unique:
                    assert len(set(got)) == len(got)
            # The multiset/unique split is visible: key 2 is now held twice.
            keys, _ = await client.publish(["a"])
            assert sorted(keys) == [2, 2]
            keys, _ = await client.publish(["a"], unique=True)
            assert keys == [2]
        finally:
            gate.open()
            await client.close()
            await server.shutdown()

    asyncio.run(run())


def test_shutdown_with_batches_still_queued_answers_every_publish(gated):
    async def run():
        server, client, gate = await _serve(gated)
        try:
            held = _publish(client, ["a"])
            await _until(lambda: gate.sizes == [1])
            # Ten publishes queue behind the held run.
            queued = [_publish(client, QUERIES[i % len(QUERIES)]) for i in range(10)]
            await _until(lambda: server._inflight == 11)
            stopping = asyncio.get_running_loop().create_task(server.shutdown())
            await asyncio.sleep(0.02)
            assert not stopping.done()
            gate.open()
            await stopping
            replies = await asyncio.gather(held, *queued)
            assert all(isinstance(keys, list) for keys, _ in replies)
            assert gate.sizes == [1, 10]
            assert server.metrics.publishes == 11
        finally:
            gate.open()
            await client.close()
            await server.shutdown()

    asyncio.run(run())


def test_failed_run_fails_every_ticket_in_it_and_releases_admission(gated):
    async def run():
        server, client, gate = await _serve(
            gated, fail_runs=(1,), conn_inflight=12, max_inflight=16
        )
        try:
            held = _publish(client, ["a"])
            await _until(lambda: gate.sizes == [1])
            doomed = [
                asyncio.get_running_loop().create_task(
                    client.request("pub", tags=QUERIES[i % len(QUERIES)])
                )
                for i in range(11)
            ]
            await _until(lambda: server._inflight == 12)
            gate.open()
            keys, _ = await held
            assert keys == [2]
            replies = await asyncio.gather(*doomed)
            assert gate.sizes == [1, 11]
            for reply in replies:
                assert reply["ok"] is False
                assert reply["error"].startswith("match_failed: ")
            stats = await client.stats()
            assert stats["errors"] == 1
            assert stats["inflight"] == 0
            assert stats["match_runs"] == 2

            # Admission was fully released: a full connection's worth of
            # publishes is admitted and served afterwards.
            oracle = _oracle(server.engine, ASSOCIATIONS)
            again = [QUERIES[i % len(QUERIES)] for i in range(12)]
            results = await asyncio.wait_for(
                asyncio.gather(*(client.publish(t) for t in again)), timeout=10
            )
            for tags, (keys, _) in zip(again, results):
                assert sorted(keys) == _expected(oracle, server.engine, tags, False)
            assert (await client.stats())["overloads"] == 0
        finally:
            gate.open()
            await client.close()
            await server.shutdown()

    asyncio.run(run())


def test_swap_while_a_run_is_in_flight_closes_the_old_engine_after_it(gated):
    async def run():
        server, client, gate = await _serve(gated)
        try:
            old = server.engine
            held = _publish(client, ["a", "b"])
            await _until(lambda: gate.sizes == [1])
            await client.subscribe(["c"], key=7)
            new_epoch = await client.reconsolidate()
            assert server.engine is not old
            assert not old._closed  # the held run still uses it
            gate.open()
            keys, epoch = await held
            assert sorted(keys) == [1, 1, 2]
            assert epoch == old.epoch < new_epoch
            await _until(lambda: old._closed)
            keys, epoch = await client.publish(["c"])
            assert keys == [7] and epoch == new_epoch
        finally:
            gate.open()
            await client.close()
            await server.shutdown()

    asyncio.run(run())


def test_a_client_that_stops_reading_does_not_stall_other_connections(gated):
    async def run():
        server, client, gate = await _serve(gated, conn_inflight=8, max_inflight=64)
        gate.open()
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sending = None
        try:
            # 300 keys on tag "s" make each of the stalled peer's replies
            # ~2 KB; no query of the other connection contains "s".
            await asyncio.gather(
                *(client.subscribe(["s"], key=1000 + k) for k in range(300))
            )
            # A peer that pipelines publishes and never reads its replies.
            # Small socket buffers on both ends make its replies back up
            # into the server's ``drain()`` after a few dozen frames.
            loop = asyncio.get_running_loop()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.setblocking(False)
            await loop.sock_connect(sock, ("127.0.0.1", server.port))
            await _until(lambda: len(server._conns) == 2)
            stalled = next(
                c
                for c in server._conns
                if c.writer.get_extra_info("peername") == sock.getsockname()
            )
            stalled.writer.transport.set_write_buffer_limits(high=1024)
            stalled.writer.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            sending = loop.create_task(
                loop.sock_sendall(sock, encode_frame({"verb": "pub", "tags": ["s"]}) * 1000)
            )
            # Its replies stop draining: the server's write buffer sits
            # above the high-water mark and its publishes fill its cap.
            await _until(
                lambda: stalled.writer.transport.get_write_buffer_size() > 1024,
                timeout_s=10,
            )
            await asyncio.sleep(0.05)
            assert stalled.sem.locked()

            oracle = _oracle(server.engine, ASSOCIATIONS)
            others = [QUERIES[i % len(QUERIES)] for i in range(40)]
            replies = await asyncio.wait_for(
                asyncio.gather(*(client.publish(tags) for tags in others)),
                timeout=10,
            )
            for tags, (keys, _) in zip(others, replies):
                assert sorted(keys) == _expected(oracle, server.engine, tags, False)
            # ...while the stalled peer is still stuck.
            assert stalled.writer.transport.get_write_buffer_size() > 1024
            assert stalled.sem.locked()
        finally:
            if sending is not None:
                sending.cancel()
            sock.close()
            await client.close()
            await server.shutdown()

    asyncio.run(run())
