"""End-to-end server tests: live updates, overload, epoch swaps, drain.

No pytest-asyncio in the image, so each test drives its own loop with
``asyncio.run``.
"""

import asyncio

import pytest

from repro.core.config import ServiceConfig, TagMatchConfig
from repro.core.engine import TagMatch
from repro.service.protocol import OverloadedError, ServiceClient
from repro.service.server import _RECON_BACKOFF_CAP_S, MatchServer

ENGINE_CONFIG = TagMatchConfig(max_partition_size=8, num_gpus=1, batch_timeout_s=None)


def _engine(associations) -> TagMatch:
    engine = TagMatch(ENGINE_CONFIG)
    for tags, key in associations:
        engine.add_set(tags, key=key)
    engine.consolidate()
    return engine


def _config(**overrides) -> ServiceConfig:
    defaults = dict(
        port=0,
        reconsolidate_threshold=0,  # no background rebuilds unless asked
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


async def _serve(associations, **overrides):
    server = MatchServer(_engine(associations), _config(**overrides))
    await server.start()
    client = await ServiceClient.connect("127.0.0.1", server.port)
    return server, client


async def _until(predicate, timeout_s: float = 5.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "condition never held"
        await asyncio.sleep(0.002)


def test_live_subscribe_unsubscribe_and_multiset_semantics():
    async def run():
        server, client = await _serve(
            [(("a", "b"), 1), (("a", "b"), 1), (("c",), 2)]
        )
        try:
            keys, epoch0 = await client.publish(["a", "b"])
            assert sorted(keys) == [1, 1]

            await client.subscribe(["a"], key=7)
            keys, _ = await client.publish(["a", "b"])
            assert sorted(keys) == [1, 1, 7]
            keys, _ = await client.publish(["a", "b"], unique=True)
            assert sorted(keys) == [1, 7]

            # Tombstones remove exactly one instance each.
            assert await client.unsubscribe(["a", "b"], key=1)
            keys, _ = await client.publish(["a", "b"])
            assert sorted(keys) == [1, 7]
            assert await client.unsubscribe(["a", "b"], key=1)
            keys, _ = await client.publish(["a", "b"])
            assert sorted(keys) == [7]
            assert not await client.unsubscribe(["a", "b"], key=1)

            # Removing a live delta add deletes it outright.
            assert await client.unsubscribe(["a"], key=7)
            keys, _ = await client.publish(["a", "b"])
            assert keys == []

            stats = await client.stats()
            assert stats["delta_size"] == 2  # two tombstones remain
            assert stats["publishes"] >= 5

            # Reconsolidate folds the delta and bumps the epoch.
            epoch1 = await client.reconsolidate()
            assert epoch1 > epoch0
            stats = await client.stats()
            assert stats["delta_size"] == 0
            assert stats["reconsolidations"] == 1
            keys, epoch = await client.publish(["a", "b"])
            assert keys == [] and epoch == epoch1
            keys, _ = await client.publish(["c"])
            assert keys == [2]
        finally:
            await client.close()
            await server.shutdown()

    asyncio.run(run())


def test_overload_rejects_with_bounded_latency(gated):
    async def run():
        # max_inflight=2 and the first run held open: two publishes are
        # admitted, the rest must bounce while the run is still held.
        server, client = await _serve([(("a",), 1)], max_inflight=2)
        gate = gated(server.engine)
        try:
            publishes = [
                asyncio.get_running_loop().create_task(client.publish(["a"]))
                for _ in range(12)
            ]
            await _until(lambda: sum(p.done() for p in publishes) == 10)
            assert not any(p.done() for p in publishes[:2])
            gate.open()
            outcomes = await asyncio.gather(*publishes, return_exceptions=True)
            rejected = [o for o in outcomes if isinstance(o, OverloadedError)]
            served = [o for o in outcomes if isinstance(o, tuple)]
            assert len(rejected) == 10
            assert len(served) == 2
            for keys, _ in served:
                assert keys == [1]
            stats = await client.stats()
            assert stats["overloads"] == len(rejected)
        finally:
            gate.open()
            await client.close()
            await server.shutdown()

    asyncio.run(run())


def test_reconsolidation_swaps_epochs_under_load():
    async def run():
        server, client = await _serve(
            [(("a",), 1)],
            reconsolidate_threshold=4,
            reconsolidate_interval_s=0.01,
        )
        try:
            epochs = set()
            key = 100
            for round_no in range(6):
                for _ in range(4):
                    key += 1
                    await client.subscribe(["a", f"r{round_no}"], key=key)
                keys, epoch = await client.publish(["a"])
                epochs.add(epoch)
                assert 1 in keys  # frozen association never disappears
                await asyncio.sleep(0.03)
            stats = await client.stats()
            assert stats["reconsolidations"] >= 1
            assert len(epochs) >= 2  # a swap was observed mid-stream
            assert stats["errors"] == 0
            # Every subscription survived the swaps.
            keys, _ = await client.publish(["a"] + [f"r{i}" for i in range(6)])
            assert len(keys) == 1 + 24
        finally:
            await client.close()
            await server.shutdown()

    asyncio.run(run())


def test_graceful_shutdown_drains_pending_publishes(gated):
    async def run():
        server, client = await _serve([(("a",), 1)])
        gate = gated(server.engine)
        try:
            loop = asyncio.get_running_loop()
            held = loop.create_task(client.publish(["a"]))
            await _until(lambda: gate.sizes == [1])
            queued = loop.create_task(client.publish(["a"]))
            await _until(lambda: server._inflight == 2)
            # Shutdown waits for the held run and the one queued behind it.
            stopping = loop.create_task(server.shutdown())
            await asyncio.sleep(0.02)
            assert not stopping.done()
            gate.open()
            await stopping
            assert (await held)[0] == [1]
            assert (await queued)[0] == [1]
            assert gate.sizes == [1, 1]
        finally:
            gate.open()
            await client.close()

    asyncio.run(run())


def test_unconsolidated_engine_is_rejected():
    engine = TagMatch(ENGINE_CONFIG)
    engine.add_set({"a"}, key=1)
    with pytest.raises(Exception):
        MatchServer(engine, _config())
    engine.close()


def test_bad_requests_get_error_replies_not_disconnects():
    async def run():
        server, client = await _serve([(("a",), 1)])
        try:
            reply = await client.request("pub", tags=[])
            assert reply["ok"] is False and "bad_request" in reply["error"]
            reply = await client.request("frobnicate")
            assert reply["ok"] is False
            reply = await client.request("sub", tags=["x"])  # missing key
            assert reply["ok"] is False
            await client.ping()  # connection still healthy
        finally:
            await client.close()
            await server.shutdown()

    asyncio.run(run())


def _failing_rebuild(*_args):
    raise RuntimeError("injected rebuild fault")


def test_failed_reconsolidation_keeps_the_connection_and_the_old_epoch():
    """A rebuild that raises, from the verb or the background loop, is
    answered and counted; the delta survives the aborted fold and the
    publishes around it are served on the old epoch."""

    async def run():
        server, client = await _serve(
            [(("a",), 1), (("a", "b"), 2)],
            reconsolidate_threshold=3,
            reconsolidate_interval_s=0.01,
        )
        try:
            epoch0 = server.engine.epoch
            server._rebuild = _failing_rebuild
            await client.subscribe(["a", "c"], key=3)
            assert await client.unsubscribe(["a", "b"], key=2)

            # Verb path: a publish pipelined behind the failing verb on
            # the same connection still gets its reply.
            loop = asyncio.get_running_loop()
            recon = loop.create_task(client.request("reconsolidate"))
            pub = loop.create_task(client.publish(["a", "b", "c"]))
            reply = await asyncio.wait_for(recon, timeout=5)
            assert reply["ok"] is False
            assert reply["error"] == "reconsolidate_failed: injected rebuild fault"
            keys, epoch = await asyncio.wait_for(pub, timeout=5)
            assert sorted(keys) == [1, 3] and epoch == epoch0
            assert (await client.stats())["errors"] == 1
            assert server.delta.size == 2 and not server._folding

            # Background path: the third delta entry crosses the
            # threshold; each failed attempt is counted, none is fatal.
            await client.subscribe(["d"], key=4)
            await _until(lambda: server.metrics.errors >= 2)
            keys, epoch = await client.publish(["a", "b", "c", "d"])
            assert sorted(keys) == [1, 3, 4] and epoch == epoch0
            assert server.delta.size == 3 and not server._folding
            assert server.engine.epoch == epoch0

            # The delta the aborted folds left behind folds cleanly.
            del server._rebuild
            new_epoch = await client.reconsolidate()
            assert new_epoch > epoch0
            keys, epoch = await client.publish(["a", "b", "c", "d"])
            assert sorted(keys) == [1, 3, 4] and epoch == new_epoch
        finally:
            await client.close()
            await server.shutdown()

    asyncio.run(run())


def test_failing_background_rebuild_backs_off():
    """A rebuild that keeps failing is retried with a doubling wait, not
    every interval; once it can succeed, a fold lands within the cap."""

    async def run():
        server, client = await _serve(
            [(("a",), 1)], reconsolidate_threshold=1, reconsolidate_interval_s=0.01
        )
        attempts = []

        def failing_rebuild(*_args):
            attempts.append(1)
            raise RuntimeError("injected rebuild fault")

        try:
            epoch0 = server.engine.epoch
            server._rebuild = failing_rebuild
            await client.subscribe(["b"], key=2)
            await asyncio.sleep(0.5)
            # Waits of 0.01, 0.02, 0.04, ... s fit about six attempts in
            # 0.5 s; a fixed 0.01 s interval would fit dozens.
            assert 1 <= len(attempts) <= 8, len(attempts)
            assert server.metrics.errors == len(attempts)

            del server._rebuild
            await _until(
                lambda: server.engine.epoch > epoch0, timeout_s=_RECON_BACKOFF_CAP_S + 2
            )
            keys, _ = await client.publish(["a", "b"])
            assert sorted(keys) == [1, 2]
        finally:
            await client.close()
            await server.shutdown()

    asyncio.run(run())
