"""Snapshot → serve → live deltas → restart: no association lost.

The durability acceptance test: a server started from a snapshot,
mutated live, and shut down with ``snapshot_path`` must restart into
exactly the state a freshly consolidated engine over the final
association multiset would have.
"""

import asyncio

import numpy as np

from repro.core.config import ServiceConfig, TagMatchConfig
from repro.core.engine import TagMatch
from repro.service.protocol import ServiceClient
from repro.service.server import MatchServer

INITIAL = [
    (("news", "sports"), 1),
    (("news", "sports"), 1),
    (("news",), 2),
    (("cats", "memes"), 3),
]
QUERIES = [
    ["news", "sports", "cats"],
    ["news"],
    ["cats", "memes"],
    ["absent"],
]


def _engine_config() -> TagMatchConfig:
    return TagMatchConfig(max_partition_size=8, num_gpus=1, batch_timeout_s=None)


def _build(associations) -> TagMatch:
    engine = TagMatch(_engine_config())
    for tags, key in associations:
        engine.add_set(tags, key=key)
    engine.consolidate()
    return engine


def _service_config() -> ServiceConfig:
    return ServiceConfig(
        port=0,
        reconsolidate_threshold=0,
    )


async def _mutate(client: ServiceClient, reference: list) -> None:
    """Live updates applied both to the server and the reference multiset."""
    await client.subscribe(["cats"], key=9)
    reference.append((("cats",), 9))
    await client.subscribe(["news", "finance"], key=10)
    reference.append((("finance", "news"), 10))
    assert await client.unsubscribe(["news", "sports"], key=1)  # tombstone
    reference.remove((("news", "sports"), 1))
    assert await client.unsubscribe(["cats"], key=9)  # delete live add
    reference.remove((("cats",), 9))
    assert not await client.unsubscribe(["no", "such"], key=99)


async def _query_all(client: ServiceClient) -> list:
    return [sorted((await client.publish(q))[0]) for q in QUERIES]


def test_snapshot_serve_mutate_restart_round_trip(tmp_path):
    first = tmp_path / "first.npz"
    final = tmp_path / "final.npz"

    async def serve_and_mutate():
        engine = TagMatch.load(str(first))
        server = MatchServer(engine, _service_config(), snapshot_path=str(final))
        await server.start()
        reference = list(INITIAL)
        async with await ServiceClient.connect("127.0.0.1", server.port) as client:
            await _mutate(client, reference)
            live = await _query_all(client)
        # Shutdown folds the delta and saves the final snapshot.
        await server.shutdown()
        return reference, live

    async def serve_from_restart():
        engine = TagMatch.load(str(final))
        assert engine.epoch >= 1
        server = MatchServer(engine, _service_config())
        await server.start()
        async with await ServiceClient.connect("127.0.0.1", server.port) as client:
            restarted = await _query_all(client)
        await server.shutdown()
        return restarted

    builder = _build(INITIAL)
    builder.save(str(first))
    builder.close()

    reference, live = asyncio.run(serve_and_mutate())
    restarted = asyncio.run(serve_from_restart())

    with _build(reference) as fresh:
        expected = [
            sorted(
                fresh.match(
                    set(q)
                ).tolist()
            )
            for q in QUERIES
        ]
    assert live == expected
    assert restarted == expected


def test_final_snapshot_equals_fresh_engine_database(tmp_path):
    """The folded snapshot's association table is the reference multiset."""
    first = tmp_path / "first.npz"
    final = tmp_path / "final.npz"
    builder = _build(INITIAL)
    builder.save(str(first))
    builder.close()

    async def run():
        engine = TagMatch.load(str(first))
        server = MatchServer(engine, _service_config(), snapshot_path=str(final))
        await server.start()
        reference = list(INITIAL)
        async with await ServiceClient.connect("127.0.0.1", server.port) as client:
            await _mutate(client, reference)
        await server.shutdown()
        return reference

    reference = asyncio.run(run())
    restored = TagMatch.load(str(final))
    try:
        with _build(reference) as fresh:
            got = sorted(
                zip(
                    (r.tobytes() for r in restored.database.blocks),
                    restored.database.keys.tolist(),
                )
            )
            want = sorted(
                zip(
                    (r.tobytes() for r in fresh.database.blocks),
                    fresh.database.keys.tolist(),
                )
            )
            assert got == want
            q = np.array(
                [restored.hasher.encode_set(["news", "sports", "cats"])],
                dtype=np.uint64,
            )
            a = restored.match_stream(q, unique=False).results[0]
            b = fresh.match_stream(q, unique=False).results[0]
            assert np.array_equal(np.sort(a), np.sort(b))
    finally:
        restored.close()
