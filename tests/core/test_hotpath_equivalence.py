"""Result-equivalence of the kernel hot path.

Every engine fuses small partitions into shared dispatch units and runs
the hierarchical coarse pre-filter; both are execution-plan choices, so
``match``, ``match_batch`` and ``match_stream`` must return exactly what
a brute-force scan over the same signatures returns, duplicate queries
included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.linear_scan import LinearScanMatcher
from repro.core.config import TagMatchConfig
from repro.core.engine import TagMatch

bit_lists = st.lists(st.integers(0, 30), min_size=1, max_size=5)


def tags_of(bits):
    return frozenset(f"t{b}" for b in bits)


def build_engine(rows, keys, **knobs) -> TagMatch:
    config = TagMatchConfig(
        max_partition_size=4,
        batch_size=8,
        batch_timeout_s=None,
        thread_block_size=3,
        **knobs,
    )
    engine = TagMatch(config)
    for tags, key in zip(rows, keys):
        engine.add_set(tags, int(key))
    engine.consolidate()
    return engine


def canonical(results):
    return [sorted(r.tolist()) for r in results]


def oracle(engine, rows, keys, queries):
    scan = LinearScanMatcher()
    scan.build(np.stack([engine.encode(tags) for tags in rows]), np.asarray(keys))
    return canonical(scan.match_many(engine.encode_queries(queries)))


def every_path(engine, queries):
    """Each public matching path's answers, keyed by path name."""
    blocks = engine.encode_queries(queries)
    return {
        "match": canonical([engine.match(tags) for tags in queries]),
        "match_batch": canonical(engine.match_batch(blocks)),
        "match_stream": canonical(engine.match_stream(blocks).results),
    }


@settings(max_examples=12, deadline=None)
@given(
    rows=st.lists(bit_lists, min_size=1, max_size=24),
    queries=st.lists(bit_lists, min_size=1, max_size=6),
    data=st.data(),
)
def test_each_optimisation_matches_baseline(rows, queries, data):
    rows = [tags_of(r) for r in rows]
    keys = np.arange(len(rows), dtype=np.int64)
    # A duplicate-heavy query stream: repeated rows share batches (and
    # fused batchers), and each must still get its own full answer.
    dup_idx = data.draw(
        st.lists(st.integers(0, len(queries) - 1), min_size=0, max_size=6)
    )
    queries = [tags_of(q) for q in queries + [queries[i] for i in dup_idx]]

    plain = build_engine(rows, keys)
    try:
        expected = oracle(plain, rows, keys, queries)
        for path, got in every_path(plain, queries).items():
            assert got == expected, path
    finally:
        plain.close()


@settings(max_examples=10, deadline=None)
@given(
    rows=st.lists(bit_lists, min_size=1, max_size=24),
    query=bit_lists,
)
def test_single_query_path_matches_baseline(rows, query):
    """``match()`` walks dispatch units directly (no pipeline); it must
    agree with the scan."""
    rows = [tags_of(r) for r in rows]
    keys = np.arange(len(rows), dtype=np.int64)
    qtags = tags_of(query)
    engine = build_engine(rows, keys)
    try:
        expected = oracle(engine, rows, keys, [qtags])[0]
        assert sorted(engine.match(qtags).tolist()) == expected
        assert engine.match_unique(qtags).tolist() == sorted(set(expected))
    finally:
        engine.close()


def test_fused_table_reduces_launches():
    """A table holding both fused (multi-member) and singleton units
    answers every path like the scan, and launches fewer kernels than
    there are (query, relevant partition) pairs."""
    rng = np.random.default_rng(0)
    rows = [
        tags_of(rng.choice(40, size=int(rng.integers(1, 5)), replace=False))
        for _ in range(600)
    ]
    keys = np.arange(len(rows), dtype=np.int64)
    queries = [tags_of(rng.choice(40, size=12, replace=False)) for _ in range(30)]
    config = TagMatchConfig(max_partition_size=100, batch_timeout_s=None)
    with TagMatch(config) as engine:
        for tags, key in zip(rows, keys):
            engine.add_set(tags, int(key))
        engine.consolidate()
        table = engine.tagset_table
        members = [table.unit_residency(u).num_members for u in range(table.num_units)]
        assert max(members) > 1 and min(members) == 1

        relevant = sum(
            engine.partition_table.relevant_partitions(q).size
            for q in engine.encode_queries(queries)
        )
        expected = oracle(engine, rows, keys, queries)
        assert any(expected)
        blocks = engine.encode_queries(queries)
        calls = {
            "match": lambda: [engine.match(tags) for tags in queries],
            "match_batch": lambda: engine.match_batch(blocks),
            "match_stream": lambda: engine.match_stream(blocks).results,
        }
        for path, call in calls.items():
            before = sum(d.clock.launches for d in engine.devices)
            got = canonical(call())
            launches = sum(d.clock.launches for d in engine.devices) - before
            assert got == expected, path
            assert 0 < launches < relevant, path


def test_snapshot_round_trip_preserves_hotpath_knobs(tmp_path):
    rows = [tags_of([1, 2]), tags_of([2, 3]), tags_of([4])]
    keys = np.arange(3, dtype=np.int64)
    engine = build_engine(rows, keys)
    path = str(tmp_path / "snap.npz")
    try:
        engine.save(path)
    finally:
        engine.close()
    restored = TagMatch.load(path)
    try:
        # build_engine's kernel-shape fields are all non-default.
        assert restored.config.max_partition_size == 4
        assert restored.config.thread_block_size == 3
        got = canonical([restored.match(tags_of([1, 2, 3, 4]))])
        assert got == [[0, 1, 2]]
    finally:
        restored.close()


@pytest.mark.parametrize("knobs", [dict(replication_factor=-1),
                                   dict(pivot_strategy="unknown")])
def test_negative_knobs_rejected(knobs):
    from repro.errors import ValidationError

    with pytest.raises(ValidationError):
        TagMatchConfig(**knobs)
