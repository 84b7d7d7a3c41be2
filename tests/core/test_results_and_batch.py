"""Tests for merge semantics and partition batchers."""

import time

import numpy as np
import pytest

from repro.core.batch import BatcherSet, PartitionBatcher
from repro.core.results import merge_by_query, merge_keys
from repro.errors import ValidationError


class TestMergeKeys:
    def test_match_concatenates_multiset(self):
        out = merge_keys([np.array([1, 2]), np.array([2, 3])], unique=False)
        assert sorted(out.tolist()) == [1, 2, 2, 3]

    def test_match_unique_deduplicates(self):
        out = merge_keys([np.array([1, 2]), np.array([2, 3])], unique=True)
        assert out.tolist() == [1, 2, 3]

    def test_empty(self):
        assert merge_keys([], unique=False).size == 0
        assert merge_keys([], unique=True).size == 0


class TestMergeByQuery:
    def test_keeps_each_querys_key_order(self):
        owners = np.array([1, 0, 1, 1, 0], dtype=np.intp)
        keys = np.array([9, 4, 2, 9, 1], dtype=np.int64)
        out = merge_by_query(owners, keys, 3, unique=False)
        assert [r.tolist() for r in out] == [[4, 1], [9, 2, 9], []]
        assert all(r.dtype == np.int64 for r in out)

    def test_unique_sorts_and_deduplicates_per_query(self):
        # Query 1's smallest key equals query 0's largest: it stays.
        owners = np.array([1, 0, 1, 1, 0, 0], dtype=np.intp)
        keys = np.array([9, 4, 4, 9, 4, 2], dtype=np.int64)
        out = merge_by_query(owners, keys, 3, unique=True)
        assert [r.tolist() for r in out] == [[2, 4], [4, 9], []]

    @pytest.mark.parametrize("unique", [False, True])
    def test_no_keys(self, unique):
        out = merge_by_query(
            np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64), 2, unique
        )
        assert [r.size for r in out] == [0, 0]
        assert all(r.dtype == np.int64 for r in out)


def make_row(value):
    return np.array([value, 0, 0], dtype=np.uint64)


def add_one(batcher, value, query_id):
    """Queue one query through ``add_many``; return the batches it filled."""
    return batcher.add_many(make_row(value).reshape(1, -1), np.array([query_id], np.intp))


class TestPartitionBatcher:
    def test_emits_when_full(self):
        batcher = PartitionBatcher(3, batch_size=2)
        assert add_one(batcher, 1, 5) == []
        (batch,) = add_one(batcher, 2, 7)
        assert batch.partition_id == 3
        assert len(batch) == 2
        assert batch.queries.shape == (2, 3)
        assert batch.ids.tolist() == [5, 7]
        assert batch.queries[:, 0].tolist() == [1, 2]
        assert batcher.pending == 0

    def test_add_many_splits_full_batches_in_order(self):
        batcher = PartitionBatcher(0, batch_size=2)
        rows = np.vstack([make_row(v) for v in range(5)])
        batches = batcher.add_many(rows, np.arange(10, 15, dtype=np.intp))
        assert [b.ids.tolist() for b in batches] == [[10, 11], [12, 13]]
        assert [b.queries[:, 0].tolist() for b in batches] == [[0, 1], [2, 3]]
        assert batcher.pending == 1
        rest = batcher.flush()
        assert rest.ids.tolist() == [14] and rest.queries[:, 0].tolist() == [4]

    def test_flush_emits_partial(self):
        batcher = PartitionBatcher(0, batch_size=10)
        add_one(batcher, 1, 0)
        batch = batcher.flush()
        assert len(batch) == 1
        assert batcher.flush() is None

    def test_flush_if_stale_respects_age(self):
        batcher = PartitionBatcher(0, batch_size=10)
        add_one(batcher, 1, 0)
        assert batcher.flush_if_stale(10.0) is None
        time.sleep(0.02)
        assert batcher.flush_if_stale(0.01) is not None

    def test_stale_empty_is_none(self):
        batcher = PartitionBatcher(0, batch_size=4)
        assert batcher.flush_if_stale(0.0) is None

    def test_age_resets_after_emit(self):
        batcher = PartitionBatcher(0, batch_size=1)
        assert len(add_one(batcher, 1, 0)) == 1  # emitted immediately
        assert batcher.flush_if_stale(0.0) is None

    def test_zero_batch_size_rejected(self):
        with pytest.raises(ValidationError):
            PartitionBatcher(0, batch_size=0)


class TestBatcherSet:
    def test_flush_all(self):
        batchers = BatcherSet(3, batch_size=10)
        add_one(batchers[0], 1, 0)
        add_one(batchers[2], 2, 1)
        assert [b.pending for b in batchers.batchers] == [1, 0, 1]
        batches = batchers.flush_all()
        assert sorted(b.partition_id for b in batches) == [0, 2]

    def test_flush_stale_only_old(self):
        batchers = BatcherSet(2, batch_size=10)
        add_one(batchers[0], 1, 0)
        time.sleep(0.02)
        add_one(batchers[1], 2, 1)
        stale = batchers.flush_stale(0.015)
        assert [b.partition_id for b in stale] == [0]
