"""Tests for per-query state, merge semantics, and partition batchers."""

import time

import numpy as np
import pytest

from repro.core.batch import BatcherSet, PartitionBatcher
from repro.core.results import QueryState, merge_keys
from repro.errors import ReproError, ValidationError


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


class TestQueryState:
    def test_zero_batches_completes_at_preprocess(self):
        state = QueryState(0, unique=False)
        state.preprocess_complete()
        assert state.done
        assert state.result.size == 0

    def test_completes_when_counter_hits_zero(self):
        state = QueryState(0, unique=False)
        state.add_batch()
        state.add_batch()
        state.preprocess_complete()
        state.deliver_keys(np.array([1]))
        assert not state.done
        state.deliver_keys(np.array([2]))
        assert state.done
        assert sorted(state.result.tolist()) == [1, 2]

    def test_delivery_before_preprocess_complete(self):
        """GPUs can return a batch before pre-processing finishes."""
        state = QueryState(0, unique=False)
        state.add_batch()
        state.deliver_keys(np.array([5]))
        assert not state.done
        state.preprocess_complete()
        assert state.done
        assert state.result.tolist() == [5]

    def test_unique_merge(self):
        state = QueryState(0, unique=True)
        state.add_batch()
        state.add_batch()
        state.preprocess_complete()
        state.deliver_keys(np.array([7, 7, 3]))
        state.deliver_keys(np.array([7]))
        assert state.result.tolist() == [3, 7]

    def test_deliver_without_pending_raises(self):
        state = QueryState(0, unique=False)
        with pytest.raises(ReproError):
            state.deliver_keys(np.array([1]))

    def test_add_batch_after_preprocess_raises(self):
        state = QueryState(0, unique=False)
        state.preprocess_complete()
        with pytest.raises(ReproError):
            state.add_batch()

    def test_latency_requires_completion(self):
        state = QueryState(0, unique=False)
        with pytest.raises(ReproError):
            _ = state.latency_s
        state.preprocess_complete()
        assert state.latency_s >= 0


def make_row(value):
    return np.array([value, 0, 0], dtype=np.uint64)


class TestPartitionBatcher:
    def test_emits_when_full(self):
        batcher = PartitionBatcher(3, batch_size=2, num_words=3)
        s0, s1 = QueryState(0, False), QueryState(1, False)
        assert batcher.add(make_row(1), s0) is None
        batch = batcher.add(make_row(2), s1)
        assert batch is not None
        assert batch.partition_id == 3
        assert len(batch) == 2
        assert batch.queries.shape == (2, 3)
        assert batcher.pending == 0

    def test_flush_emits_partial(self):
        batcher = PartitionBatcher(0, batch_size=10, num_words=3)
        batcher.add(make_row(1), QueryState(0, False))
        batch = batcher.flush()
        assert len(batch) == 1
        assert batcher.flush() is None

    def test_flush_if_stale_respects_age(self):
        batcher = PartitionBatcher(0, batch_size=10, num_words=3)
        batcher.add(make_row(1), QueryState(0, False))
        assert batcher.flush_if_stale(10.0) is None
        time.sleep(0.02)
        assert batcher.flush_if_stale(0.01) is not None

    def test_stale_empty_is_none(self):
        batcher = PartitionBatcher(0, batch_size=4, num_words=3)
        assert batcher.flush_if_stale(0.0) is None

    def test_age_resets_after_emit(self):
        batcher = PartitionBatcher(0, batch_size=1, num_words=3)
        batcher.add(make_row(1), QueryState(0, False))  # emitted immediately
        assert batcher.flush_if_stale(0.0) is None

    def test_zero_batch_size_rejected(self):
        with pytest.raises(ValidationError):
            PartitionBatcher(0, batch_size=0, num_words=3)


class TestBatcherSet:
    def test_flush_all(self):
        batchers = BatcherSet(3, batch_size=10, num_words=3)
        batchers[0].add(make_row(1), QueryState(0, False))
        batchers[2].add(make_row(2), QueryState(1, False))
        batches = batchers.flush_all()
        assert sorted(b.partition_id for b in batches) == [0, 2]

    def test_total_pending(self):
        batchers = BatcherSet(2, batch_size=10, num_words=3)
        batchers[0].add(make_row(1), QueryState(0, False))
        batchers[1].add(make_row(2), QueryState(1, False))
        assert batchers.total_pending == 2

    def test_flush_stale_only_old(self):
        batchers = BatcherSet(2, batch_size=10, num_words=3)
        batchers[0].add(make_row(1), QueryState(0, False))
        time.sleep(0.02)
        batchers[1].add(make_row(2), QueryState(1, False))
        stale = batchers.flush_stale(0.015)
        assert [b.partition_id for b in stale] == [0]
