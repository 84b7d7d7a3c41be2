"""Tests for the §4.5 GPU-only dynamic-parallelism design."""

import numpy as np
import pytest

from repro.bloom.array import SignatureArray
from repro.bloom.filter import BloomSignature
from repro.errors import ValidationError
from repro.gpu.device import Device
from repro.gpu.dynamic_parallelism import DevicePartition, DynamicParallelismMatcher


@pytest.fixture
def device():
    dev = Device()
    yield dev
    dev.close()


def sig_blocks(bit_lists):
    arr = SignatureArray.from_signatures(
        [BloomSignature.from_bits(b, width=192) for b in bit_lists]
    )
    return arr.blocks


def make_partitions():
    """Two partitions: mask {0} and mask {1}."""
    p0_sets = sig_blocks(sorted([[0, 5], [0, 6]], key=lambda b: b))
    p1_sets = sig_blocks([[1, 7]])
    mask0 = sig_blocks([[0]])[0]
    mask1 = sig_blocks([[1]])[0]
    return [
        DevicePartition(mask=mask0, sets=p0_sets, ids=np.array([0, 1], np.uint32)),
        DevicePartition(mask=mask1, sets=p1_sets, ids=np.array([2], np.uint32)),
    ]


class TestCorrectness:
    def test_matches_across_partitions(self, device):
        matcher = DynamicParallelismMatcher(device, make_partitions())
        queries = sig_blocks([[0, 5], [1, 7], [0, 1, 5, 7], [9]])
        q_ids, s_ids, _ = matcher.match_batch(queries)
        pairs = set(zip(q_ids.tolist(), s_ids.tolist()))
        assert pairs == {(0, 0), (1, 2), (2, 0), (2, 2)}

    def test_brute_force_agreement(self, device):
        rng = np.random.default_rng(11)
        bit_lists = [
            sorted(rng.choice(32, size=rng.integers(1, 5), replace=False))
            for _ in range(60)
        ]
        all_sets = sig_blocks(bit_lists)
        # Split by bit 0 of block 0 into two "partitions" with empty masks.
        zero_mask = np.zeros(3, dtype=np.uint64)
        order = SignatureArray(all_sets).lex_sort_order()
        all_sets = all_sets[order]
        half = len(all_sets) // 2
        partitions = [
            DevicePartition(zero_mask, all_sets[:half], np.arange(half, dtype=np.uint32)),
            DevicePartition(
                zero_mask,
                all_sets[half:],
                np.arange(half, len(all_sets), dtype=np.uint32),
            ),
        ]
        matcher = DynamicParallelismMatcher(device, partitions)
        queries = sig_blocks(
            [sorted(rng.choice(32, size=10, replace=False)) for _ in range(8)]
        )
        q_ids, s_ids, _ = matcher.match_batch(queries)
        got = set(zip(q_ids.tolist(), s_ids.tolist()))
        expected = {
            (qi, si)
            for si, srow in enumerate(all_sets)
            for qi, qrow in enumerate(queries)
            if not np.any(srow & ~qrow)
        }
        assert got == expected

    def test_rejects_empty_partition_list(self, device):
        with pytest.raises(ValidationError):
            DynamicParallelismMatcher(device, [])

    def test_rejects_1d_queries(self, device):
        matcher = DynamicParallelismMatcher(device, make_partitions())
        with pytest.raises(ValidationError):
            matcher.match_batch(np.zeros(3, dtype=np.uint64))


class TestTimingModel:
    def test_selective_queries_cost_less(self, device):
        """§4.5: the design works well when most packets are filtered out
        in pre-process, poorly when many reach subset match."""
        matcher = DynamicParallelismMatcher(device, make_partitions())
        nonmatching = sig_blocks([[9, 10]] * 64)
        matching = sig_blocks([[0, 1, 5, 6, 7]] * 64)
        _, _, cheap = matcher.match_batch(nonmatching)
        _, _, expensive = matcher.match_batch(matching)
        assert expensive.total_s > cheap.total_s
        assert expensive.atomic_append_s > cheap.atomic_append_s
        assert expensive.random_access_s > cheap.random_access_s

    def test_clock_charged(self, device):
        matcher = DynamicParallelismMatcher(device, make_partitions())
        matcher.match_batch(sig_blocks([[0, 5]]))
        assert device.clock.total_s > 0

    def test_timing_components_sum(self, device):
        matcher = DynamicParallelismMatcher(device, make_partitions())
        _, _, t = matcher.match_batch(sig_blocks([[0, 5], [1, 7]]))
        assert t.total_s == pytest.approx(
            t.preprocess_kernel_s
            + t.atomic_append_s
            + t.random_access_s
            + t.child_kernels_s
            + t.result_transfer_s
        )

    def test_large_queue_splits_child_launches(self, device):
        """More than 256 queued queries for one partition must still work
        (child launches are split to respect 8-bit in-batch ids)."""
        partitions = make_partitions()
        matcher = DynamicParallelismMatcher(device, partitions)
        queries = sig_blocks([[0, 5]] * 300)
        q_ids, s_ids, _ = matcher.match_batch(queries)
        # every query matches set 0 exactly once
        assert (np.sort(np.unique(q_ids)) == np.arange(300)).all()
        assert set(s_ids.tolist()) == {0}
