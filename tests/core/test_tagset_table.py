"""Tests for the GPU-resident tagset table."""

import numpy as np
import pytest

from repro.bloom.array import SignatureArray
from repro.bloom.filter import BloomSignature
from repro.core.partitioning import balanced_partition
from repro.core.tagset_table import TagsetTable
from repro.errors import ValidationError
from repro.gpu.device import Device
from repro.gpu.kernels import block_prefixes_ranges

WIDTH = 192


@pytest.fixture
def devices():
    devs = [Device(device_id=i) for i in range(3)]
    yield devs
    for dev in devs:
        dev.close()


def make_blocks(n=60, seed=0):
    rng = np.random.default_rng(seed)
    sigs = [
        BloomSignature.from_bits(
            sorted(rng.choice(48, size=rng.integers(1, 6), replace=False)), width=WIDTH
        )
        for _ in range(n)
    ]
    return np.unique(SignatureArray.from_signatures(sigs).blocks, axis=0)


def build_table(devices, factor=None, seed=0):
    blocks = make_blocks(seed=seed)
    partitioning = balanced_partition(blocks, 8, WIDTH)
    table = TagsetTable(
        blocks,
        partitioning.partitions,
        devices,
        WIDTH,
        replication_factor=factor,
    )
    return table, blocks, partitioning


def member_ranges(table, residency):
    """``(start, stop)`` rows of each member partition inside its unit."""
    sizes = [len(table.partitions[pid]) for pid in residency.member_pids]
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    return list(zip(bounds[:-1], bounds[1:]))


class TestUpload:
    def test_small_partitions_fuse(self, devices):
        table, _, _ = build_table(devices[:1])
        assert table.num_units < table.num_partitions
        assert max(table.unit_residency(u).num_members for u in range(table.num_units)) > 1

    def test_partitions_sorted_lexicographically(self, devices):
        table, _, _ = build_table(devices[:1])
        for uid in range(table.num_units):
            residency = table.unit_residency(uid)
            rows = residency.sets.array()
            for start, stop in member_ranges(table, residency):
                arr = SignatureArray(rows[start:stop], width=WIDTH)
                np.testing.assert_array_equal(arr.lex_sort_order(), np.arange(len(arr)))

    def test_ids_point_back_to_rows(self, devices):
        table, blocks, _ = build_table(devices[:1])
        for uid in range(table.num_units):
            residency = table.unit_residency(uid)
            rows = residency.sets.array()
            ids = residency.ids.array()
            np.testing.assert_array_equal(blocks[ids], rows)
            for pid, (start, stop) in zip(
                residency.member_pids, member_ranges(table, residency)
            ):
                assert set(ids[start:stop]) == set(table.partitions[pid].indices)

    def test_prefixes_match_recomputation(self, devices):
        table, _, _ = build_table(devices[:1])
        for uid in range(table.num_units):
            residency = table.unit_residency(uid)
            offsets = residency.block_offsets.array()
            expected = block_prefixes_ranges(
                residency.sets.array(), offsets[:-1], offsets[1:]
            )
            np.testing.assert_array_equal(residency.prefixes.array(), expected)

    def test_num_sets_recorded(self, devices):
        table, blocks, _ = build_table(devices[:1])
        assert table.num_sets == blocks.shape[0]


class TestPlacement:
    def test_full_replication_everywhere(self, devices):
        table, _, _ = build_table(devices)
        assert table.copies == 3
        homes = {table.unit_residency(0).device.device_id for _ in range(10)}
        assert homes == {0, 1, 2}  # round-robin across replicas

    def test_single_home_when_not_replicated(self, devices):
        table, _, _ = build_table(devices, factor=1)
        assert table.copies == 1
        first = table.unit_residency(0).device
        assert all(table.unit_residency(0).device is first for _ in range(5))

    def test_partial_replication_copies(self, devices):
        table, _, _ = build_table(devices, factor=2)
        assert table.copies == 2
        homes = {table.unit_residency(0).device.device_id for _ in range(10)}
        assert len(homes) == 2

    def test_gpu_bytes_scale_with_copies(self, devices):
        full, _, _ = build_table(devices, seed=1)
        single, _, _ = build_table(devices, factor=1, seed=1)
        assert full.gpu_bytes == 3 * single.gpu_bytes

    def test_bad_factor_rejected(self, devices):
        blocks = make_blocks()
        partitioning = balanced_partition(blocks, 8, WIDTH)
        with pytest.raises(ValidationError):
            TagsetTable(
                blocks, partitioning.partitions, devices, WIDTH, replication_factor=9
            )

    def test_no_devices_rejected(self):
        blocks = make_blocks()
        partitioning = balanced_partition(blocks, 8, WIDTH)
        with pytest.raises(ValidationError):
            TagsetTable(blocks, partitioning.partitions, [], WIDTH)

    def test_residency_range_checked(self, devices):
        table, _, _ = build_table(devices[:1])
        with pytest.raises(ValidationError):
            table.unit_residency(table.num_units)


class TestLifecycle:
    def test_free_releases_all_devices(self, devices):
        table, _, _ = build_table(devices)
        assert all(d.ledger.allocated_bytes > 0 for d in devices)
        table.free()
        assert all(d.ledger.allocated_bytes == 0 for d in devices)

    def test_double_free_is_safe(self, devices):
        table, _, _ = build_table(devices[:1])
        table.free()
        table.free()
