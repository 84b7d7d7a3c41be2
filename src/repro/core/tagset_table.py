"""The tagset table: partitioned, sorted signatures in GPU memory.

Figure 1: the tagset table lives on the GPU and associates each tag set
in each partition with a unique id pointing into the host-side key
table.  Within a partition the signatures are kept in lexicographic
order so that consecutive thread blocks share long common prefixes
(Algorithm 4).

TagMatch "may also replicate the tagset table on all available GPUs to
match queries in parallel on multiple GPUs.  Alternatively, TagMatch can
also partially replicate or simply partition an extremely large tagset
table on multiple GPUs" (§3); both placements are supported here.

Kernel dispatch happens per **dispatch unit**, not per partition: runs of
consecutive partitions smaller than ``_FUSE_BELOW_ROWS`` rows are
coalesced into one unit, uploaded as a single concatenated array with a
partition-offset table, and matched by a single fused kernel launch — the
Figure 7 small-partition regime where per-launch overhead dominates.
Thread blocks never span a member boundary, so every member keeps its own
Algorithm 4 prefixes, and each member carries an AND-of-rows coarse
summary for the hierarchical pre-filter.  Partitions at or above the
threshold stay singleton units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bloom.array import SignatureArray
from repro.core.partitioning import Partition
from repro.errors import ValidationError
from repro.gpu.device import Device
from repro.gpu.kernels import block_prefixes_ranges, uniform_block_offsets
from repro.gpu.memory import DeviceBuffer

__all__ = ["PartitionResidency", "TagsetTable"]

#: Partitions with fewer rows than this are fused with their neighbours
#: into one dispatch unit: one kernel launch (and one launch overhead in
#: the cost model) covers the run.  DESIGN.md §10 has the measurements
#: that fixed this plan.
_FUSE_BELOW_ROWS = 64

#: Most partitions one fused unit may cover.  Bounds the false-sharing
#: cost of unit-granular batching: a unit is dispatched when *any*
#: member is relevant, and non-relevant members must be rejected by the
#: coarse/prefix filters inside the kernel.
_FUSE_MAX_MEMBERS = 64

#: Row budget of one fused unit, in multiples of the thread block size.
_FUSE_ROW_CAP_BLOCKS = 4


@dataclass
class PartitionResidency:
    """One dispatch unit resident on one device.

    ``prefixes`` caches the thread-block common-prefix masks of
    Algorithm 4 — partition contents only change at consolidation, so
    the kernel never recomputes them per invocation.  ``block_offsets``
    (thread-block row bounds that never cross a member boundary),
    ``commons`` (one AND-of-rows coarse summary per member) and
    ``member_of_block`` feed the fused launch and the hierarchical
    pre-filter; for a singleton unit they degenerate to the uniform
    blocks of one partition.
    """

    unit_id: int
    member_pids: np.ndarray
    device: Device
    sets: DeviceBuffer
    ids: DeviceBuffer
    prefixes: DeviceBuffer
    block_offsets: DeviceBuffer
    commons: DeviceBuffer
    member_of_block: DeviceBuffer

    @property
    def num_members(self) -> int:
        return int(self.member_pids.shape[0])

    def buffers(self) -> tuple[DeviceBuffer, ...]:
        return (
            self.sets,
            self.ids,
            self.prefixes,
            self.block_offsets,
            self.commons,
            self.member_of_block,
        )

    def __len__(self) -> int:
        return self.sets.array().shape[0]


def _plan_units(
    partitions: list[Partition], thread_block_size: int
) -> list[tuple[int, int]]:
    """Greedy contiguous grouping of partitions into dispatch units.

    Returns ``(start_pid, stop_pid)`` ranges covering all partitions in
    order.  Partitions at or above ``_FUSE_BELOW_ROWS`` stand alone; runs
    of smaller ones coalesce until the member or row cap is hit.
    """
    row_cap = max(thread_block_size, _FUSE_ROW_CAP_BLOCKS * thread_block_size)
    units: list[tuple[int, int]] = []
    group_start: int | None = None
    group_rows = 0
    for pid, partition in enumerate(partitions):
        rows = len(partition.indices)
        if rows >= _FUSE_BELOW_ROWS:
            if group_start is not None:
                units.append((group_start, pid))
                group_start = None
                group_rows = 0
            units.append((pid, pid + 1))
            continue
        if group_start is None:
            group_start = pid
            group_rows = 0
        group_rows += rows
        if group_rows >= row_cap or pid + 1 - group_start >= _FUSE_MAX_MEMBERS:
            units.append((group_start, pid + 1))
            group_start = None
            group_rows = 0
    if group_start is not None:
        units.append((group_start, len(partitions)))
    return units


class TagsetTable:
    """Uploads dispatch units to device memory and routes unit → device."""

    def __init__(
        self,
        blocks: np.ndarray,
        partitions: list[Partition],
        devices: list[Device],
        width: int,
        thread_block_size: int = 1024,
        replication_factor: int | None = None,
    ) -> None:
        if not devices:
            raise ValidationError("need at least one device")
        if replication_factor is not None and not (
            1 <= replication_factor <= len(devices)
        ):
            raise ValidationError("replication_factor out of range")
        self.width = width
        self.devices = devices
        #: Copies per unit: full replication (``None``), a single home, or
        #: the partial replication middle ground (§3).
        self.copies = (
            replication_factor if replication_factor is not None else len(devices)
        )
        self.num_sets = blocks.shape[0]
        self.partitions = partitions

        units = _plan_units(partitions, thread_block_size)
        #: ``unit_of_partition[pid]`` → dispatch unit holding ``pid``
        #: (nondecreasing: units are contiguous pid ranges).
        self.unit_of_partition = np.zeros(len(partitions), dtype=np.int64)
        #: First member pid of each unit — the ``reduceat`` bounds that
        #: collapse a per-partition relevance matrix to per-unit columns.
        self.unit_starts = np.array([u[0] for u in units], dtype=np.int64)
        for uid, (start, stop) in enumerate(units):
            self.unit_of_partition[start:stop] = uid

        # residency[unit_id] -> list of PartitionResidency (one per
        # device holding that unit).
        self._residency: list[list[PartitionResidency]] = []
        self._round_robin = 0

        num_words = width // 64
        arr = SignatureArray(blocks, width=width)
        for uid, (start, stop) in enumerate(units):
            member_sets: list[np.ndarray] = []
            member_ids: list[np.ndarray] = []
            commons = np.zeros((stop - start, num_words), dtype=np.uint64)
            bounds: list[int] = [0]
            mob: list[int] = []
            row_base = 0
            for local, pid in enumerate(range(start, stop)):
                partition = partitions[pid]
                sub = arr.take(partition.indices)
                order = sub.lex_sort_order()
                sorted_sets = sub.blocks[order]
                member_sets.append(sorted_sets)
                member_ids.append(partition.indices[order].astype(np.uint32))
                n = sorted_sets.shape[0]
                if n == 0:
                    continue
                commons[local] = np.bitwise_and.reduce(sorted_sets, axis=0)
                offsets = uniform_block_offsets(n, thread_block_size)
                bounds.extend((offsets[1:] + row_base).tolist())
                mob.extend([local] * (offsets.shape[0] - 1))
                row_base += n
            unit_sets = (
                np.vstack(member_sets)
                if row_base
                else np.empty((0, num_words), dtype=np.uint64)
            )
            unit_ids = (
                np.concatenate(member_ids)
                if row_base
                else np.empty(0, dtype=np.uint32)
            )
            block_offsets = np.array(bounds, dtype=np.int64)
            member_of_block = np.array(mob, dtype=np.int64)
            prefixes = block_prefixes_ranges(
                unit_sets, block_offsets[:-1], block_offsets[1:]
            )
            member_pids = np.arange(start, stop, dtype=np.int64)
            targets = [
                devices[(uid + j) % len(devices)] for j in range(self.copies)
            ]
            homes = []
            for device in targets:
                homes.append(
                    PartitionResidency(
                        unit_id=uid,
                        member_pids=member_pids,
                        device=device,
                        sets=device.htod(unit_sets, label=f"unit-{uid}/sets"),
                        ids=device.htod(unit_ids, label=f"unit-{uid}/ids"),
                        prefixes=device.htod(prefixes, label=f"unit-{uid}/prefixes"),
                        block_offsets=device.htod(
                            block_offsets, label=f"unit-{uid}/offsets"
                        ),
                        commons=device.htod(commons, label=f"unit-{uid}/commons"),
                        member_of_block=device.htod(
                            member_of_block, label=f"unit-{uid}/members"
                        ),
                    )
                )
            self._residency.append(homes)

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    @property
    def num_units(self) -> int:
        return len(self._residency)

    def unit_residency(self, unit_id: int) -> PartitionResidency:
        """Pick a device copy for this dispatch unit.

        With replication the copies rotate round-robin so concurrent
        batches spread across all GPUs (maximal inter-GPU parallelism);
        without replication each unit has a single home.
        """
        if not 0 <= unit_id < len(self._residency):
            raise ValidationError(f"unit id {unit_id} out of range")
        homes = self._residency[unit_id]
        if len(homes) == 1:
            return homes[0]
        self._round_robin = (self._round_robin + 1) % len(homes)
        return homes[self._round_robin]

    def units_for(self, partition_ids: np.ndarray) -> np.ndarray:
        """Distinct dispatch units covering the given partitions."""
        pids = np.asarray(partition_ids, dtype=np.int64)
        if pids.size == 0:
            return np.empty(0, dtype=np.int64)
        return np.unique(self.unit_of_partition[pids])

    @property
    def gpu_bytes(self) -> int:
        """Total device memory held by the table (Figure 9's GPU bars)."""
        return sum(
            buffer.nbytes
            for homes in self._residency
            for home in homes
            for buffer in home.buffers()
        )

    def free(self) -> None:
        """Release every device buffer."""
        for homes in self._residency:
            for home in homes:
                for buffer in home.buffers():
                    if not buffer.freed:
                        buffer.free()
