"""Per-partition query batching with flush timeouts (§3).

The pre-process stage enqueues each query into the batch of every
relevant partition.  A batch ships to the GPU when it is full — or, in
a paced run, to bound latency for partitions that fill slowly, when it
has been sitting for longer than a configurable timeout (Figure 6
studies this knob).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError

__all__ = ["Batch", "PartitionBatcher", "BatcherSet"]


@dataclass
class Batch:
    """A full (or flushed) batch of queries bound for one dispatch unit.

    ``partition_id`` is the batcher index: the id of the dispatch unit
    (one partition, or a fused run of small ones) the batch runs on.
    """

    partition_id: int
    queries: np.ndarray
    #: Run-global query ids (``np.intp``), parallel to ``queries``: the
    #: kernel's local query id ``i`` is query ``ids[i]`` of the run.
    ids: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


class PartitionBatcher:
    """Accumulates queries for one partition until full or timed out.

    Local to one pipeline run, so it takes no lock.
    """

    def __init__(self, partition_id: int, batch_size: int) -> None:
        if batch_size <= 0:
            raise ValidationError("batch_size must be positive")
        self.partition_id = partition_id
        self.batch_size = batch_size
        self._rows: list[np.ndarray] = []
        self._ids: list[np.ndarray] = []
        self._pending = 0
        self._oldest: float | None = None

    def add_many(self, rows: np.ndarray, ids: np.ndarray) -> list[Batch]:
        """Append queries; return every batch they filled.

        The vectorized pre-process stage makes one call per (chunk,
        partition) pair.  ``rows`` is 2-D, parallel to the ``np.intp``
        query ids ``ids``.
        """
        if not self._pending:
            self._oldest = time.perf_counter()
        self._rows.append(rows)
        self._ids.append(ids)
        self._pending += len(ids)
        return self._emit_full() if self._pending >= self.batch_size else []

    def flush(self) -> Batch | None:
        """Emit whatever is queued, regardless of age (shutdown path)."""
        return self._take_remainder()

    def flush_if_stale(self, timeout_s: float) -> Batch | None:
        """Emit the queued batch if its oldest query exceeds the timeout."""
        if self._oldest is None:
            return None
        if time.perf_counter() - self._oldest < timeout_s:
            return None
        return self._take_remainder()

    def _emit_full(self) -> list[Batch]:
        """Split off every full ``batch_size`` batch, keep the remainder."""
        queued = np.vstack(self._rows)
        ids = np.concatenate(self._ids)
        size = self.batch_size
        full = self._pending - self._pending % size
        out = [
            Batch(self.partition_id, queued[pos : pos + size], ids[pos : pos + size])
            for pos in range(0, full, size)
        ]
        self._rows = [queued[full:]] if full < self._pending else []
        self._ids = [ids[full:]] if full < self._pending else []
        self._pending -= full
        self._oldest = time.perf_counter() if self._pending else None
        return out

    def _take_remainder(self) -> Batch | None:
        if not self._pending:
            return None
        batch = Batch(self.partition_id, np.vstack(self._rows), np.concatenate(self._ids))
        self._rows = []
        self._ids = []
        self._pending = 0
        self._oldest = None
        return batch

    @property
    def pending(self) -> int:
        return self._pending

    @property
    def oldest(self) -> float | None:
        """When the oldest queued query joined, or ``None`` when empty."""
        return self._oldest


class BatcherSet:
    """All partition batchers of one run, plus the scan for stale batches."""

    def __init__(self, num_partitions: int, batch_size: int) -> None:
        self.batchers = [
            PartitionBatcher(pid, batch_size) for pid in range(num_partitions)
        ]

    def __getitem__(self, partition_id: int) -> PartitionBatcher:
        return self.batchers[partition_id]

    def flush_all(self) -> list[Batch]:
        return [b for b in (batcher.flush() for batcher in self.batchers) if b]

    def flush_stale(self, timeout_s: float) -> list[Batch]:
        return [
            b
            for b in (batcher.flush_if_stale(timeout_s) for batcher in self.batchers)
            if b
        ]

    def next_deadline(self, timeout_s: float) -> float | None:
        """When the oldest pending batch goes stale (``None``: nothing pending)."""
        oldest = [b.oldest for b in self.batchers if b.oldest is not None]
        return min(oldest) + timeout_s if oldest else None
