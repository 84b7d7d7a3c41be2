"""Per-partition query batching with flush timeouts (§3).

The pre-process stage enqueues each query into the batch of every
relevant partition.  A batch ships to the GPU when it is full — or, to
bound latency for partitions that fill slowly, when it has been sitting
for longer than a configurable timeout (Figure 6 studies this knob).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.core.results import QueryState
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
    states: list[QueryState]

    def __len__(self) -> int:
        return len(self.states)


class PartitionBatcher:
    """Accumulates queries for one partition until full or timed out."""

    def __init__(self, partition_id: int, batch_size: int, num_words: int) -> None:
        if batch_size <= 0:
            raise ValidationError("batch_size must be positive")
        self.partition_id = partition_id
        self.batch_size = batch_size
        self._num_words = num_words
        self._lock = threading.Lock()
        self._rows: list[np.ndarray] = []
        self._states: list[QueryState] = []
        self._oldest: float | None = None

    def add(self, query_row: np.ndarray, state: QueryState) -> Batch | None:
        """Append one query; return a full batch if this filled it."""
        full = self.add_many(query_row.reshape(1, -1), [state])
        return full[0] if full else None

    def add_many(self, rows: np.ndarray, states: list[QueryState]) -> list[Batch]:
        """Append several queries at once; return every filled batch.

        The bulk path serves the vectorized pre-process stage: one call
        per (chunk, partition) pair instead of one per query.
        """
        with self._lock:
            if not self._states:
                self._oldest = time.perf_counter()
            self._rows.append(np.atleast_2d(rows))
            self._states.extend(states)
            return self._emit_full_locked()

    def flush(self) -> Batch | None:
        """Emit whatever is queued, regardless of age (shutdown path)."""
        with self._lock:
            return self._take_remainder_locked()

    def flush_if_stale(self, timeout_s: float) -> Batch | None:
        """Emit the queued batch if its oldest query exceeds the timeout."""
        with self._lock:
            if self._oldest is None:
                return None
            if time.perf_counter() - self._oldest < timeout_s:
                return None
            return self._take_remainder_locked()

    def _emit_full_locked(self) -> list[Batch]:
        """Split off every full ``batch_size`` batch, keep the remainder."""
        if len(self._states) < self.batch_size:
            return []
        queued = np.vstack(self._rows)
        out: list[Batch] = []
        pos = 0
        while len(self._states) - pos >= self.batch_size:
            out.append(
                Batch(
                    partition_id=self.partition_id,
                    queries=queued[pos : pos + self.batch_size],
                    states=self._states[pos : pos + self.batch_size],
                )
            )
            pos += self.batch_size
        self._rows = [queued[pos:]] if pos < len(self._states) else []
        self._states = self._states[pos:]
        self._oldest = time.perf_counter() if self._states else None
        return out

    def _take_remainder_locked(self) -> Batch | None:
        if not self._states:
            return None
        batch = Batch(
            partition_id=self.partition_id,
            queries=np.vstack(self._rows),
            states=self._states,
        )
        self._rows = []
        self._states = []
        self._oldest = None
        return batch

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._states)


class BatcherSet:
    """All partition batchers plus the stale-batch scan for the flusher."""

    def __init__(self, num_partitions: int, batch_size: int, num_words: int) -> None:
        self.batchers = [
            PartitionBatcher(pid, batch_size, num_words)
            for pid in range(num_partitions)
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

    @property
    def total_pending(self) -> int:
        return sum(b.pending for b in self.batchers)
