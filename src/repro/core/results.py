"""Per-query result accumulation and the merge stage (§3.4).

For every query flowing through the pipeline TagMatch keeps a counter of
the batches (partitions) the query was forwarded to.  Key lookups from
returning batches accumulate against the query; when pre-processing has
finished *and* the counter drops to zero, the query runs through the
final merge stage: a plain concatenation for ``match`` (multiset
semantics) or a set union for ``match-unique``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import ReproError

__all__ = ["QueryState", "merge_keys"]


def merge_keys(chunks: list[np.ndarray], unique: bool) -> np.ndarray:
    """The merge stage: combine per-batch key lists for one query."""
    if not chunks:
        return np.empty(0, dtype=np.int64)
    merged = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    if unique:
        return np.unique(merged)
    return merged


class QueryState:
    """Tracks one query through a single pipeline run."""

    __slots__ = (
        "query_index",
        "unique",
        "enqueue_time",
        "complete_time",
        "result",
        "_pending_batches",
        "_preprocess_done",
        "_chunks",
    )

    def __init__(
        self, query_index: int, unique: bool, enqueue_time: float | None = None
    ) -> None:
        self.query_index = query_index
        self.unique = unique
        #: When the query arrived: latency runs from here to the merge.
        #: The pipeline passes the scheduled release of the query's feed
        #: chunk, so a run that falls behind its schedule keeps the wait.
        self.enqueue_time = (
            time.perf_counter() if enqueue_time is None else enqueue_time
        )
        self.complete_time: float | None = None
        self.result: np.ndarray | None = None
        self._pending_batches = 0
        self._preprocess_done = False
        self._chunks: list[np.ndarray] = []

    # ------------------------------------------------------------------
    # Pipeline hooks
    # ------------------------------------------------------------------
    def add_batch(self) -> None:
        """Pre-process forwarded this query into one more batch."""
        self.add_batches(1)

    def add_batches(self, n: int) -> None:
        """Pre-process forwarded this query into ``n`` more batches."""
        if n < 0:
            raise ReproError("batch count must be non-negative")
        if self._preprocess_done:
            raise ReproError("add_batch after preprocess_complete")
        self._pending_batches += n

    def preprocess_complete(self) -> None:
        """Pre-processing finished; the query joins no further batches."""
        self._preprocess_done = True
        if self._pending_batches == 0:
            self._finalize()

    def deliver_keys(self, keys: np.ndarray) -> None:
        """One batch returned from the GPU with this query's keys."""
        if self._pending_batches <= 0:
            raise ReproError("deliver_keys without a pending batch")
        if keys.size:
            self._chunks.append(keys)
        self._pending_batches -= 1
        if self._preprocess_done and self._pending_batches == 0:
            self._finalize()

    def _finalize(self) -> None:
        self.result = merge_keys(self._chunks, self.unique)
        self._chunks = []
        self.complete_time = time.perf_counter()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.result is not None

    @property
    def latency_s(self) -> float:
        if self.complete_time is None:
            raise ReproError("query not complete yet")
        return self.complete_time - self.enqueue_time
