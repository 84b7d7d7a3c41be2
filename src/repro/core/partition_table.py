"""The partition table and pre-process stage (Algorithm 2, §3.2).

The partition table is a compact inverted index of partition masks: an
array ``PT`` of ``width`` vectors, where ``PT[j]`` holds the masks (and
partition ids) whose *leftmost one-bit* is at position ``j``.  To
pre-process a query ``q``, Algorithm 2 scans the one-bit positions of
``q`` and, for each position ``j``, checks every mask in ``PT[j]`` for
bitwise containment in ``q``.  A mask whose leftmost one-bit is not among
``q``'s one-bits can never be a subset of ``q``, so the index never
misses a relevant partition.

The subset checks within a slot are vectorized; the table itself is tiny
(one row per partition) which is what makes this stage cache-efficient in
the paper's C++ implementation.
"""

from __future__ import annotations

import numpy as np

from repro.bloom.array import SignatureArray
from repro.bloom.ops import containment_matrix
from repro.core.partitioning import Partition
from repro.errors import ValidationError

__all__ = ["PartitionTable"]


class PartitionTable:
    """Inverted index from leftmost one-bit position to partition masks.

    Each partition is indexed by :attr:`Partition.filter_mask`, its pivot
    mask OR-ed with the AND of its rows (level 0 of the hierarchical
    pre-filter).  Every row of a partition contains all of the common
    bits, so any matching row forces the common mask to be a subset of
    the query — the index is therefore still exact, but rejects strictly
    more irrelevant partitions than the pivot mask alone.
    """

    def __init__(self, partitions: list[Partition], width: int) -> None:
        if width <= 0 or width % 64 != 0:
            raise ValidationError("width must be a positive multiple of 64")
        self.width = width
        self.num_partitions = len(partitions)
        num_words = width // 64

        masks = np.zeros((len(partitions), num_words), dtype=np.uint64)
        for i, partition in enumerate(partitions):
            masks[i] = partition.filter_mask
        #: Dense mask matrix used by the vectorized batch pre-process.
        self._dense_masks = masks
        arr = SignatureArray(masks, width=width)
        leftmost = arr.leftmost_one_positions()

        #: Partitions with an empty mask match every query (see the
        #: boundary cases in :mod:`repro.core.partitioning`).
        self.always_relevant = np.nonzero(leftmost == width)[0].astype(np.int64)

        # slot_masks[j]: (m_j, num_words) masks; slot_ids[j]: partition ids.
        self._slot_masks: list[np.ndarray | None] = [None] * width
        self._slot_ids: list[np.ndarray | None] = [None] * width
        for j in range(width):
            rows = np.nonzero(leftmost == j)[0]
            if rows.size:
                self._slot_masks[j] = masks[rows]
                self._slot_ids[j] = rows.astype(np.int64)

    # ------------------------------------------------------------------
    # Algorithm 2
    # ------------------------------------------------------------------
    def relevant_partitions(self, query: np.ndarray) -> np.ndarray:
        """Ids of all partitions whose mask is a bitwise subset of ``query``.

        This is the pre-process stage for one query.  Complexity is
        bounded by the number of one-bits of the query times the masks
        per slot, independent of how masks distribute over positions.
        """
        q = np.asarray(query, dtype=np.uint64).reshape(-1)
        expected_words = self.width // 64
        if q.shape[0] != expected_words:
            raise ValidationError("query block count mismatch")

        relevant = [self.always_relevant] if self.always_relevant.size else []
        for j in _one_bit_positions(q):
            masks = self._slot_masks[j]
            if masks is None:
                continue
            hits = ~np.any(masks & ~q, axis=1)
            if hits.any():
                relevant.append(self._slot_ids[j][hits])
        if not relevant:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(relevant)

    def relevant_matrix(self, queries: np.ndarray) -> np.ndarray:
        """Batch pre-process: ``(num_queries, num_partitions)`` relevance.

        Semantically identical to running :meth:`relevant_partitions` on
        every row (property-tested), but evaluated as one dense broadcast
        over the compact mask matrix — the NumPy analogue of the paper's
        cache-efficient scan of the partition table.  The pipeline's
        pre-process stage uses this on each chunk of arriving queries.
        """
        if queries.ndim != 2 or queries.shape[1] != self.width // 64:
            raise ValidationError("queries must be (n, num_words) blocks")
        if self.num_partitions == 0:
            return np.zeros((queries.shape[0], 0), dtype=bool)
        return containment_matrix(self._dense_masks, queries).T

    @property
    def nbytes(self) -> int:
        """Host memory of the table (small: one mask row per partition)."""
        total = self.always_relevant.nbytes
        for masks, ids in zip(self._slot_masks, self._slot_ids):
            if masks is not None:
                total += masks.nbytes + ids.nbytes
        return total

    def slot_sizes(self) -> np.ndarray:
        """Masks per slot (used by tests for the distribution property)."""
        return np.array(
            [0 if m is None else m.shape[0] for m in self._slot_masks],
            dtype=np.int64,
        )


def _one_bit_positions(q: np.ndarray) -> np.ndarray:
    """Positions of the one-bits of a block vector, ascending."""
    big_endian = q.astype(">u8").view(np.uint8)
    bits = np.unpackbits(big_endian)
    return np.nonzero(bits)[0]
