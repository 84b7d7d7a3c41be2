"""Balanced recursive partitioning (Algorithm 1, §3.1).

``consolidate()`` splits the database into partitions so that all tag
sets in a partition share a defining bit mask.  Starting from the whole
database with an empty mask, each oversized partition is split on a
*pivot* — a previously unused bit whose one-frequency is closest to 50 %
— into the sets with that bit clear (same mask) and the sets with it set
(mask ∪ {pivot}).  The result is a set of ≤ ``MAX_P``-sized partitions
whose masks drive the pre-process stage.

Two boundary cases the paper's pseudo-code leaves implicit are handled
explicitly here and covered by tests:

* A partition whose rows cannot be distinguished by any unused bit
  (e.g. many identical signatures) is accepted even if it exceeds
  ``MAX_P`` — no pivot can split it.
* The root partition must be split at least once so that every final
  mask is non-empty (the ``mask ≠ ∅`` condition); if the database is so
  small or so uniform that no split is possible, a single partition with
  an empty mask is produced, and the partition table treats it as
  relevant to every query.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.bloom.array import SignatureArray
from repro.errors import ValidationError

__all__ = ["Partition", "PartitioningResult", "balanced_partition"]


@dataclass
class Partition:
    """One partition: its defining mask and the rows it contains.

    ``common`` is the AND of the partition's rows: the bits every row
    holds, a superset of ``mask`` because the pivot bits appear in every
    row.  Algorithm 1 records it; a partition known only by its mask
    leaves it ``None``.
    """

    mask: np.ndarray
    indices: np.ndarray
    common: np.ndarray | None = None

    @classmethod
    def of_rows(
        cls, mask: np.ndarray, indices: np.ndarray, blocks: np.ndarray
    ) -> "Partition":
        """The partition of ``blocks[indices]``, its AND-of-rows recorded."""
        return cls(mask, indices, np.bitwise_and.reduce(blocks[indices], axis=0))

    @property
    def filter_mask(self) -> np.ndarray:
        """Bits any matching query must hold: ``mask | common``."""
        return self.mask if self.common is None else self.mask | self.common

    def __len__(self) -> int:
        return int(self.indices.size)

    @property
    def mask_is_empty(self) -> bool:
        return not bool(self.mask.any())


@dataclass
class PartitioningResult:
    """Partitions plus the statistics the evaluation reports (Figure 8)."""

    partitions: list[Partition]
    elapsed_s: float
    num_sets: int

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    @property
    def max_size(self) -> int:
        return max((len(p) for p in self.partitions), default=0)

    @property
    def mean_size(self) -> float:
        if not self.partitions:
            return 0.0
        return self.num_sets / len(self.partitions)


def _pick_pivot(
    sub: SignatureArray, used: np.ndarray, size: int, strategy: str
) -> int | None:
    """Choose the split bit, or ``None`` if no unused bit can split.

    ``"balanced"`` is Algorithm 1's rule (frequency closest to 50 %);
    ``"first_unused"`` is the naive alternative the pivot ablation
    compares against (first unused non-degenerate bit position).
    """
    freq = sub.bit_frequencies()
    splittable = (freq > 0) & (freq < size) & ~used
    if not np.any(splittable):
        return None
    if strategy == "first_unused":
        return int(np.argmax(splittable))
    if strategy != "balanced":
        raise ValidationError(f"unknown pivot strategy {strategy!r}")
    distance = np.abs(freq - size / 2.0).astype(float)
    distance[~splittable] = np.inf
    return int(np.argmin(distance))


def balanced_partition(
    blocks: np.ndarray,
    max_partition_size: int,
    width: int,
    pivot_strategy: str = "balanced",
) -> PartitioningResult:
    """Run Algorithm 1 over the unique signature rows ``blocks``.

    Returns partitions whose ``indices`` reference rows of ``blocks``.
    Together the partitions exactly cover the database: indices are
    disjoint and their union is ``range(len(blocks))``.
    """
    if max_partition_size <= 0:
        raise ValidationError("max_partition_size must be positive")
    if blocks.ndim != 2:
        raise ValidationError("blocks must be a 2-D signature array")
    start = time.perf_counter()
    n = blocks.shape[0]
    num_words = blocks.shape[1]
    if n == 0:
        return PartitioningResult([], time.perf_counter() - start, 0)

    arr = SignatureArray(blocks, width=width)
    partitions: list[Partition] = []
    empty_mask = np.zeros(num_words, dtype=np.uint64)
    # Work queue entries: (mask, row indices, used-bit boolean vector).
    queue: deque[tuple[np.ndarray, np.ndarray, np.ndarray]] = deque()
    queue.append((empty_mask, np.arange(n, dtype=np.int64), np.zeros(width, dtype=bool)))

    while queue:
        mask, indices, used = queue.popleft()
        size = indices.size
        if size == 0:
            continue
        mask_nonempty = bool(mask.any())
        if size <= max_partition_size and mask_nonempty:
            partitions.append(Partition.of_rows(mask, indices, blocks))
            continue

        sub = arr.take(indices)
        pivot = _pick_pivot(sub, used, size, pivot_strategy)
        if pivot is None:
            # Indivisible: accept as-is (possibly oversized or with an
            # empty mask — see module docstring).
            partitions.append(Partition.of_rows(mask, indices, blocks))
            continue

        word, offset = divmod(pivot, 64)
        bit = np.uint64(1) << np.uint64(63 - offset)
        has_bit = (sub.blocks[:, word] & bit) != 0
        used_next = used.copy()
        used_next[pivot] = True
        mask_one = mask.copy()
        mask_one[word] |= bit
        queue.append((mask, indices[~has_bit], used_next))
        queue.append((mask_one, indices[has_bit], used_next))

    return PartitioningResult(partitions, time.perf_counter() - start, n)
