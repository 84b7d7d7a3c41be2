"""The key table: set-id → application keys (host side).

Figure 1: the tagset table on the GPU associates every indexed tag set
with a unique id; that id points into the *key table* in CPU memory,
which yields the application keys (user ids in the Twitter workload).
Several keys may share one tag set — the paper's 300 M users collapse to
212 M unique interest sets — so the table maps one set id to a (multi)set
of keys, stored compactly as a flat key array plus per-set offsets.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

__all__ = ["KeyTable"]


class KeyTable:
    """Compact set-id → keys mapping (CSR-style offsets + flat keys)."""

    def __init__(self, offsets: np.ndarray, keys: np.ndarray) -> None:
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        self.keys = np.ascontiguousarray(keys, dtype=np.int64)
        if self.offsets.ndim != 1 or self.offsets.size == 0:
            raise ValidationError("offsets must be a non-empty 1-D array")
        if self.offsets[0] != 0 or self.offsets[-1] != self.keys.size:
            raise ValidationError("offsets must start at 0 and end at len(keys)")
        if np.any(np.diff(self.offsets) < 0):
            raise ValidationError("offsets must be non-decreasing")

    @classmethod
    def from_grouped(
        cls, group_ids: np.ndarray, keys: np.ndarray, num_sets: int
    ) -> "KeyTable":
        """Build from parallel ``(set_id, key)`` association arrays.

        ``group_ids[i]`` is the set id that key ``keys[i]`` belongs to.
        Duplicate ``(set, key)`` associations are preserved — ``match``
        returns a multiset (§2).
        """
        group_ids = np.asarray(group_ids, dtype=np.int64)
        keys = np.asarray(keys, dtype=np.int64)
        if group_ids.shape != keys.shape:
            raise ValidationError("group_ids and keys must be parallel")
        if group_ids.size and (group_ids.min() < 0 or group_ids.max() >= num_sets):
            raise ValidationError("group id out of range")
        order = np.argsort(group_ids, kind="stable")
        sorted_keys = keys[order]
        counts = np.bincount(group_ids, minlength=num_sets)
        offsets = np.zeros(num_sets + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(offsets, sorted_keys)

    def __len__(self) -> int:
        """Number of set ids (unique indexed tag sets)."""
        return self.offsets.size - 1

    @property
    def num_keys(self) -> int:
        return self.keys.size

    @property
    def nbytes(self) -> int:
        """Host memory footprint (dominates Figure 9's Host bars)."""
        return self.offsets.nbytes + self.keys.nbytes

    def keys_of(self, set_id: int) -> np.ndarray:
        """Keys associated with one set id."""
        if not 0 <= set_id < len(self):
            raise ValidationError(f"set id {set_id} out of range")
        return self.keys[self.offsets[set_id] : self.offsets[set_id + 1]]

    def keys_of_many(self, set_ids: np.ndarray) -> np.ndarray:
        """Concatenated keys for many set ids (the lookup/reduce gather).

        The result preserves multiset semantics: a set id appearing twice
        contributes its keys twice.
        """
        return self.keys[self.positions_of_many(set_ids)]

    def positions_of_many(self, set_ids: np.ndarray) -> np.ndarray:
        """Indices into :attr:`keys` of the keys :meth:`keys_of_many`
        returns, in the same order."""
        set_ids = np.asarray(set_ids, dtype=np.int64)
        if set_ids.size == 0:
            return np.empty(0, dtype=np.int64)
        if set_ids.min() < 0 or set_ids.max() >= len(self):
            raise ValidationError("set id out of range")
        starts = self.offsets[set_ids]
        lengths = self.offsets[set_ids + 1] - starts
        total = int(lengths.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        # Vectorized multi-range gather: build one index array covering
        # [starts[i], starts[i]+lengths[i]) for every i.
        out_offsets = np.zeros(set_ids.size, dtype=np.int64)
        np.cumsum(lengths[:-1], out=out_offsets[1:])
        index = np.arange(total, dtype=np.int64)
        index += np.repeat(starts - out_offsets, lengths)
        return index

    def counts_of_many(self, set_ids: np.ndarray) -> np.ndarray:
        """Number of keys per set id (parallel to ``set_ids``)."""
        set_ids = np.asarray(set_ids, dtype=np.int64)
        return (self.offsets[set_ids + 1] - self.offsets[set_ids]).astype(np.int64)
