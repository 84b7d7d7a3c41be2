"""Shared vectorized bit-vector operations.

Two all-pairs bitwise-subset primitives:

* `containment_matrix`, the dense boolean ``(n, m)`` matrix, serves the
  partition-table pre-process, the delta overlay, the harness models and
  the kernel's block-level filters (block prefixes, member commons).  It
  accumulates the mismatch mask word by word, never a 3-D temporary.
* `containment_pairs`, only the true cells as ``(rows, cols)``, serves
  the subset-match kernel over set rows, where few cells match: word 0
  filters the dense tile and later words verify what it leaves.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

__all__ = ["containment_matrix", "containment_pairs"]

#: Word-0 tile cells evaluated at once by `containment_pairs`: its scratch
#: stays at an 8 MiB uint64 tile and its 1 MiB mask however many rows the
#: caller passes (the GPU-only baselines scan whole tables).
_TILE_CELLS = 1 << 20


def containment_matrix(
    subs: np.ndarray, supers: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Boolean ``(len(subs), len(supers))``: ``subs[i] ⊆ supers[j]``.

    Both inputs are ``(n, words)`` uint64 block arrays.  Entry ``(i, j)``
    is true iff every one-bit of ``subs[i]`` is set in ``supers[j]``
    (footnote 4's per-block check, evaluated across all pairs).

    The word loop exits early once the mismatch mask is saturated (every
    pair already disqualified) — later words cannot resurrect a pair.
    ``out``, when given, is a preallocated boolean buffer with capacity
    for at least ``(n, m)``; the result is written into (a view of) it
    instead of a fresh allocation, composing with the kernel's reusable
    result arenas.
    """
    if subs.ndim != 2 or supers.ndim != 2 or subs.shape[1] != supers.shape[1]:
        raise ValidationError("containment_matrix needs matching (n, words) arrays")
    n, m = subs.shape[0], supers.shape[0]
    mismatch = subs[:, 0][:, None] & ~supers[:, 0][None, :]
    for word in range(1, subs.shape[1]):
        # Saturation early-exit: once every pair has a mismatching word,
        # the remaining words cannot change the outcome.
        if mismatch.all():
            break
        np.bitwise_or(
            mismatch, subs[:, word][:, None] & ~supers[:, word][None, :], out=mismatch
        )
    if out is None:
        return mismatch == 0
    if out.ndim != 2 or out.shape[0] < n or out.shape[1] < m:
        raise ValidationError(
            f"containment_matrix out buffer {out.shape} too small for ({n}, {m})"
        )
    view = out[:n, :m]
    np.equal(mismatch, 0, out=view)
    return view


def containment_pairs(subs: np.ndarray, supers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.nonzero(containment_matrix(subs, supers))``, in the same order.

    Word 0 is checked densely over the ``(n, m)`` tile, in row chunks of
    at most ``_TILE_CELLS`` cells; words 1.. only on the candidates word 0
    leaves, stopping once none are left.
    """
    if subs.ndim != 2 or supers.ndim != 2 or subs.shape[1] != supers.shape[1]:
        raise ValidationError("containment_pairs needs matching (n, words) arrays")
    n, m = subs.shape[0], supers.shape[0]
    not_supers = ~supers
    chunk = max(1, _TILE_CELLS // max(m, 1))
    found_rows, found_cols = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for lo in range(0, n if m else 0, chunk):
        tile = subs[lo : lo + chunk, 0][:, None] & not_supers[:, 0]
        rows, cols = np.divmod(np.flatnonzero(tile == 0), m)
        for word in range(1, subs.shape[1]):
            if rows.size == 0:
                break
            keep = (subs[lo + rows, word] & not_supers[cols, word]) == 0
            rows, cols = rows[keep], cols[keep]
        found_rows.append(rows + lo)
        found_cols.append(cols)
    return np.concatenate(found_rows), np.concatenate(found_cols)
