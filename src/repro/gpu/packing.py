"""The packed (query, set) result layout of §3.3.1.

The subset-match kernel reports matches as pairs ``(q, s)`` with an 8-bit
query id (position within its batch) and a 32-bit set id.  A naive
``struct { uint8 q; uint32 s; }`` costs 8 bytes per pair after alignment
— a 37.5 % waste of device memory and bus bandwidth.  The paper instead
stores groups of four pairs as four packed query ids followed by four
packed set ids::

    | q1 q2 q3 q4 | s1 s2 s3 s4 |     (4 + 16 = 20 bytes per 4 pairs)

A partial trailing group still reserves the full 4 query-id bytes but
only the set ids actually present, so the worst-case total loss is three
bytes — exactly the paper's claim.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "pack_results",
    "unpack_results",
    "packed_size",
    "naive_aligned_size",
    "GROUP",
]

#: Pairs per packed group.
GROUP = 4

_GROUP_BYTES = GROUP * (1 + 4)  # 4 query bytes + 4 × 4 set-id bytes


def packed_size(num_pairs: int) -> int:
    """Bytes occupied by ``num_pairs`` results in the packed layout."""
    if num_pairs < 0:
        raise ValidationError("num_pairs must be non-negative")
    full, tail = divmod(num_pairs, GROUP)
    return full * _GROUP_BYTES + (GROUP + 4 * tail if tail else 0)


def naive_aligned_size(num_pairs: int) -> int:
    """Bytes for the naive aligned ``(uint8, uint32)`` struct layout."""
    if num_pairs < 0:
        raise ValidationError("num_pairs must be non-negative")
    return 8 * num_pairs


def pack_results(
    query_ids: np.ndarray, set_ids: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Pack parallel ``(query, set)`` id arrays into the §3.3.1 layout.

    ``query_ids`` must fit in uint8 (batches hold at most 256 queries) and
    ``set_ids`` in uint32.  Returns a flat ``uint8`` array.  ``out``, when
    given, is a preallocated uint8 buffer of at least ``packed_size(n)``
    bytes; the result is a view of it (padding bytes are re-zeroed, so the
    view is bit-identical to a fresh allocation).
    """
    q = np.ascontiguousarray(query_ids, dtype=np.uint8)
    s = np.ascontiguousarray(set_ids, dtype=np.uint32)
    if q.shape != s.shape or q.ndim != 1:
        raise ValidationError("query_ids and set_ids must be equal-length 1-D arrays")
    n = q.shape[0]
    full, tail = divmod(n, GROUP)
    nbytes = packed_size(n)
    if out is None:
        out = np.zeros(nbytes, dtype=np.uint8)
    else:
        if out.ndim != 1 or out.dtype != np.uint8 or out.shape[0] < nbytes:
            raise ValidationError(
                f"pack_results out buffer too small for {n} pairs ({nbytes} bytes)"
            )
        out = out[:nbytes]
    if full:
        groups = out[: full * _GROUP_BYTES].reshape(full, _GROUP_BYTES)
        groups[:, :GROUP] = q[: full * GROUP].reshape(full, GROUP)
        groups[:, GROUP:] = (
            s[: full * GROUP].astype("<u4").reshape(full, GROUP).view(np.uint8)
        )
    if tail:
        rest = out[full * _GROUP_BYTES :]
        rest[:tail] = q[full * GROUP :]
        rest[tail:GROUP] = 0  # unused query-id padding of the partial group
        rest[GROUP : GROUP + 4 * tail] = s[full * GROUP :].astype("<u4").view(np.uint8)
    return out


def unpack_results(
    packed: np.ndarray,
    num_pairs: int,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_results`; needs the pair count (transferred
    through the double-buffer length slot, §3.3.2).

    ``out``, when given, is a ``(query_buf, set_buf)`` pair of
    preallocated uint8/uint32 arrays with capacity ≥ ``num_pairs``; the
    returned arrays are views of them, so a pipeline run can reuse one
    unpack scratch across every delivered batch.
    """
    buf = np.ascontiguousarray(packed, dtype=np.uint8)
    expected = packed_size(num_pairs)
    if buf.shape[0] < expected:
        raise ValidationError(
            f"packed buffer of {buf.shape[0]} bytes too small for "
            f"{num_pairs} pairs ({expected} bytes)"
        )
    if out is None:
        q = np.empty(num_pairs, dtype=np.uint8)
        s = np.empty(num_pairs, dtype=np.uint32)
    else:
        q_buf, s_buf = out
        if q_buf.shape[0] < num_pairs or s_buf.shape[0] < num_pairs:
            raise ValidationError(
                f"unpack_results out buffers too small for {num_pairs} pairs"
            )
        q = q_buf[:num_pairs]
        s = s_buf[:num_pairs]
    full, tail = divmod(num_pairs, GROUP)
    if full:
        groups = buf[: full * _GROUP_BYTES].reshape(full, _GROUP_BYTES)
        q[: full * GROUP] = groups[:, :GROUP].reshape(-1)
        s[: full * GROUP] = groups[:, GROUP:].copy().view("<u4").reshape(-1)
    if tail:
        rest = buf[full * _GROUP_BYTES : expected]
        q[full * GROUP :] = rest[:tail]
        s[full * GROUP :] = rest[GROUP : GROUP + 4 * tail].copy().view("<u4")
    return q, s
