"""The merge stage (§3.4): combine each query's keys into its result.

TagMatch keeps, for every query in flight, a counter of the batches
(partitions) the query was forwarded to; once the counter drops to zero
the query's per-partition key lists are merged: a plain concatenation
for ``match`` (multiset semantics) or a set union for ``match-unique``.
A pipeline run keeps those counters in arrays (see
:mod:`repro.core.pipeline`) and merges every query at once with
:func:`merge_by_query`; :func:`merge_keys` merges one query's lists.
"""

from __future__ import annotations

import numpy as np

__all__ = ["merge_by_query", "merge_keys"]


def merge_keys(chunks: list[np.ndarray], unique: bool) -> np.ndarray:
    """The merge stage: combine per-batch key lists for one query."""
    if not chunks:
        return np.empty(0, dtype=np.int64)
    merged = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    if unique:
        return np.unique(merged)
    return merged


def merge_by_query(
    owners: np.ndarray, keys: np.ndarray, num_queries: int, unique: bool
) -> list[np.ndarray]:
    """The merge stage for a whole run: split ``keys`` into one int64
    array per query.

    ``owners[i]`` is the query id of ``keys[i]``.  A stable sort by
    query keeps each query's keys in their order in ``keys``; with
    ``unique`` each query's keys come back sorted without duplicates,
    as :func:`numpy.unique` returns them.
    """
    if unique:
        order = np.lexsort((keys, owners))
        owners, keys = owners[order], keys[order]
        first = np.ones(keys.size, dtype=bool)
        first[1:] = (owners[1:] != owners[:-1]) | (keys[1:] != keys[:-1])
        owners, keys = owners[first], keys[first]
    else:
        order = np.argsort(owners, kind="stable")
        keys = keys[order]
    ends = np.cumsum(np.bincount(owners, minlength=num_queries)).tolist()
    return [keys[lo:hi] for lo, hi in zip([0] + ends, ends)]
