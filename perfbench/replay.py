"""Serial traced replay of the matching path, through public functions.

One thread calls each layer's public function in pipeline order: Bloom
encoding, ``PartitionTable.relevant_matrix`` (Algorithm 2), per-unit
``backend.run_kernel``, ``unpack_results``, ``grouped_key_lookup`` and
``merge_keys``; for the service workloads also the delta store,
``apply_delta`` and the protocol frame codec.  Each call runs inside a
span.  Nothing runs concurrently, so per-layer self times add up to the
replay's wall time, which timers inside the threaded pipeline do not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import spec
from repro.core.pipeline import grouped_key_lookup
from repro.core.results import merge_keys
from repro.gpu.kernels import ResultArena
from repro.gpu.packing import unpack_results
from repro.service.delta import DeltaStore, apply_delta
from repro.service.protocol import decode_frame, encode_frame


@dataclass
class Counts:
    queries: int = 0
    batches: int = 0
    #: (query, dispatch unit) pairs pre-processing found relevant, and
    #: those that yielded at least one match.
    relevant_units: int = 0
    useful_units: int = 0
    launches: int = 0
    useful_launches: int = 0
    pairs: int = 0
    keys: int = 0
    delta_updates: int = 0


def _unit_work(matrix: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """``(unit, query rows)`` for every unit some query of the batch needs."""
    q_idx, u_idx = np.nonzero(matrix)
    if u_idx.size == 0:
        return []
    order = np.argsort(u_idx, kind="stable")
    u_sorted, q_sorted = u_idx[order], q_idx[order]
    bounds = np.flatnonzero(np.diff(u_sorted)) + 1
    units = u_sorted[np.concatenate(([0], bounds))]
    return list(zip(units.tolist(), np.split(q_sorted, bounds)))


def replay(engine, query_tags, chunk: int, rec, delta_rows=None, frames: bool = False):
    """Answer ``query_tags`` serially, ``chunk`` queries per batch.

    Returns the engine's multiset answers and the work counts.  With
    ``delta_rows`` the rows are subscribed into a fresh delta store whose
    view is overlaid on every batch; the overlay is timed, its output
    discarded.  With ``frames`` every publish request and reply is encoded
    and decoded.
    """
    hasher = engine.hasher
    partitions = engine.partition_table
    units = engine.tagset_table
    backend = engine.backend
    fused = units.num_units != partitions.num_partitions
    arena = ResultArena()
    counts = Counts(queries=len(query_tags))
    answers: list[np.ndarray] = []
    with rec.span("replay"):
        view = None
        if delta_rows is not None:
            with rec.span("delta.update"):
                store = DeltaStore(hasher.num_blocks)
                for j, row in enumerate(delta_rows):
                    store.subscribe(row, spec.CHURN_KEY_BASE + j)
                view = store.view()
            counts.delta_updates = len(delta_rows)
        for batch, lo in enumerate(range(0, len(query_tags), chunk)):
            tags = query_tags[lo : lo + chunk]
            counts.batches += 1
            with rec.span("bloom.encode", batch):
                rows = np.array([hasher.encode_set(t) for t in tags], dtype=np.uint64)
            with rec.span("pre_process", batch):
                matrix = partitions.relevant_matrix(rows)
                if fused:
                    matrix = np.logical_or.reduceat(matrix, units.unit_starts, axis=1)
                work = _unit_work(matrix)
            per_query: list[list[np.ndarray]] = [[] for _ in tags]
            for uid, members in work:
                with rec.span("kernel", batch):
                    out = backend.run_kernel(
                        uid, rows[members], residency=units.unit_residency(uid), arena=arena
                    )
                counts.launches += 1
                counts.relevant_units += len(members)
                if not out.num_pairs:
                    continue
                counts.useful_launches += 1
                counts.pairs += out.num_pairs
                with rec.span("unpack", batch):
                    q_ids, set_ids = unpack_results(out.packed, out.num_pairs)
                with rec.span("lookup", batch):
                    groups = grouped_key_lookup(q_ids, set_ids.astype(np.int64), engine.key_table)
                    for local, keys in groups:
                        per_query[members[local]].append(keys)
                counts.useful_units += len(groups)
                counts.keys += sum(int(keys.size) for _, keys in groups)
            with rec.span("merge", batch):
                merged = [merge_keys(chunks, unique=False) for chunks in per_query]
            if view is not None:
                with rec.span("delta.overlay", batch):
                    apply_delta(merged, rows, view, [False] * len(tags))
            if frames:
                with rec.span("protocol.frame", batch):
                    for i, (t, keys) in enumerate(zip(tags, merged)):
                        request = encode_frame({"id": lo + i, "verb": "pub", "tags": t})
                        decode_frame(request[4:])
                        reply = encode_frame(
                            {"id": lo + i, "ok": True, "keys": keys.tolist(), "epoch": 1}
                        )
                        decode_frame(reply[4:])
            answers.extend(merged)
    return answers, counts
