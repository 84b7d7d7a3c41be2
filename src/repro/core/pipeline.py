"""The four-stage matching pipeline (§3, Figure 1).

Stages: (i) *pre-process* finds the partitions relevant to each query
(Algorithm 2); (ii) *subset match* evaluates full batches of queries
against one partition on a GPU (Algorithms 3–4, with double-buffered
result transfers); (iii) *key lookup/reduce* maps matched set ids to
application keys; (iv) *merge* combines each query's per-partition keys
into its result.  A query is complete once its outstanding-batch
counter returns to zero.

The paper overlaps these stages with CPU threads and asynchronous CUDA
streams (§3.3.2).  On the simulated GPU the kernel runs on the host CPU
and its device time comes from the cost model either way, so a run here
does every stage in the calling thread, in one loop: feed a chunk,
pre-process it, launch each batch it fills, unpack and look up the
returned cycles.  With no concurrent streams to keep busy, a run keeps
one even/odd result double buffer per device, so a batch's results come
back at the next launch on the same device.  Only paced runs apply the
wall-clock flush timeout, sleeping no longer than the oldest pending
batch's deadline.  An unpaced run's queries all arrive at the start, so
it ships only full batches and the shutdown flush: its batches and
launches depend on the queries and the index alone.  ``match`` and
``match-unique`` are one-row runs.

A run holds its per-query state in arrays indexed by the query's row:
the batches pre-process forwarded it to (the row sums of the unit
relevance matrix), the batches delivered so far, its release time and
its completion time.  A batch carries its queries' row ids, and each
returned cycle is one vectorised step: unpack, look up every pair's
keys at once, add one to the delivered count of each query in the batch
and stamp the queries that are now complete.  The merge runs once, at
the end of the run: one stable sort by query splits the looked-up keys
into per-query results, each in delivery order, then row order.

With ``exact_check`` the lookup is the verify half of a filter/verify
split: it keeps a key only if its own association's tag set is a subset
of its query's tags.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.batch import Batch, BatcherSet
from repro.core.config import TagMatchConfig
from repro.core.key_table import KeyTable
from repro.core.partition_table import PartitionTable
from repro.core.results import merge_by_query
from repro.core.runner import UnitRunner
from repro.core.tagset_table import TagsetTable
from repro.errors import ReproError
from repro.gpu.device import Device
from repro.gpu.doublebuffer import CycleResult, DoubleBufferedResults
from repro.gpu.kernels import ResultArena
from repro.gpu.packing import unpack_results
from repro.obs import trace

__all__ = ["MatchPipeline", "PipelineRun", "PipelineStats", "grouped_key_lookup"]

_FEED_CHUNK = 32


def grouped_key_lookup(
    q_ids: np.ndarray, set_ids: np.ndarray, key_table: KeyTable
) -> list[tuple[int, np.ndarray]]:
    """Stage-3 lookup/reduce: keys per batch-local query id.

    ``q_ids``/``set_ids`` are the parallel unpacked ``(q, s)`` pair
    arrays of one kernel invocation; returns ``(local_q, keys)`` groups,
    each query's keys in pair order.  A batch whose pairs all belong to
    one query (any one-query batch) skips grouping entirely, and pairs
    already sorted by query id skip the argsort.  Kernels emit pairs
    row-major, ordered by row and then query, so a batch of several
    queries usually takes the argsort.  A pipeline run does its lookup
    in one step per cycle without grouping; serial callers that want
    per-query groups use this.
    """
    if q_ids.size == 0:
        return []
    first = int(q_ids[0])
    # One pass decides both fast paths: a nondecreasing array whose first
    # and last elements agree is uniform (the converse scan the seed did
    # on top of this was redundant — uniform arrays are always sorted).
    if np.all(q_ids[:-1] <= q_ids[1:]):
        if first == int(q_ids[-1]):
            return [(first, key_table.keys_of_many(set_ids))]
        q_sorted, sets_sorted = q_ids, set_ids
    else:
        order = np.argsort(q_ids, kind="stable")
        q_sorted = q_ids[order]
        sets_sorted = set_ids[order]
    keys = key_table.keys_of_many(sets_sorted)
    key_counts = key_table.counts_of_many(sets_sorted)
    key_offsets = np.zeros(q_sorted.size + 1, dtype=np.int64)
    np.cumsum(key_counts, out=key_offsets[1:])
    boundaries = np.nonzero(np.diff(q_sorted))[0] + 1
    group_starts = np.concatenate(([0], boundaries))
    group_ends = np.concatenate((boundaries, [q_sorted.size]))
    return [
        (int(q_sorted[gs]), keys[key_offsets[gs] : key_offsets[ge]])
        for gs, ge in zip(group_starts, group_ends)
    ]


@dataclass
class PipelineStats:
    """Aggregate counters over one pipeline run."""

    batches: int = 0
    kernel_invocations: int = 0
    pairs: int = 0
    full_flushes: int = 0
    timeout_flushes: int = 0
    shutdown_flushes: int = 0
    simulated_kernel_s: float = 0.0

    def record_batch(self, reason: str) -> None:
        self.batches += 1
        if reason == "full":
            self.full_flushes += 1
        elif reason == "timeout":
            self.timeout_flushes += 1
        else:
            self.shutdown_flushes += 1

    def record_kernel(self, pairs: int, simulated_s: float) -> None:
        self.kernel_invocations += 1
        self.pairs += pairs
        self.simulated_kernel_s += simulated_s


@dataclass
class PipelineRun:
    """Outcome of one pipeline run over a query stream."""

    results: list[np.ndarray]
    latencies_s: np.ndarray
    elapsed_s: float
    stats: PipelineStats
    #: Index generation this run was served from (``engine.epoch``);
    #: the serving layer stamps replies with it so epoch swaps are
    #: observable from the outside.
    epoch: int = 0

    @property
    def num_queries(self) -> int:
        return len(self.results)

    @property
    def throughput_qps(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.num_queries / self.elapsed_s

    @property
    def output_keys(self) -> int:
        """Total keys emitted (the *output throughput* of Figure 3)."""
        return int(sum(r.size for r in self.results))


class MatchPipeline:
    """Drives query streams through the four matching stages."""

    def __init__(
        self,
        partition_table: PartitionTable,
        tagset_table: TagsetTable,
        key_table: KeyTable,
        config: TagMatchConfig,
        epoch: int = 0,
        key_tags: list[frozenset[str]] | None = None,
    ) -> None:
        self.partition_table = partition_table
        self.tagset_table = tagset_table
        self.key_table = key_table
        self.config = config
        #: Index generation of the tables this pipeline serves (see
        #: :attr:`PipelineRun.epoch`).
        self.epoch = epoch
        #: Each association's original tag set, parallel to
        #: ``key_table.keys`` (``exact_check`` engines only).
        self.key_tags = key_tags
        #: Launches the stage-2 kernels.
        self.runner = UnitRunner(tagset_table, config)

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def run(
        self,
        query_blocks: np.ndarray,
        unique: bool = False,
        num_threads: int | None = None,
        batch_timeout_s: float | None | str = "config",
        arrival_rate_qps: float | None = None,
        query_tags: list[frozenset[str]] | None = None,
    ) -> PipelineRun:
        """Match every row of ``query_blocks`` in the calling thread.

        Queries are fed in chunks of 32.  By default they all arrive at
        once and the run ships only full batches and the shutdown flush.
        ``arrival_rate_qps`` paces them (the latency experiment of
        Figure 6): each chunk is released at its scheduled time, a
        query's latency runs from that time, and a batch pending longer
        than ``batch_timeout_s`` (default: the config's) ships early.
        ``query_tags``, parallel to the rows, turns on the exact check
        against the pipeline's ``key_tags``.  ``num_threads`` is ignored:
        ``perfbench/runners.py`` passes it.
        """
        if query_blocks.ndim != 2:
            raise ReproError("query_blocks must be a 2-D block array")
        timeout = None
        if arrival_rate_qps:
            timeout = (
                self.config.batch_timeout_s
                if batch_timeout_s == "config"
                else batch_timeout_s
            )
        n = query_blocks.shape[0]
        stats = PipelineStats()
        tagset_table = self.tagset_table
        key_table = self.key_table
        runner = self.runner
        unit_starts = tagset_table.unit_starts
        capacity_pairs = 4 * self.config.batch_size
        # Per-query run state (§3.4): the batches pre-process forwarded
        # each query to, those that came back, when its feed chunk was
        # released and when its last batch's keys were looked up.
        expected = np.zeros(n, dtype=np.intp)
        delivered = np.zeros(n, dtype=np.intp)
        released = np.zeros(n)
        completed = np.zeros(n)
        # Every looked-up key and the query it belongs to, one array per
        # returned cycle, in delivery order.
        keys_out: list[np.ndarray] = []
        owners_out: list[np.ndarray] = []
        # Batches form per dispatch unit: a fused unit's batcher covers a
        # whole run of small partitions, so one flush becomes one fused
        # kernel launch.
        batchers = BatcherSet(tagset_table.num_units, self.config.batch_size)
        # Every device the run launches on gets one pair of even/odd
        # result buffers (§3.3.2).  The kernel arena is the run's own, so
        # two runs on one engine never share one.
        double_buffers: dict[Device, DoubleBufferedResults] = {}
        arena = ResultArena()
        unpack_out = (
            np.empty(capacity_pairs, dtype=np.uint8),
            np.empty(capacity_pairs, dtype=np.uint32),
        )

        # ---------------- stage 3: key lookup/reduce ----------------
        def deliver(cycle: CycleResult | None) -> None:
            """One vectorised step per returned batch: unpack, look the
            keys up, count the batch against its queries and stamp the
            queries it completes."""
            nonlocal unpack_out
            if cycle is None:
                return
            ids = cycle.meta
            with trace.span("post_process", pairs=int(cycle.num_pairs)):
                if cycle.num_pairs:
                    if cycle.num_pairs > unpack_out[0].shape[0]:
                        unpack_out = (
                            np.empty(cycle.num_pairs, dtype=np.uint8),
                            np.empty(cycle.num_pairs, dtype=np.uint32),
                        )
                    q_local, set_ids = unpack_results(
                        cycle.packed, cycle.num_pairs, out=unpack_out
                    )
                    set_ids = set_ids.astype(np.int64)
                    owners = np.repeat(ids[q_local], key_table.counts_of_many(set_ids))
                    if query_tags is None:
                        keys_out.append(key_table.keys_of_many(set_ids))
                    else:
                        # Exact check: keep the keys whose association's
                        # tags are a subset of their query's.
                        pos = key_table.positions_of_many(set_ids)
                        pairs = zip(pos.tolist(), owners.tolist())
                        keep = np.array(
                            [self.key_tags[p] <= query_tags[q] for p, q in pairs], bool
                        )
                        keys_out.append(key_table.keys[pos[keep]])
                        owners = owners[keep]
                    owners_out.append(owners)
                # Ids are unique within a batch, so one fancy-index add
                # counts it once against each of its queries.
                delivered[ids] += 1
                done = ids[delivered[ids] == expected[ids]]
                completed[done] = time.perf_counter()

        # ---------------- stage 2: GPU dispatch ----------------
        def dispatch(batch: Batch, reason: str) -> None:
            stats.record_batch(reason)
            unit_id = batch.partition_id
            residency = tagset_table.unit_residency(unit_id)
            device = residency.device
            db = double_buffers.get(device)
            if db is None:
                db = DoubleBufferedResults(device, capacity_pairs=capacity_pairs)
                double_buffers[device] = db
            # The copy-in / kernel / result-push sequence of §3.3.2.  The
            # runner charges the simulated kernel time to the device.
            qbuf = device.htod(batch.queries, label="query-batch")
            try:
                result = runner.run_kernel(
                    unit_id, qbuf.array(), residency=residency, arena=arena
                )
            finally:
                qbuf.free()
            stats.record_kernel(result.num_pairs, result.simulated_time_s)
            deliver(db.push(result.packed, result.num_pairs, meta=batch.ids))

        def deliver_trailing() -> None:
            """Copy out every device's deferred cycle (§3.3.2 flush)."""
            for db in double_buffers.values():
                deliver(db.flush())

        def flush_stale() -> None:
            """Once the oldest pending batch is past the timeout, ship every
            stale batch and copy out every deferred cycle."""
            if timeout is None:
                return
            deadline = batchers.next_deadline(timeout)
            if deadline is None or deadline > time.perf_counter():
                return
            for batch in batchers.flush_stale(timeout):
                dispatch(batch, "timeout")
            deliver_trailing()

        def wait_until(target: float) -> None:
            """Sleep until ``target``, waking to flush batches that go stale."""
            while True:
                deadline = None if timeout is None else batchers.next_deadline(timeout)
                wake = target if deadline is None else min(deadline, target)
                delay = wake - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                flush_stale()
                if wake >= target:
                    return

        # ---------------- stage 1: pre-process ----------------
        def preprocess(lo: int, hi: int, release: float) -> list[Batch]:
            """Algorithm 2 over one chunk; returns the batches it filled."""
            full_batches: list[Batch] = []
            with trace.span("pre_process", queries=hi - lo):
                rows = query_blocks[lo:hi]
                # Vectorized Algorithm 2 over the whole chunk: one dense
                # scan of the compact mask matrix.
                matrix = self.partition_table.relevant_matrix(rows)
                # Collapse partition columns to dispatch units: a unit is
                # relevant when any member partition is.
                matrix = np.logical_or.reduceat(matrix, unit_starts, axis=1)
                counts = matrix.sum(axis=1)
                expected[lo:hi] = counts
                released[lo:hi] = release
                q_local, p_idx = np.nonzero(matrix)
                if p_idx.size:
                    order = np.argsort(p_idx, kind="stable")
                    q_sorted = q_local[order] + lo
                    p_sorted = p_idx[order]
                    boundaries = np.nonzero(np.diff(p_sorted))[0] + 1
                    starts = np.concatenate(([0], boundaries))
                    ends = np.concatenate((boundaries, [p_sorted.size]))
                    for gs, ge in zip(starts, ends):
                        members = q_sorted[gs:ge]
                        full_batches.extend(
                            batchers[int(p_sorted[gs])].add_many(
                                query_blocks[members], members
                            )
                        )
                # A query relevant to no unit is complete once pre-processed.
                completed[lo:hi][counts == 0] = time.perf_counter()
            return full_batches

        start = time.perf_counter()
        try:
            for lo in range(0, n, _FEED_CHUNK):
                release = start
                if arrival_rate_qps:
                    release = start + lo / arrival_rate_qps
                    wait_until(release)
                for full in preprocess(lo, min(lo + _FEED_CHUNK, n), release):
                    dispatch(full, "full")
                flush_stale()
            if arrival_rate_qps:
                wait_until(start + n / arrival_rate_qps)
            # Shutdown: ship partial batches, then copy out the deferred
            # double-buffer cycles.
            for batch in batchers.flush_all():
                dispatch(batch, "shutdown")
            deliver_trailing()
        finally:
            for db in double_buffers.values():
                db.free()
        incomplete = np.flatnonzero(delivered != expected)
        if incomplete.size:
            raise ReproError(
                f"{incomplete.size} queries did not complete, first {incomplete[0]}"
            )
        # ---------------- stage 4: merge ----------------
        with trace.span("post_process", queries=n):
            if keys_out:
                keys, owners = np.concatenate(keys_out), np.concatenate(owners_out)
            else:
                keys, owners = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.intp)
            results = merge_by_query(owners, keys, n, unique)
        return PipelineRun(
            results=results,
            latencies_s=completed - released,
            elapsed_s=time.perf_counter() - start,
            stats=stats,
            epoch=self.epoch,
        )
