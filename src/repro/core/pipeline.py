"""The four-stage matching pipeline (§3, Figure 1).

Stages: (i) *pre-process* finds the partitions relevant to each query
(Algorithm 2); (ii) *subset match* evaluates full batches of queries
against one partition on a GPU (Algorithms 3–4, submitted through the
device's streams with double-buffered result transfers); (iii) *key
lookup/reduce* maps matched set ids to application keys and groups them
by query; (iv) *merge* combines the per-partition key sets once a query's
outstanding-batch counter returns to zero.

The paper overlaps these stages with CPU threads and asynchronous CUDA
streams (§3.3.2).  On the simulated GPU the kernel runs on the host CPU
and its device time comes from the cost model either way, so a run here
does every stage in the calling thread, in one loop: feed a chunk,
pre-process it, launch each batch it fills, unpack and look up the
returned cycles, merge.  Paced runs keep their wall-clock flush timeouts
by sleeping no longer than the oldest pending batch's deadline.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from repro.core.batch import Batch, BatcherSet
from repro.core.config import TagMatchConfig
from repro.core.key_table import KeyTable
from repro.core.partition_table import PartitionTable
from repro.core.results import QueryState
from repro.core.runner import UnitRunner
from repro.core.tagset_table import TagsetTable
from repro.errors import ReproError
from repro.gpu.doublebuffer import CycleResult, DoubleBufferedResults
from repro.gpu.packing import unpack_results
from repro.gpu.stream import Stream
from repro.obs import trace

__all__ = ["MatchPipeline", "PipelineRun", "PipelineStats", "grouped_key_lookup"]

_FEED_CHUNK = 32


def grouped_key_lookup(
    q_ids: np.ndarray, set_ids: np.ndarray, key_table: KeyTable
) -> list[tuple[int, np.ndarray]]:
    """Stage-3 lookup/reduce: keys per batch-local query id.

    ``q_ids``/``set_ids`` are the parallel unpacked ``(q, s)`` pair
    arrays of one kernel invocation; returns ``(local_q, keys)`` groups.
    Two fast paths avoid the sort-and-split machinery on the common
    shapes: a batch whose pairs all belong to one query (any one-hot
    batch) skips grouping entirely, and pairs already sorted by query id
    (kernels emit blocks in query order more often than not) skip the
    argsort.
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
    ) -> None:
        self.partition_table = partition_table
        self.tagset_table = tagset_table
        self.key_table = key_table
        self.config = config
        #: Index generation of the tables this pipeline serves (see
        #: :attr:`PipelineRun.epoch`).
        self.epoch = epoch
        #: Launches the stage-2 kernels; the engine's synchronous paths
        #: share it.
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
    ) -> PipelineRun:
        """Match every row of ``query_blocks`` in the calling thread.

        Queries are fed in chunks of 32.  By default they all arrive at
        once; ``arrival_rate_qps`` paces them (the latency experiment of
        Figure 6): each chunk is released at its scheduled time, and a
        query's latency runs from that time.  ``num_threads`` is ignored:
        ``perfbench/runners.py`` passes it.
        """
        if query_blocks.ndim != 2:
            raise ReproError("query_blocks must be a 2-D block array")
        timeout = (
            self.config.batch_timeout_s if batch_timeout_s == "config" else batch_timeout_s
        )
        n = query_blocks.shape[0]
        states: list[QueryState] = []
        stats = PipelineStats()
        tagset_table = self.tagset_table
        runner = self.runner
        unit_starts = tagset_table.unit_starts
        capacity_pairs = 4 * self.config.batch_size
        # Batches form per dispatch unit: a fused unit's batcher covers a
        # whole run of small partitions, so one flush becomes one fused
        # kernel launch.
        batchers = BatcherSet(
            tagset_table.num_units, self.config.batch_size, query_blocks.shape[1]
        )
        # A run takes each device's streams round-robin; every stream it
        # uses gets its own even/odd result buffers (§3.3.2).
        next_stream = {
            device: itertools.cycle(device.streams) for device in tagset_table.devices
        }
        double_buffers: dict[Stream, DoubleBufferedResults] = {}
        unpack_out = (
            np.empty(capacity_pairs, dtype=np.uint8),
            np.empty(capacity_pairs, dtype=np.uint32),
        )

        def deliver(cycle: CycleResult | None) -> None:
            nonlocal unpack_out
            if cycle is None:
                return
            if cycle.num_pairs > unpack_out[0].shape[0]:
                unpack_out = (
                    np.empty(cycle.num_pairs, dtype=np.uint8),
                    np.empty(cycle.num_pairs, dtype=np.uint32),
                )
            self._deliver(cycle, unpack_out)

        # ---------------- stage 2: GPU dispatch ----------------
        def dispatch(batch: Batch, reason: str) -> None:
            stats.record_batch(reason)
            unit_id = batch.partition_id
            residency = tagset_table.unit_residency(unit_id)
            device = residency.device
            stream = next(next_stream[device])
            db = double_buffers.get(stream)
            if db is None:
                db = DoubleBufferedResults(device, capacity_pairs=capacity_pairs)
                double_buffers[stream] = db

            def copy_in_kernel_and_push() -> CycleResult | None:
                # The copy-in / kernel / result-push sequence of §3.3.2 as
                # one FIFO unit on the stream.  The runner charges the
                # simulated kernel time to the device.
                qbuf = device.htod(batch.queries, label="query-batch")
                try:
                    result = runner.run_kernel(
                        unit_id, qbuf.array(), residency=residency, arena=stream.arena
                    )
                finally:
                    qbuf.free()
                stats.record_kernel(result.num_pairs, result.simulated_time_s)
                return db.push(result.packed, result.num_pairs, meta=batch.states)

            deliver(stream.enqueue(copy_in_kernel_and_push, label="copyin-match-copyout"))

        def deliver_trailing() -> None:
            """Copy out every stream's deferred cycle (§3.3.2 flush)."""
            for stream, db in double_buffers.items():
                deliver(stream.enqueue(db.flush, label="flush-results"))

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
                chunk_states = [QueryState(qi, unique, release) for qi in range(lo, hi)]
                states.extend(chunk_states)
                for state, count in zip(chunk_states, counts):
                    if count:
                        state.add_batches(int(count))
                q_local, p_idx = np.nonzero(matrix)
                if p_idx.size:
                    order = np.argsort(p_idx, kind="stable")
                    q_sorted = q_local[order]
                    p_sorted = p_idx[order]
                    boundaries = np.nonzero(np.diff(p_sorted))[0] + 1
                    starts = np.concatenate(([0], boundaries))
                    ends = np.concatenate((boundaries, [p_sorted.size]))
                    for gs, ge in zip(starts, ends):
                        members = q_sorted[gs:ge]
                        full_batches.extend(
                            batchers[int(p_sorted[gs])].add_many(
                                rows[members], [chunk_states[m] for m in members]
                            )
                        )
                for state in chunk_states:
                    state.preprocess_complete()
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
        incomplete = [state.query_index for state in states if not state.done]
        if incomplete:
            raise ReproError(
                f"{len(incomplete)} queries did not complete, first {incomplete[0]}"
            )
        elapsed = time.perf_counter() - start

        return PipelineRun(
            results=[state.result for state in states],
            latencies_s=np.array([state.latency_s for state in states]),
            elapsed_s=elapsed,
            stats=stats,
            epoch=self.epoch,
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _deliver(
        self, cycle: CycleResult, unpack_out: tuple[np.ndarray, np.ndarray]
    ) -> None:
        """Key lookup/reduce for one returned batch (stage 3).

        ``cycle.meta`` is the batch's query states: the kernel's local
        query id ``i`` is ``states[i]``.  ``unpack_out`` is the run's
        reusable unpack scratch, large enough for ``cycle.num_pairs``.
        """
        with trace.span("post_process", pairs=int(cycle.num_pairs)):
            batch_states = cycle.meta
            empty = np.empty(0, dtype=np.int64)
            if cycle.num_pairs == 0:
                for state in batch_states:
                    state.deliver_keys(empty)
                return
            q_ids, set_ids = unpack_results(cycle.packed, cycle.num_pairs, out=unpack_out)
            chunks: list[np.ndarray] = [empty] * len(batch_states)
            for local_q, chunk in grouped_key_lookup(
                q_ids, set_ids.astype(np.int64), self.key_table
            ):
                chunks[local_q] = chunk
            for state, chunk in zip(batch_states, chunks):
                state.deliver_keys(chunk)
