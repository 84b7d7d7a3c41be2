"""The four-stage matching pipeline (§3, Figure 1).

Stages: (i) *pre-process* finds the partitions relevant to each query
(Algorithm 2, CPU threads); (ii) *subset match* evaluates full batches of
queries against one partition on a GPU (Algorithms 3–4, submitted through
pooled streams with double-buffered result transfers); (iii) *key
lookup/reduce* maps matched set ids to application keys and groups them
by query; (iv) *merge* combines the per-partition key sets once a query's
outstanding-batch counter returns to zero.

The pipeline maximises parallelism both between and within stages: any
number of CPU threads run pre-processing and key lookup, every device
stream carries its own in-flight batch sequence, and the CPU threads
submit whole copy→kernel→copy sequences asynchronously (§3.3.2), so they
never wait on the GPU.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

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
from repro.obs import trace
from repro.gpu.packing import unpack_results
from repro.gpu.stream import Stream, StreamOp

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
    #: Worker-thread split of the run (Figure 5's x-axis): their sum is
    #: exactly the ``num_threads`` the run was asked for.
    pre_workers: int = 0
    lookup_workers: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record_batch(self, reason: str) -> None:
        with self._lock:
            self.batches += 1
            if reason == "full":
                self.full_flushes += 1
            elif reason == "timeout":
                self.timeout_flushes += 1
            else:
                self.shutdown_flushes += 1

    def record_kernel(self, pairs: int, simulated_s: float) -> None:
        with self._lock:
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
        #: Per-lookup-thread unpack scratch (see :meth:`_unpack_scratch`).
        self._tls = threading.local()

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
        on_result=None,
    ) -> PipelineRun:
        """Match every row of ``query_blocks`` and wait for completion.

        ``arrival_rate_qps`` paces query arrival (used by the latency
        experiment of Figure 6); by default queries arrive as fast as the
        pre-process stage accepts them.  ``on_result(query_index, keys)``,
        if given, is invoked from a pipeline worker thread the moment each
        query's merge completes — the push-style delivery a messaging
        system needs; it must be thread-safe and fast.
        """
        if query_blocks.ndim != 2:
            raise ReproError("query_blocks must be a 2-D block array")
        timeout = (
            self.config.batch_timeout_s if batch_timeout_s == "config" else batch_timeout_s
        )
        threads = num_threads if num_threads is not None else self.config.num_threads
        n = query_blocks.shape[0]
        states: list[QueryState | None] = [None] * n
        stats = PipelineStats()

        # Batches form per dispatch unit: a fused unit's batcher covers a
        # whole run of small partitions, so one flush becomes one fused
        # kernel launch.
        num_units = self.tagset_table.num_units
        unit_starts = self.tagset_table.unit_starts
        batchers = BatcherSet(
            num_units,
            self.config.batch_size,
            query_blocks.shape[1],
        )
        work: queue.Queue[np.ndarray | None] = queue.Queue()
        completions: queue.Queue[CycleResult | None] = queue.Queue()
        double_buffers: dict[Stream, DoubleBufferedResults] = {}
        db_lock = threading.Lock()
        stop_flusher = threading.Event()
        # Every stream op this run enqueues: an op keeps its own
        # exception, so the run re-raises it once the devices drain.
        ops: list[StreamOp] = []
        # Exceptions that killed a pre-process or lookup worker.
        worker_errors: list[BaseException] = []

        def buffer_for(stream: Stream) -> DoubleBufferedResults:
            # Called only from within ops running on `stream`, but the
            # dict itself is shared across streams.
            with db_lock:
                db = double_buffers.get(stream)
                if db is None:
                    db = DoubleBufferedResults(
                        stream.device, capacity_pairs=4 * self.config.batch_size
                    )
                    double_buffers[stream] = db
                return db

        # ---------------- stage 2: GPU dispatch ----------------
        runner = self.runner

        def dispatch(batch: Batch, reason: str) -> None:
            stats.record_batch(reason)
            unit_id = batch.partition_id
            residency = self.tagset_table.unit_residency(unit_id)
            device = residency.device
            stream = device.acquire_stream()

            def copy_in_kernel_and_push():
                # The copy-in / kernel / result-push sequence of §3.3.2,
                # submitted as one FIFO unit on the acquired stream.  The
                # runner charges the simulated kernel time to the device.
                qbuf = device.htod(batch.queries, label="query-batch")
                try:
                    result = runner.run_kernel(
                        unit_id,
                        qbuf.array(),
                        residency=residency,
                        arena=stream.arena,
                    )
                finally:
                    qbuf.free()
                stats.record_kernel(result.num_pairs, result.simulated_time_s)
                delivered = buffer_for(stream).push(
                    result.packed, result.num_pairs, meta=batch.states
                )
                if delivered is not None:
                    completions.put(delivered)

            ops.append(
                stream.enqueue(copy_in_kernel_and_push, label="copyin-match-copyout")
            )
            # Asynchronous submission: release the stream immediately and
            # let its FIFO worker execute the sequence (§3.3.2).
            device.release_stream(stream)

        # ---------------- stage 1: pre-process ----------------
        def preprocess_worker(also_lookup: bool = False) -> None:
            while True:
                chunk = work.get()
                if chunk is None:
                    return
                with trace.span("pre_process", queries=int(chunk.size)):
                    rows = query_blocks[chunk]
                    # Vectorized Algorithm 2 over the whole chunk: one
                    # dense scan of the compact mask matrix.
                    matrix = self.partition_table.relevant_matrix(rows)
                    # Collapse partition columns to dispatch units: a
                    # unit is relevant when any member partition is.
                    matrix = np.logical_or.reduceat(matrix, unit_starts, axis=1)
                    counts = matrix.sum(axis=1)
                    chunk_states: list[QueryState] = []
                    for local, qi in enumerate(chunk):
                        state = states[qi]
                        assert state is not None
                        chunk_states.append(state)
                        if counts[local]:
                            state.add_batches(int(counts[local]))
                    q_local, p_idx = np.nonzero(matrix)
                    if p_idx.size:
                        order = np.argsort(p_idx, kind="stable")
                        q_sorted = q_local[order]
                        p_sorted = p_idx[order]
                        boundaries = np.nonzero(np.diff(p_sorted))[0] + 1
                        starts = np.concatenate(([0], boundaries))
                        ends = np.concatenate((boundaries, [p_sorted.size]))
                        for gs, ge in zip(starts, ends):
                            pid = int(p_sorted[gs])
                            members = q_sorted[gs:ge]
                            full_batches = batchers[pid].add_many(
                                rows[members],
                                [chunk_states[m] for m in members],
                            )
                            for full in full_batches:
                                dispatch(full, "full")
                    for state in chunk_states:
                        state.preprocess_complete()
                if also_lookup:
                    drain_completions()

        # ---------------- stages 3+4: lookup/reduce + merge ----------------
        def drain_completions() -> None:
            """Non-blocking lookup/reduce sweep (single-thread mode)."""
            while True:
                try:
                    item = completions.get_nowait()
                except queue.Empty:
                    return
                if item is not None:
                    self._deliver(item)

        def lookup_worker() -> None:
            while True:
                item = completions.get()
                if item is None:
                    return
                self._deliver(item)

        # ---------------- timeout flusher ----------------
        def flusher() -> None:
            assert timeout is not None
            interval = max(timeout / 4.0, 1e-3)
            while not stop_flusher.wait(interval):
                for batch in batchers.flush_stale(timeout):
                    dispatch(batch, "timeout")
                ops.extend(
                    self._flush_double_buffers(double_buffers, db_lock, completions)
                )

        def guarded(worker):
            # A dead worker leaves queries incomplete: record why, so the
            # run raises that instead of timing out on them.
            def body(**kwargs) -> None:
                try:
                    worker(**kwargs)
                except BaseException as exc:  # noqa: BLE001 - re-raised by run()
                    worker_errors.append(exc)

            return body

        # Total workers equal the requested thread count exactly (the
        # Figure 5 x-axis): with a single thread one worker serves both
        # the pre-process and lookup queues instead of spawning two.
        if threads == 1:
            n_pre, n_lookup = 1, 0
        else:
            n_pre = max(1, threads // 2)
            n_lookup = max(1, threads - n_pre)
        stats.pre_workers = n_pre
        stats.lookup_workers = n_lookup
        pre_threads = [
            threading.Thread(
                target=guarded(preprocess_worker),
                kwargs={"also_lookup": n_lookup == 0},
                daemon=True,
                name=f"pre-{i}",
            )
            for i in range(n_pre)
        ]
        lookup_threads = [
            threading.Thread(
                target=guarded(lookup_worker), daemon=True, name=f"lookup-{i}"
            )
            for i in range(n_lookup)
        ]
        flusher_thread = None
        if timeout is not None:
            flusher_thread = threading.Thread(target=flusher, daemon=True, name="flusher")

        callback = None
        if on_result is not None:
            def callback(state: QueryState) -> None:
                on_result(state.query_index, state.result)

        start = time.perf_counter()
        for t in pre_threads + lookup_threads:
            t.start()
        if flusher_thread:
            flusher_thread.start()

        try:
            # Feed queries (optionally paced to a target arrival rate).
            for lo in range(0, n, _FEED_CHUNK):
                chunk = np.arange(lo, min(lo + _FEED_CHUNK, n))
                for qi in chunk:
                    states[qi] = QueryState(int(qi), unique, on_complete=callback)
                work.put(chunk)
                if arrival_rate_qps:
                    target = start + (lo + chunk.size) / arrival_rate_qps
                    delay = target - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)

            for _ in pre_threads:
                work.put(None)
            for t in pre_threads:
                t.join()

            # Shutdown: flush partial batches, then drain the device streams
            # and the deferred double-buffer cycles.
            for batch in batchers.flush_all():
                dispatch(batch, "shutdown")
            if flusher_thread:
                stop_flusher.set()
                flusher_thread.join()
            for device in self.tagset_table.devices:
                device.synchronize()
            ops.extend(self._flush_double_buffers(double_buffers, db_lock, completions))
            for device in self.tagset_table.devices:
                device.synchronize()
            # Both barriers passed, so every op has run: re-raise the
            # first device-side failure (its queries never complete).
            for op in ops:
                op.wait(0)
            if n_lookup == 0:
                # Single-thread mode: every cycle is enqueued by now, so
                # the caller thread finishes the lookup/reduce work itself.
                drain_completions()
        finally:
            stop_flusher.set()
            # The sentinels queue behind every enqueued cycle, so joined
            # lookup workers have delivered all of them.
            for _ in lookup_threads:
                completions.put(None)
            for t in lookup_threads:
                t.join()
            for db in double_buffers.values():
                db.free()
        if worker_errors:
            raise worker_errors[0]

        for state in states:
            assert state is not None
            state.wait(timeout=120.0)
        elapsed = time.perf_counter() - start

        results = [s.result for s in states]  # type: ignore[misc]
        latencies = np.array([s.latency_s for s in states])  # type: ignore[union-attr]
        return PipelineRun(
            results=results,
            latencies_s=latencies,
            elapsed_s=elapsed,
            stats=stats,
            epoch=self.epoch,
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _flush_double_buffers(
        self,
        double_buffers: dict[Stream, DoubleBufferedResults],
        db_lock: threading.Lock,
        completions: queue.Queue,
    ) -> list[StreamOp]:
        """Enqueue a flush op on every stream with a deferred cycle."""
        with db_lock:
            items = list(double_buffers.items())
        ops = []
        for stream, db in items:
            def flush_op(db=db):
                delivered = db.flush()
                if delivered is not None:
                    completions.put(delivered)

            if not stream.closed:
                ops.append(stream.enqueue(flush_op, label="flush-results"))
        return ops

    def _unpack_scratch(self, num_pairs: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-lookup-thread reusable unpack buffers (zero-allocation
        steady state for stage 3; each delivery is confined to one
        thread, so thread-local scratch is race-free)."""
        tls = self._tls
        q_buf = getattr(tls, "q_buf", None)
        if q_buf is None or q_buf.shape[0] < num_pairs:
            capacity = max(num_pairs, 4 * self.config.batch_size)
            tls.q_buf = np.empty(capacity, dtype=np.uint8)
            tls.s_buf = np.empty(capacity, dtype=np.uint32)
        return tls.q_buf, tls.s_buf

    def _deliver(self, cycle: CycleResult) -> None:
        """Key lookup/reduce for one returned batch (stage 3).

        ``cycle.meta`` is the batch's query states: the kernel's local
        query id ``i`` is ``states[i]``.
        """
        with trace.span("post_process", pairs=int(cycle.num_pairs)):
            batch_states = cycle.meta
            empty = np.empty(0, dtype=np.int64)
            if cycle.num_pairs == 0:
                for state in batch_states:
                    state.deliver_keys(empty)
                return
            q_ids, set_ids = unpack_results(
                cycle.packed, cycle.num_pairs, out=self._unpack_scratch(cycle.num_pairs)
            )
            chunks: list[np.ndarray] = [empty] * len(batch_states)
            for local_q, chunk in grouped_key_lookup(
                q_ids, set_ids.astype(np.int64), self.key_table
            ):
                chunks[local_q] = chunk
            for state, chunk in zip(batch_states, chunks):
                state.deliver_keys(chunk)
