"""SPMD subset-match kernels (Algorithms 3 and 4).

The paper's kernel assigns one indexed tag set per GPU thread; each
thread checks its set against every query of the batch and atomically
appends matches to a shared output vector.  Threads are organised in
blocks of consecutive ids, and because the tagset table is stored in
lexicographic order, the first thread of each block can compute the
longest common prefix of all sets in the block and use it to *pre-filter*
the query batch in shared memory (Algorithm 4) — the paper's single most
significant kernel optimisation.

Here each launch runs on the host in two vectorized steps.  The block
level computes Algorithm 4's surviving (block, query) slots from the
block prefixes.  The row level then matches the rows of alive blocks
against the whole batch with ``containment_pairs``.  No step loops over
thread blocks, and fused and singleton launches take the same path.

Three hot-path refinements sit on top of the seed kernel:

* **Fused launches** — ``block_offsets`` lets one invocation cover the
  concatenation of several small partitions (each aligned to its own
  thread blocks), charging a single launch overhead where the seed paid
  one per partition (Figure 7's small-partition regime).
* **Hierarchical pre-filtering** — given ``member_commons``, each fused
  member's AND-of-rows summary is checked with *one*
  ``containment_matrix`` row before any per-thread-block work, and each
  thread block's first (lexicographically minimal) row bounds the block
  from below: a subset of ``q`` is numerically ≤ ``q``, so blocks whose
  minimum exceeds the query are rejected without a containment scan.
* **Reused outputs** — a :class:`ResultArena` owned by the calling
  pipeline run holds growable output arrays reused across invocations.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.bloom.hashing import BLOCK_BITS
from repro.bloom.ops import containment_matrix, containment_pairs
from repro.errors import ValidationError
from repro.gpu.packing import pack_results, packed_size
from repro.gpu.timing import CostModel, DeviceClock
from repro.obs import trace

__all__ = [
    "KernelStats",
    "KernelResult",
    "ResultArena",
    "subset_match_kernel",
    "block_prefixes",
    "block_prefixes_ranges",
    "uniform_block_offsets",
    "DEFAULT_THREAD_BLOCK_SIZE",
]

#: Threads (indexed sets) per thread block.
DEFAULT_THREAD_BLOCK_SIZE = 1024

_U64 = np.uint64
_ALL_ONES = _U64(0xFFFFFFFFFFFFFFFF)


@dataclass
class KernelStats:
    """Observable work performed by one kernel invocation."""

    num_threads: int
    num_thread_blocks: int
    batch_size: int
    #: Query slots surviving Algorithm 4 across all blocks; equals
    #: ``num_thread_blocks * batch_size`` when pre-filtering is disabled.
    surviving_query_slots: int
    num_pairs: int
    simulated_time_s: float
    #: Partitions covered by this (possibly fused) invocation.
    num_members: int = 1

    @property
    def prefilter_ratio(self) -> float:
        """Fraction of per-block query slots removed by pre-filtering."""
        total = self.num_thread_blocks * self.batch_size
        if total == 0:
            return 0.0
        return 1.0 - self.surviving_query_slots / total


@dataclass
class KernelResult:
    """Matches found by one kernel invocation.

    ``query_ids[i]`` is the batch-local 8-bit id of the matched query and
    ``set_ids[i]`` the 32-bit global id of the matching indexed set — the
    ``(q, s)`` pairs of §3.3.1, before packing.

    When the kernel ran with a caller-owned :class:`ResultArena` the id
    arrays are views into it, valid until the arena's next invocation.
    """

    query_ids: np.ndarray
    set_ids: np.ndarray
    stats: KernelStats


class ResultArena:
    """Growable preallocated output buffers for kernel invocations.

    One arena is owned by one serial execution context — a pipeline run,
    which launches one kernel at a time — and reused across its
    invocations: the match pairs are written into the
    ``query_ids``/``set_ids`` arrays, a boolean scratch matrix holds the
    block-level survive tile, and :meth:`pack` emits the §3.3.1 packed
    bytes into a resident buffer.
    """

    def __init__(self, capacity_pairs: int = 1024) -> None:
        capacity_pairs = max(1, int(capacity_pairs))
        self._q = np.empty(capacity_pairs, dtype=np.uint8)
        self._s = np.empty(capacity_pairs, dtype=np.uint32)
        self._packed = np.empty(packed_size(capacity_pairs), dtype=np.uint8)
        self._bools: dict[str, np.ndarray] = {}
        self._count = 0
        #: Invocations served since construction (reuse observability).
        self.invocations = 0

    @property
    def count(self) -> int:
        return self._count

    @property
    def capacity_pairs(self) -> int:
        return self._q.shape[0]

    def begin(self) -> None:
        """Start a new invocation: rewind the pair cursor."""
        self._count = 0
        self.invocations += 1

    def append_slots(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Reserve ``k`` output pairs; returns (query, set) views to fill."""
        need = self._count + k
        if need > self._q.shape[0]:
            new_cap = max(need, 2 * self._q.shape[0])
            grown_q = np.empty(new_cap, dtype=np.uint8)
            grown_s = np.empty(new_cap, dtype=np.uint32)
            grown_q[: self._count] = self._q[: self._count]
            grown_s[: self._count] = self._s[: self._count]
            self._q, self._s = grown_q, grown_s
        lo, self._count = self._count, need
        return self._q[lo:need], self._s[lo:need]

    def query_ids(self) -> np.ndarray:
        return self._q[: self._count]

    def set_ids(self) -> np.ndarray:
        return self._s[: self._count]

    def bools(self, name: str, rows: int, cols: int) -> np.ndarray:
        """A reusable ``(rows, cols)`` boolean scratch matrix."""
        need = rows * cols
        buf = self._bools.get(name)
        if buf is None or buf.shape[0] < need:
            buf = np.empty(max(need, 1), dtype=bool)
            self._bools[name] = buf
        return buf[:need].reshape(rows, cols)

    def pack(self) -> np.ndarray:
        """Pack the current pairs into the resident §3.3.1 byte buffer."""
        need = packed_size(self._count)
        if need > self._packed.shape[0]:
            self._packed = np.empty(max(need, 2 * self._packed.shape[0]), dtype=np.uint8)
        return pack_results(
            self._q[: self._count], self._s[: self._count], out=self._packed
        )


def _bit_length_u64(x: np.ndarray) -> np.ndarray:
    x = x.astype(_U64, copy=True)
    n = np.zeros(x.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        big = x >= (_U64(1) << _U64(shift))
        n[big] += shift
        x[big] >>= _U64(shift)
    n[x > 0] += 1
    return n


def _leftmost_one(blocks: np.ndarray, width: int) -> np.ndarray:
    """Leftmost one-bit position per row; ``width`` for all-zero rows."""
    n, num_blocks = blocks.shape
    out = np.full(n, width, dtype=np.int64)
    undecided = np.ones(n, dtype=bool)
    for col in range(num_blocks):
        column = blocks[:, col]
        hit = undecided & (column != 0)
        if np.any(hit):
            lengths = _bit_length_u64(column[hit])
            out[hit] = col * BLOCK_BITS + (BLOCK_BITS - lengths)
            undecided &= ~hit
        if not np.any(undecided):
            break
    return out


def uniform_block_offsets(n: int, thread_block_size: int) -> np.ndarray:
    """Thread-block row bounds ``[0, tbs, 2·tbs, ..., n]`` for one partition."""
    if n <= 0:
        return np.zeros(1, dtype=np.int64)
    starts = np.arange(0, n, thread_block_size, dtype=np.int64)
    return np.append(starts, np.int64(n))


def block_prefixes_ranges(
    sets: np.ndarray, starts: np.ndarray, stops: np.ndarray
) -> np.ndarray:
    """Longest-common-prefix masks for explicit thread-block row ranges.

    Each range ``[starts[i], stops[i])`` must be lexicographically sorted
    (ranges never span fused-partition boundaries, which preserves that
    invariant); the prefix of a block is the first row with every bit at
    position ≥ the leftmost bit differing between first and last row
    cleared.  Returns a ``(num_blocks, num_words)`` uint64 array.
    """
    num_blocks = sets.shape[1]
    width = num_blocks * BLOCK_BITS
    firsts = sets[starts]
    lasts = sets[stops - 1]
    prefix_len = _leftmost_one(firsts ^ lasts, width)

    # Per block-word: how many leading bits of this word belong to the
    # common prefix (0..64), then build the keep-mask.
    word_base = np.arange(num_blocks, dtype=np.int64) * BLOCK_BITS
    kept = np.clip(prefix_len[:, None] - word_base[None, :], 0, BLOCK_BITS)
    shift = (BLOCK_BITS - kept).astype(_U64)
    # shift == 64 (kept == 0) would overflow; mask those lanes to zero.
    safe_shift = np.minimum(shift, _U64(BLOCK_BITS - 1))
    masks = np.where(kept > 0, _ALL_ONES << safe_shift, _U64(0))
    return firsts & masks.astype(_U64)


def block_prefixes(sets: np.ndarray, thread_block_size: int) -> np.ndarray:
    """Longest-common-prefix masks per uniform thread block (Algorithm 4).

    ``sets`` is the lexicographically sorted ``(n, num_blocks)`` uint64
    partition.  For each chunk of ``thread_block_size`` consecutive rows
    the prefix is the first row with every bit at position ≥ the leftmost
    differing bit (between first and last row) cleared.  Returns a
    ``(num_thread_blocks, num_blocks)`` uint64 array.
    """
    offsets = uniform_block_offsets(sets.shape[0], thread_block_size)
    return block_prefixes_ranges(sets, offsets[:-1], offsets[1:])


def _and_lex_le(
    rows: np.ndarray, queries: np.ndarray, out: np.ndarray, arena: ResultArena
) -> None:
    """AND ``rows[i] ≤ queries[j]`` (bit-string order) into ``out[i, j]``.

    Word 0 is the most significant; a bitwise subset of ``q`` is always
    numerically ≤ ``q`` in this order, so a sorted block whose minimum
    row exceeds the query cannot contain any match.  The pass keeps the
    slots decided ``≤`` so far and those still tied in arena scratch
    tiles, and stops at the first word that leaves no tie: in sorted
    Bloom rows that is nearly always word 0.
    """
    n, words = rows.shape
    b = queries.shape[0]
    le = arena.bools("lex_le", n, b)
    tied = arena.bools("lex_tied", n, b)
    np.less(rows[:, :1], queries[:, 0], out=le)
    np.equal(rows[:, :1], queries[:, 0], out=tied)
    for w in range(1, words):
        if not tied.any():
            break
        rw, qw = rows[:, w : w + 1], queries[:, w]
        step = arena.bools("lex_step", n, b)
        # A tie on every earlier word: the last word decides with ≤.
        (np.less_equal if w == words - 1 else np.less)(rw, qw, out=step)
        step &= tied
        le |= step
        np.equal(rw, qw, out=step)
        tied &= step
    if words == 1:
        le |= tied
    out &= le


def subset_match_kernel(
    sets: np.ndarray,
    set_ids: np.ndarray,
    queries: np.ndarray,
    thread_block_size: int = DEFAULT_THREAD_BLOCK_SIZE,
    prefilter: bool = True,
    cost_model: CostModel | None = None,
    clock: DeviceClock | None = None,
    prefixes: np.ndarray | None = None,
    block_offsets: np.ndarray | None = None,
    member_commons: np.ndarray | None = None,
    member_of_block: np.ndarray | None = None,
    arena: ResultArena | None = None,
) -> KernelResult:
    """Match a batch of queries against one partition (Algorithms 3–4).

    Parameters
    ----------
    sets:
        ``(n, num_blocks)`` uint64 partition rows.  Must be sorted
        lexicographically when ``prefilter`` is on (the tagset table
        guarantees this); the prefix trick is only correct on sorted data.
        With ``block_offsets`` it may be the concatenation of several
        sorted partitions (each member sorted, blocks never spanning a
        member boundary).
    set_ids:
        ``(n,)`` uint32 global set ids parallel to ``sets``.
    queries:
        ``(b, num_blocks)`` uint64 query batch; ``b`` must fit the 8-bit
        batch-local query id of the output format (≤ 256).
    prefilter:
        Enable the Algorithm 4 shared-memory pre-filter.  Disabling it is
        the ablation of `bench_ablation_prefilter`.
    cost_model, clock:
        When given, the kernel's simulated device time (launch overhead +
        folded thread work + atomic appends) is charged to ``clock``.  A
        fused invocation charges the launch overhead exactly once.
    prefixes:
        Optional precomputed :func:`block_prefixes` for ``sets`` at this
        ``thread_block_size`` (the tagset table caches them at upload
        time, since partition contents only change at consolidation).
    block_offsets:
        Optional ``(num_thread_blocks + 1,)`` explicit row bounds for the
        thread blocks (fused multi-partition launches).  When omitted the
        blocks are the uniform ``thread_block_size`` chunks.
    member_commons, member_of_block:
        The hierarchical coarse pre-filter, run when ``member_commons``
        is given.  It holds one AND-of-rows summary per fused member and
        ``member_of_block`` maps each thread block to its member; with
        both, a member whose common bits are not contained in a query
        rejects every one of its blocks with a single containment row.
        Each block is also bounded below by its first row in bit-string
        order.  Both checks are necessary conditions, so the
        match set is bitwise identical to plain Algorithm 4's, which is
        what callers launching on raw partitions get by omitting them.
    arena:
        Optional caller-owned :class:`ResultArena` reused across
        invocations.  The returned id
        arrays are views into it, valid until its next invocation.
    """
    if sets.ndim != 2 or queries.ndim != 2:
        raise ValidationError("sets and queries must be 2-D block arrays")
    if sets.shape[1] != queries.shape[1]:
        raise ValidationError("sets and queries have different block counts")
    if len(set_ids) != len(sets):
        raise ValidationError("set_ids must parallel sets")
    batch_size = queries.shape[0]
    if batch_size > 256:
        raise ValidationError(
            f"batch of {batch_size} queries does not fit 8-bit query ids"
        )
    n = sets.shape[0]
    num_members = 1 if member_commons is None else int(member_commons.shape[0])
    if n == 0 or batch_size == 0:
        empty_stats = KernelStats(0, 0, batch_size, 0, 0, 0.0, num_members)
        return KernelResult(
            np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.uint32), empty_stats
        )

    # One launch == one span: fused launches record once for the whole
    # dispatch unit, so span counts mirror the launch amortisation the
    # cost model charges (§3.3.2).  Disabled tracing costs one flag read.
    launch_t0 = perf_counter() if trace.is_enabled() else 0.0

    ids = np.ascontiguousarray(set_ids, dtype=np.uint32)
    if block_offsets is None:
        starts = np.arange(0, n, thread_block_size, dtype=np.int64)
        stops = np.minimum(starts + thread_block_size, n)
    else:
        offsets = np.asarray(block_offsets, dtype=np.int64)
        if offsets.ndim != 1 or offsets.shape[0] < 2 or offsets[-1] != n:
            raise ValidationError("block_offsets must be row bounds ending at n")
        starts = offsets[:-1]
        stops = offsets[1:]
    num_tblocks = starts.shape[0]

    if arena is None:
        arena = ResultArena()
    arena.begin()

    if prefilter:
        if prefixes is None:
            prefixes = block_prefixes_ranges(sets, starts, stops)
        survive = arena.bools("survive", num_tblocks, batch_size)
        member_surv = None
        if num_members > 1 and member_of_block is not None:
            # Level 1: one containment row per member rejects whole
            # partitions before any per-thread-block work.  With a single
            # member the block prefixes already imply the member mask
            # (prefix bits are a superset of the AND of all member rows),
            # so the check is pure overhead there.
            member_surv = containment_matrix(member_commons, queries)
        if member_surv is not None and not member_surv.any():
            survive[:] = False
        else:
            # Level 2: the Algorithm 4 prefix check per block, masked down
            # to live members, plus (with the coarse pre-filter) the
            # lexicographic lower bound of each block's first row.
            containment_matrix(prefixes, queries, out=survive)
            if member_surv is not None:
                survive &= member_surv[member_of_block]
            if member_commons is not None:
                _and_lex_le(sets[starts], queries, survive, arena)
        surviving_slots = int(np.count_nonzero(survive))
        alive = survive.any(axis=1)
    else:
        surviving_slots = num_tblocks * batch_size
        alive = np.ones(num_tblocks, dtype=bool)

    # Algorithm 3 over the rows of alive blocks against the whole batch.
    # Every filter above is a necessary condition for a match, so each
    # pair found lies in a surviving (block, query) slot and needs no
    # mask.  Rows ascend and the pairs come back row-major: the output is
    # ordered by row, then query.
    if alive.all():
        rows, cols = containment_pairs(sets, queries)
    else:
        alive_rows = np.flatnonzero(np.repeat(alive, stops - starts))
        rows, cols = containment_pairs(sets[alive_rows], queries)
        rows = alive_rows[rows]
    if rows.size:
        out_q, out_s = arena.append_slots(rows.size)
        out_q[:] = cols
        out_s[:] = ids[rows]

    query_ids = arena.query_ids()
    found_ids = arena.set_ids()

    simulated = 0.0
    if cost_model is not None:
        checks_per_thread = surviving_slots / num_tblocks if num_tblocks else 0.0
        prefilter_scan = batch_size / thread_block_size if prefilter else 0.0
        simulated = cost_model.kernel_time(n, checks_per_thread + prefilter_scan)
        simulated += query_ids.size * cost_model.atomic_op_s
        if clock is not None:
            clock.add_kernel(simulated)

    if launch_t0:
        trace.record(
            "kernel",
            launch_t0,
            perf_counter() - launch_t0,
            {
                "rows": int(n),
                "batch": int(batch_size),
                "members": num_members,
                "pairs": int(query_ids.size),
            },
        )

    stats = KernelStats(
        num_threads=n,
        num_thread_blocks=num_tblocks,
        batch_size=batch_size,
        surviving_query_slots=surviving_slots,
        num_pairs=int(query_ids.size),
        simulated_time_s=simulated,
        num_members=num_members,
    )
    return KernelResult(query_ids=query_ids, set_ids=found_ids, stats=stats)
