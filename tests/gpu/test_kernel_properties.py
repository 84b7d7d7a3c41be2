"""Hypothesis properties for the subset-match kernel."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom.array import SignatureArray
from repro.bloom.filter import BloomSignature
from repro.gpu.kernels import block_prefixes, subset_match_kernel

WIDTH = 192
bit_lists = st.lists(st.integers(0, 40), min_size=0, max_size=6)


def sorted_blocks(rows):
    arr = SignatureArray.from_signatures(
        [BloomSignature.from_bits(r, width=WIDTH) for r in rows]
    )
    return arr.blocks[arr.lex_sort_order()]


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(bit_lists, min_size=1, max_size=40),
    queries=st.lists(bit_lists, min_size=1, max_size=6),
    block_size=st.integers(1, 16),
    prefilter=st.booleans(),
)
def test_kernel_equals_brute_force(rows, queries, block_size, prefilter):
    sets = sorted_blocks(rows)
    qblocks = sorted_blocks(queries)  # order irrelevant for queries
    ids = np.arange(len(sets), dtype=np.uint32)
    result = subset_match_kernel(
        sets, ids, qblocks, thread_block_size=block_size, prefilter=prefilter
    )
    got = set(zip(result.query_ids.tolist(), result.set_ids.tolist()))
    expected = {
        (qi, si)
        for si in range(len(sets))
        for qi in range(len(qblocks))
        if not np.any(sets[si] & ~qblocks[qi])
    }
    assert got == expected


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(bit_lists, min_size=1, max_size=40),
    block_size=st.integers(1, 16),
)
def test_prefix_is_greatest_common_prefix(rows, block_size):
    """Each block prefix is contained in every row of its block, and the
    bit right after the prefix differs between first and last row (it is
    the *longest* common prefix, not just any)."""
    sets = sorted_blocks(rows)
    prefixes = block_prefixes(sets, block_size)
    n = sets.shape[0]
    for tb in range(prefixes.shape[0]):
        chunk = sets[tb * block_size : min((tb + 1) * block_size, n)]
        assert not np.any(prefixes[tb] & ~chunk)


@settings(max_examples=30, deadline=None)
@given(
    rows=st.lists(bit_lists, min_size=1, max_size=30),
    queries=st.lists(bit_lists, min_size=1, max_size=4),
)
def test_cached_prefixes_equal_inline_computation(rows, queries):
    """Passing precomputed prefixes (the tagset-table cache) must not
    change kernel output."""
    sets = sorted_blocks(rows)
    qblocks = sorted_blocks(queries)
    ids = np.arange(len(sets), dtype=np.uint32)
    inline = subset_match_kernel(sets, ids, qblocks, thread_block_size=4)
    cached = subset_match_kernel(
        sets, ids, qblocks, thread_block_size=4,
        prefixes=block_prefixes(sets, 4),
    )
    assert set(zip(inline.query_ids.tolist(), inline.set_ids.tolist())) == set(
        zip(cached.query_ids.tolist(), cached.set_ids.tolist())
    )


@settings(max_examples=30, deadline=None)
@given(rows=st.lists(bit_lists, min_size=1, max_size=30))
def test_surviving_slots_bounded(rows):
    sets = sorted_blocks(rows)
    ids = np.arange(len(sets), dtype=np.uint32)
    queries = sorted_blocks([[1, 2, 3]])
    result = subset_match_kernel(sets, ids, queries, thread_block_size=4)
    assert 0 <= result.stats.surviving_query_slots
    assert result.stats.surviving_query_slots <= result.stats.num_thread_blocks


# --- Output order and stats against a brute-force reference -------------
#
# Rows are raw multi-word blocks (bits spread over every word), held as
# Python ints in bit-string order: word 0 is the most significant, bit 63
# of a word comes first.

def to_int(row):
    value = 0
    for word in row.tolist():
        value = (value << 64) | word
    return value


def raw_blocks(bit_sets, words):
    """Sorted ``(n, words)`` uint64 rows from lists of bit positions."""
    ints = sorted({sum(1 << b for b in bits) for bits in bit_sets})
    return np.array(
        [[(v >> (64 * (words - 1 - w))) & (2**64 - 1) for w in range(words)] for v in ints],
        dtype=np.uint64,
    ).reshape(len(ints), words)


def reference_pairs(sets, ids, queries):
    """Every (row, q) with row ⊆ q, ordered by row, then query."""
    q_ints = [to_int(q) for q in queries]
    pairs = [
        (qi, int(ids[ri]))
        for ri, row in enumerate(sets)
        for qi, q in enumerate(q_ints)
        if to_int(row) & ~q == 0
    ]
    return [p[0] for p in pairs], [p[1] for p in pairs]


def reference_survivors(sets, queries, offsets, commons, member_of_block):
    """Surviving (block, query) slots, computed one slot at a time."""
    count = 0
    for b in range(len(offsets) - 1):
        first, last = to_int(sets[offsets[b]]), to_int(sets[offsets[b + 1] - 1])
        differing = (first ^ last).bit_length()  # bits after the common prefix
        prefix = first >> differing << differing
        for q in map(to_int, queries):
            ok = prefix & ~q == 0
            if commons is not None:
                if len(commons) > 1:
                    ok = ok and to_int(commons[member_of_block[b]]) & ~q == 0
                ok = ok and first <= q
            count += ok
    return count


@st.composite
def launches(draw):
    """One singleton or fused launch: sorted members cut into blocks of
    ``tbs`` rows (any size, so it need not divide a member's rows)."""
    words = draw(st.integers(1, 3))
    bits = st.integers(0, 64 * words - 1)
    members = [
        raw_blocks(draw(st.lists(st.lists(bits, max_size=5), min_size=1, max_size=24)), words)
        for _ in range(draw(st.integers(1, 4)))
    ]
    queries = raw_blocks(
        draw(st.lists(st.lists(bits, max_size=12), min_size=1, max_size=8)), words
    )
    order = draw(st.permutations(range(len(queries))))
    tbs = draw(st.integers(1, 7))
    return members, queries[list(order)], tbs


@settings(max_examples=150, deadline=None)
@given(launch=launches(), fused=st.booleans(), prefilter=st.booleans(), seed=st.integers(0, 99))
def test_kernel_pairs_and_stats_match_reference(launch, fused, prefilter, seed):
    # fused: block_offsets and member summaries, as the unit runner
    # launches (one member is a singleton unit); else a raw partition.
    members, queries, tbs = launch
    if not fused:
        members = members[:1]
    sets = np.vstack(members)
    n = sets.shape[0]
    # Shuffled global ids: the order must follow rows, not ids.
    ids = np.random.default_rng(seed).permutation(n).astype(np.uint32)
    kwargs = {"thread_block_size": tbs, "prefilter": prefilter}
    offsets = list(range(0, n, tbs)) + [n]
    commons = mob = None
    if fused:
        offsets, mob, base = [], [], 0
        for m, rows in enumerate(members):
            starts = list(range(base, base + rows.shape[0], tbs))
            offsets += starts
            mob += [m] * len(starts)
            base += rows.shape[0]
        offsets.append(n)
        commons = np.array(
            [np.bitwise_and.reduce(rows, axis=0) for rows in members], dtype=np.uint64
        )
        kwargs.update(
            block_offsets=np.array(offsets, dtype=np.int64),
            member_commons=commons,
            member_of_block=np.array(mob, dtype=np.int64),
        )

    result = subset_match_kernel(sets, ids, queries, **kwargs)

    want_q, want_s = reference_pairs(sets, ids, queries)
    assert result.query_ids.tolist() == want_q
    assert result.set_ids.tolist() == want_s
    stats = result.stats
    num_blocks = len(offsets) - 1
    assert (stats.num_threads, stats.num_thread_blocks) == (n, num_blocks)
    assert stats.num_pairs == len(want_q)
    assert stats.num_members == (len(members) if fused else 1)
    if prefilter:
        assert stats.surviving_query_slots == reference_survivors(
            sets, queries, offsets, commons, mob
        )
    else:
        assert stats.surviving_query_slots == num_blocks * len(queries)
