"""Kernel hot-path units: prefix edge cases, fused launches, arenas.

Covers the Algorithm 4 ``block_prefixes`` corner shapes (partitions
smaller than one thread block, all-identical rows, trailing partial
blocks, single-row partitions), the fused multi-partition launch path of
``subset_match_kernel``, the :class:`ResultArena` reuse contract, and
the early-exit / preallocated-output variants of ``containment_matrix``.
"""

import numpy as np
import pytest

from repro.bloom.array import SignatureArray
from repro.bloom.filter import BloomSignature
from repro.bloom.ops import containment_matrix
from repro.errors import ValidationError
from repro.gpu.kernels import (
    ResultArena,
    block_prefixes,
    block_prefixes_ranges,
    subset_match_kernel,
    uniform_block_offsets,
)

WIDTH = 192


def sorted_blocks(rows):
    arr = SignatureArray.from_signatures(
        [BloomSignature.from_bits(r, width=WIDTH) for r in rows]
    )
    return arr.blocks[arr.lex_sort_order()]


class TestBlockPrefixEdges:
    def test_partition_smaller_than_one_thread_block(self):
        sets = sorted_blocks([[1, 2], [1, 3], [2, 5]])
        prefixes = block_prefixes(sets, thread_block_size=64)
        assert prefixes.shape == (1, sets.shape[1])
        # The single block's prefix is contained in every row.
        assert not np.any(prefixes[0] & ~sets)

    def test_all_identical_rows_prefix_is_the_row(self):
        row = sorted_blocks([[3, 7, 11]])[0]
        sets = np.tile(row, (10, 1))
        prefixes = block_prefixes(sets, thread_block_size=4)
        # first == last in every block, so the full row is the prefix.
        for tb in range(prefixes.shape[0]):
            np.testing.assert_array_equal(prefixes[tb], row)

    def test_trailing_partial_block(self):
        sets = sorted_blocks([[i, i + 1] for i in range(7)])
        prefixes = block_prefixes(sets, thread_block_size=3)
        assert prefixes.shape[0] == 3  # 3 + 3 + 1 rows
        # The trailing single-row block's prefix is that row itself.
        np.testing.assert_array_equal(prefixes[2], sets[6])

    def test_single_row_partitions(self):
        sets = sorted_blocks([[5, 9]])
        prefixes = block_prefixes(sets, thread_block_size=1024)
        np.testing.assert_array_equal(prefixes, sets)

    def test_every_block_size_one(self):
        sets = sorted_blocks([[1], [2], [3], [4]])
        prefixes = block_prefixes(sets, thread_block_size=1)
        np.testing.assert_array_equal(prefixes, sets)

    def test_ranges_respect_member_boundaries(self):
        """Explicit ranges never mix rows across members, so per-member
        prefixes equal the uniform prefixes of each member alone."""
        a = sorted_blocks([[1, 2], [1, 5], [2, 9]])
        b = sorted_blocks([[7], [7, 8]])
        cat = np.vstack([a, b])
        bounds = np.array([0, 2, 3, 5], dtype=np.int64)  # a split 2+1, b whole
        got = block_prefixes_ranges(cat, bounds[:-1], bounds[1:])
        expected = np.vstack([block_prefixes(a, 2), block_prefixes(b, 2)])
        np.testing.assert_array_equal(got, expected)

    def test_uniform_offsets(self):
        np.testing.assert_array_equal(
            uniform_block_offsets(7, 3), np.array([0, 3, 6, 7])
        )
        np.testing.assert_array_equal(uniform_block_offsets(0, 3), np.array([0]))


class TestFusedKernel:
    def _members(self):
        a = sorted_blocks([[1, 2], [1, 3], [2, 4], [3, 9]])
        b = sorted_blocks([[5], [5, 6], [6, 7]])
        c = sorted_blocks([[8, 9]])
        return [a, b, c]

    def test_fused_launch_equals_member_launches(self):
        members = self._members()
        queries = sorted_blocks(
            [[1, 2, 3, 4], [5, 6, 7], [8, 9], [1, 5, 8], list(range(10))]
        )
        tbs = 2
        cat = np.vstack(members)
        ids = np.arange(cat.shape[0], dtype=np.uint32)
        bounds = [0]
        mob = []
        commons = np.zeros((len(members), cat.shape[1]), dtype=np.uint64)
        base = 0
        for local, m in enumerate(members):
            offs = uniform_block_offsets(m.shape[0], tbs)
            bounds.extend((offs[1:] + base).tolist())
            mob.extend([local] * (offs.shape[0] - 1))
            commons[local] = np.bitwise_and.reduce(m, axis=0)
            base += m.shape[0]
        fused = subset_match_kernel(
            cat,
            ids,
            queries,
            thread_block_size=tbs,
            block_offsets=np.array(bounds, dtype=np.int64),
            member_commons=commons,
            member_of_block=np.array(mob, dtype=np.int64),
        )
        got = set(zip(fused.query_ids.tolist(), fused.set_ids.tolist()))

        expected = set()
        offset = 0
        for m in members:
            mids = np.arange(offset, offset + m.shape[0], dtype=np.uint32)
            res = subset_match_kernel(m, mids, queries, thread_block_size=tbs)
            expected |= set(zip(res.query_ids.tolist(), res.set_ids.tolist()))
            offset += m.shape[0]
        assert got == expected
        assert fused.stats.num_members == 3

    def test_coarse_filter_does_not_change_results(self):
        sets = sorted_blocks([[1, 2], [1, 3], [4, 5], [4, 6], [7]])
        ids = np.arange(sets.shape[0], dtype=np.uint32)
        queries = sorted_blocks([[1, 2, 3], [4, 5, 6], [9]])
        plain = subset_match_kernel(sets, ids, queries, thread_block_size=2)
        coarse = subset_match_kernel(
            sets,
            ids,
            queries,
            thread_block_size=2,
            member_commons=np.bitwise_and.reduce(sets, axis=0, keepdims=True),
        )
        assert set(zip(plain.query_ids.tolist(), plain.set_ids.tolist())) == set(
            zip(coarse.query_ids.tolist(), coarse.set_ids.tolist())
        )

    def test_bad_block_offsets_rejected(self):
        sets = sorted_blocks([[1], [2]])
        ids = np.arange(2, dtype=np.uint32)
        queries = sorted_blocks([[1]])
        with pytest.raises(ValidationError):
            subset_match_kernel(
                sets, ids, queries, block_offsets=np.array([0, 1], dtype=np.int64)
            )


class TestResultArena:
    def test_reuse_across_invocations(self):
        sets = sorted_blocks([[1, 2], [1, 3], [2, 4]])
        ids = np.arange(3, dtype=np.uint32)
        queries = sorted_blocks([[1, 2, 3, 4]])
        arena = ResultArena(capacity_pairs=1)
        first = subset_match_kernel(sets, ids, queries, arena=arena)
        pairs_first = set(zip(first.query_ids.tolist(), first.set_ids.tolist()))
        second = subset_match_kernel(sets, ids, queries, arena=arena)
        pairs_second = set(zip(second.query_ids.tolist(), second.set_ids.tolist()))
        assert pairs_first == pairs_second
        assert arena.invocations == 2

    def test_growth_preserves_earlier_pairs(self):
        arena = ResultArena(capacity_pairs=2)
        arena.begin()
        q1, s1 = arena.append_slots(2)
        q1[:] = [1, 2]
        s1[:] = [10, 20]
        q2, s2 = arena.append_slots(3)  # forces growth
        q2[:] = [3, 4, 5]
        s2[:] = [30, 40, 50]
        np.testing.assert_array_equal(arena.query_ids(), [1, 2, 3, 4, 5])
        np.testing.assert_array_equal(arena.set_ids(), [10, 20, 30, 40, 50])
        assert arena.capacity_pairs >= 5

    def test_pack_matches_fresh_allocation(self):
        from repro.gpu.packing import pack_results

        arena = ResultArena(capacity_pairs=4)
        # Two rounds with different counts: the second (smaller) round
        # must not leak stale padding bytes from the first.
        for n in (7, 3):
            arena.begin()
            q, s = arena.append_slots(n)
            q[:] = np.arange(n, dtype=np.uint8)
            s[:] = np.arange(n, dtype=np.uint32) * 3
            fresh = pack_results(
                np.arange(n, dtype=np.uint8), np.arange(n, dtype=np.uint32) * 3
            )
            np.testing.assert_array_equal(arena.pack(), fresh)

    def test_bool_scratch_reshaped_per_request(self):
        arena = ResultArena()
        a = arena.bools("survive", 2, 3)
        assert a.shape == (2, 3)
        b = arena.bools("survive", 3, 4)
        assert b.shape == (3, 4)


class TestContainmentMatrixOut:
    def test_out_buffer_result_identical(self):
        subs = sorted_blocks([[1], [2], [1, 2]])
        supers = sorted_blocks([[1, 2], [3]])
        fresh = containment_matrix(subs, supers)
        out = np.empty((5, 4), dtype=bool)  # oversized on purpose
        view = containment_matrix(subs, supers, out=out)
        assert view.shape == fresh.shape
        np.testing.assert_array_equal(view, fresh)

    def test_undersized_out_rejected(self):
        subs = sorted_blocks([[1], [2]])
        supers = sorted_blocks([[1, 2]])
        with pytest.raises(ValidationError):
            containment_matrix(subs, supers, out=np.empty((1, 1), dtype=bool))

    def test_all_mismatch_early_exit_still_correct(self):
        # Every pair mismatches in word 0, exercising the saturation
        # early-exit before later words are touched.
        subs = sorted_blocks([[0], [1]])
        supers = sorted_blocks([[50], [51]])
        got = containment_matrix(subs, supers)
        assert not got.any()
