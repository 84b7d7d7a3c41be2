"""Unit tests for the shared containment primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom import ops
from repro.bloom.ops import containment_matrix, containment_pairs
from repro.errors import ValidationError

_ALL_ONES = 0xFFFFFFFFFFFFFFFF


def rows(*values):
    return np.array(values, dtype=np.uint64)


class TestContainmentMatrix:
    def test_basic(self):
        subs = rows([0b0011, 0, 0], [0b0100, 0, 0])
        supers = rows([0b0111, 0, 0], [0b0011, 0, 0])
        matrix = containment_matrix(subs, supers)
        assert matrix.tolist() == [[True, True], [True, False]]

    def test_zero_row_contained_everywhere(self):
        subs = rows([0, 0, 0])
        supers = rows([1, 2, 3], [0, 0, 0])
        assert containment_matrix(subs, supers).all()

    def test_multi_word_mismatch_detected(self):
        # mismatch only in the last word
        subs = rows([1, 1, 1])
        supers = rows([1, 1, 0])
        assert not containment_matrix(subs, supers)[0, 0]

    def test_empty_sides(self):
        empty = np.empty((0, 3), dtype=np.uint64)
        some = rows([1, 0, 0])
        assert containment_matrix(empty, some).shape == (0, 1)
        assert containment_matrix(some, empty).shape == (1, 0)

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            containment_matrix(np.zeros((2, 3), np.uint64), np.zeros((2, 2), np.uint64))
        with pytest.raises(ValidationError):
            containment_matrix(np.zeros(3, np.uint64), np.zeros((1, 3), np.uint64))

    def test_high_bit_handling(self):
        """Bit 63 of a word (sign bit of int64) must not confuse the check."""
        top = np.uint64(1) << np.uint64(63)
        subs = rows([top, 0, 0])
        supers = rows([top, 0, 0], [top >> np.uint64(1), 0, 0])
        matrix = containment_matrix(subs, supers)
        assert matrix.tolist() == [[True, False]]


def expected_pairs(subs, supers):
    return np.nonzero(containment_matrix(subs, supers))


def assert_same_pairs(got, want):
    assert got[0].dtype == want[0].dtype and got[1].dtype == want[1].dtype
    assert got[0].tolist() == want[0].tolist()
    assert got[1].tolist() == want[1].tolist()


# Words drawn from a few bits (sparse, so subsets occur) plus zero and
# all-ones, the extremes of both sides.
words = st.one_of(
    st.sampled_from([0, _ALL_ONES, 1 << 63]),
    st.integers(0, 15),
    st.integers(0, _ALL_ONES),
)


@st.composite
def block_arrays(draw):
    width = draw(st.integers(1, 4))
    n = draw(st.integers(0, 12))
    m = draw(st.integers(0, 8))
    subs = draw(st.lists(st.lists(words, min_size=width, max_size=width), min_size=n, max_size=n))
    supers = draw(st.lists(st.lists(words, min_size=width, max_size=width), min_size=m, max_size=m))
    return (
        np.array(subs, dtype=np.uint64).reshape(n, width),
        np.array(supers, dtype=np.uint64).reshape(m, width),
    )


class TestContainmentPairs:
    @settings(max_examples=200, deadline=None)
    @given(arrays=block_arrays())
    def test_equals_nonzero_of_matrix(self, arrays):
        """Same pairs, same row-major order."""
        subs, supers = arrays
        assert_same_pairs(containment_pairs(subs, supers), expected_pairs(subs, supers))

    def test_rows_beyond_one_tile_keep_order(self):
        """Rows past the first word-0 tile chunk come back offset and in order."""
        m = 16
        n = ops._TILE_CELLS // m + 3
        rng = np.random.default_rng(5)
        sparse = rng.integers(0, 1 << 8, size=(2, n, 2))
        subs = (sparse[0] & sparse[1]).astype(np.uint64)
        subs[-1] = 0  # contained in every query
        supers = rng.integers(0, 1 << 8, size=(m, 2)).astype(np.uint64)
        got = containment_pairs(subs, supers)
        assert got[0][-m:].tolist() == [n - 1] * m
        assert_same_pairs(got, expected_pairs(subs, supers))

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_mismatch_in_any_word_rejects(self, width):
        subs = np.zeros((width, width), dtype=np.uint64)
        subs[np.arange(width), np.arange(width)] = 1  # row w sets word w
        supers = np.ones((1, width), dtype=np.uint64)
        supers[0, width - 1] = 0  # only the last word lacks the bit
        rows, cols = containment_pairs(subs, supers)
        assert rows.tolist() == list(range(width - 1))
        assert cols.tolist() == [0] * (width - 1)

    def test_empty_sides(self):
        empty = np.empty((0, 3), dtype=np.uint64)
        some = rows([1, 0, 0])
        for subs, supers in ((empty, some), (some, empty), (empty, empty)):
            got = containment_pairs(subs, supers)
            assert got[0].size == got[1].size == 0
            assert_same_pairs(got, expected_pairs(subs, supers))

    def test_zero_word0_rows_are_verified_on_later_words(self):
        # Word 0 passes every pair, so later words decide alone.
        subs = rows([0, 0b01, 0], [0, 0b10, 0], [0, 0, 0])
        supers = rows([0, 0b01, 0], [0, 0b11, 0])
        got = containment_pairs(subs, supers)
        assert list(zip(*[a.tolist() for a in got])) == [(0, 0), (0, 1), (1, 1), (2, 0), (2, 1)]
        assert_same_pairs(got, expected_pairs(subs, supers))

    def test_all_ones_query_contains_every_row(self):
        subs = rows([_ALL_ONES, 5, 0], [0, 0, _ALL_ONES], [1 << 63, 0, 1])
        supers = rows([_ALL_ONES] * 3, [0, 0, 0])
        got = containment_pairs(subs, supers)
        assert got[0].tolist() == [0, 1, 2] and got[1].tolist() == [0, 0, 0]

    def test_shape_validation(self):
        for subs, supers in (
            (np.zeros((2, 3), np.uint64), np.zeros((2, 2), np.uint64)),
            (np.zeros(3, np.uint64), np.zeros((1, 3), np.uint64)),
        ):
            with pytest.raises(ValidationError):
                containment_matrix(subs, supers)
            with pytest.raises(ValidationError):
                containment_pairs(subs, supers)
