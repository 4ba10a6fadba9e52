"""Bitmap set operations must be bit-identical to the np.unique paths."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf.bitmap import (
    FlatBitmap,
    box_flat_indices,
    make_accumulator,
    ragged_aranges,
    sorted_unique,
    union_flat,
    unique_flat,
)


class TestUniqueFlat:
    @given(
        flat=st.lists(st.integers(min_value=0, max_value=499), max_size=200),
        max_cells=st.sampled_from([1, 100, 1 << 20]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_np_unique(self, flat, max_cells):
        arr = np.asarray(flat, dtype=np.int64)
        got = unique_flat(arr, 500, max_cells=max_cells)
        assert np.array_equal(got, np.unique(arr))
        assert got.dtype == np.int64

    def test_empty(self):
        assert unique_flat(np.empty(0, dtype=np.int64), 10).size == 0


class TestUnionFlat:
    def test_matches_union1d(self):
        rng = np.random.default_rng(7)
        parts = [rng.integers(0, 300, size=rng.integers(0, 50))
                 for _ in range(5)]
        expect = np.unique(np.concatenate(parts))
        for max_cells in (1, 1 << 20):
            got = union_flat(parts, 300, max_cells=max_cells)
            assert np.array_equal(got, expect)

    def test_all_empty(self):
        assert union_flat([np.empty(0, dtype=np.int64)], 10).size == 0
        assert union_flat([], 10).size == 0


class TestSortedUnique:
    @given(values=st.lists(st.integers(min_value=-(2**62), max_value=2**62),
                           max_size=200),
           dupes=st.integers(min_value=0, max_value=3))
    @settings(max_examples=80, deadline=None)
    def test_matches_np_unique(self, values, dupes):
        arr = np.asarray(values * (dupes + 1), dtype=np.int64)
        got = sorted_unique(arr)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.unique(arr))

    def test_flattens_and_copies(self):
        arr = np.array([[3, 1], [3, 2]], dtype=np.int64)
        got = sorted_unique(arr)
        assert np.array_equal(got, [1, 2, 3])
        got[0] = 99
        assert arr.min() == 1

    def test_empty_and_singleton(self):
        assert sorted_unique(np.empty(0, dtype=np.int64)).shape == (0,)
        assert np.array_equal(sorted_unique([5]), [5])


class TestAccumulators:
    def test_both_flavors_agree(self):
        rng = np.random.default_rng(11)
        batches = [rng.integers(0, 1000, size=200) for _ in range(4)]
        dense = make_accumulator(1000, max_cells=1 << 20)
        keyed = make_accumulator(1000, max_cells=10)  # force key fallback
        for b in batches:
            dense.add(b)
            keyed.add(b)
        expect = np.unique(np.concatenate(batches))
        assert np.array_equal(dense.to_sorted(), expect)
        assert np.array_equal(keyed.to_sorted(), expect)

    def test_empty_accumulators(self):
        assert make_accumulator(10).to_sorted().size == 0
        assert make_accumulator(10, max_cells=1).to_sorted().size == 0

    def test_flat_bitmap(self):
        bm = FlatBitmap(20)
        bm.add(np.array([5, 3, 5]))
        bm.add(np.empty(0, dtype=np.int64))
        assert np.array_equal(bm.to_sorted(), [3, 5])

    @given(
        spans=st.lists(
            st.tuples(st.integers(min_value=0, max_value=49),
                      st.integers(min_value=-3, max_value=49)),
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_add_spans_matches_naive(self, spans):
        starts = np.array([s for s, _ in spans], dtype=np.int64)
        ends = np.array([min(s + e, 49) for s, e in spans], dtype=np.int64)
        bm = FlatBitmap(50)
        bm.add_spans(starts, ends)
        expect = sorted({
            z for s, e in zip(starts, ends) for z in range(s, e + 1)
        })
        assert np.array_equal(bm.to_sorted(), expect)
        # Key accumulator must agree.
        key = make_accumulator(50, max_cells=1)
        key.add_spans(starts, ends)
        assert np.array_equal(key.to_sorted(), expect)

    def test_add_box_matches_scatter(self):
        dims = (4, 5, 6)
        lo, hi = (1, 0, 2), (2, 4, 5)
        pts = np.array([
            (x, y, z)
            for x in range(lo[0], hi[0] + 1)
            for y in range(lo[1], hi[1] + 1)
            for z in range(lo[2], hi[2] + 1)
        ])
        from repro.arraymodel.layout import flatten_many

        expect = flatten_many(pts, dims)
        for max_cells in (1, 1 << 20):
            acc = make_accumulator(int(np.prod(dims)), max_cells=max_cells,
                                   dims=dims)
            acc.add_box(lo, hi)
            assert np.array_equal(acc.to_sorted(), np.sort(expect))

    def test_add_box_without_dims_raises(self):
        import pytest

        with pytest.raises(ValueError):
            make_accumulator(10).add_box((0,), (1,))


class TestRaggedAranges:
    @given(
        pairs=st.lists(
            st.tuples(st.integers(min_value=-5, max_value=20),
                      st.integers(min_value=0, max_value=6)),
            max_size=10,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_concatenated_aranges(self, pairs):
        starts = np.array([s for s, _ in pairs], dtype=np.int64)
        lengths = np.array([n for _, n in pairs], dtype=np.int64)
        got = ragged_aranges(starts, lengths)
        expect = np.concatenate(
            [np.arange(s, s + n) for s, n in pairs] or
            [np.empty(0, dtype=np.int64)]
        )
        assert np.array_equal(got, expect)

    def test_box_flat_indices_row_major(self):
        strides = np.array([6, 1], dtype=np.int64)
        got = box_flat_indices((1, 2), (2, 3), strides)
        assert np.array_equal(got, [8, 9, 14, 15])
