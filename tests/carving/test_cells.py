"""Unit tests for the point-cloud SPLIT oracle of Algorithm 2."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from tests.oracles import split_into_cells


class TestSplit:
    def test_basic_grouping(self):
        pts = np.array([[0, 0], [1, 1], [17, 0], [0, 17]], dtype=float)
        cells = split_into_cells(pts, 16.0)
        assert set(cells) == {(0, 0), (1, 0), (0, 1)}
        assert cells[(0, 0)].shape == (2, 2)

    def test_empty_cells_absent(self):
        pts = np.array([[0, 0], [100, 100]], dtype=float)
        cells = split_into_cells(pts, 10.0)
        assert len(cells) == 2

    def test_boundary_point_goes_to_upper_cell(self):
        cells = split_into_cells(np.array([[16.0, 0.0]]), 16.0)
        assert set(cells) == {(1, 0)}

    def test_empty_input_rejected(self):
        with pytest.raises(GeometryError):
            split_into_cells(np.empty((0, 2)), 16.0)

    def test_bad_cell_size(self):
        with pytest.raises(GeometryError):
            split_into_cells(np.array([[0.0, 0.0]]), 0.0)

    def test_3d(self):
        pts = np.array([[0, 0, 0], [9, 9, 9], [10, 0, 0]], dtype=float)
        cells = split_into_cells(pts, 10.0)
        assert set(cells) == {(0, 0, 0), (1, 0, 0)}
        assert cells[(0, 0, 0)].shape == (2, 3)

    @given(st.lists(
        st.tuples(st.integers(0, 99), st.integers(0, 99)),
        min_size=1, max_size=200,
    ), st.integers(1, 40))
    @settings(max_examples=60)
    def test_partition_property(self, pts, cell_size):
        """Cells exactly partition the input points."""
        arr = np.asarray(pts, dtype=float)
        cells = split_into_cells(arr, float(cell_size))
        total = sum(c.shape[0] for c in cells.values())
        assert total == arr.shape[0]
        for key, members in cells.items():
            expect = np.floor(members / cell_size).astype(int)
            assert (expect == np.asarray(key)).all()
