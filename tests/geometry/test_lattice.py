"""Unit + property tests for the point-cloud lattice-strip oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Hull
from tests.oracles import lattice_boundary_points


class TestLatticeBoundary:
    def test_dense_square_keeps_ring(self):
        pts = np.array(
            [[x, y] for x in range(5) for y in range(5)], dtype=float
        )
        out = lattice_boundary_points(pts)
        kept = {tuple(p) for p in out}
        assert (2, 2) not in kept  # interior removed
        assert (0, 0) in kept and (4, 4) in kept and (0, 2) in kept
        assert len(kept) == 25 - 9  # 3x3 interior stripped

    def test_sparse_points_all_kept(self):
        pts = np.array([[0, 0], [5, 5], [10, 0]], dtype=float)
        out = lattice_boundary_points(pts)
        assert {tuple(p) for p in out} == {(0, 0), (5, 5), (10, 0)}

    def test_tiny_input_passthrough(self):
        pts = np.array([[0, 0], [1, 1]], dtype=float)
        assert lattice_boundary_points(pts).shape == (2, 2)

    def test_non_integer_passthrough(self):
        pts = np.array([[0.5, 0.5], [1.5, 1.5], [0.5, 1.5], [2.5, 0.5],
                        [3.5, 3.5], [2.5, 2.5]], dtype=float)
        assert lattice_boundary_points(pts).shape == pts.shape

    def test_dense_cube_3d(self):
        pts = np.array(
            [[x, y, z] for x in range(4) for y in range(4) for z in range(4)],
            dtype=float,
        )
        out = lattice_boundary_points(pts)
        assert out.shape[0] == 64 - 8  # 2^3 interior cells removed

    @given(st.sets(
        st.tuples(st.integers(0, 10), st.integers(0, 10)),
        min_size=1, max_size=60,
    ))
    @settings(max_examples=80, deadline=None)
    def test_hull_unchanged_by_stripping(self, pts):
        """The optimization must never change the resulting hull."""
        arr = np.asarray(sorted(pts), dtype=float)
        full = Hull.from_points(arr)
        stripped = Hull.from_points(lattice_boundary_points(arr))
        probe = np.array(
            [[x, y] for x in range(-1, 12) for y in range(-1, 12)],
            dtype=float,
        )
        assert np.array_equal(
            full.contains(probe, tol=1e-6),
            stripped.contains(probe, tol=1e-6),
        )

    @given(st.sets(
        st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)),
        min_size=1, max_size=80,
    ))
    @settings(max_examples=30, deadline=None)
    def test_extreme_points_never_stripped_3d(self, pts):
        arr = np.asarray(sorted(pts), dtype=float)
        kept = {tuple(p) for p in lattice_boundary_points(arr)}
        # Componentwise extremes are always boundary points.
        for axis in range(3):
            lo = arr[arr[:, axis].argmin()]
            hi = arr[arr[:, axis].argmax()]
            assert tuple(lo) in kept
            assert tuple(hi) in kept
