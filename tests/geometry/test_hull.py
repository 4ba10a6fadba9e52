"""Unit + property tests for the rank-aware Hull facade."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import Hull

points_2d = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)),
    min_size=1, max_size=40,
).map(lambda pts: np.asarray(pts, dtype=float))


class TestConstruction:
    def test_point_hull(self):
        h = Hull.from_points([[5.0, 7.0]])
        assert h.rank == 0
        assert h.volume == 0.0
        assert h.contains_point((5, 7))
        assert not h.contains_point((5, 8))

    def test_segment_hull(self):
        h = Hull.from_points([[0.0, 0.0], [4.0, 4.0], [2.0, 2.0]])
        assert h.rank == 1
        assert h.is_degenerate
        assert h.contains_point((1, 1))
        assert h.contains_point((3, 3))
        assert not h.contains_point((1, 2))
        assert not h.contains_point((5, 5))

    def test_full_rank_2d(self):
        h = Hull.from_points([[0, 0], [4, 0], [4, 4], [0, 4]])
        assert h.rank == 2
        assert not h.is_degenerate
        assert h.volume == pytest.approx(16.0)
        assert np.allclose(h.centroid, [2, 2])

    def test_full_rank_3d(self):
        corners = [[x, y, z] for x in (0, 2) for y in (0, 2) for z in (0, 2)]
        h = Hull.from_points(corners)
        assert h.rank == 3
        assert h.volume == pytest.approx(8.0)
        assert h.contains_point((1, 1, 1))
        assert not h.contains_point((3, 1, 1))

    def test_plane_in_3d(self):
        plane = [[x, y, 5] for x in range(4) for y in range(4)]
        h = Hull.from_points(plane)
        assert h.rank == 2
        assert h.ndim == 3
        assert h.contains_point((1.5, 2.0, 5.0))
        assert not h.contains_point((1.5, 2.0, 5.5))

    def test_4d_hull_via_qhull(self):
        rng = np.random.default_rng(3)
        pts = rng.integers(0, 5, size=(40, 4)).astype(float)
        h = Hull.from_points(pts)
        assert h.ndim == 4
        assert h.contains(pts).all()

    def test_empty_rejected(self):
        with pytest.raises(GeometryError):
            Hull.from_points(np.empty((0, 2)))

    def test_bounding_box(self):
        h = Hull.from_points([[1, 2], [5, 2], [3, 9]])
        lo, hi = h.bounding_box()
        assert lo.tolist() == [1, 2]
        assert hi.tolist() == [5, 9]


class TestDistances:
    def test_center_distance(self):
        a = Hull.from_points([[0, 0], [2, 0], [2, 2], [0, 2]])
        b = Hull.from_points([[10, 0], [12, 0], [12, 2], [10, 2]])
        assert a.center_distance(b) == pytest.approx(10.0)

    def test_boundary_distance_is_min_vertex_pair(self):
        a = Hull.from_points([[0, 0], [2, 0], [2, 2], [0, 2]])
        b = Hull.from_points([[5, 0], [7, 0], [7, 2], [5, 2]])
        assert a.boundary_distance(b) == pytest.approx(3.0)

    def test_degenerate_distances(self):
        a = Hull.from_points([[0.0, 0.0]])
        b = Hull.from_points([[3.0, 4.0]])
        assert a.center_distance(b) == pytest.approx(5.0)
        assert a.boundary_distance(b) == pytest.approx(5.0)


class TestMerge:
    def test_merge_covers_both(self):
        a = Hull.from_points([[0, 0], [2, 0], [2, 2], [0, 2]])
        b = Hull.from_points([[4, 4], [6, 4], [6, 6], [4, 6]])
        m = a.merge(b)
        assert m.contains_point((1, 1))
        assert m.contains_point((5, 5))
        assert m.contains_point((3, 3))  # sandwiched space now included
        assert m.n_points == a.n_points + b.n_points

    def test_merge_point_into_polygon(self):
        a = Hull.from_points([[0, 0], [2, 0], [2, 2], [0, 2]])
        b = Hull.from_points([[10.0, 10.0]])
        m = a.merge(b)
        assert m.rank == 2
        assert m.contains_point((5, 5))

    def test_merge_dimension_mismatch(self):
        a = Hull.from_points([[0, 0], [1, 0], [0, 1]])
        b = Hull.from_points([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(GeometryError):
            a.merge(b)

    def test_merge_two_segments_makes_polygon(self):
        a = Hull.from_points([[0.0, 0.0], [4.0, 0.0]])
        b = Hull.from_points([[0.0, 3.0], [4.0, 3.0]])
        m = a.merge(b)
        assert m.rank == 2
        assert m.contains_point((2.0, 1.5))

    @given(points_2d, points_2d)
    @settings(max_examples=60, deadline=None)
    def test_merge_equivalent_to_union_hull(self, pa, pb):
        """Paper: merging via vertex union == hull of all original points."""
        a = Hull.from_points(pa)
        b = Hull.from_points(pb)
        merged = a.merge(b)
        direct = Hull.from_points(np.vstack([pa, pb]))
        probe = np.array(
            [[x, y] for x in range(0, 31, 3) for y in range(0, 31, 3)],
            dtype=float,
        )
        assert np.array_equal(
            merged.contains(probe, tol=1e-6), direct.contains(probe, tol=1e-6)
        )


class TestContainsProperties:
    @given(points_2d)
    @settings(max_examples=80, deadline=None)
    def test_input_points_always_contained(self, pts):
        h = Hull.from_points(pts)
        assert h.contains(pts, tol=1e-6).all()

    @given(points_2d)
    @settings(max_examples=60, deadline=None)
    def test_centroid_contained(self, pts):
        h = Hull.from_points(pts)
        assert h.contains(h.centroid.reshape(1, -1), tol=1e-6)[0]

    def test_hash_and_eq(self):
        a = Hull.from_points([[0, 0], [1, 0], [0, 1]])
        b = Hull.from_points([[0, 0], [1, 0], [0, 1]])
        c = Hull.from_points([[0, 0], [2, 0], [0, 2]])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2


class TestPlanarLatticeRectangle:
    @pytest.mark.xfail(strict=True, reason=(
        "monotone_chain lexsorts SVD-projected coordinates that carry "
        "~1e-15 noise, so one lattice column is interleaved: the true "
        "corners are dropped and collinear edge points kept (8 vertices). "
        "Fixing it changes carved_flat and needs a digest refresh."))
    def test_rectangle_in_3d_has_four_corners_and_contains_itself(self):
        pts = np.array([[x, 5, z] for x in range(16) for z in range(15)],
                       dtype=float)
        h = Hull.from_points(pts)
        assert h.rank == 2
        assert h.vertices.shape[0] == 4
        assert h.contains(pts).all()
