"""Cross-check Qhull against the from-scratch 3-D hull behind the Hull facade."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Hull
from tests.oracles import own_hull3d


@pytest.fixture
def own_backend():
    with own_hull3d():
        yield


points_3d = st.lists(
    st.tuples(*[st.integers(0, 12)] * 3),
    min_size=4, max_size=30,
).map(lambda pts: np.asarray(sorted(set(pts)), dtype=float))


class TestBackendEquivalence:
    def test_own_backend_selected(self, own_backend):
        corners = [[x, y, z] for x in (0, 2) for y in (0, 2) for z in (0, 2)]
        h = Hull.from_points(corners)
        assert h.volume == pytest.approx(8.0)

    @given(points_3d)
    @settings(max_examples=40, deadline=None)
    def test_same_containment_both_backends(self, pts):
        if pts.shape[0] < 4:
            return
        centered = pts - pts.mean(axis=0)
        if np.linalg.matrix_rank(centered, tol=1e-8) < 3:
            return
        probe = np.array(
            [[x, y, z] for x in range(0, 13, 3)
             for y in range(0, 13, 3) for z in range(0, 13, 3)],
            dtype=float,
        )
        qhull = Hull.from_points(pts).contains(probe, tol=1e-6)
        with own_hull3d():
            own = Hull.from_points(pts).contains(probe, tol=1e-6)
        assert np.array_equal(qhull, own)

    @given(points_3d)
    @settings(max_examples=30, deadline=None)
    def test_same_volume_both_backends(self, pts):
        if pts.shape[0] < 4:
            return
        centered = pts - pts.mean(axis=0)
        if np.linalg.matrix_rank(centered, tol=1e-8) < 3:
            return
        v1 = Hull.from_points(pts).volume
        with own_hull3d():
            v2 = Hull.from_points(pts).volume
        assert v1 == pytest.approx(v2, rel=1e-6, abs=1e-9)
