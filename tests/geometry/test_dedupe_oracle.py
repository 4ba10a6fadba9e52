"""``dedupe_points`` (one lexsort) against ``np.unique(axis=0)``."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.primitives import dedupe_points
from tests import oracles


@st.composite
def integer_cloud(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=80))
    rows = draw(st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=d,
                 max_size=d),
        min_size=n, max_size=n))
    return np.asarray(rows, dtype=np.float64)


@st.composite
def rotated_cloud(draw):
    """Lattice points under a random rotation, with repeated rows."""
    d = draw(st.sampled_from([2, 3]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    pts = rng.integers(-20, 20, size=(draw(st.integers(2, 60)), d))
    rot, _ = np.linalg.qr(rng.normal(size=(d, d)))
    cloud = pts.astype(np.float64) @ rot
    repeats = rng.integers(0, cloud.shape[0], size=cloud.shape[0] // 2)
    cloud = np.vstack([cloud, cloud[repeats]])
    return cloud[rng.permutation(cloud.shape[0])]


def _assert_same(pts):
    got = dedupe_points(pts)
    expect = oracles.dedupe_points(pts)
    assert got.dtype == expect.dtype
    assert got.shape == expect.shape
    assert np.array_equal(got, expect)
    return got


@given(pts=integer_cloud())
@settings(max_examples=200, deadline=None)
def test_integer_clouds(pts):
    _assert_same(pts)


@given(pts=integer_cloud())
@settings(max_examples=50, deadline=None)
def test_integer_dtype_clouds(pts):
    _assert_same(pts.astype(np.int64))


@given(pts=rotated_cloud())
@settings(max_examples=200, deadline=None)
def test_rotated_float_clouds(pts):
    _assert_same(pts)


@given(pts=integer_cloud(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_signed_zeros(pts, seed):
    """-0.0 and 0.0 are one value: the rows dedupe together.  Which sign
    survives is unspecified for ``np.unique``; the kept row is the first
    occurrence here (the lexsort is stable)."""
    rng = np.random.default_rng(seed)
    flip = (pts == 0) & (rng.random(pts.shape) < 0.5)
    pts = np.where(flip, -0.0, pts)
    got = _assert_same(pts)
    for row in got:
        assert (pts == row).all(axis=1).any()


def test_single_row_and_all_duplicates():
    one = np.array([[1.0, 2.0]])
    assert np.array_equal(dedupe_points(one), one)
    same = np.repeat(one, 5, axis=0)
    assert np.array_equal(dedupe_points(same), one)
