"""The Python-float monotone chain against the numpy-scalar oracle.

Both run the same algorithm in IEEE doubles, so the hulls must be equal
bit for bit, also on the noisy coordinates that projecting a planar 3-D
cloud onto its SVD basis produces (where a one-ulp difference in a cross
product would flip a turn test).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import monotone_chain
from repro.geometry.primitives import affine_basis, project_to_subspace
from tests import oracles


def _assert_same(coords):
    got = monotone_chain(coords)
    expect = oracles.monotone_chain(coords)
    assert got.dtype == expect.dtype
    assert np.array_equal(got, expect)


@given(st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
                min_size=1, max_size=80))
@settings(max_examples=150, deadline=None)
def test_integer_clouds(pts):
    _assert_same(np.asarray(pts, dtype=float))


@given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_float_clouds(pts):
    _assert_same(np.asarray(pts, dtype=float))


@given(st.integers(0, 2), st.integers(0, 40),
       st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)),
                min_size=3, max_size=120),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_projected_planar_clouds(axis, level, uv, dense):
    """Axis-aligned planes in 3-D, hulled in SVD coordinates (noisy)."""
    uv = np.asarray(uv, dtype=float)
    if dense:  # a full lattice rectangle spanning the drawn points
        lo, hi = uv.min(axis=0).astype(int), uv.max(axis=0).astype(int)
        uv = np.array([[u, v] for u in range(lo[0], hi[0] + 1)
                       for v in range(lo[1], hi[1] + 1)], dtype=float)
    pts = np.insert(uv, axis, float(level), axis=1)
    origin, basis, rank = affine_basis(pts)
    if rank != 2:
        return
    _assert_same(project_to_subspace(pts, origin, basis))


def test_collinear_and_tiny_inputs():
    _assert_same(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
    _assert_same(np.array([[3.0, 7.0]]))
    _assert_same(np.array([[0.0, 0.0], [1.0, 1.0]]))
    _assert_same(np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]))
