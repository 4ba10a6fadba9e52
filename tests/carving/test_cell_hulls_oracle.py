"""Flat-native SPLIT + boundary strip + cell hulls against the oracle.

``Carver.build_cell_hulls`` works on sorted flat offsets; the oracle is
the point-cloud SPLIT with a per-cell lattice strip and
``Hull.from_points`` (``tests.oracles.cell_hulls``).  The hull lists must
match in count and order, and each hull bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arraymodel.layout import flatten_many, unflatten_many
from repro.carving import Carver, SimpleConvexCarver
from repro.fuzzing import CarveConfig
from repro.geometry import Hull
from repro.perf import PerfConfig
from repro.perf.bitmap import sorted_unique
from tests import oracles

#: Dense-bitmap membership, and a cap of 1 that forces the binary search.
MAX_CELLS = st.sampled_from([PerfConfig().bitmap_max_cells, 1])
CELL_SIZES = st.one_of(
    st.sampled_from([1.0, 2.0, 3.0, 4.0, 5.5, 7.3, 16.0]),
    st.floats(min_value=0.75, max_value=20.0),
)


@st.composite
def clouds(draw):
    """Sorted unique flat offsets: a few boxes plus scatter in a window.

    Boxes may be flat along one or two axes (planar and collinear cells)
    and are often pinned to the window edges.  Windows are 1-D to 4-D.
    """
    d = draw(st.sampled_from([1, 2, 3, 4]))
    dims = tuple(draw(st.integers(1, {1: 40, 2: 13, 3: 13, 4: 6}[d]))
                 for _ in range(d))
    parts = []
    for _ in range(draw(st.integers(0, 3))):
        lo = [draw(st.one_of(st.just(0), st.integers(0, n - 1)))
              for n in dims]
        hi = [draw(st.one_of(st.just(n - 1), st.integers(a, n - 1)))
              for a, n in zip(lo, dims)]
        for axis in draw(st.sets(st.integers(0, d - 1), max_size=2)):
            hi[axis] = lo[axis]
        grid = np.meshgrid(*[np.arange(a, b + 1) for a, b in zip(lo, hi)],
                           indexing="ij")
        parts.append(np.stack([g.reshape(-1) for g in grid], axis=1))
    scatter = draw(st.lists(
        st.tuples(*[st.integers(0, n - 1) for n in dims]),
        min_size=0 if parts else 1, max_size=25,
    ))
    if scatter:
        parts.append(np.asarray(scatter, dtype=np.int64).reshape(-1, d))
    flat = sorted_unique(flatten_many(np.concatenate(parts), dims))
    return dims, flat


def _assert_same_hulls(got, expect):
    assert len(got) == len(expect)
    for a, b in zip(got, expect):
        assert a.rank == b.rank
        assert a.n_points == b.n_points
        assert a.volume == b.volume
        assert np.array_equal(a.vertices, b.vertices)


@given(clouds(), CELL_SIZES, MAX_CELLS)
@settings(max_examples=200, deadline=None)
def test_cell_hulls_match_point_cloud_oracle(cloud, cell_size, max_cells):
    dims, flat = cloud
    config = CarveConfig(cell_size=cell_size,
                         perf=PerfConfig(bitmap_max_cells=max_cells))
    got = Carver(dims, config).build_cell_hulls(flat)
    points = unflatten_many(flat, dims).astype(np.float64)
    _assert_same_hulls(got, oracles.cell_hulls(points, cell_size))


@given(clouds(), MAX_CELLS)
@settings(max_examples=100, deadline=None)
def test_simple_convex_hull_matches_oracle(cloud, max_cells):
    dims, flat = cloud
    config = CarveConfig(perf=PerfConfig(bitmap_max_cells=max_cells))
    got = SimpleConvexCarver(dims, config).carve_flat(flat).hulls
    points = unflatten_many(flat, dims).astype(np.float64)
    expect = Hull.from_points(oracles.lattice_boundary_points(points))
    _assert_same_hulls(got, [expect])


def test_unsorted_input_with_duplicates_carves_like_sorted():
    dims = (16, 16)
    flat = np.array([37, 5, 200, 5, 0, 17, 18, 19, 33, 34, 35, 49, 50, 51])
    carver = Carver(dims, CarveConfig(cell_size=8))
    a = carver.carve_flat(flat)
    b = carver.carve_flat(np.unique(flat))
    assert np.array_equal(a.flat_indices, b.flat_indices)
    _assert_same_hulls(a.hulls, b.hulls)


def _plus(center, d):
    pts = [list(center)]
    for k in range(d):
        for sign in (-1, 1):
            p = list(center)
            p[k] += sign
            pts.append(p)
    return pts


def test_cells_of_at_most_2d_plus_1_points_are_not_stripped():
    """A plus of 2d + 1 points keeps its centre; one more point strips it,
    so both cells hull 2d + 1 points."""
    for d in (2, 3):
        dims = (12,) * d
        plus = _plus([2] * d, d)
        for pts in (plus, plus + [[4] * d]):
            flat = sorted_unique(flatten_many(np.asarray(pts), dims))
            carver = Carver(dims, CarveConfig(cell_size=6.0))
            got = carver.build_cell_hulls(flat)
            points = unflatten_many(flat, dims).astype(np.float64)
            _assert_same_hulls(got, oracles.cell_hulls(points, 6.0))
            assert [h.n_points for h in got] == [2 * d + 1]
