"""PRL's flat-native debloat test against the point-cloud oracle.

``PeripheralRing.access_flat`` emits each face's flat offsets and sorts
them; the oracle builds every face as an ``(n, d)`` meshgrid and dedupes
with ``np.unique(axis=0)``.  Both must name the same cells, and the
audited ``run()`` must read them in the same order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arraymodel.layout import flatten_many
from repro.workloads import get_program
from tests import oracles


@st.composite
def prl_case(draw):
    ndim = draw(st.sampled_from([2, 3]))
    program = get_program(f"PRL{ndim}D")
    dims = tuple(draw(st.integers(min_value=8, max_value=40 if ndim == 2
                                  else 20)) for _ in range(ndim))
    band = program._valid_band(dims)
    valid = draw(st.booleans())
    v = []
    for d, (lo, hi) in zip(dims, band):
        if valid:
            x = draw(st.integers(min_value=lo, max_value=hi))
        else:
            # Random, zero-width, band-edge, Theta-edge, out-of-Theta and
            # non-integer components.
            x = draw(st.one_of(
                st.integers(min_value=-2, max_value=d // 2 + 1),
                st.sampled_from([0, lo - 1, lo, hi, hi + 1, d // 2 - 1,
                                 d // 2]),
                st.integers(min_value=lo, max_value=hi).map(
                    lambda w: w + 0.5),
            ))
        v.append(float(x))
    return program, dims, tuple(v)


@given(case=prl_case())
@settings(max_examples=300, deadline=None)
def test_access_matches_point_cloud_oracle(case):
    program, dims, v = case
    expect = oracles.prl_access_indices(program, v, dims)
    got = program.access_indices(v, dims)
    assert got.dtype == expect.dtype == np.int64
    assert got.shape == expect.shape
    assert np.array_equal(got, expect)
    flat = program.access_flat(v, dims)
    assert flat.dtype == np.int64
    if expect.size:
        assert np.array_equal(flat, flatten_many(expect, dims))
    else:
        assert flat.shape == (0,)


@given(case=prl_case())
@settings(max_examples=60, deadline=None)
def test_run_reads_oracle_points_in_order(case):
    program, dims, v = case
    reads = []
    n = program.run(reads.append, v, dims)
    expect = [tuple(int(x) for x in row)
              for row in oracles.prl_access_indices(program, v, dims)]
    assert n == len(expect)
    assert reads == expect

