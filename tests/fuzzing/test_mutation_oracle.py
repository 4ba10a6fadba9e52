"""Vectorized clip and mutation draws against the per-range oracles.

Campaigns must replay seed-for-seed, so the mutation operators are
compared on whole streams: the same children, bit for bit, and the RNG
left in the same state.
"""

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzzing import ParameterRange, ParameterSpace
from repro.fuzzing.clusters import Cluster
from repro.fuzzing.mutation import greedy_mutations, uniform_mutations
from tests import oracles


def _bits(values):
    """Exact float bit patterns, so 0.0 and -0.0 differ."""
    return [struct.pack("<d", x) for x in values]


@st.composite
def space_and_value(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    ranges, v = [], []
    for _ in range(n):
        integer = draw(st.booleans())
        a = draw(st.sampled_from([0.0, -0.0, -5.0, 3.0, 0.5, 127.0]))
        b = draw(st.sampled_from([0.0, -0.0, 5.0, 127.0, 2.5]))
        lo, hi = min(a, b), max(a, b)
        ranges.append(ParameterRange(lo, hi, integer=integer))
        v.append(draw(st.one_of(
            st.floats(allow_nan=False),
            st.sampled_from([0.0, -0.0, lo, hi, -lo, -hi, 2.5, -2.5, 0.5]),
        )))
    return ParameterSpace(tuple(ranges)), tuple(v)


@given(case=space_and_value())
@settings(max_examples=400, deadline=None)
def test_clip_matches_per_range_clip_bitwise(case):
    space, v = case
    got = space.clip(v)
    expect = oracles.clip(space, v)
    assert all(type(x) is float for x in got)
    assert _bits(got) == _bits(expect)


def test_signs_draw_matches_rng_choice():
    for seed in range(50):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for size in (1, 2, 3, 7):
            x = a.choice((-1.0, 1.0), size=(size,))
            y = np.array((-1.0, 1.0))[b.integers(0, 2, size=(size,))]
            assert x.dtype == y.dtype and np.array_equal(x, y)
        assert a.random() == b.random()


@st.composite
def mutation_case(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    hi = draw(st.sampled_from([15, 63, 127]))
    integer = draw(st.booleans())
    space = ParameterSpace.of(*[(0, hi)] * n, integer=integer)
    v = tuple(float(draw(st.integers(min_value=0, max_value=hi)))
              for _ in range(n))
    lo_d = draw(st.sampled_from([0.0, 1.0, 5.0]))
    dist = (lo_d, lo_d + draw(st.sampled_from([0.5, 10.0, 40.0])))
    reps = draw(st.integers(min_value=0, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return space, v, dist, reps, seed


def _assert_same_stream(run_new, run_old, seed):
    new_rng, old_rng = (np.random.default_rng(seed),
                        np.random.default_rng(seed))
    got, expect = run_new(new_rng), run_old(old_rng)
    assert len(got) == len(expect)
    for g, e in zip(got, expect):
        assert _bits(g) == _bits(e)
    assert new_rng.integers(0, 2**62) == old_rng.integers(0, 2**62)


@given(case=mutation_case())
@settings(max_examples=200, deadline=None)
def test_uniform_stream_matches_oracle(case):
    space, v, dist, reps, seed = case
    _assert_same_stream(
        lambda rng: uniform_mutations(v, space, dist, reps, rng),
        lambda rng: oracles.uniform_mutations(v, space, dist, reps, rng),
        seed)


@given(case=mutation_case(), offset=st.lists(
    st.floats(min_value=-40, max_value=40), min_size=4, max_size=4),
    target_distance=st.floats(min_value=0.0, max_value=200.0))
@settings(max_examples=200, deadline=None)
def test_greedy_stream_matches_oracle(case, offset, target_distance):
    space, v, dist, reps, seed = case
    # A zero offset puts v on the target center: the UNIFORM fallback.
    center = np.asarray(v) + np.asarray(offset[:len(v)])
    target = Cluster(center=center, useful=False)
    _assert_same_stream(
        lambda rng: greedy_mutations(v, space, target, target_distance,
                                     dist, reps, rng),
        lambda rng: oracles.greedy_mutations(v, space, target,
                                             target_distance, dist, reps,
                                             rng),
        seed)
