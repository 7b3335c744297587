"""``structural_delta`` against the dense reference formula.

The implementation computes MIA's second-order term ``A^2 · 1`` as two
mat-vecs, ``A (A 1)``.  The oracle below keeps the paper's literal form,
``(A_t^2 - A_{t-1}^2) · 1`` with two N×N matrix products.  For 0/1
adjacency every intermediate is an integer far below 2^53, so the two
must agree byte for byte, not just to a tolerance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import OcclusionGraphConverter, structural_delta


def dense_structural_delta(current, previous):
    """Reference oracle: ``[1 || (A_t - A_{t-1}) 1 || (A_t^2 - A_{t-1}^2) 1]``."""
    current = np.asarray(current, dtype=np.float64)
    previous = np.asarray(previous, dtype=np.float64)
    ones = np.ones(current.shape[0])
    e1 = (current - previous) @ ones
    e2 = (current @ current - previous @ previous) @ ones
    return np.column_stack([ones, e1, e2])


def random_adjacency(rng, n, density, symmetric):
    """A 0/1 float adjacency with an empty diagonal."""
    adjacency = rng.random((n, n)) < density
    if symmetric:
        adjacency = np.triu(adjacency, 1)
        adjacency = adjacency | adjacency.T
    np.fill_diagonal(adjacency, False)
    return adjacency.astype(np.float64)


@st.composite
def adjacency_pairs(draw, max_users=64):
    n = draw(st.integers(1, max_users))
    symmetric = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]))
    return (random_adjacency(rng, n, density, symmetric),
            random_adjacency(rng, n, rng.random(), symmetric))


def assert_matches_oracle(current, previous):
    assert np.array_equal(structural_delta(current, previous),
                          dense_structural_delta(current, previous))


@settings(max_examples=200, deadline=None)
@given(adjacency_pairs())
def test_random_01_pairs_match_the_dense_oracle(pair):
    current, previous = pair
    assert_matches_oracle(current, previous)
    assert_matches_oracle(previous, current)
    # t = 0: the previous adjacency is all-zero.
    assert_matches_oracle(current, np.zeros_like(current))


def test_paper_scale_pair_matches_the_dense_oracle():
    rng = np.random.default_rng(200)
    for symmetric in (True, False):
        current = random_adjacency(rng, 200, 0.5, symmetric)
        previous = random_adjacency(rng, 200, 0.5, symmetric)
        assert_matches_oracle(current, previous)


@st.composite
def position_pairs(draw, max_users=40):
    n = draw(st.integers(2, max_users))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([2.0, 8.0, 30.0]))
    first = rng.uniform(0, spread, size=(n, 2))
    step = draw(st.sampled_from([0.1, 1.0, spread]))
    return first, first + rng.normal(0, step, size=(n, 2))


@settings(max_examples=100, deadline=None)
@given(position_pairs(), st.integers(0, 39))
def test_occlusion_graphs_match_the_dense_oracle(pair, target):
    first, second = pair
    target %= len(first)
    converter = OcclusionGraphConverter()
    previous = converter.convert(first, target).adjacency_float()
    current = converter.convert(second, target).adjacency_float()
    assert_matches_oracle(current, previous)
