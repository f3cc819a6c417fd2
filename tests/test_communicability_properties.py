"""Property tests of the communicability side on generated step graphons:
the distance against the matrix-exponential oracle, its embedding identity
at full truncation, and the Laplacian heat content against the exponential
of the block Laplacian and its contraction bounds."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from graphondist import (  # noqa: E402
    IntervalSet,
    Partition,
    communicability_distance,
    communicability_embedding,
    degree,
    expm,
    heat_content,
    step,
)

PROPERTIES = settings(derandomize=True, max_examples=80, deadline=None)


@st.composite
def step_graphons(draw):
    """Step graphons on 1 to 10 blocks with non-uniform measures, zero
    entries and sometimes an isolated block."""
    n = draw(st.integers(1, 10))
    value = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    blocks = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            blocks[i, j] = blocks[j, i] = draw(value)
    if draw(st.booleans()):
        lone = draw(st.integers(0, n - 1))
        blocks[lone, :] = blocks[:, lone] = 0.0
    weights = np.array(draw(st.lists(st.floats(0.05, 2.0), min_size=n,
                                     max_size=n)))
    return step(Partition(weights / weights.sum()), blocks)


@st.composite
def interval_sets(draw, min_pieces=0):
    """Unions of up to three intervals, empty when ``min_pieces`` is 0 and
    no piece is drawn."""
    pieces = []
    for _ in range(draw(st.integers(min_pieces, 3))):
        a, b = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2,
                                    max_size=2)))
        if a < b:
            pieces.append((a, b))
    if min_pieces and not pieces:
        pieces.append((0.25, 0.5))
    return IntervalSet(tuple(pieces))


def orthogonal_remainder2(w, x, y) -> float:
    """Squared norm of the part of 1_X - 1_Y orthogonal to step
    functions."""
    mu = w.partition.measures
    diff = x.block_masses(w.partition) - y.block_masses(w.partition)
    f2 = x.measure + y.measure - 2.0 * x.intersection_measure(y)
    return max(0.0, f2 - float(np.sum(diff * diff / mu)))


def expm_distance(w, x, y) -> float:
    """sqrt(|e^{B/2} g|^2 + orth^2), with g the block masses of 1_X - 1_Y
    over sqrt(mu), by the library's scaling-and-squaring exponential."""
    root = np.sqrt(w.partition.measures)
    g = (x.block_masses(w.partition) - y.block_masses(w.partition)) / root
    image = expm(root[:, None] * w.blocks * root[None, :] / 2.0) @ g
    return math.sqrt(float(image @ image) + orthogonal_remainder2(w, x, y))


def expm_laplacian_heat(w, u, v, t) -> float:
    """<1_V, e^{-tL} 1_U> by the exponential of the (non-symmetric) block
    Laplacian diag(k) - A diag(mu), plus the decayed remainder."""
    mu = w.partition.measures
    um = u.block_masses(w.partition)
    vm = v.block_masses(w.partition)
    kv = degree(w).values
    lap = np.diag(kv) - w.blocks * mu[None, :]
    overlap = u.intersect(v).block_masses(w.partition)
    return (float(vm @ (expm(-t * lap) @ (um / mu)))
            + float(np.sum(np.exp(-t * kv) * (overlap - um * vm / mu))))


@PROPERTIES
@given(step_graphons(), interval_sets(), interval_sets())
def test_embedding_identity_at_full_truncation(w, x, y):
    d = communicability_distance(w, x, y)
    ex = communicability_embedding(w, x, w.size)
    ey = communicability_embedding(w, y, w.size)
    lhs = (float(np.sum((ex.coordinates - ey.coordinates) ** 2))
           + orthogonal_remainder2(w, x, y))
    assert abs(lhs - d * d) <= 1e-12 * max(1.0, d * d)


@PROPERTIES
@given(step_graphons(), interval_sets(), interval_sets())
def test_distance_is_zero_on_the_diagonal_and_symmetric(w, x, y):
    assert communicability_distance(w, x, x) == 0.0
    d = communicability_distance(w, x, y)
    assert abs(d - communicability_distance(w, y, x)) <= 1e-14 * max(1.0, d)


@PROPERTIES
@given(step_graphons(), interval_sets(), interval_sets())
def test_distance_matches_the_exponential(w, x, y):
    d = communicability_distance(w, x, y)
    assert abs(d - expm_distance(w, x, y)) <= 1e-12 * max(1.0, d)


@PROPERTIES
@given(step_graphons(), interval_sets(1), interval_sets(1),
       st.floats(0.0, 5.0))
def test_laplacian_heat_matches_the_exponential(w, u, v, t):
    got = heat_content(w, u, v, t, "laplacian")
    assert abs(got - expm_laplacian_heat(w, u, v, t)) <= 1e-12


@PROPERTIES
@given(step_graphons(), interval_sets(1), interval_sets(1),
       st.floats(0.0, 1e4))
def test_laplacian_heat_is_a_contraction(w, u, v, t):
    got = heat_content(w, u, v, t, "laplacian")
    assert -1e-12 <= got <= math.sqrt(u.measure * v.measure) + 1e-12
