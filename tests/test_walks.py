"""Definition-level checks of the query-sized walks: the BFS kernel, the
support-twin quotient and reach doubling, against the queue BFS oracle."""

import math
import tracemalloc

import numpy as np

from graphondist import (
    UNREACHABLE,
    IntervalSet,
    Partition,
    block_distance_matrix,
    circular_band_graphon,
    diameter,
    distance_field,
    is_connected,
    lift,
    set_distance,
    step,
    support_graph,
    to_grid,
    varadhan_distance,
)
from conftest import bfs_oracle


def twin_graphon(rng):
    """Random step graphon whose blocks repeat a smaller base kernel (support
    twins), with random self-loops, sometimes an isolated base block and
    sometimes two disconnected pieces."""
    k = int(rng.integers(1, 9))
    vals = rng.random((k, k)) * (rng.random((k, k)) < rng.uniform(0.1, 0.7))
    vals = np.triu(vals)
    vals = vals + np.triu(vals, 1).T
    if k > 1 and rng.random() < 0.3:
        cut = int(rng.integers(1, k))
        vals[:cut, cut:] = vals[cut:, :cut] = 0.0
    if rng.random() < 0.3:
        lone = rng.integers(0, k)
        vals[lone, :] = vals[:, lone] = 0.0
    labels = rng.integers(0, k, int(rng.integers(1, 25)))
    mu = rng.uniform(0.5, 1.5, labels.size)
    return step(Partition(mu / mu.sum()), vals[np.ix_(labels, labels)])


def walk_oracle(adj) -> np.ndarray:
    """Least m >= 1 with a length-m walk: queue BFS off the diagonal, and
    on it 1 with a self-loop, 2 with any neighbour, else unreachable."""
    d = bfs_oracle(adj)
    n = adj.shape[0]
    for i in range(n):
        if adj[i, i]:
            d[i, i] = 1.0
        elif any(adj[i, j] for j in range(n) if j != i):
            d[i, i] = 2.0
        else:
            d[i, i] = math.inf
    return d


def random_interval_set(rng):
    pieces = []
    for _ in range(int(rng.integers(1, 3))):
        a, b = sorted(rng.random(2))
        if b > a:
            pieces.append((float(a), float(b)))
    return IntervalSet(tuple(pieces or [(0.25, 0.5)]))


def test_block_distance_matrix_matches_oracle_on_twin_graphons(rng):
    for _ in range(80):
        w = twin_graphon(rng)
        s = support_graph(w)
        assert np.array_equal(block_distance_matrix(s), walk_oracle(s.matrix))


def test_point_queries_match_the_field(rng):
    for _ in range(40):
        w = twin_graphon(rng)
        x = rng.random(12)
        y = rng.random(12)
        x[:2] = y[:2]
        fld = distance_field(w)
        got = varadhan_distance(w, x[:, None], y[None, :])
        assert np.array_equal(got, fld.pointwise(x[:, None], y[None, :]))
        assert varadhan_distance(w, float(x[3]), float(y[5])) == \
            fld.pointwise(float(x[3]), float(y[5]))


def test_set_distance_is_minimum_over_touched_block_pairs(rng):
    checked = 0
    for _ in range(60):
        w = twin_graphon(rng)
        u, v = random_interval_set(rng), random_interval_set(rng)
        if u.intersection_measure(v) > 0.0:
            continue
        walks = walk_oracle(support_graph(w).matrix)
        ub = u.block_masses(w.partition) > 0.0
        vb = v.block_masses(w.partition) > 0.0
        want = float(walks[np.ix_(ub, vb)].min())
        assert set_distance(w, u, v) == want
        checked += 1
    assert checked >= 10


def test_diameter_and_connectivity_follow_the_field(rng):
    outcomes = set()
    for _ in range(80):
        w = twin_graphon(rng)
        walks = walk_oracle(support_graph(w).matrix)
        finite = bool(np.isfinite(walks).all())
        outcomes.add(finite)
        assert diameter(w) == (int(walks.max()) if finite else UNREACHABLE)
        assert is_connected(w) == finite
    assert outcomes == {True, False}


def test_diameter_reach_doubling_on_paths():
    # paths of k blocks have diameter k - 1 (or 2 for k <= 2): every
    # combination of doubling and descending steps up to 2^7 is exercised
    for k in list(range(1, 40)) + [64, 65, 127, 128, 129]:
        a = np.zeros((k, k))
        idx = np.arange(k - 1)
        a[idx, idx + 1] = a[idx + 1, idx] = 1.0
        want = walk_oracle(a > 0.0).max()
        assert diameter(lift(a)) == (int(want) if math.isfinite(want)
                                     else UNREACHABLE)


def test_twin_rich_grid_field_matches_its_step_source():
    # a 6-cycle rendered on 600 cells has 6 support classes
    a = np.roll(np.eye(6), 1, axis=0) + np.roll(np.eye(6), -1, axis=0)
    fld = distance_field(to_grid(lift(a), 600))
    cells = np.arange(600) // 100
    assert np.array_equal(fld.matrix, walk_oracle(a > 0.0)[np.ix_(cells, cells)])


def test_point_query_allocates_less_than_a_field():
    w = circular_band_graphon(1 / 7, 2048)
    varadhan_distance(w, 0.1, 0.6)  # warm numpy before tracing
    tracemalloc.start()
    try:
        assert varadhan_distance(w, 0.1, 0.6) == 4
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2048 * 2048 * 8  # one n x n float64 field: 32 MB
