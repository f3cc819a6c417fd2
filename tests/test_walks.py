"""Definition-level checks of the query-sized walks: the BFS kernel, the
support-twin quotient and reach doubling, against the queue BFS oracle."""

import math
import tracemalloc

import numpy as np

from graphondist import (
    UNREACHABLE,
    IntervalSet,
    Partition,
    SupportGraph,
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
from graphondist import connectivity
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


def panel_support(rng, k: int, connected: bool) -> np.ndarray:
    """Symmetric boolean support with exactly k distinct rows: paths with
    random chords and random self-loops; two of them and an isolated
    block unless connected."""
    while True:
        a = np.zeros((k, k), dtype=bool)
        cut = int(rng.integers(k // 4, 3 * k // 4))
        pieces = [(0, k)] if connected else [(0, cut), (cut, k - 1)]
        for lo, hi in pieces:
            idx = np.arange(lo, hi - 1)
            a[idx, idx + 1] = True
            m = hi - lo
            a[lo:hi, lo:hi] |= rng.random((m, m)) < 3.0 / m
        a |= a.T
        a[np.diag_indices(k)] = rng.random(k) < 0.3
        if not connected:
            a[k - 1, :] = a[:, k - 1] = False
        if np.unique(a, axis=0).shape[0] == k:
            return a


def with_twins(rng, a: np.ndarray, extra: int) -> np.ndarray:
    """The support on cells that repeat some of its blocks (support
    twins), in shuffled order."""
    labels = rng.permutation(np.concatenate(
        [np.arange(a.shape[0]), rng.integers(0, a.shape[0], extra)]))
    return a[np.ix_(labels, labels)]


def test_field_and_diameter_across_panel_edges(rng):
    # the walk runs on the support-twin quotient, so k is the number of
    # classes: one below, at and one above a panel, and two panels plus one
    for k in (255, 256, 257, 513):
        for connected in (True, False):
            cells = with_twins(rng, panel_support(rng, k, connected), 24)
            want = walk_oracle(cells)
            assert np.isfinite(want).all() == connected
            got = block_distance_matrix(SupportGraph(cells, 0.0))
            assert np.array_equal(got, want)
            assert diameter(lift(cells.astype(float))) == \
                (int(want.max()) if connected else UNREACHABLE)


def count_products(monkeypatch, adj) -> int:
    calls = []
    compose = connectivity._compose

    def counted(a, b):
        calls.append(a.shape)
        return compose(a, b)

    monkeypatch.setattr(connectivity, "_compose", counted)
    want = walk_oracle(adj)
    assert np.array_equal(block_distance_matrix(SupportGraph(adj, 0.0)), want)
    return len(calls)


def path_support(k: int) -> np.ndarray:
    a = np.zeros((k, k), dtype=bool)
    idx = np.arange(k - 1)
    a[idx, idx + 1] = a[idx + 1, idx] = True
    return a


def test_field_product_counts(monkeypatch):
    # a path of L + 1 blocks: level 1 is the support itself, levels 2..L
    # are one product each and the walk stops once every pair is reached
    for length in (2, 3, 10, 40, 300):
        assert count_products(monkeypatch, path_support(length + 1)) == \
            length - 1
    # two pieces: one closing product finds the last level empty
    for length, other in [(2, 2), (5, 3), (12, 30)]:
        a = np.zeros((length + other + 2,) * 2, dtype=bool)
        a[:length + 1, :length + 1] = path_support(length + 1)
        a[length + 1:, length + 1:] = path_support(other + 1)
        assert count_products(monkeypatch, a) == max(length, other)
    # a complete graph with self-loops is all reached at level 1
    assert count_products(monkeypatch, np.ones((7, 7), dtype=bool)) == 0
