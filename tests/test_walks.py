"""Definition-level checks of the walks: the BFS kernel, the support-twin
quotient and the diameter read from its levels, against the queue BFS
oracle, and what a graphon keeps of its walks."""

import dataclasses
import gc
import math
import os
import tracemalloc
import weakref

import numpy as np
import pytest

from graphondist import (
    GRID_EPSILON,
    STEP_EPSILON,
    UNREACHABLE,
    IntervalSet,
    Partition,
    SupportGraph,
    ValidationError,
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
from graphondist import DistanceField, connectivity, core
from conftest import bfs_oracle, cycle_adjacency


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


def walk_oracle(adj, sources=None) -> np.ndarray:
    """Least m >= 1 with a length-m walk: queue BFS off the diagonal, and
    on it 1 with a self-loop, 2 with any neighbour, else unreachable.  One
    row per source (every vertex by default)."""
    n = adj.shape[0]
    sources = range(n) if sources is None else list(sources)
    d = bfs_oracle(adj, sources)
    for row, i in enumerate(sources):
        if adj[i, i]:
            d[row, i] = 1.0
        elif any(adj[i, j] for j in range(n) if j != i):
            d[row, i] = 2.0
        else:
            d[row, i] = math.inf
    return d


def kept_walk(w, eps=None):
    """The walk a graphon keeps at a threshold, or None; unlike
    ``connectivity._walk`` this never walks."""
    return connectivity._WALKS.get(w, {}).get(
        connectivity._threshold(w, eps))


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


def test_diameter_on_paths():
    # paths of k blocks have diameter k - 1 (or 2 for k <= 2): every
    # diameter up to 38, then 63-64 and 126-128
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
    # the cold first query keeps the k x k class levels of the whole
    # field, but never builds an n x n float field
    varadhan_distance(circular_band_graphon(1 / 7, 64), 0.1, 0.6)  # warm numpy
    w = circular_band_graphon(1 / 7, 2048)
    assert kept_walk(w) is None
    tracemalloc.start()
    try:
        assert varadhan_distance(w, 0.1, 0.6) == 4
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    walk = kept_walk(w)
    assert walk is not None and walk.diameter == 4
    assert walk.levels.shape == (2048, 2048) and walk.levels.dtype == np.uint8
    assert peak < 2048 * 2048 * 8  # one n x n float64 field: 32 MB


def test_points_are_located_before_the_walk(monkeypatch):
    # a point outside [0, 1] (or not a number) is rejected before the
    # whole walk runs, so the graphon walks nothing and keeps nothing
    w = circular_band_graphon(1 / 7, 64)
    calls = counting_steps(monkeypatch)
    for x, y in ((1.5, 0.5), (0.5, np.array([0.2, -0.1])), ("0.1", 0.6),
                 (0.1, [0.6, "x"])):
        with pytest.raises(ValidationError):
            varadhan_distance(w, x, y)
        assert w not in connectivity._WALKS
    assert calls == {"packed": 0, "table": 0}
    assert varadhan_distance(w, 0.1, 0.6) == 4
    assert kept_walk(w) is not None and calls["table"] + calls["packed"] > 0


def distinct_support(rng, k: int, connected: bool) -> np.ndarray:
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
    # classes: one below, at and one above 256, and 513, whose last word
    # and last table group are ragged
    for k in (255, 256, 257, 513):
        for connected in (True, False):
            cells = with_twins(rng, distinct_support(rng, k, connected), 24)
            want = walk_oracle(cells)
            assert np.isfinite(want).all() == connected
            got = block_distance_matrix(SupportGraph(cells, 0.0))
            assert np.array_equal(got, want)
            assert diameter(lift(cells.astype(float))) == \
                (int(want.max()) if connected else UNREACHABLE)


def counting_steps(monkeypatch) -> dict:
    """Count the products of each kind from now on."""
    calls = {"packed": 0, "table": 0}
    packed, table = connectivity._packed_step, connectivity._table_step

    def counted_packed(a, b):
        calls["packed"] += 1
        return packed(a, b)

    def counted_table(a, b):
        calls["table"] += 1
        return table(a, b)

    monkeypatch.setattr(connectivity, "_packed_step", counted_packed)
    monkeypatch.setattr(connectivity, "_table_step", counted_table)
    return calls


def count_steps(monkeypatch, adj, want=None) -> dict:
    """Products of each kind the whole field of ``adj`` takes; the field
    must equal ``want`` (the walk oracle by default)."""
    want = walk_oracle(adj) if want is None else want
    with monkeypatch.context() as m:
        calls = counting_steps(m)
        got = block_distance_matrix(SupportGraph(adj, 0.0))
    assert np.array_equal(got, want)
    return calls


def count_products(monkeypatch, adj) -> int:
    return sum(count_steps(monkeypatch, adj).values())


def table_field(monkeypatch, adj) -> np.ndarray:
    """The field by table steps alone."""
    with monkeypatch.context() as m:
        choose_steps(m, "table")
        return block_distance_matrix(SupportGraph(adj, 0.0))


def relabelled(adj: np.ndarray) -> np.ndarray:
    """``adj`` with its cells relabelled by a fixed non-affine
    permutation: an isomorphic support, so its whole walk has the same
    level sizes and takes the same steps, but not a circulant one, so it
    is walked whole, not from one row."""
    p = np.random.default_rng(11).permutation(adj.shape[0])
    out = adj[np.ix_(p, p)]
    assert not np.array_equal(out, connectivity._rotations(out[0]))
    return out


def band_support(n: int = 512) -> np.ndarray:
    """The support of the band tau = 1/7 on n cells: circulant, n distinct
    rows, four levels of 2/7 of the pairs each."""
    return support_graph(circular_band_graphon(1 / 7, n)).matrix


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


def test_field_step_kinds_follow_the_frontier(monkeypatch, rng):
    # a long path is thin on every level: only packed steps
    assert count_steps(monkeypatch, path_support(301)) == \
        {"packed": 299, "table": 0}
    # band tau = 1/7 on 512 cells, relabelled so that it is walked whole:
    # four levels, each 2/7 of the pairs
    fat = relabelled(band_support())
    assert count_steps(monkeypatch, fat, table_field(monkeypatch, fat)) == \
        {"packed": 0, "table": 3}
    # a clique glued to a path: the fat first level takes the table step,
    # the thin levels along the path the packed step
    glued = glued_support(300, 300)
    calls = count_steps(monkeypatch, glued, table_field(monkeypatch, glued))
    assert calls["table"] >= 1 and calls["packed"] >= 1
    assert sum(calls.values()) == 300
    # a sparse random graph fattens level by level: packed, then table
    sparse = expanding_support(rng, 700, 3.0)
    calls = count_steps(monkeypatch, sparse, table_field(monkeypatch, sparse))
    assert calls["table"] >= 1 and calls["packed"] >= 1


def walked_rows(monkeypatch) -> list:
    """The rows of the first level of every walk from now on: k for the
    whole walk of k classes, 1 for the row walk of a circulant."""
    rows = []
    levels = connectivity._levels
    monkeypatch.setattr(connectivity, "_levels", lambda b, front: (
        rows.append(front.shape[0]) or levels(b, front)))
    return rows


def test_a_circulant_walks_one_row(monkeypatch):
    # a circulant support walks class 0 alone and rotates its levels: the
    # band tau = 1/7 on 512 cells takes three packed steps from one row,
    # where the same band relabelled takes three table steps from all
    # 512; a 600-cycle walks to level 300 in 299 packed steps from one
    # row, and its levels widen to two bytes as the whole walk's do
    band = band_support()
    shuffled = relabelled(band)
    want, want_shuffled = (table_field(monkeypatch, band),
                           table_field(monkeypatch, shuffled))
    rows = walked_rows(monkeypatch)
    assert count_steps(monkeypatch, band, want) == {"packed": 3, "table": 0}
    assert count_steps(monkeypatch, shuffled, want_shuffled) == \
        {"packed": 0, "table": 3}
    cycle = cycle_adjacency(600) > 0.0
    assert count_steps(monkeypatch, cycle) == {"packed": 299, "table": 0}
    assert rows == [1, 512, 1]
    levels, classes = connectivity._class_walk(cycle)
    assert levels.dtype == np.uint16 and int(levels.max()) == 300
    assert np.array_equal(classes, np.arange(600))


def test_popcount_without_bitwise_count(monkeypatch, rng):
    # numpy < 2 has no bitwise_count: _popcount falls back to unpackbits,
    # and the packed steps that read frontier counts still walk right
    words = rng.integers(0, np.iinfo(np.uint64).max, size=(37, 5),
                         dtype=np.uint64, endpoint=True)
    fast = connectivity._popcount(words)
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    assert connectivity._popcount(words) == fast
    counted = []
    popcount = connectivity._popcount
    monkeypatch.setattr(connectivity, "_popcount",
                        lambda w: counted.append(1) or popcount(w))
    assert count_steps(monkeypatch, path_support(301)) == \
        {"packed": 299, "table": 0}
    assert counted


def test_diameter_takes_the_steps_of_the_field(monkeypatch):
    # the diameter is the largest level of the whole-field walk, so it
    # takes exactly the products the field takes
    for adj, kinds in [(path_support(301), {"packed": 299, "table": 0}),
                       (relabelled(band_support()),
                        {"packed": 0, "table": 3})]:
        want = table_field(monkeypatch, adj)
        assert count_steps(monkeypatch, adj, want) == kinds
        with monkeypatch.context() as m:
            calls = counting_steps(m)
            assert diameter(lift(adj.astype(float))) == int(want.max())
        assert calls == kinds


def test_rows_and_diameter_switch_steps_mid_walk(monkeypatch, rng):
    # from the far end of the path a BFS row (as a slope series walks
    # from its start set) walks thin levels, then meets the clique: one
    # source row holds at most k nonzeros, so it takes the packed step at
    # every level, one product per level; the diameter's walk on a sparse
    # graph starts thin and fattens
    glued = glued_support(300, 250, 50)
    source = np.zeros((1, 600), dtype=bool)
    source[0, 0] = True
    calls = counting_steps(monkeypatch)
    got = connectivity._bfs(connectivity._Bits.of(glued), source)
    assert np.array_equal(connectivity._distances(got),
                          walk_oracle(glued, [0]))
    assert calls == {"packed": 351, "table": 0}
    sparse = expanding_support(rng, 700, 3.0)
    want = table_field(monkeypatch, sparse)
    calls["table"] = calls["packed"] = 0
    assert diameter(lift(sparse.astype(float))) == int(want.max())
    assert calls["table"] >= 1 and calls["packed"] >= 1


def test_a_graphon_walks_once_per_threshold(monkeypatch):
    # band tau = 1/7 on 512 cells: the first diameter takes the three
    # packed steps of the circulant's row walk, a second one and
    # is_connected none, and a field's own walk answers both for a
    # graphon not walked before
    quotients = []
    row_classes = connectivity._row_classes
    monkeypatch.setattr(connectivity, "_row_classes",
                        lambda rows: quotients.append(rows.shape[0])
                        or row_classes(rows))
    calls = counting_steps(monkeypatch)
    w = circular_band_graphon(1 / 7, 512)
    assert diameter(w) == 4
    assert calls == {"packed": 3, "table": 0}
    assert diameter(w) == 4 and is_connected(w)
    assert calls == {"packed": 3, "table": 0}
    w = circular_band_graphon(1 / 7, 512)
    fld = distance_field(w)
    assert diameter(w) == fld.layer_count == 4 and is_connected(w)
    assert calls == {"packed": 6, "table": 0}
    # the queries after the field read its kept walk and walk nothing:
    # one quotient and one walk per graphon
    assert varadhan_distance(w, 0.1, 0.6) == 4
    assert set_distance(w, block_set([0], 512), block_set([256], 512)) == 4
    assert distance_field(w).levels is fld.levels
    assert calls == {"packed": 6, "table": 0}
    assert quotients == [512, 512]
    # a disconnected support: is_connected walks the whole field and
    # keeps its levels, so diameter and later point and set queries walk
    # nothing
    two = np.zeros((12, 12), dtype=bool)
    two[:6, :6] = two[6:, 6:] = path_support(6)
    w = lift(two.astype(float))
    calls["packed"] = calls["table"] = 0
    assert not is_connected(w)
    assert calls != {"packed": 0, "table": 0}
    assert kept_walk(w).diameter == UNREACHABLE
    walked = dict(calls)
    assert diameter(w) == UNREACHABLE
    assert varadhan_distance(w, 0.5 / 12, 5.5 / 12) == 5
    assert set_distance(w, block_set([0], 12),
                        block_set([6], 12)) == UNREACHABLE
    assert calls == walked
    assert quotients == [512, 512, 12]


def test_thresholds_keep_their_own_walks():
    # a path of 6 blocks whose odd edges weigh 0.3: one path at the
    # default threshold, three pieces of two blocks above 0.3
    k = 6
    a = np.zeros((k, k))
    for i in range(k - 1):
        a[i, i + 1] = a[i + 1, i] = 0.3 if i % 2 else 1.0
    w = lift(a)
    u, v = block_set([0], k), block_set([5], k)
    for _ in range(2):
        for eps, connected in ((None, True), (0.5, False)):
            want = walk_oracle(a > (STEP_EPSILON if eps is None else eps))
            assert np.array_equal(distance_field(w, eps).matrix, want)
            assert is_connected(w, eps) == connected
            assert diameter(w, eps) == (5 if connected else UNREACHABLE)
            assert set_distance(w, u, v, eps) == (5 if connected
                                                  else UNREACHABLE)
            assert varadhan_distance(w, 0.5 / k, 2.5 / k, eps) == want[0, 2]
    # None stands for the default threshold and shares its entry
    assert diameter(w, STEP_EPSILON) == 5
    assert sorted(connectivity._WALKS[w]) == [STEP_EPSILON, 0.5]


def test_kept_walks_go_with_their_graphon(monkeypatch):
    memo = weakref.WeakKeyDictionary()
    monkeypatch.setattr(connectivity, "_WALKS", memo)
    w = circular_band_graphon(1 / 7, 200)
    want = walk_oracle(support_graph(w).matrix)
    assert diameter(w) == 4
    assert varadhan_distance(w, 0.1, 0.6, 1e-3) == 4
    (kept,) = memo.values()
    assert sorted(kept) == [GRID_EPSILON, 1e-3]
    refs = [weakref.ref(w)]
    for walk in kept.values():
        # a frozen record of three fields, built whole: the read-only class
        # levels of the one whole walk at each threshold, the read-only
        # class of each cell and the diameter; no packed words
        assert [f.name for f in dataclasses.fields(walk)] == \
            ["levels", "classes", "diameter"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            walk.diameter = 5
        k = int(walk.classes.max()) + 1
        assert walk.levels.shape == (k, k) and walk.levels.dtype == np.uint8
        assert walk.classes.shape == (200,)
        assert not walk.levels.flags.writeable
        assert not walk.classes.flags.writeable
        assert walk.diameter == 4
        assert np.array_equal(connectivity._distances(
            walk.levels[np.ix_(walk.classes, walk.classes)]), want)
        refs += [weakref.ref(walk.levels), weakref.ref(walk.classes)]
    for name in ("keep", "kept", "words", "size"):
        assert not hasattr(connectivity._Walk, name)
    del w, kept, walk
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert len(memo) == 0


@pytest.mark.parametrize("n", [6, 512])
def test_kept_arrays_lie_in_maps_of_their_own(n):
    # the levels and the classes, at any size, are copied into anonymous
    # memory maps that go with them, and shared, not copied, by every
    # field of the graphon
    w = circular_band_graphon(1 / 7, n)
    fld = distance_field(w)
    walk = kept_walk(w)
    for name in ("levels", "classes"):
        a = getattr(walk, name)
        assert isinstance(a.base, core._Map) and len(a.base) == a.nbytes
        assert not a.flags.writeable
    del a
    assert walk.levels.shape == (n, n) and walk.classes.shape == (n,)
    assert fld.levels is walk.levels and fld.classes is walk.classes
    again = DistanceField(fld.kind, fld.partition, fld.levels, fld.classes,
                          fld.connected)
    assert again.levels is walk.levels and again.classes is walk.classes
    assert np.array_equal(fld.matrix, walk_oracle(support_graph(w).matrix))
    maps = [weakref.ref(walk.levels.base), weakref.ref(walk.classes.base)]
    del w, fld, walk, again
    gc.collect()
    assert all(ref() is None for ref in maps)


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="counts the process's mappings on Linux")
def test_kept_maps_share_mappings():
    # the maps are private, so the kernel joins neighbours: 400 kept
    # arrays do not take 400 of the process's mappings (a shared map each
    # would, and about 65,000 is the usual limit)
    def mappings():
        with open("/proc/self/maps") as f:
            return sum(1 for _ in f)
    ws = [lift(cycle_adjacency(8)) for _ in range(200)]
    before = mappings()
    assert all(diameter(w) == 4 for w in ws)
    assert mappings() - before < 100


def test_queries_after_diameter_read_its_levels(monkeypatch):
    # band tau = 1/7 on 512 cells: the diameter's walk takes the three
    # packed steps of the circulant's row walk and keeps the field's
    # levels; point, 64-point, set and field queries then walk nothing
    w = circular_band_graphon(1 / 7, 512)
    want = walk_oracle(support_graph(w).matrix)
    calls = counting_steps(monkeypatch)
    assert diameter(w) == 4
    assert calls == {"packed": 3, "table": 0}
    ci, cj = np.arange(0, 512, 8), np.arange(511, 0, -8)
    got = varadhan_distance(w, (ci + 0.5) / 512, (cj + 0.25) / 512)
    assert np.array_equal(got, want[ci, cj])
    assert varadhan_distance(w, 0.1, 0.6) == 4
    assert varadhan_distance(w, 0.1, 0.1) == 0
    assert set_distance(w, block_set([0], 512), block_set([256], 512)) == 4
    assert set_distance(w, block_set([0, 1], 512),
                        block_set([60, 300], 512)) == 1
    fld = distance_field(w)
    assert calls == {"packed": 3, "table": 0}
    walk = kept_walk(w)
    assert fld.levels is walk.levels and fld.classes is walk.classes
    assert np.array_equal(fld.matrix, want)


def test_a_field_keeps_its_walk(monkeypatch):
    # a field is the graphon's kept walk: a later diameter, is_connected,
    # point query, set query and second field all read it and walk nothing
    # (the band's row walk: three packed steps)
    w = circular_band_graphon(1 / 7, 512)
    want = walk_oracle(support_graph(w).matrix)
    calls = counting_steps(monkeypatch)
    fld = distance_field(w)
    assert calls == {"packed": 3, "table": 0}
    walk = kept_walk(w)
    assert fld.levels is walk.levels and fld.classes is walk.classes
    assert walk.diameter == fld.layer_count == 4 and fld.connected
    assert diameter(w) == 4 and is_connected(w)
    assert varadhan_distance(w, 0.1, 0.6) == 4
    ci, cj = np.arange(0, 512, 8), np.arange(511, 0, -8)
    got = varadhan_distance(w, (ci + 0.5) / 512, (cj + 0.25) / 512)
    assert np.array_equal(got, want[ci, cj])
    assert set_distance(w, block_set([0], 512), block_set([256], 512)) == 4
    again = distance_field(w)
    assert again.levels is walk.levels and again.classes is walk.classes
    assert calls == {"packed": 3, "table": 0}
    assert kept_walk(w) is walk
    assert np.array_equal(fld.matrix, want)


def test_a_cold_overlapping_set_query_walks_nothing(monkeypatch):
    # sets that overlap on positive measure are at distance 0 at any
    # threshold: the threshold is checked, but nothing is walked or kept
    w = circular_band_graphon(1 / 7, 512)
    calls = counting_steps(monkeypatch)
    u = block_set([0, 1], 512)
    assert set_distance(w, u, block_set([1, 300], 512)) == 0
    assert set_distance(w, u, u, 0.5) == 0
    with pytest.raises(ValidationError, match="threshold"):
        set_distance(w, u, u, "0.5")
    assert calls == {"packed": 0, "table": 0}
    assert w not in connectivity._WALKS
    assert set_distance(w, u, block_set([256], 512)) == 4
    assert calls == {"packed": 3, "table": 0}


@pytest.mark.parametrize("eps", [math.nan, -1.0])
def test_bad_thresholds_raise_and_keep_nothing(monkeypatch, eps):
    memo = weakref.WeakKeyDictionary()
    monkeypatch.setattr(connectivity, "_WALKS", memo)
    w = lift(path_support(5).astype(float))
    u, v = block_set([0], 5), block_set([3], 5)
    queries = (lambda: diameter(w, eps), lambda: is_connected(w, eps),
               lambda: distance_field(w, eps),
               lambda: varadhan_distance(w, 0.1, 0.7, eps),
               lambda: set_distance(w, u, v, eps),
               # overlapping sets are at distance 0 at any threshold, but
               # the threshold is still checked
               lambda: set_distance(w, u, u, eps))
    for query in queries * 2:
        with pytest.raises(ValidationError, match="threshold"):
            query()
    assert len(memo) == 0


def glued_support(path: int, clique: int, tail: int = 0) -> np.ndarray:
    """A path of ``path`` blocks whose last block joins a clique (no
    self-loops) of ``clique`` blocks, and a path of ``tail`` blocks on
    from the clique's last block."""
    k = path + clique + tail
    a = np.zeros((k, k), dtype=bool)
    a[:path + 1, :path + 1] = path_support(path + 1)
    a[path:path + clique, path:path + clique] = ~np.eye(clique, dtype=bool)
    a[k - tail - 1:, k - tail - 1:] |= path_support(tail + 1)
    return a


def expanding_support(rng, k: int, degree: float) -> np.ndarray:
    """A connected sparse random graph: a path plus random chords, whose
    BFS frontier grows geometrically before it saturates."""
    a = np.triu(rng.random((k, k)) < degree / k, 1)
    a |= path_support(k)
    return a | a.T


# every support is checked under the priced step choice and under forced
# choices, so both steps and every switch between them meet the oracle
STEP_CHOICES = ("priced", "packed", "table", "mixed")


@pytest.fixture(params=STEP_CHOICES)
def step_choice(request, monkeypatch):
    choose_steps(monkeypatch, request.param)
    return request.param


def choose_steps(monkeypatch, choice: str, seed: int = 7) -> None:
    """Force every product of the walks to one step (``packed``, ``table``),
    or to a coin's pick per product (``mixed``); ``priced`` keeps
    ``_compose``'s own choice.  The steps are looked up per product, so
    they can be counted by ``counting_steps`` as well."""
    coin = np.random.default_rng(seed)
    forced = {"packed": lambda: True, "table": lambda: False,
              "mixed": lambda: bool(coin.random() < 0.5)}
    if choice == "priced":
        return
    pick = forced[choice]
    monkeypatch.setattr(connectivity, "_compose", lambda a, b: (
        connectivity._packed_step if pick() else connectivity._table_step)(a, b))


def check_against_oracle(rng, cells: np.ndarray) -> None:
    """Field, point, set, connectivity and diameter answers of the lifted
    support against the walk oracle, each query kind first on a fresh
    graphon (so it walks the whole field and keeps it) and then after the
    others (so it reads the kept walk and walks nothing)."""
    want = walk_oracle(cells)
    n = cells.shape[0]
    assert np.array_equal(block_distance_matrix(SupportGraph(cells, 0.0)),
                          want)
    connected = bool(np.isfinite(want).all())
    i = rng.integers(0, n, 40)
    j = rng.integers(0, n, 40)
    x, y = (i + 0.25) / n, (j + 0.75) / n
    y[:4] = x[:4]  # coincident points are at distance 0
    points = want[i, j]
    points[:4] = 0.0
    sets = []
    for _ in range(3):
        blocks = rng.permutation(n)
        cut = int(rng.integers(1, n))
        u, v = np.sort(blocks[:cut]), np.sort(blocks[cut:])
        best = float(want[np.ix_(u, v)].min())
        sets.append((block_set(u, n), block_set(v, n),
                     int(best) if math.isfinite(best) else UNREACHABLE))

    def queries_match(w) -> None:
        assert np.array_equal(varadhan_distance(w, x, y), points)
        assert varadhan_distance(w, float(x[0]), float(y[0])) == 0
        assert varadhan_distance(w, float(x[5]), float(y[5])) == \
            (int(points[5]) if math.isfinite(points[5]) else UNREACHABLE)
        for u, v, best in sets:
            assert set_distance(w, u, v) == best

    def kept_only_once(w) -> None:
        walk = kept_walk(w)
        assert walk is not None
        queries_match(w)
        assert diameter(w) == diam and is_connected(w) == connected
        fld = distance_field(w)
        assert fld.levels is walk.levels and fld.classes is walk.classes
        assert np.array_equal(fld.matrix, want)
        assert kept_walk(w) is walk

    diam = int(want.max()) if connected else UNREACHABLE
    w = lift(cells.astype(float))
    assert kept_walk(w) is None
    assert is_connected(w) == connected  # walks and keeps the walk
    kept_only_once(w)
    w = lift(cells.astype(float))
    queries_match(w)  # the first point query walks and keeps
    kept_only_once(w)
    w = lift(cells.astype(float))
    assert distance_field(w).connected == connected  # walks and keeps
    kept_only_once(w)


def block_set(blocks, n: int) -> IntervalSet:
    return IntervalSet(tuple((b / n, (b + 1) / n) for b in blocks))


def test_walks_at_word_edges(rng, step_choice):
    # the walk runs on the support-twin quotient, so k is the number of
    # classes: one below, at and one above one and two 64-bit words
    for k in (63, 64, 65, 127, 128, 129):
        for connected in (True, False):
            a = distinct_support(rng, k, connected)
            check_against_oracle(rng, a)
            check_against_oracle(rng, with_twins(rng, a, 17))


def test_walks_whose_frontier_crosses_the_switch(rng, step_choice):
    # frontiers that fatten (the clique, the random chords) and thin again
    # (the paths); the mixed choice switches step kinds at random products
    check_against_oracle(rng, glued_support(150, 100, 20))
    check_against_oracle(rng, expanding_support(rng, 400, 3.0))
    check_against_oracle(rng, with_twins(rng, glued_support(90, 60), 30))


def test_levels_widen_only_when_a_walk_reaches_level_256():
    # a 300-block path walks to level 299, past uint8: its levels widen
    # and stay exact (off the diagonal, the queue BFS distances)
    n = 300
    path = np.zeros((n, n))
    path[np.arange(n - 1), np.arange(1, n)] = 1.0
    fld = distance_field(lift(path + path.T))
    assert fld.levels.dtype == np.uint16 and fld.layer_count == n - 1
    off = ~np.eye(n, dtype=bool)
    assert np.array_equal(fld.matrix[off], bfs_oracle(path + path.T)[off])
    assert np.all(np.diag(fld.levels) == 2)
    # 300 distinct support rows whose deepest level is 4 keep one byte each
    band = circular_band_graphon(1 / 7, n)
    assert distance_field(band).classes.max() + 1 == n
    assert distance_field(band).levels.dtype == np.uint8
    assert diameter(band) == 4
