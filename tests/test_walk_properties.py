"""Property tests of the walk answers on generated step graphons: the field
against the support of the composition powers, every query against the
queue BFS oracle, under every step choice, and invariance under block
permutations."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from graphondist import (  # noqa: E402
    UNREACHABLE,
    IntervalSet,
    Partition,
    comp_power,
    diameter,
    distance_field,
    is_connected,
    permute_blocks,
    set_distance,
    step,
    to_grid,
    varadhan_distance,
)
from graphondist import connectivity  # noqa: E402
from graphondist.connectivity import default_epsilon  # noqa: E402
from test_walks import STEP_CHOICES, choose_steps, walk_oracle  # noqa: E402

PROPERTIES = settings(derandomize=True, max_examples=60, deadline=None)

# nonzero values stay far above the support threshold and above underflow
# in every composition power, so "comp_power(w, m) > 0" is the walk relation
VALUES = (0.0, 0.05, 0.4, 1.0)


@st.composite
def step_graphons(draw):
    """Step graphons on up to 24 blocks that repeat a base kernel of up to
    8 blocks (support twins), with self-loops, sometimes an isolated base
    block and two disconnected pieces, and non-uniform measures."""
    k = draw(st.integers(1, 8))
    base = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            base[i, j] = base[j, i] = draw(st.sampled_from(VALUES))
    cut = draw(st.integers(0, k - 1))
    base[:cut, cut:] = base[cut:, :cut] = 0.0
    if draw(st.booleans()):
        lone = draw(st.integers(0, k - 1))
        base[lone, :] = base[:, lone] = 0.0
    labels = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=24))
    weights = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=len(labels),
                                     max_size=len(labels))))
    return step(Partition(weights / weights.sum()),
                base[np.ix_(labels, labels)])


def power_field(w) -> np.ndarray:
    """min{m >= 1 : comp_power(w, m)[i, j] > 0}, inf where no m <= n + 1
    has one (no walk distance on n blocks exceeds max(n - 1, 2))."""
    n = w.size
    out = np.full((n, n), math.inf)
    for m in range(n + 1, 0, -1):
        out[comp_power(w, m).blocks > 0.0] = m
    return out


def interval_set(w, blocks) -> IntervalSet:
    bp = w.partition.breakpoints
    return IntervalSet(tuple((float(bp[b]), float(bp[b + 1])) for b in blocks))


@PROPERTIES
@given(step_graphons())
def test_field_is_the_least_power_with_support(w):
    assert np.array_equal(distance_field(w).matrix, power_field(w))


@PROPERTIES
@given(step_graphons(),
       st.sampled_from(STEP_CHOICES),
       st.integers(0, 2**16), st.data())
def test_queries_match_the_bfs_oracle(w, choice, seed, data):
    want = walk_oracle(w.blocks > 1e-12)
    connected = bool(np.isfinite(want).all())
    n = w.size
    bp = w.partition.breakpoints
    mid = (bp[:-1] + bp[1:]) / 2
    u = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    v = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    with pytest.MonkeyPatch.context() as m:
        choose_steps(m, choice, seed)
        assert np.array_equal(distance_field(w).matrix, want)
        assert is_connected(w) == connected
        assert diameter(w) == (int(want.max()) if connected else UNREACHABLE)
        # points of one block differ, so each pair reads its block distance
        lo = mid - (bp[1:] - bp[:-1]) / 4
        got = varadhan_distance(w, lo[:, None], mid[None, :])
        assert np.array_equal(got, want)
        if not u & v:
            best = float(want[np.ix_(sorted(u), sorted(v))].min())
            assert set_distance(w, interval_set(w, sorted(u)),
                                interval_set(w, sorted(v))) == \
                (int(best) if math.isfinite(best) else UNREACHABLE)


def unpacked(bits) -> np.ndarray:
    """A packed ``_Bits`` as a boolean matrix; every set bit must lie in
    one of its listed rows and below its column count."""
    rows, cols = bits.nonzero()
    assert np.isin(rows, bits.rows).all() and (cols < bits.shape[1]).all()
    out = np.zeros(bits.shape, dtype=bool)
    out[rows, cols] = True
    return out


def graph_of(kind: str, k: int, rng) -> np.ndarray:
    """A random k x k boolean graph: any matrix, a directed one (strictly
    upper triangular, so no edge runs both ways) or a symmetric one."""
    bm = rng.random((k, k)) < rng.random()
    if kind == "directed":
        return np.triu(bm, k=1)
    if kind == "symmetric":
        return bm | bm.T
    return bm


GRAPHS = st.sampled_from(("any", "directed", "symmetric"))


@PROPERTIES
@example(k=65, r=1, listed=1.0, emptied=0.0, density=0.3, seed=0,
         graph="any")
@example(k=9, r=5, listed=1.0, emptied=0.0, density=0.0, seed=1,
         graph="any")
@example(k=200, r=7, listed=0.5, emptied=0.5, density=0.5, seed=2,
         graph="any")
@example(k=70, r=6, listed=1.0, emptied=0.0, density=0.4, seed=3,
         graph="directed")
@given(st.integers(1, 200), st.integers(1, 12), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(0, 2**16),
       GRAPHS)
def test_table_step_equals_packed_step(k, r, listed, emptied, density, seed,
                                       graph):
    # a lists a random subset of its r rows, some of them empty, over k
    # columns (often not a multiple of 8 or 64: a ragged last group and
    # word); b is a k x k matrix with every row listed, directed or not
    rng = np.random.default_rng(seed)
    rows = np.flatnonzero(rng.random(r) < listed)
    m = np.zeros((r, k), dtype=bool)
    m[rows] = rng.random((rows.size, k)) < density
    m[rows[rng.random(rows.size) < emptied]] = False
    a = connectivity._Bits((r, k), rows, connectivity._pack(m[rows]))
    bm = graph_of(graph, k, rng)
    b = connectivity._Bits.of(bm)
    table = connectivity._table_step(a, b)
    packed = connectivity._packed_step(a, b)
    want = (m.astype(np.int64) @ bm.astype(np.int64)) > 0
    assert np.array_equal(unpacked(table), want)
    assert np.array_equal(unpacked(packed), want)
    # rows both list hold the same words, padding bits included
    _, at_t, at_p = np.intersect1d(table.rows, packed.rows,
                                   return_indices=True)
    assert np.array_equal(table.words[at_t], packed.words[at_p])
    # column j of the identity selects row j of b alone, in every group
    eye = connectivity._Bits.of(np.eye(k, dtype=bool))
    assert np.array_equal(unpacked(connectivity._table_step(eye, b)), bm)


def power_levels(adj: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Least m >= 1 with a length-m walk i -> j along adj[i, j] from some
    vertex of each source row, by integer powers: 0 where no m <= k + 1
    has one."""
    k = adj.shape[0]
    out = np.zeros(sources.shape, dtype=np.int64)
    step = adj.astype(np.int64)
    walk = sources.astype(np.int64)
    for m in range(1, k + 2):
        walk = np.minimum(walk @ step, 1)
        out[(out == 0) & (walk > 0)] = m
    return out


@PROPERTIES
@given(st.integers(1, 150), st.integers(1, 6), st.integers(0, 2**16), GRAPHS)
def test_bfs_walks_directed_graphs(k, r, seed, graph):
    # _bfs takes a plain boolean product per level, so a directed graph
    # walks along its edges' direction, under every step choice (source
    # rows reach _bfs from linalg._walk_series only)
    rng = np.random.default_rng(seed)
    adj = graph_of(graph, k, rng)
    sources = rng.random((r, k)) < rng.random() / 4
    want = power_levels(adj, sources)
    for choice in STEP_CHOICES:
        with pytest.MonkeyPatch.context() as m:
            choose_steps(m, choice, seed)
            got = connectivity._bfs(connectivity._Bits.of(adj), sources)
        assert np.array_equal(got, want), choice


@PROPERTIES
@given(step_graphons(), st.integers(1, 48))
def test_field_keeps_class_levels_that_expand_to_the_oracle(w, resolution):
    # the step graphon and its grid rendering, whose cells repeat blocks
    # (support twins); every read but ``matrix`` leaves it unbuilt
    for g in (w, to_grid(w, resolution)):
        want = walk_oracle(g.blocks > default_epsilon(g))
        fld = distance_field(g)
        k = fld.levels.shape[0]
        assert fld.classes.shape == (g.size,) and fld.size == g.size
        assert fld.levels.shape == (k, k) and k <= g.size
        assert fld.levels.dtype.kind == "u" and fld.levels.itemsize <= 2
        assert not fld.levels.flags.writeable
        assert not fld.classes.flags.writeable
        cells = fld.levels[np.ix_(fld.classes, fld.classes)]
        assert np.array_equal(np.where(cells == 0, math.inf, cells), want)
        bp = g.partition.breakpoints
        mid = (bp[:-1] + bp[1:]) / 2
        lo = mid - (bp[1:] - bp[:-1]) / 4
        points = fld.pointwise(lo[:, None], mid[None, :])
        within = fld.within_block
        layers = fld.layer_count
        finite = want[np.isfinite(want)]
        assert layers == (int(finite.max()) if finite.size else 0)
        assert "matrix" not in vars(fld)
        assert np.array_equal(fld.matrix, want)
        assert not fld.matrix.flags.writeable
        assert np.array_equal(points, fld.matrix)
        assert np.array_equal(within, np.diag(fld.matrix))
        assert fld.pointwise(mid[0], mid[0]) == 0
        assert fld.pointwise(lo[0], mid[-1]) == (
            int(want[0, -1]) if math.isfinite(want[0, -1]) else UNREACHABLE)


QUERIES = ("field", "diameter", "connected", "points", "set")


@PROPERTIES
@given(step_graphons(), st.permutations(QUERIES), st.data())
def test_answers_do_not_depend_on_the_order_of_queries(w, order, data):
    # a graphon keeps its quotient and diameter after the first query, and
    # its class levels after the first query but a field, so every order
    # of first and repeated queries meets the oracle
    want = walk_oracle(w.blocks > 1e-12)
    connected = bool(np.isfinite(want).all())
    n = w.size
    bp = w.partition.breakpoints
    mid = (bp[:-1] + bp[1:]) / 2
    lo = mid - (bp[1:] - bp[:-1]) / 4
    u = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    v = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    best = 0.0 if set(u) & set(v) else float(want[np.ix_(u, v)].min())
    answers = {
        "field": lambda: np.array_equal(distance_field(w).matrix, want),
        "diameter": lambda: diameter(w) == (int(want.max()) if connected
                                            else UNREACHABLE),
        "connected": lambda: is_connected(w) == connected,
        "points": lambda: np.array_equal(
            varadhan_distance(w, lo[:, None], mid[None, :]), want),
        "set": lambda: set_distance(w, interval_set(w, u),
                                    interval_set(w, v)) == \
        (int(best) if math.isfinite(best) else UNREACHABLE),
    }
    for query in order + order:
        assert answers[query](), query


@PROPERTIES
@given(step_graphons(), st.randoms(use_true_random=False))
def test_permuting_blocks_changes_nothing(w, random):
    sigma = list(range(w.size))
    random.shuffle(sigma)
    moved = permute_blocks(w, sigma)
    field = distance_field(w).matrix
    assert np.array_equal(distance_field(moved).matrix,
                          field[np.ix_(sigma, sigma)])
    assert diameter(moved) == diameter(w)
    assert is_connected(moved) == is_connected(w)


@PROPERTIES
@given(st.sampled_from([(False, True), (0.0, -0.0, 0.5, 1.0)]), st.data())
def test_row_classes_are_the_classes_of_equal_rows(pool, data):
    # boolean rows go in packed, as the support quotient and the sampler
    # pass them; float rows with 0.0 added, as merge_twins passes them
    n, m = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 10))
    rows = np.array(data.draw(st.lists(st.sampled_from(pool),
                                       min_size=n * m, max_size=n * m)))
    rows = rows.reshape(n, m)
    keys = np.packbits(rows, axis=1) if rows.dtype == bool else rows + 0.0
    first, classes = connectivity._row_classes(keys)
    for i in range(n):
        for j in range(n):
            assert (classes[i] == classes[j]) == np.array_equal(rows[i],
                                                                rows[j])
    # classes numbered by first occurrence, each given row its class's first
    numbers, at = np.unique(classes, return_index=True)
    assert np.array_equal(numbers, np.arange(first.size))
    assert np.array_equal(first, at) and np.all(np.diff(first) > 0)
