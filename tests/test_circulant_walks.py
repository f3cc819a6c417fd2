"""Property tests of the row walk of circulant supports (row i is row 0
rotated by i): its levels, their dtype and the classes against the queue
BFS oracle and against the whole walk of a randomly relabelled copy,
mapped back; and supports that only start like a circulant, which are
walked whole."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import (  # noqa: E402
    assume, example, given, settings, strategies as st)

from graphondist import connectivity  # noqa: E402
from conftest import cycle_adjacency  # noqa: E402
from test_walks import walk_oracle, walked_rows  # noqa: E402

PROPERTIES = settings(derandomize=True, max_examples=80, deadline=None)


def circulant(row: np.ndarray) -> np.ndarray:
    """The circulant of a boolean row, entry [i, j] = row[(j - i) mod k],
    by index arithmetic."""
    i = np.arange(row.size)
    return row[(i[None, :] - i[:, None]) % row.size]


def symmetric_row(k: int, steps, loop: bool) -> np.ndarray:
    """Row 0 of a symmetric circulant on k classes: the connection set
    holds each step s and its negation k - s, and 0 when ``loop``."""
    row = np.zeros(k, dtype=bool)
    steps = np.asarray(steps, dtype=int) % k
    row[steps] = row[-steps % k] = True
    row[0] = loop
    return row


def whole_walk(adj: np.ndarray):
    """The whole walk of every class of adj's support-twin quotient, as
    ``_class_walk`` walks a support that is not circulant."""
    reps, classes = connectivity._row_classes(np.packbits(adj, axis=1))
    q = adj[np.ix_(reps, reps)]
    return connectivity._bfs(connectivity._Bits.of(q)), classes


def class_walk(adj: np.ndarray):
    """``_class_walk`` of adj, and the rows of the first level of each of
    its walks."""
    with pytest.MonkeyPatch.context() as m:
        rows = walked_rows(m)
        return connectivity._class_walk(adj), rows


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a[:, None] == a[None, :], b[:, None] == b[None, :])


def check_row_walk(adj: np.ndarray, seed: int) -> None:
    """``_class_walk`` of a circulant walks one row, and its levels, dtype
    and classes match the queue BFS oracle and the whole walk of a
    relabelled copy, mapped back."""
    (levels, classes), rows = class_walk(adj)
    assert rows == [1]
    k = int(classes.max()) + 1
    assert levels.shape == (k, k)
    _, want_classes = connectivity._row_classes(np.packbits(adj, axis=1))
    assert np.array_equal(classes, want_classes)
    cells = levels[np.ix_(classes, classes)]
    assert np.array_equal(connectivity._distances(cells), walk_oracle(adj))
    # the whole walk of the relabelled copy, cell a of which is cell p[a]
    p = np.random.default_rng(seed).permutation(adj.shape[0])
    back = np.argsort(p)
    other, other_classes = whole_walk(adj[np.ix_(p, p)])
    assert other.dtype == levels.dtype
    assert np.array_equal(other[np.ix_(other_classes, other_classes)]
                          [np.ix_(back, back)], cells)
    assert same_partition(other_classes[back], classes)


@PROPERTIES
@example(k=1, steps=[], loop=False, seed=0)
@example(k=1, steps=[], loop=True, seed=0)
@example(k=2, steps=[1], loop=False, seed=0)
@example(k=2, steps=[], loop=True, seed=0)
@example(k=2, steps=[], loop=False, seed=0)
@given(st.integers(1, 90), st.lists(st.integers(1, 89), max_size=6),
       st.booleans(), st.integers(0, 2**16))
def test_random_symmetric_circulants(k, steps, loop, seed):
    # random connection sets with and without a self-loop; sparse sets
    # are disconnected whenever their steps share a factor with k
    check_row_walk(circulant(symmetric_row(k, steps, loop)), seed)


@PROPERTIES
@given(st.integers(1, 45), st.lists(st.integers(1, 44), max_size=4),
       st.booleans(), st.integers(0, 2**16))
def test_disconnected_circulants(half, steps, loop, seed):
    # even steps on an even number of classes never reach an odd class
    k = 2 * half
    row = symmetric_row(k, 2 * np.asarray(steps, dtype=int), loop)
    adj = circulant(row)
    assert not np.isfinite(walk_oracle(adj)).all()
    check_row_walk(adj, seed)


@PROPERTIES
@given(st.integers(1, 12), st.integers(1, 8),
       st.lists(st.integers(1, 11), max_size=4), st.booleans(),
       st.integers(0, 2**16))
def test_periodic_rows_walk_a_smaller_circulant(period, copies, steps, loop,
                                                seed):
    # a row of period p tiled over p * copies cells: cells p apart are
    # support twins, and the quotient on at most p classes is circulant
    base = symmetric_row(period, steps, loop)
    adj = circulant(np.tile(base, copies))
    check_row_walk(adj, seed)
    assert int(connectivity._class_walk(adj)[1].max()) < period


def test_a_row_walk_past_level_255_widens_its_levels():
    # a 600-cycle walks to level 300 from one row: two-byte levels, as the
    # whole walk of a relabelled copy widens them
    adj = cycle_adjacency(600) > 0.0
    check_row_walk(adj, 3)
    levels, _ = connectivity._class_walk(adj)
    assert levels.dtype == np.uint16 and int(levels.max()) == 300


@PROPERTIES
@given(st.integers(5, 70), st.lists(st.integers(1, 69), max_size=5),
       st.booleans(), st.data())
def test_a_near_miss_is_walked_whole(k, steps, loop, data):
    # row 1 is row 0 rotated but a later row is not: flip one symmetric
    # pair of entries away from rows and columns 0 and 1
    adj = circulant(symmetric_row(k, steps, loop))
    i = data.draw(st.integers(2, k - 1))
    j = data.draw(st.integers(2, k - 1))
    adj[i, j] = adj[j, i] = not adj[i, j]
    # with k distinct rows the class support is adj itself
    assume(connectivity._row_classes(np.packbits(adj, axis=1))[0].size == k)
    (levels, classes), rows = class_walk(adj)
    assert rows == [k]
    assert np.array_equal(connectivity._distances(
        levels[np.ix_(classes, classes)]), walk_oracle(adj))
