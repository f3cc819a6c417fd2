"""Connectedness, walk distances and diameter of graphons, decided on the
block/cell support graph.

For step graphons the block-level decision is exact: a step graphon is
disconnected precisely when some union of blocks has zero edge mass to its
complement (or a lone block carries no edge at all).  For grid graphons the
same procedure on the cell support graph is a discretization and is flagged
as approximate by the CLI.

The work is sized to the question.  Cells with identical support rows
(support twins) are merged first; the walk on the k x k class graph is
exact, since twins have the same neighbours.  ``is_connected`` runs one BFS
from block 0, O(levels * k^2); ``diameter`` doubles walk lengths, O(log
diameter) k x k boolean products; the whole matrix of
``block_distance_matrix`` takes L - 1 products when the largest walk
distance L joins every pair, and L when some pair is unreachable (one
closing product finds the next level empty), each about k^3 / 2.
Those products are symmetric panel products: rows are taken in panels of
``PANEL_ROWS``, each panel multiplies only the columns on and right of its
diagonal block, and the block is mirrored below the diagonal.  That is
exact because every matrix the walks keep (one BFS level, or the pairs
joined by a walk of bounded length) is symmetric on a symmetric support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GridGraphon, ValidationError, _readonly

#: explicit marker for unreachable pairs (never a large integer)
UNREACHABLE = math.inf

#: default support thresholds: exact zeros expected for step graphons,
#: quadrature noise allowed for grids
STEP_EPSILON = 1e-12
GRID_EPSILON = 1e-9

#: row panel height of the symmetric boolean product ``_compose``
PANEL_ROWS = 256


@dataclass(frozen=True, eq=False)
class SupportGraph:
    """Boolean block/cell support of a graphon at a declared threshold.

    The matrix is symmetric, as a graphon's support is; the walks on it
    and its support-twin quotient rely on that."""

    matrix: np.ndarray
    epsilon: float

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=bool)
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def size(self) -> int:
        return int(self.matrix.shape[0])


def default_epsilon(w) -> float:
    return GRID_EPSILON if isinstance(w, GridGraphon) else STEP_EPSILON


def support_graph(w, epsilon: float | None = None) -> SupportGraph:
    """Support graph of a graphon: an edge wherever the block/cell value
    exceeds epsilon."""
    eps = default_epsilon(w) if epsilon is None else float(epsilon)
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValidationError(
            f"support threshold must be finite and nonnegative, got {eps!r}")
    return SupportGraph(w.blocks > eps, eps)


def _support_classes(adj: np.ndarray):
    """Support-twin quotient of a symmetric boolean graph.

    Cells with identical support rows have the same neighbours, so every
    walk distance from or to them is the same: BFS on the k x k class graph
    is exact.  Returns the class graph and the class of each cell, with the
    classes numbered in order of first occurrence; when every row is
    distinct the class graph is ``adj`` itself and the map the identity.
    """
    n = adj.shape[0]
    packed = np.packbits(adj, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    k = first.size
    if k == n:
        return adj, np.arange(n)
    order = np.argsort(first)
    rank = np.empty(k, dtype=np.intp)
    rank[order] = np.arange(k)
    reps = first[order]
    return adj[np.ix_(reps, reps)], rank[inverse.reshape(-1)]


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean product (a o b)[i, j] = any_l a[i, l] & b[l, j] of two
    n x n matrices, exact on and above the diagonal.

    Rows go in panels of ``PANEL_ROWS``; panel [lo, hi) multiplies only the
    columns lo: and its block right of the diagonal block is mirrored into
    the lower triangle, which costs about half of one full product.  The
    result is therefore exact wherever the part of a o b the caller keeps
    is symmetric: ``R_a o R_b``, the pairs joined by a walk of length
    2..a+b, and the BFS level ``(F_m o A) & ~R_m``, the pairs at walk
    distance m + 1.  At n <= ``PANEL_ROWS`` it is one full product.
    """
    af = a.astype(np.float32, copy=False)
    bf = af if b is a else b.astype(np.float32, copy=False)
    n = af.shape[0]
    out = np.empty((n, n), dtype=bool)
    for lo in range(0, n, PANEL_ROWS):
        hi = min(lo + PANEL_ROWS, n)
        panel = (af[lo:hi] @ bf[:, lo:]) > 0.0
        out[lo:hi, lo:] = panel
        out[hi:, lo:hi] = panel[:, hi - lo:].T
    return out


def _bfs(adj: np.ndarray, sources: np.ndarray | None = None) -> np.ndarray:
    """Level-synchronous BFS from boolean source sets, one per row.

    Row r holds the least m >= 1 such that some vertex of ``sources[r]``
    has a length-m walk to vertex j, inf where there is none.  The first
    frontier is the one-step neighbourhood of the sources, so a source
    reaches itself at 1 through a self-loop and at 2 through a neighbour.
    ``None`` takes every vertex as its own source: level 1 is then ``adj``
    itself and each later level one symmetric ``_compose``.  The walk stops
    at the level that reaches the last entry, or at the first empty level.
    """
    whole = sources is None
    adj_f = adj.astype(np.float32)
    new = adj if whole else (sources.astype(np.float32) @ adj_f) > 0.0
    dist = np.full(new.shape, np.inf)
    reached = np.zeros(new.shape, dtype=bool)
    level = 1
    while new.any():
        dist[new] = level
        reached |= new
        if reached.all():
            break
        new = (_compose(new, adj_f) if whole
               else (new.astype(np.float32) @ adj_f) > 0.0)
        new &= ~reached
        level += 1
    return dist


def _walk_distances(adj: np.ndarray, sources: np.ndarray | None = None):
    """Walk distances on a symmetric boolean graph, computed on its
    support-twin quotient.

    ``sources`` is an r x n boolean matrix of source sets; row r of the
    result is the least m >= 1 such that some cell of ``sources[r]`` has a
    length-m walk to cell j, inf where there is none.  ``None`` takes every
    cell as its own source and gives the n x n matrix.
    """
    q, cls = _support_classes(np.asarray(adj, dtype=bool))
    twin_free = q.shape[0] == cls.shape[0]
    if sources is None:
        d = _bfs(q)
        return d if twin_free else d[np.ix_(cls, cls)]
    if twin_free:
        return _bfs(q, sources)
    src = np.zeros((sources.shape[0], q.shape[0]), dtype=bool)
    rows, cells = np.nonzero(sources)
    src[rows, cls[cells]] = True
    return _bfs(q, src)[:, cls]


def _source_rows(n: int, cells) -> np.ndarray:
    """One source row per given cell."""
    cells = np.asarray(cells).reshape(-1)
    rows = np.zeros((cells.size, n), dtype=bool)
    rows[np.arange(cells.size), cells] = True
    return rows


def block_distance_matrix(s: SupportGraph) -> np.ndarray:
    """Walk distances d'(i,j) = least m >= 1 with a length-m walk from i
    to j on the support graph, for every block pair: about (L - 1) k^3 / 2
    on k support classes with largest walk distance L.

    Off-diagonal entries coincide with shortest-path lengths.  A diagonal
    entry is 1 when the block carries a self-loop, otherwise 2 when the
    block has any neighbour (walk i -> j -> i), otherwise unreachable.
    """
    return _walk_distances(s.matrix)


def is_connected(w, epsilon: float | None = None) -> bool:
    """Whether the graphon is connected, decided on the support graph.

    A single block is connected iff it carries a self-loop; otherwise the
    graphon is connected iff one BFS from block 0 reaches every block
    (so no union of blocks is cut off from the rest): O(levels * k^2).
    """
    s = support_graph(w, epsilon)
    if s.size == 1:
        return bool(s.matrix[0, 0])
    d = _walk_distances(s.matrix, _source_rows(s.size, 0))
    return bool(np.isfinite(d).all())


def diameter(w, epsilon: float | None = None):
    """Largest walk distance over all block pairs (diagonal included);
    ``UNREACHABLE`` when some pair cannot be joined by any walk.

    Reach doubling on the support-twin quotient: with R_a the pairs joined
    by a walk of length 1..a, R_{a+b} = R_a | (R_a o R_b).  Squaring until
    R_{2^L} is all true and then descending bit by bit costs about
    2 log2(diameter) boolean products instead of one per BFS level; each
    is a half-cost ``_compose``, since R_a o R_b (the pairs joined by a
    walk of length 2..a+b) is symmetric.
    """
    q, _ = _support_classes(support_graph(w, epsilon).matrix)
    reach = [q]  # reach[l]: pairs joined by a walk of length 1..2^l
    while not reach[-1].all():
        r = reach[-1]
        doubled = r | _compose(r, r)
        if np.array_equal(doubled, r):
            return UNREACHABLE
        reach.append(doubled)
    top = len(reach) - 1
    if top == 0:
        return 1
    # the diameter lies in (2^(top-1), 2^top]: add each lower power of two
    # that still leaves some pair unjoined
    joined, length = reach[top - 1], 1 << (top - 1)
    for bit in range(top - 2, -1, -1):
        longer = joined | _compose(joined, reach[bit])
        if not longer.all():
            joined, length = longer, length + (1 << bit)
    return length + 1
