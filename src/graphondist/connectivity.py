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
from block 0 and a point or set query one BFS row per source set; the
whole matrix of ``block_distance_matrix`` takes L - 1 products when the
largest walk distance L joins every pair, and L when some pair is
unreachable (one closing product finds the next level empty), and
``diameter`` reads its largest level from that same walk.

Every product goes through one kernel, ``_compose``, which takes the
cheaper of two steps for the left operand it is given:

- the packed step, a top-down BFS step on bit-parallel rows, ORs together
  the uint64-packed rows of the right operand that the nonzeros of the
  left one select: nnz * k / 64 word operations, so a thin frontier costs
  what it holds;
- the panel product multiplies float32 matrices: r k^2 multiply-adds for
  r source rows, and about k^3 / 2 for a whole field, whose rows are taken
  in panels of ``PANEL_ROWS``, each multiplying only the columns on and
  right of its diagonal block, with the block mirrored below the diagonal.
  That is exact because the part of every level the walk keeps (the pairs
  at one walk distance) is symmetric on a symmetric support.

The choice prices both from the left operand's nonzero count with
constants measured on a 2-vCPU Xeon (one BLAS thread): a whole field turns
to the panel product above about 20 % density at 1,024 classes and 18 %
at 2,048, and one source row takes the packed step from about 600 classes
on.  A BFS keeps each level in the form its step made, so a walk that only
takes panel products never packs a level, and a thin walk never scans a
dense matrix.
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

#: row panel height of the symmetric boolean product ``_panel_step``
PANEL_ROWS = 256

#: measured prices of the two steps, in multiply-adds of the float32
#: panel product (see ``_prefers_packed``): the packed step costs
#: ``WORD_MACS`` per gathered 64-bit word plus ``STEP_MACS`` per step, and
#: the panel product pays ``READ_ROWS`` rows' worth for streaming its
#: right operand, which dominates a product of a few rows
WORD_MACS = 200
STEP_MACS = 3_000_000
READ_ROWS = 8

#: words the packed step gathers at a time (512 KB), so the rows it ORs
#: together are still in cache
GATHER_WORDS = 1 << 16


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


class _Bits:
    """An r x k boolean matrix, held in the form of the step that made it:
    dense (a bool array) or packed (``rows``, the indices of its nonempty
    rows, and ``words``, those rows bit-packed by ``_pack``).  The
    nonzeros, the other form and the float32 copy the panel product reads
    are derived on first use and kept."""

    def __init__(self, dense=None, *, shape=None, rows=None, words=None):
        self.shape = shape if dense is None else dense.shape
        self._dense = dense
        self.rows, self.words = rows, words
        self._nonzero = self._nnz = self._bits = self._f32 = None

    @property
    def is_packed(self) -> bool:
        return self.words is not None

    @property
    def nnz(self) -> int:
        if self._nnz is None:
            self._nnz = (_popcount(self.words) if self.is_packed
                         else int(np.count_nonzero(self._dense)))
        return self._nnz

    def nonzero(self):
        """Row and column indices of the true entries, in row-major order."""
        if self._nonzero is None:
            self._nonzero = (_unpack(self.rows, self.words) if self.is_packed
                             else np.nonzero(self._dense))
        return self._nonzero

    def index(self):
        """The true entries as an index: the nonzeros where they were
        derived, the dense matrix otherwise."""
        return self._nonzero if self._nonzero is not None else self.dense

    @property
    def dense(self) -> np.ndarray:
        if self._dense is None:
            dense = np.zeros(self.shape, dtype=bool)
            dense[self.rows] = np.unpackbits(
                self.words.view(np.uint8), axis=1, count=self.shape[1],
                bitorder="little")
            self._dense = dense
        return self._dense

    @property
    def bits(self) -> np.ndarray:
        """Every row bit-packed, for gathering rows by index."""
        if self._bits is None:
            self._bits = _pack(self.dense)
        return self._bits

    @property
    def f32(self) -> np.ndarray:
        if self._f32 is None:
            self._f32 = self.dense.astype(np.float32)
        return self._f32


def _pack(m: np.ndarray) -> np.ndarray:
    """Rows of a boolean matrix as uint64 words, column j at bit j % 64 of
    word j // 64 (bytes in memory order, so only bitwise use is portable)."""
    r, k = m.shape
    out = np.zeros((r, -(-k // 64) * 8), dtype=np.uint8)
    out[:, :-(-k // 8)] = np.packbits(m, axis=1, bitorder="little")
    return out.view(np.uint64)


def _popcount(words: np.ndarray) -> int:
    if hasattr(np, "bitwise_count"):  # numpy >= 2
        return int(np.bitwise_count(words).sum())
    return int(np.unpackbits(words.view(np.uint8)).sum())


def _unpack(rows: np.ndarray, words: np.ndarray):
    """Row and column indices of the set bits of packed rows, read from
    the nonzero words only, in row-major order."""
    at = np.flatnonzero(words)
    bits = np.unpackbits(words.reshape(-1)[at].view(np.uint8),
                         bitorder="little")
    hit = np.flatnonzero(bits)
    row, word = np.divmod(at[hit >> 6], words.shape[1])
    return rows[row], (word << 6) | (hit & 63)


def _panel_macs(r: int, k: int, symmetric: bool) -> int:
    """Price of the panel product of an r x k and a k x k matrix: its
    multiply-adds, plus ``READ_ROWS`` rows' worth for streaming b."""
    if not symmetric:
        return (r + READ_ROWS) * k * k
    return READ_ROWS * k * k + sum(min(PANEL_ROWS, k - lo) * k * (k - lo)
                                   for lo in range(0, k, PANEL_ROWS))


def _prefers_packed(a: _Bits, symmetric: bool) -> bool:
    """Whether the packed step prices below the panel product for a o b:
    ``WORD_MACS`` per gathered word, nnz(a) * k / 64 of them, plus
    ``STEP_MACS``, against ``_panel_macs``."""
    r, k = a.shape
    words = a.nnz * -(-k // 64)
    return WORD_MACS * words + STEP_MACS < _panel_macs(r, k, symmetric)


def _compose(a: _Bits, b: _Bits, symmetric: bool) -> _Bits:
    """Boolean product (a o b)[i, j] = any_l a[i, l] & b[l, j] of an r x k
    and a k x k matrix, by the cheaper of two steps.

    The packed step ORs together the bit-packed rows of b that the
    nonzeros of a select: about nnz(a) * k / 64 word operations, so a thin
    a costs little.  The panel product multiplies float32 matrices: r k^2
    multiply-adds, or about k^3 / 2 when ``symmetric`` (a square and the
    kept part of the product symmetric; see ``_panel_step``).  The choice
    is made per product from a's observed nonzero count.
    """
    if _prefers_packed(a, symmetric):
        return _packed_step(a, b)
    return _Bits(_panel_step(a, b, symmetric))


def _packed_step(a: _Bits, b: _Bits) -> _Bits:
    """a o b as the OR of the packed rows of b that each row of a selects
    (top-down BFS step on bit-parallel rows), in slices of about
    ``GATHER_WORDS`` gathered words."""
    rows, cols = a.nonzero()
    bits = b.bits
    first = np.ones(rows.size, dtype=bool)
    np.not_equal(rows[1:], rows[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    out = np.empty((starts.size, bits.shape[1]), dtype=np.uint64)
    per = max(1, GATHER_WORDS // bits.shape[1])
    s = 0
    while s < starts.size:
        e = max(s + 1, int(starts.searchsorted(starts[s] + per)))
        lo, hi = starts[s], (starts[e] if e < starts.size else rows.size)
        out[s:e] = np.bitwise_or.reduceat(bits[cols[lo:hi]], starts[s:e] - lo,
                                          axis=0)
        s = e
    return _Bits(shape=a.shape, rows=rows[starts], words=out)


def _panel_step(a: _Bits, b: _Bits, symmetric: bool) -> np.ndarray:
    """a o b as a float32 product, exact on and above the diagonal when
    ``symmetric``.

    Rows go in panels of ``PANEL_ROWS``; with ``symmetric`` panel
    [lo, hi) multiplies only the columns lo: and its block right of the
    diagonal block is mirrored into the lower triangle, which costs about
    half of one full product.  The result is then exact wherever the part
    of a o b the caller keeps is symmetric, as the BFS level
    ``(F_m o A) & ~R_m`` (the pairs at walk distance m + 1) is.  At
    k <= ``PANEL_ROWS`` it is one full product.
    """
    af = a.dense.astype(np.float32)
    if not symmetric:
        return (af @ b.f32) > 0.0
    n = af.shape[0]
    out = np.empty((n, n), dtype=bool)
    for lo in range(0, n, PANEL_ROWS):
        hi = min(lo + PANEL_ROWS, n)
        panel = (af[lo:hi] @ b.f32[:, lo:]) > 0.0
        out[lo:hi, lo:] = panel
        out[hi:, lo:hi] = panel[:, hi - lo:].T
    return out


def _bfs(adj: np.ndarray, sources: np.ndarray | None = None) -> np.ndarray:
    """Level-synchronous BFS from boolean source sets, one per row.

    Row r holds the least m >= 1 such that some vertex of ``sources[r]``
    has a length-m walk to vertex j, 0 where there is none, as small
    integers.  The first frontier is the one-step neighbourhood of the
    sources, so a source reaches itself at 1 through a self-loop and at 2
    through a neighbour.  ``None`` takes every vertex as its own source:
    level 1 is then ``adj`` itself and each later level one symmetric
    ``_compose``.  The walk stops at the level that reaches the last
    entry, or at the first empty level.

    Each level stays in the form its step made.  A packed level is masked
    against a packed reached set, kept while the levels are packed; a
    dense one against ``dist`` itself, which costs nothing next to its
    product.  A level is recorded from the form the next step reads: its
    nonzeros, found from its nonzero words when it is packed, or its dense
    matrix.  So a thin walk never scans a dense r x k matrix and a fat one
    never packs a level.
    """
    whole = sources is None
    b = _Bits(adj)
    front = b if whole else _compose(_Bits(sources), b, False)
    dist = np.zeros(front.shape, dtype=np.min_scalar_type(adj.shape[0] + 1))
    seen = None  # packed reached set, kept while the levels are packed
    reached = 0
    level = 1
    while True:
        if front.is_packed:
            if seen is None:
                seen = _pack(dist != 0)
            words = front.words & ~seen[front.rows]
            seen[front.rows] |= words
            front = _Bits(shape=front.shape, rows=front.rows, words=words)
        else:
            new = dist == 0
            new &= front.dense
            front = _Bits(new)
            seen = None
        if front.nnz == 0:
            break
        reached += front.nnz
        done = reached == dist.size
        nxt = None if done else _compose(front, b, whole)
        dist[front.index()] = level
        if done:
            break
        front, level = nxt, level + 1
    return dist


def _class_distances(adj: np.ndarray, sources: np.ndarray | None = None):
    """Walk distances on the support-twin quotient of a symmetric boolean
    graph, and the class of each cell.

    ``sources`` is an r x n boolean matrix of source sets; row r of the
    distances is the least m >= 1 such that some cell of ``sources[r]`` has
    a length-m walk to a cell of class c, inf where there is none.  ``None``
    takes every class as its own source and gives the k x k class matrix.
    """
    q, cls = _support_classes(np.asarray(adj, dtype=bool))
    if sources is not None and q.shape[0] != cls.shape[0]:
        src = np.zeros((sources.shape[0], q.shape[0]), dtype=bool)
        rows, cells = np.nonzero(sources)
        src[rows, cls[cells]] = True
        sources = src
    levels = _bfs(q, sources)
    d = levels.astype(np.float64)
    d[levels == 0] = np.inf
    return d, cls


def _walk_distances(adj: np.ndarray, sources: np.ndarray | None = None):
    """Walk distances on a symmetric boolean graph, computed on its
    support-twin quotient.

    ``sources`` is an r x n boolean matrix of source sets; row r of the
    result is the least m >= 1 such that some cell of ``sources[r]`` has a
    length-m walk to cell j, inf where there is none.  ``None`` takes every
    cell as its own source and gives the n x n matrix.
    """
    d, cls = _class_distances(adj, sources)
    if d.shape[1] == cls.shape[0]:  # twin-free: the classes are the cells
        return d
    return d[np.ix_(cls, cls)] if sources is None else d[:, cls]


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
    """Whether the graphon is connected, decided on the support graph: one
    BFS from block 0 reaches every block (so no union of blocks is cut off
    from the rest, and a lone block carries a self-loop): O(levels * k^2).
    """
    s = support_graph(w, epsilon)
    d = _walk_distances(s.matrix, _source_rows(s.size, 0))
    return bool(np.isfinite(d).all())


def diameter(w, epsilon: float | None = None):
    """Largest walk distance over all block pairs (diagonal included);
    ``UNREACHABLE`` when some pair cannot be joined by any walk.

    The largest level of the whole-field BFS on the support-twin quotient,
    so it costs what ``block_distance_matrix`` does.
    """
    q, _ = _support_classes(support_graph(w, epsilon).matrix)
    levels = _bfs(q)
    return UNREACHABLE if (levels == 0).any() else int(levels.max())
