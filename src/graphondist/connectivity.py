"""Connectedness, walk distances and diameter of graphons, decided on the
block/cell support graph.

For step graphons the block-level decision is exact: a step graphon is
disconnected precisely when some union of blocks has zero edge mass to its
complement (or a lone block carries no edge at all).  For grid graphons the
same procedure on the cell support graph is a discretization and is flagged
as approximate by the CLI.

The work is sized to the question.  Cells with identical support rows
(support twins) are merged first by ``_row_classes``, which also finds the
sampler's twins and the groups of ``merge_twins``; the walk on the k x k
class graph is exact, since twins have the same neighbours.  One whole
walk of the class graph answers every query: it takes L - 1 products when
the largest walk distance L joins every pair, and L when some pair is
unreachable (one closing product finds the next level empty), and its
largest level is the diameter.

A graphon keeps what its walks share, per support threshold, in a
``weakref.WeakKeyDictionary`` keyed by the graphon (``_walk``): the
support-twin quotient bit-packed into 64-bit words (k^2 / 8 bytes), the
class of each cell, the diameter once a whole walk has decided it, and
the read-only k x k class levels of that walk (k^2 bytes, 2 k^2 once
the walk reaches level 256, against the graphon's own 8 n^2 bytes of
blocks).  One rule holds: the first ``diameter``, ``is_connected``,
point or set query on a graphon at a threshold walks the whole class
graph once and keeps its levels; every later one reads them (connected
iff the diameter is finite) and walks nothing, as do ``diameter`` and
``is_connected`` after a field.  So a cold one-shot query pays a whole
walk where one BFS row would do (a point query on the band tau = 1/7 at
2,048 cells: about 0.1 s against 7 ms; tau = 1/1024: 1 s against 33
ms), and a query on a long-lived graphon costs a lookup.  The one
exception is ``distance_field`` (``varadhan``): it returns the kept
levels when there are any, and otherwise keeps only the diameter of its
walk, since the ``DistanceField`` owns the levels.  Keeping them on the
graphon too would share that array, yet it raises the ``field``
benchmark's peak RSS by their size, 6 MB of uint8 levels (290 to 297
MB); see the README for the measurement.
The entries go with the graphon, which must be immutable:
``StepGraphon`` is a frozen dataclass whose blocks and measures are
read-only arrays of its own (``core._own``).
``block_distance_matrix`` takes a bare ``SupportGraph`` and keeps nothing.

Every product goes through one kernel, ``_compose``, and every BFS level
is bit-packed: each row of k classes in ceil(k / 64) uint64 words.  The
kernel takes the cheaper of two steps for the left operand it is given, by
a word count derived from the operands (no measured constant):

- the packed step, a top-down BFS step on bit-parallel rows, ORs together
  the packed rows of the right operand that the nonzeros of the left one
  select: nnz * k / 64 word operations, so a thin frontier costs what it
  holds;
- the table step, the Method of Four Russians (Arlazarov, Dinic, Kronrod
  and Faradzev 1970; the M4RI library of Albrecht, Bard and Hart, ACM TOMS
  2010), builds for each group of 8 right-operand rows a 256-row table of
  the ORs of their subsets and ORs into every output row the table row its
  byte of the left operand selects: (k / 8)(256 + r) k / 64 word
  operations for r rows, whatever their density.

So the packed step is taken while nnz < ceil(k / 8)(256 + r): a whole
field turns to the table step above about 1/8 + 32/k density, and a
source row always takes the packed step, since it has at most k
nonzeros.  A thin walk never scans a dense matrix, and no walk multiplies
a floating-point matrix.  ``_bfs`` is a plain boolean product per level,
so it also walks from the source rows of a slope series' start set on
the directed pattern of its operator (``linalg._walk_series``), the one
walk that starts from source rows.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .core import GridGraphon, ValidationError, _own, _readonly, _square_matrix

#: explicit marker for unreachable pairs (never a large integer)
UNREACHABLE = math.inf

#: default support thresholds: exact zeros expected for step graphons,
#: quadrature noise allowed for grids
STEP_EPSILON = 1e-12
GRID_EPSILON = 1e-9

#: words the packed step gathers at a time (512 KB), so the rows it ORs
#: together are still in cache
GATHER_WORDS = 1 << 16


@dataclass(frozen=True, eq=False)
class SupportGraph:
    """Boolean block/cell support of a graphon at a declared threshold.

    The matrix must be nonempty, square and symmetric, as a graphon's
    support is (the walks on it and its support-twin quotient rely on
    that); the threshold is checked as a query's (``None`` is the step
    default)."""

    matrix: np.ndarray
    epsilon: float

    def __post_init__(self):
        _own(self, matrix=bool)
        m = _square_matrix(self.matrix, "support matrix", bool)
        if not np.array_equal(m, m.T):
            raise ValidationError("support matrix must be square and symmetric")
        object.__setattr__(self, "epsilon", _threshold(None, self.epsilon))

    @property
    def size(self) -> int:
        return int(self.matrix.shape[0])


def default_epsilon(w) -> float:
    return GRID_EPSILON if isinstance(w, GridGraphon) else STEP_EPSILON


def _threshold(w, epsilon: float | None) -> float:
    """The support threshold of a query or a ``SupportGraph``:
    ``default_epsilon(w)`` for ``None``, rejected unless finite and
    nonnegative."""
    eps = default_epsilon(w) if epsilon is None else float(epsilon)
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValidationError(
            f"support threshold must be finite and nonnegative, got {eps!r}")
    return eps


def support_graph(w, epsilon: float | None = None) -> SupportGraph:
    """Support graph of a graphon: an edge wherever the block/cell value
    exceeds epsilon."""
    eps = _threshold(w, epsilon)
    return SupportGraph(_readonly(w.blocks > eps), eps)


def _row_classes(rows: np.ndarray):
    """Classes of equal rows of a C-contiguous 2-d array, the rows compared
    as bytes (so -0.0 and 0.0 differ: add 0.0 first to read them as equal).

    Returns the first row of each class, ascending, and the class of each
    row, the classes numbered in order of first occurrence.  Support twins
    are the classes of the packed support rows.
    """
    keys = rows.view(np.dtype((np.void, rows[0].nbytes))).ravel()
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse.reshape(-1)]


class _Bits:
    """An r x k boolean matrix, bit-packed: ``rows``, the ascending
    indices of the rows that may be nonempty, and ``words``, those rows
    packed by ``_pack``.  The nonzeros are derived on first use and
    kept."""

    def __init__(self, shape, rows, words):
        self.shape, self.rows, self.words = shape, rows, words
        self._nonzero = self._nnz = None

    @classmethod
    def of(cls, m: np.ndarray) -> "_Bits":
        """Every row of a boolean matrix, packed."""
        return cls(m.shape, np.arange(m.shape[0]), _pack(m))

    @property
    def nnz(self) -> int:
        if self._nnz is None:
            self._nnz = _popcount(self.words)
        return self._nnz

    def nonzero(self):
        """Row and column indices of the true entries, in row-major order."""
        if self._nonzero is None:
            self._nonzero = _unpack(self.rows, self.words)
        return self._nonzero

    def index(self):
        """The true entries as an index: the nonzeros where they were
        derived, the unpacked boolean matrix otherwise (scattered into a
        zero matrix only when some row is not listed)."""
        if self._nonzero is not None:
            return self._nonzero
        bits = np.unpackbits(
            self.words.view(np.uint8), axis=1, count=self.shape[1],
            bitorder="little").view(bool)
        if self.rows.size == self.shape[0]:
            return bits
        dense = np.zeros(self.shape, dtype=bool)
        dense[self.rows] = bits
        return dense


def _pack(m: np.ndarray) -> np.ndarray:
    """Rows of a boolean matrix as uint64 words, column j at bit j % 8 of
    byte j // 8 of the row (so byte g of ``view(np.uint8)`` holds columns
    8g..8g + 7 on any byte order; only bitwise use of the words is
    portable)."""
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
    the nonzero words only, in row-major order.  The unpacked bits are 0
    or 1 bytes, so they are searched as booleans, which numpy scans several
    times faster than uint8."""
    flat = words.reshape(-1)
    at = flat.nonzero()[0]
    hit = np.unpackbits(flat[at].view(np.uint8),
                        bitorder="little").view(bool).nonzero()[0]
    row, word = np.divmod(at[hit >> 6], words.shape[1])
    return rows[row], (word << 6) | (hit & 63)


def _compose(a: _Bits, b: _Bits) -> _Bits:
    """Boolean product (a o b)[i, j] = any_l a[i, l] & b[l, j] of an r x k
    matrix and a k x k one that lists every row, by the cheaper of two
    steps on packed rows; b need not be symmetric.

    The packed step costs nnz(a) ceil(k / 64) word operations and the
    table step ceil(k / 8)(256 + r) ceil(k / 64), r the rows a lists; the
    packed step is taken while it costs less.
    """
    if a.nnz < -(-a.shape[1] // 8) * (256 + a.rows.size):
        return _packed_step(a, b)
    return _table_step(a, b)


def _packed_step(a: _Bits, b: _Bits) -> _Bits:
    """a o b as the OR of the packed rows of b that each row of a selects
    (top-down BFS step on bit-parallel rows), in slices of about
    ``GATHER_WORDS`` gathered words: nnz(a) * k / 64 word operations."""
    rows, cols = a.nonzero()
    bits = b.words
    first = np.ones(rows.size, dtype=bool)
    np.not_equal(rows[1:], rows[:-1], out=first[1:])
    starts = first.nonzero()[0]
    out = np.empty((starts.size, bits.shape[1]), dtype=np.uint64)
    per = max(1, GATHER_WORDS // bits.shape[1])
    s = 0
    while s < starts.size:
        e = max(s + 1, int(starts.searchsorted(starts[s] + per)))
        lo, hi = starts[s], (starts[e] if e < starts.size else rows.size)
        out[s:e] = np.bitwise_or.reduceat(bits[cols[lo:hi]], starts[s:e] - lo,
                                          axis=0)
        s = e
    return _Bits(a.shape, rows[starts], out)


def _table_step(a: _Bits, b: _Bits) -> _Bits:
    """a o b by the Method of Four Russians (Arlazarov, Dinic, Kronrod and
    Faradzev 1970) on packed rows: (k / 8)(256 + r) k / 64 word
    operations for the r rows a lists, whatever its density.

    b's rows go in groups of 8.  For group g one 256-row table holds the
    OR of every subset of the group's rows, built by doubling (row s | 2^j
    of the table is row s OR b's row 8g + j), and every output row ORs in
    the table row that its byte g selects: byte g of a packed row holds
    columns 8g..8g + 7 of a.  One table and one buffer of chosen rows
    are reused for every group.
    """
    k = a.shape[1]
    bits = b.words
    picks = a.words.view(np.uint8)
    out = np.zeros((a.rows.size, bits.shape[1]), dtype=np.uint64)
    table = np.zeros((256, bits.shape[1]), dtype=np.uint64)
    chosen = np.empty_like(out)
    for g in range(-(-k // 8)):
        s = 1
        for row in bits[8 * g:8 * g + 8]:
            np.bitwise_or(table[:s], row, out=table[s:2 * s])
            s *= 2
        # a byte never exceeds 255, so "clip" only spares the buffering
        # that the default mode does for ``out``
        np.take(table, picks[:, g], axis=0, out=chosen, mode="clip")
        out |= chosen
    return _Bits(a.shape, a.rows, out)


def _bfs(b: _Bits, sources: np.ndarray | None = None) -> np.ndarray:
    """Level-synchronous BFS on the boolean graph ``b`` (every row packed)
    from boolean source sets, one per row.  Each level is a plain boolean
    product with ``b``, so ``b`` may be directed (edge i -> j where
    b[i, j]).

    Row r holds the least m >= 1 such that some vertex of ``sources[r]``
    has a length-m walk to vertex j, 0 where there is none, as small
    integers: uint8 until level 256 is reached, then the next wider type.
    The first frontier is the one-step neighbourhood of the sources, so a
    source reaches itself at 1 through a self-loop and at 2 through a
    neighbour.  ``None`` takes every vertex as its own source:
    level 1 is then ``b`` itself and each later level one ``_compose``.
    The walk stops at the level that reaches the last entry, or at the
    first empty level.

    Every level is packed and masked against the packed reached set.  A
    level is recorded from its nonzeros where the next step derived them
    (a packed step), and from its unpacked matrix otherwise.
    """
    front = b if sources is None else _compose(_Bits.of(sources), b)
    dist = np.zeros(front.shape, dtype=np.uint8)
    seen = np.zeros((front.shape[0], b.words.shape[1]), dtype=np.uint64)
    reached = 0
    level = 1
    while True:
        words = front.words & ~seen[front.rows]
        seen[front.rows] |= words
        front = _Bits(front.shape, front.rows, words)
        if front.nnz == 0:
            break
        reached += front.nnz
        done = reached == dist.size
        nxt = None if done else _compose(front, b)
        if level > np.iinfo(dist.dtype).max:  # widened only when reached
            dist = dist.astype(np.min_scalar_type(level))
        dist[front.index()] = level
        if done:
            break
        front, level = nxt, level + 1
    return dist


def _distances(levels: np.ndarray) -> np.ndarray:
    """BFS levels as walk distances: float64, inf where no walk reaches."""
    d = np.array(levels, dtype=np.float64)
    d[levels == 0] = np.inf
    return d


def _cell_levels(levels: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Class levels spread to every pair of cells (n x n), read from
    ``levels`` itself when every cell is its own class."""
    if levels.shape[0] == classes.shape[0]:  # twin-free: classes are cells
        return levels
    return levels[np.ix_(classes, classes)]


class _Walk:
    """What the walks of one support keep (see the module docstring): the
    support-twin quotient packed by ``_pack``, the class of each cell, the
    diameter once a whole walk has decided it, and ``kept``, the read-only
    class levels of the walk that ``keep`` ran (each ``None`` before); no
    reference to the graphon."""

    __slots__ = ("words", "classes", "diameter", "kept")

    def __init__(self, adj: np.ndarray):
        reps, classes = _row_classes(np.packbits(adj, axis=1))
        if reps.size < adj.shape[0]:
            adj = adj[np.ix_(reps, reps)]
        self.words = _readonly(_pack(adj))
        self.classes = _readonly(classes)
        self.diameter = self.kept = None

    @property
    def size(self) -> int:
        """The number k of support classes."""
        return int(self.words.shape[0])

    def levels(self) -> np.ndarray:
        """BFS levels between every pair of classes (k x k small integers,
        0 where no walk joins them), from one whole-field BFS, which also
        decides the diameter: the largest level, or ``UNREACHABLE`` when
        some pair has none."""
        k = self.size
        levels = _bfs(_Bits((k, k), np.arange(k), self.words))
        self.diameter = int(levels.max()) if levels.all() else UNREACHABLE
        return levels

    def keep(self) -> np.ndarray:
        """The kept class levels: the first call walks (``levels``) and
        keeps them read-only, later calls read them."""
        if self.kept is None:
            self.kept = _readonly(self.levels())
        return self.kept


#: graphon -> {support threshold: ``_Walk``}; see the module docstring
_WALKS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _walk(w, epsilon: float | None = None) -> _Walk:
    """The kept walk state of a graphon at a threshold (``None`` for
    ``default_epsilon(w)``), built on first use: one support graph and one
    support-twin quotient per graphon and threshold."""
    eps = _threshold(w, epsilon)
    kept = _WALKS.setdefault(w, {})
    walk = kept.get(eps)
    if walk is None:
        walk = kept[eps] = _Walk(w.blocks > eps)
    return walk


def block_distance_matrix(s: SupportGraph) -> np.ndarray:
    """Walk distances d'(i,j) = least m >= 1 with a length-m walk from i
    to j on the support graph, for every block pair: at most k^3 / 64
    word operations on k support classes, and less where the levels are
    fat (see the module docstring).

    Off-diagonal entries coincide with shortest-path lengths.  A diagonal
    entry is 1 when the block carries a self-loop, otherwise 2 when the
    block has any neighbour (walk i -> j -> i), otherwise unreachable.
    """
    walk = _Walk(s.matrix)
    return _distances(_cell_levels(walk.levels(), walk.classes))


def is_connected(w, epsilon: float | None = None) -> bool:
    """Whether the graphon is connected, decided on the support graph: its
    diameter is finite, so no union of blocks is cut off from the rest and
    a lone block carries a self-loop.  It reads and walks what
    ``diameter`` does."""
    return math.isfinite(diameter(w, epsilon))


def diameter(w, epsilon: float | None = None):
    """Largest walk distance over all block pairs (diagonal included);
    ``UNREACHABLE`` when some pair cannot be joined by any walk.

    The largest level of the whole-field BFS on the support-twin quotient,
    decided by the graphon's first whole walk at the threshold: the first
    query's, which it keeps, or ``distance_field``'s.  Only a call before
    either walks, at what ``block_distance_matrix`` costs, and keeps the
    walk's k x k class levels for later queries.
    """
    walk = _walk(w, epsilon)
    if walk.diameter is None:
        walk.keep()
    return walk.diameter
