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
class graph is exact, since twins have the same neighbours.  One function,
``_class_walk``, runs every whole walk of a class graph.  It takes L - 1
products when the largest walk distance L joins every pair, and L when
some pair is unreachable (one closing product finds the next level empty),
and its largest level is the diameter.  A circulant class graph (row i is
row 0 rotated by i: a ring graphon W(x, y) = f(|x - y| mod 1) on a uniform
grid) takes those products on class 0's row alone and rotates its levels,
since rotation by one class maps it onto itself (``_row_levels``); any
other whose row 1 is not row 0 rotated is turned away in O(k).

A graphon whose block matrix is circulant keeps its row 0, found once on
construction (``core.StepGraphon``), and is walked from that row alone
(``_walk``): its support row is ``row0 > eps``, its classes
are i mod p for the row's least period p, and the one row walk runs on
the p-circulant of the row's first p entries, whose packed rows are made
as the walk takes them (``_Circulant``).  So building and walking it
forms nothing of size n^2 but the graphon's own blocks: no support
matrix, quotient or packed class graph.

A graphon keeps one record per support threshold, ``_Walk``, in a
``weakref.WeakKeyDictionary`` keyed by the graphon (``_walk``): the
read-only k x k class levels of its whole walk (k^2 bytes, 2 k^2 once the
walk reaches level 256, against the graphon's own 8 n^2 bytes of blocks;
for a graphon walked from its row, the rotations of one level row, 2p
bytes), the read-only class of each cell and the diameter.  The first
``distance_field``, ``diameter``, ``is_connected``, point or set query at
a threshold builds it whole; every later one reads it and walks nothing
(connected iff the diameter is finite), and a ``DistanceField`` shares
its arrays.  So a cold one-shot query pays the walk of the whole field:
one BFS row on a circulant (a point query at 2,048 cells: about 18 ms on
the band tau = 1/7 and 45 ms on tau = 1/1024, where walking every class
row took 0.1 s and 1 s), every class row on any other support; and a
query on a long-lived graphon costs a lookup.  Each kept array lies in a
memory map of its own (``core._mapped``): on the C heap it splits the
space that short-lived arrays reuse (see the README).
The record goes with the graphon, which must be immutable:
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
the directed pattern of its operator (``linalg._walk_series``).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .core import (GridGraphon, ValidationError, _array, _circulant_row,
                   _is_symmetric, _mapped, _own, _readonly, _real,
                   _rotations, _square_matrix)

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
    that); its entries must be booleans or numbers exactly 0 or 1 (no
    entry is read by truthiness); the threshold is checked as a query's
    (``None`` is the step default)."""

    matrix: np.ndarray
    epsilon: float

    def __post_init__(self):
        m = self.matrix
        if not (isinstance(m, np.ndarray) and m.dtype == bool):
            m = _array(m, "support matrix")
            if not np.all((m == 0.0) | (m == 1.0)):
                raise ValidationError(
                    "support matrix entries must be booleans or exactly 0 "
                    "or 1")
        _own(self, matrix=bool)
        m = _square_matrix(self.matrix, "support matrix", bool)
        if not _is_symmetric(m):
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
    eps = (default_epsilon(w) if epsilon is None
           else _real(epsilon, "support threshold"))
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
    def width(self) -> int:
        """Words per packed row."""
        return self.words.shape[1]

    def take(self, index) -> np.ndarray:
        """The packed rows at ``index`` (indices or a slice) of a matrix
        that lists every row."""
        return self.words[index]

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


class _Circulant:
    """The k x k circulant of a boolean row, row i being the row rotated
    by i, as a right operand of ``_compose`` (which reads its ``shape``,
    its ``width`` and the packed rows it ``take``s, as of a ``_Bits``
    that lists every row), its packed rows made when taken, so nothing of
    size k^2 is formed.

    Row i is bits k - i .. 2k - i - 1 of the doubled row.  The doubled
    row is packed once at each of the 8 bit offsets, so row i is
    ceil(k / 8) consecutive bytes of the packing at offset (k - i) % 8,
    from byte (k - i) // 8, with the bits past k in its last byte
    cleared: k / 8 bytes gathered per row taken.
    """

    def __init__(self, row: np.ndarray):
        k = row.size
        self.shape, self.width = (k, k), -(-k // 64)
        self._bytes = -(-k // 8)
        span = k // 8 + self._bytes        # bytes read at any offset
        doubled = np.zeros(8 * span + 8, dtype=bool)
        doubled[:k] = doubled[k:2 * k] = row
        packed = np.stack([np.packbits(doubled[r:r + 8 * span],
                                       bitorder="little") for r in range(8)])
        self._windows = np.lib.stride_tricks.sliding_window_view(
            packed, self._bytes, axis=1)
        self._tail = np.uint8(0xFF >> -k % 8)

    def take(self, index) -> np.ndarray:
        k = self.shape[0]
        start, offset = np.divmod(k - np.arange(k)[index], 8)
        out = np.zeros((start.size, 8 * self.width), dtype=np.uint8)
        out[:, :self._bytes] = self._windows[offset, start]
        out[:, self._bytes - 1] &= self._tail
        return out.view(np.uint64)


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
    first = np.ones(rows.size, dtype=bool)
    np.not_equal(rows[1:], rows[:-1], out=first[1:])
    starts = first.nonzero()[0]
    out = np.empty((starts.size, b.width), dtype=np.uint64)
    per = max(1, GATHER_WORDS // b.width)
    s = 0
    while s < starts.size:
        e = max(s + 1, int(starts.searchsorted(starts[s] + per)))
        lo, hi = starts[s], (starts[e] if e < starts.size else rows.size)
        out[s:e] = np.bitwise_or.reduceat(b.take(cols[lo:hi]),
                                          starts[s:e] - lo, axis=0)
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
    picks = a.words.view(np.uint8)
    out = np.zeros((a.rows.size, b.width), dtype=np.uint64)
    table = np.zeros((256, b.width), dtype=np.uint64)
    chosen = np.empty_like(out)
    for g in range(-(-k // 8)):
        s = 1
        for row in b.take(slice(8 * g, 8 * g + 8)):
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
    return _levels(b, b if sources is None
                   else _compose(_Bits.of(sources), b))


def _levels(b: _Bits, front: _Bits) -> np.ndarray:
    """The levels of ``_bfs`` on ``b`` from the first level ``front``:
    ``b`` itself, the neighbourhoods of source sets, or one row of ``b``
    (the row walk of a circulant, ``_row_levels``)."""
    dist = np.zeros(front.shape, dtype=np.uint8)
    seen = np.zeros((front.shape[0], b.width), dtype=np.uint64)
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
    ``levels`` itself when every cell is its own class, numbered in order
    (``classes`` is ``arange(k)``; an O(n) check)."""
    if np.array_equal(classes, np.arange(levels.shape[0])):
        return levels
    return levels[np.ix_(classes, classes)]


def _row_levels(b) -> np.ndarray:
    """The BFS levels of class 0 in a circulant class graph ``b`` (row i
    is row 0 rotated by i), given with every row packed (``_Bits.of``) or
    as rows made when the walk takes them (``_Circulant``): ``_levels``
    from b's row 0 as the first level.  Rotation by one class maps the
    circulant onto itself, so the levels of class i are these rotated by
    i (``_rotations``), and class 0 reaches the largest level, so they
    widen past 255 as a whole walk does."""
    first = _Bits((1, b.shape[1]), np.zeros(1, dtype=np.intp),
                  b.take(slice(0, 1)))
    return _levels(b, first)[0]


def _period(row: np.ndarray) -> int:
    """The least p > 0 with row[j] == row[(j + p) mod k] for every j: a
    divisor of k, since the shifts that fix a cyclic row are a subgroup
    of Z_k, so only divisors are tried, each by one comparison."""
    k = row.size
    small = [d for d in range(1, math.isqrt(k) + 1) if k % d == 0]
    return next(p for p in small + [k // d for d in reversed(small)]
                if np.array_equal(row[p:], row[:k - p]))


def _class_walk(adj: np.ndarray):
    """The whole-field BFS levels between the support classes of a boolean
    support (k x k small integers, 0 where no walk joins two classes; see
    ``_bfs``) and the class of each vertex.

    A circulant class support (``core._circulant_row``: row i is row 0
    rotated by i, as on a ring graphon W(x, y) = f(|x - y| mod 1) on a
    uniform grid) walks class 0 alone (``_row_levels``), and its levels
    are the rotations of class 0's (``_rotations``).  Row 1 is compared
    first, so any other support is turned away in O(k) unless it shares
    the first two rows of a circulant.
    """
    reps, classes = _row_classes(np.packbits(adj, axis=1))
    if reps.size < adj.shape[0]:
        adj = adj[np.ix_(reps, reps)]
    b = _Bits.of(adj)
    if _circulant_row(adj) is None:
        return _bfs(b), classes
    return _rotations(_row_levels(b)), classes


@dataclass(frozen=True, eq=False)
class _Walk:
    """The kept walk of a graphon at a threshold: the read-only ``levels``
    and ``classes`` of ``_class_walk`` (for a circulant graphon, the
    levels the rotations of one level row in a map of 2p entries) and the
    ``diameter``, their largest level or ``UNREACHABLE`` when some pair
    has none."""

    levels: np.ndarray
    classes: np.ndarray
    diameter: int | float


#: graphon -> {support threshold: ``_Walk``}; see the module docstring
_WALKS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _walk(w, epsilon: float | None = None) -> _Walk:
    """The kept walk of a graphon at a threshold (``None`` for
    ``default_epsilon(w)``), built whole on first use, from the graphon's
    row 0 when its blocks are circulant (the diameter then read off the
    level row); a bad threshold is rejected before anything is walked or
    kept."""
    eps = _threshold(w, epsilon)
    kept = _WALKS.setdefault(w, {})
    walk = kept.get(eps)
    if walk is None:
        # ``reach`` holds every level: all of them, or class 0's
        if w._circulant is None:
            levels, classes = _class_walk(w.blocks > eps)
            levels = reach = _mapped(levels)
        else:
            # rows i and j of the support are equal iff the row's least
            # period p divides i - j: the classes are i mod p, numbered as
            # ``_row_classes`` numbers them, and the class support is the
            # circulant of the row's first p entries
            row = w._circulant > eps
            p = _period(row)
            reach = _row_levels(_Circulant(row[:p]))
            classes = np.arange(row.size) % p
            levels = _rotations(reach, keep=True)
        walk = kept[eps] = _Walk(
            levels, _mapped(classes),
            int(reach.max()) if reach.all() else UNREACHABLE)
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
    return _distances(_cell_levels(*_class_walk(s.matrix)))


def is_connected(w, epsilon: float | None = None) -> bool:
    """Whether the graphon is connected, decided on the support graph: its
    diameter is finite, so no union of blocks is cut off from the rest and
    a lone block carries a self-loop.  It reads and walks what
    ``diameter`` does."""
    return math.isfinite(diameter(w, epsilon))


def diameter(w, epsilon: float | None = None):
    """Largest walk distance over all block pairs (diagonal included);
    ``UNREACHABLE`` when some pair cannot be joined by any walk: the
    diameter of the graphon's kept walk (``_walk``)."""
    return _walk(w, epsilon).diameter
