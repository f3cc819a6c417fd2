"""Connectedness, walk distances and diameter of graphons, decided on the
block/cell support graph.

For step graphons the block-level decision is exact: a step graphon is
disconnected precisely when some union of blocks has zero edge mass to its
complement (or a lone block carries no edge at all).  For grid graphons the
same procedure on the cell support graph is a discretization and is flagged
as approximate by the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GridGraphon, _readonly

#: explicit marker for unreachable pairs (never a large integer)
UNREACHABLE = math.inf

#: default support thresholds: exact zeros expected for step graphons,
#: quadrature noise allowed for grids
STEP_EPSILON = 1e-12
GRID_EPSILON = 1e-9


@dataclass(frozen=True, eq=False)
class SupportGraph:
    """Boolean block/cell support of a graphon at a declared threshold."""

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
    if eps < 0.0:
        raise ValueError("support threshold must be nonnegative")
    return SupportGraph(w.blocks > eps, eps)


def _path_distances(adj: np.ndarray) -> np.ndarray:
    """All-pairs shortest-path lengths of a boolean graph (self-loops
    ignored, zero diagonal, inf where unreachable).

    Level-synchronous multi-source BFS: the frontier is kept as a row-per-
    source boolean matrix and expanded by one matrix product per level, so
    the work is a handful of dense products for small-diameter graphs.
    """
    adj = np.asarray(adj, dtype=bool)
    n = adj.shape[0]
    eye = np.eye(n, dtype=bool)
    off = (adj | adj.T) & ~eye
    dist = np.where(eye, 0.0, np.inf)
    reached = eye.copy()
    adj_f = off.astype(np.float32)
    frontier = np.eye(n, dtype=np.float32)
    level = 0
    while True:
        level += 1
        hit = (frontier @ adj_f) > 0.0
        new = hit & ~reached
        if not new.any():
            return dist
        dist[new] = level
        reached |= new
        frontier = new.astype(np.float32)


def block_distance_matrix(s: SupportGraph) -> np.ndarray:
    """Walk distances d'(i,j) = least m >= 1 with a length-m walk from i
    to j on the support graph.

    Off-diagonal entries coincide with shortest-path lengths.  A diagonal
    entry is 1 when the block carries a self-loop, otherwise 2 when the
    block has any neighbour (walk i -> j -> i), otherwise unreachable.
    """
    adj = s.matrix
    d = _path_distances(adj)
    loops = np.diag(adj).copy()
    n = adj.shape[0]
    has_neighbour = (adj & ~np.eye(n, dtype=bool)).any(axis=1)
    diag = np.where(loops, 1.0, np.where(has_neighbour, 2.0, UNREACHABLE))
    np.fill_diagonal(d, diag)
    return d


def is_connected(w, epsilon: float | None = None) -> bool:
    """Whether the graphon is connected, decided on the support graph.

    A single block is connected iff it carries a self-loop; otherwise the
    graphon is connected iff the support graph with self-loops ignored has
    a single component (so no union of blocks is cut off from the rest).
    """
    s = support_graph(w, epsilon)
    if s.size == 1:
        return bool(s.matrix[0, 0])
    d = _path_distances(s.matrix)
    return bool(np.isfinite(d).all())


def diameter(w, epsilon: float | None = None):
    """Largest walk distance over all block pairs (diagonal included);
    ``UNREACHABLE`` when some pair cannot be joined by any walk."""
    d = block_distance_matrix(support_graph(w, epsilon))
    top = float(d.max())
    return int(top) if math.isfinite(top) else UNREACHABLE
