"""Independent reference answers for the benchmark's answer checks.

Nothing here calls graphondist: every reference is a closed form for the
generated input family or a plain queue BFS, so a wrong library answer
cannot also be the expected one.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np


def band_width(tau_num: int, tau_den: int, n: int) -> int:
    """Support half-width floor(tau * n) of a circular band, in cells."""
    return (tau_num * n) // tau_den


def circular_gap(n: int) -> np.ndarray:
    idx = np.arange(n)
    gap = np.abs(idx[:, None] - idx[None, :])
    return np.minimum(gap, n - gap)


def band_values(tau_num: int, tau_den: int, n: int) -> np.ndarray:
    return circular_gap(n) <= band_width(tau_num, tau_den, n)


def band_distances(tau_num: int, tau_den: int, n: int) -> np.ndarray:
    """Cell walk distances of the band: ceil(gap / floor(tau n)) off the
    diagonal, 1 on it (every cell carries a self-loop)."""
    k = band_width(tau_num, tau_den, n)
    d = (-(-circular_gap(n) // k)).astype(np.int16)
    np.fill_diagonal(d, 1)
    return d


def cycle_distance(a, b, k: int):
    gap = np.abs(np.asarray(a) - np.asarray(b))
    return np.minimum(gap, k - gap)


def cycle_adjacency(k: int, order: np.ndarray) -> np.ndarray:
    """Adjacency of the k-cycle whose i-th vertex sits at ring position
    order[i]."""
    pos = np.asarray(order)
    return (cycle_distance(pos[:, None], pos[None, :], k) == 1).astype(float)


def rendered_cycle_distances(ring: np.ndarray, n: int) -> np.ndarray:
    """Cell walk distances of a cycle step graphon rendered on n cells:
    the cycle distance between the cells' blocks, 2 inside a block."""
    k = ring.shape[0]
    blocks = np.arange(n) // (n // k)
    pos = ring[blocks]
    d = cycle_distance(pos[:, None], pos[None, :], k).astype(np.int16)
    d[blocks[:, None] == blocks[None, :]] = 2
    return d


def _neighbours(adj: np.ndarray) -> list[list[int]]:
    return [[v for v in np.flatnonzero(adj[u]).tolist() if v != u]
            for u in range(adj.shape[0])]


def _bfs(nbrs: list[list[int]], source: int) -> np.ndarray:
    dist = np.full(len(nbrs), math.inf)
    dist[source] = 0.0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in nbrs[u]:
            if math.isinf(dist[v]):
                dist[v] = dist[u] + 1.0
                queue.append(v)
    return dist


def walk_distances(adj: np.ndarray) -> np.ndarray:
    """Walk distances by plain queue BFS: shortest path off the diagonal;
    on it 1 with a self-loop, 2 with any neighbour, else inf."""
    adj = np.asarray(adj, dtype=bool)
    nbrs = _neighbours(adj)
    out = np.array([_bfs(nbrs, s) for s in range(len(nbrs))])
    for i, row in enumerate(nbrs):
        out[i, i] = 1.0 if adj[i, i] else (2.0 if row else math.inf)
    return out


def is_connected(adj: np.ndarray) -> bool:
    """Every block reachable from block 0 (self-loops ignored)."""
    return bool(np.isfinite(_bfs(_neighbours(np.asarray(adj, bool)), 0)).all())


def touched_cells(intervals, breakpoints: np.ndarray) -> np.ndarray:
    """Blocks whose interior meets some interval of the set."""
    lo, hi = breakpoints[:-1], breakpoints[1:]
    hit = np.zeros(lo.shape[0], dtype=bool)
    for a, b in intervals:
        hit |= (np.maximum(lo, a) < np.minimum(hi, b))
    return hit


def merge_intervals(pieces) -> tuple:
    """Sorted disjoint union of [a, b) pieces."""
    merged = []
    for a, b in sorted(pieces):
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return tuple(merged)


def sets_overlap(u, v) -> bool:
    return any(max(a, c) < min(b, d) for a, b in u for c, d in v)


def set_distance(dist: np.ndarray, breakpoints: np.ndarray, u, v) -> float:
    if sets_overlap(u, v):
        return 0.0
    ub = touched_cells(u, breakpoints)
    vb = touched_cells(v, breakpoints)
    return float(dist[np.ix_(ub, vb)].min())


def point_distance(dist: np.ndarray, cells_x, cells_y, x, y):
    """Pointwise distance: 0 on coincident points, else the cell entry."""
    d = dist[cells_x, cells_y]
    return np.where(np.asarray(x) == np.asarray(y), 0.0, d)


def slice_distance(values: np.ndarray, measures: np.ndarray, i: int,
                   j: int) -> float:
    return float(np.sum(np.abs(values[i] - values[j]) * measures))


def support_row_classes(values: np.ndarray, epsilon: float) -> int:
    """Number of distinct support rows (an input property)."""
    return int(np.unique(np.packbits(values > epsilon, axis=1), axis=0).shape[0])


def edge_density_sigma(values: np.ndarray, n: int) -> tuple[float, float]:
    """Mean of a grid kernel and the standard deviation of the edge
    density of an n-vertex W-random graph: the U-statistic variance
    4 Var(k)/n + 2 p(1-p)/C(n,2), with k the degree function."""
    p = float(values.mean())
    k = values.mean(axis=1)
    pairs = n * (n - 1) / 2
    var = 4.0 * float(k.var()) / n + 2.0 * p * (1.0 - p) / pairs
    return p, math.sqrt(var)
