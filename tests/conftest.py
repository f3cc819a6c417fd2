"""Shared builders and independent oracles for the test suite."""

import math
from collections import deque

import numpy as np
import pytest

from graphondist import Partition, is_connected, step


def cycle_adjacency(k: int) -> np.ndarray:
    a = np.zeros((k, k))
    for i in range(k):
        a[i, (i + 1) % k] = a[(i + 1) % k, i] = 1.0
    return a


def random_partition(rng, n: int) -> Partition:
    weights = rng.uniform(0.5, 1.5, n)
    return Partition(weights / weights.sum())


def random_step_graphon(rng, n: int, density: float = 0.6,
                        ensure_connected: bool = False,
                        homogeneous: bool = False):
    """Random step graphon; rejection-samples for connectedness on demand."""
    while True:
        vals = rng.random((n, n)) * (rng.random((n, n)) < density)
        vals = np.triu(vals)
        blocks = vals + np.triu(vals, 1).T
        part = Partition.uniform(n) if homogeneous else random_partition(rng, n)
        w = step(part, blocks)
        if not ensure_connected or is_connected(w):
            return w


def bfs_oracle(adj, sources=None) -> np.ndarray:
    """Plain queue BFS shortest-path lengths, self-loops ignored: one row
    per source (every vertex by default).

    Deliberately naive and independent of the library's level-synchronous
    matrix implementation.
    """
    adj = np.asarray(adj)
    n = adj.shape[0]
    sources = range(n) if sources is None else list(sources)
    neighbours = [np.flatnonzero(row).tolist() for row in adj]
    out = np.full((len(sources), n), math.inf)
    for row, s in enumerate(sources):
        dist = out[row]
        dist[s] = 0.0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in neighbours[u]:
                if v != u and math.isinf(dist[v]):
                    dist[v] = dist[u] + 1.0
                    queue.append(v)
    return out


def quadrature_block_average(w, x_lo, x_hi, y_lo, y_hi, samples=400):
    """Midpoint-rule average of a graphon over a rectangle; an integration
    oracle independent of the exact partition-intersection path."""
    from graphondist import evaluate

    xs = x_lo + (np.arange(samples) + 0.5) * (x_hi - x_lo) / samples
    ys = y_lo + (np.arange(samples) + 0.5) * (y_hi - y_lo) / samples
    return float(np.mean(evaluate(w, xs[:, None], ys[None, :])))


def finitely_connected(support) -> bool:
    """Every block pair joined by some support power m <= n."""
    adj = support.matrix
    n = adj.shape[0]
    power = adj.copy()
    seen = adj.copy()
    for _ in range(n - 1):
        power = (power.astype(np.uint8) @ adj.astype(np.uint8)) > 0
        seen |= power
    return bool(seen.all())


def laplacian_zero_simple(w) -> bool:
    """The symmetrized block Laplacian has a one-dimensional kernel."""
    from graphondist import degree, sym_eig

    mu = w.partition.measures
    root = np.sqrt(mu)
    b = root[:, None] * w.blocks * root[None, :]
    k = degree(w).values
    lam = sym_eig(np.diag(k) - b).eigenvalues
    return int(np.sum(np.abs(lam) < 1e-9)) == 1


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
