"""W-random graph sampling and empirical validation of the Varadhan
distance against finite-graph shortest paths.

A sample draws n latent coordinates uniformly on [0,1] and connects each
pair independently with probability W(x_i, x_j); the generator is recorded
so runs are reproducible by (seed, algorithm).

A sample is walked on its twin quotient.  False twins (equal open
neighbourhoods) already have equal rows; a self-loop at every vertex whose
closed neighbourhood another vertex shares gives true twins equal rows
too, and changes no distance between distinct vertices.  A sample of a
{0,1} step graphon is a blow-up of its block graph, the vertices of a
block twins of one kind, so it walks on at most its number of occupied
blocks.  The comparison and the distance profile then count over pairs of
vertex groups (twin class and the support class of the cell, with
vertices that share a coordinate apart), each weighted by its vertex
pairs: O(groups^2) time and memory, never an n x n matrix; the expected
distances are read from the field's class levels.  ``compare_sample``
reports on a sample already drawn, at a support threshold.  Counts and
seeds are whole numbers: 2.5 is rejected, never truncated."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .connectivity import _Walk, _distances, _row_classes
from .core import ValidationError, _checked_count, _own, _readonly
from .varadhan import distance_field

RNG_ALGORITHM = "numpy-pcg64"

#: coins drawn (and probabilities looked up) per block of rows
SAMPLE_BLOCK = 1 << 17


@dataclass(frozen=True, eq=False)
class SampledGraph:
    """Simple undirected graph sampled from a graphon, with its latent
    coordinates and the seed that produced it."""

    coordinates: np.ndarray
    adjacency: np.ndarray
    seed: int

    def __post_init__(self):
        _own(self, coordinates=float, adjacency=bool)

    @property
    def n(self) -> int:
        return int(self.adjacency.shape[0])

    @property
    def edge_count(self) -> int:
        return int(np.triu(self.adjacency, k=1).sum())


def sample_graph(w, n: int, seed: int) -> SampledGraph:
    """Sample an n-vertex simple graph from a graphon, reproducibly.

    Pair (i, j), i < j, is an edge when coin [i, j] of one n x n uniform
    draw falls below W(x_i, x_j).  The coins and the probabilities are
    made in blocks of rows, which draws the same stream as one n x n call,
    so memory is one n x n boolean adjacency plus a block.
    """
    n = _checked_count(n, "n")
    # int(seed), not a float, so a seed past 2^53 stays exact
    if not (float(seed).is_integer() and seed >= 0):
        raise ValidationError(f"sampling requires a nonnegative seed, got "
                              f"{seed!r}")
    seed = int(seed)
    rng = np.random.default_rng(seed)
    coords = rng.random(n)
    cells = w.partition.locate(coords)
    adjacency = np.empty((n, n), dtype=bool)
    step = max(1, SAMPLE_BLOCK // n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        coins = rng.random((hi - lo, n))
        hits = coins < w.blocks[cells[lo:hi, None], cells[None, :]]
        adjacency[lo:hi] = np.triu(hits, k=lo + 1)
    adjacency |= adjacency.T
    return SampledGraph(_readonly(coords), _readonly(adjacency), seed)


def _true_twin_loops(adj: np.ndarray) -> np.ndarray:
    """A simple graph with a self-loop added at every vertex whose closed
    neighbourhood N[v] some other vertex shares.

    Loops change no walk distance between distinct vertices.  With them,
    true twins (equal closed neighbourhoods) have equal rows, as false
    twins (equal open neighbourhoods, no loop) already do, and no vertex of
    a simple graph has twins of both kinds: so the support-twin quotient
    folds both.
    """
    closed = np.array(adj, dtype=bool)
    np.fill_diagonal(closed, True)
    _, shared = _row_classes(np.packbits(closed, axis=1))
    np.fill_diagonal(closed, np.bincount(shared)[shared] > 1)
    return closed


def _sample_classes(graph: SampledGraph):
    """Walk distances between the twin classes of a sampled graph (true
    and false twins), and the class of each vertex.  Entry [a, b] is the
    distance of every pair of distinct vertices drawn from classes a and b;
    a sample of a {0,1} step graphon has at most one class per block."""
    walk = _Walk(_true_twin_loops(graph.adjacency))
    return _distances(walk.levels()), walk.classes


def _pair_counts(sizes: np.ndarray) -> np.ndarray:
    """Unordered pairs of distinct vertices per pair of groups of the given
    sizes: s_a s_b above the diagonal, s_a (s_a - 1) / 2 on it, 0 below."""
    sizes = sizes.astype(np.int64)
    pairs = np.triu(np.outer(sizes, sizes), k=1)
    np.fill_diagonal(pairs, sizes * (sizes - 1) // 2)
    return pairs


def empirical_distance_profile(graph: SampledGraph) -> dict:
    """Histogram of pairwise shortest-path distances over unordered vertex
    pairs; unreachable pairs (across components) appear under ``inf``.

    Counted over pairs of twin classes, each weighted by its vertex pairs,
    so the n x n distance matrix is never formed."""
    d, cls = _sample_classes(graph)
    pairs = _pair_counts(np.bincount(cls))
    present = pairs > 0
    reach = present & np.isfinite(d)
    dists, inverse = np.unique(d[reach], return_inverse=True)
    counts = np.bincount(inverse, weights=pairs[reach], minlength=dists.size)
    hist: dict = {int(dist): int(count) for dist, count in zip(dists, counts)}
    unreachable = int(pairs[present & ~reach].sum())
    if unreachable:
        hist[math.inf] = unreachable
    return hist


def compare_with_varadhan(w, n: int, trials: int, seed: int) -> dict:
    """Sample graphs and tabulate empirical shortest-path distances against
    the pointwise Varadhan distance at the latent coordinates.

    Reports the exact agreement rate and the rate of agreement within +1,
    the statistic that absorbs the systematic one-extra-hop deviation of
    finite samples.  Disconnected samples are reported, not fatal; fewer
    than two vertices, which leave no pair to compare, are invalid.
    """
    return compare_sample(w, sample_graph(w, n, seed), trials)


def compare_sample(w, graph: SampledGraph, trials: int = 1,
                   epsilon: float | None = None) -> dict:
    """The report of ``compare_with_varadhan`` with the drawn sample
    ``graph`` as trial 0, against the distance field of ``w`` at the
    support threshold (``None`` for the default); trial t samples
    ``graph.n`` vertices with seed ``graph.seed + t``."""
    trials = _checked_count(trials, "trials")
    n, seed = graph.n, graph.seed
    if n < 2:
        raise ValidationError("comparison needs at least two vertices")
    field = distance_field(w, epsilon)
    pairs = n * (n - 1) // 2
    per_trial = []
    for trial in range(trials):
        drawn = graph if trial == 0 else sample_graph(w, n, seed + trial)
        agree, within, unreachable = _tally_pairs(field, drawn)
        per_trial.append({
            "seed": int(seed + trial),
            "pairs": pairs,
            "unreachable_pairs": unreachable,
            "agreement": agree / pairs,
            "agreement_within_one": within / pairs,
        })
    return {
        "n": int(n),
        "trials": trials,
        "base_seed": int(seed),
        "rng": RNG_ALGORITHM,
        "per_trial": per_trial,
        "mean_agreement": float(np.mean([t["agreement"] for t in per_trial])),
        "mean_agreement_within_one": float(
            np.mean([t["agreement_within_one"] for t in per_trial])
        ),
    }


def _tally_pairs(field, graph: SampledGraph):
    """Vertex pairs whose walk distance equals the pointwise distance,
    equals it or exceeds it by one, and is unreachable, as integers.

    Vertices are grouped by (twin class, field class, tie): the field
    class is the support class of the vertex's cell, and tie numbers the
    coordinates that two or more vertices share (-1 for the rest).  Every
    pair of distinct vertices across two groups, or within one, has one
    walk distance and one expected distance, read from ``field.levels`` at
    the two field classes, or exactly 0 on coincident coordinates.  So
    each pair of groups is counted once, weighted by its vertex pairs:
    O(groups^2), not O(n^2), and the field's n x n ``matrix`` is never
    built.
    """
    d, cls = _sample_classes(graph)
    coords = graph.coordinates
    _, at, shared = np.unique(coords, return_inverse=True, return_counts=True)
    tie = np.where(shared[at] > 1, at, -1)
    keys = np.stack([cls, field.classes[field.partition.locate(coords)], tie],
                    axis=1)
    groups, sizes = np.unique(keys, axis=0, return_counts=True)
    c, fc, tie = groups.T
    emp = d[np.ix_(c, c)]
    exp = _distances(field.levels[np.ix_(fc, fc)])
    exp[(tie[:, None] == tie[None, :]) & (tie[:, None] >= 0)] = 0.0
    pairs = _pair_counts(sizes)
    agree = emp == exp
    within = agree | (emp == exp + 1.0)
    return (int(pairs[agree].sum()), int(pairs[within].sum()),
            int(pairs[~np.isfinite(emp)].sum()))
