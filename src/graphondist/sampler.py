"""W-random graph sampling and empirical validation of the Varadhan
distance against finite-graph shortest paths.

A sample draws n latent coordinates uniformly on [0,1] and connects each
pair independently with probability W(x_i, x_j); the generator is recorded
so runs are reproducible by (seed, algorithm)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .connectivity import _walk_distances
from .core import ValidationError, _readonly
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
        object.__setattr__(self, "coordinates",
                           _readonly(np.asarray(self.coordinates, float)))
        object.__setattr__(self, "adjacency",
                           _readonly(np.asarray(self.adjacency, bool)))

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
    n = int(n)
    if n < 1:
        raise ValidationError("sampling requires n >= 1")
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
    return SampledGraph(coords, adjacency, int(seed))


def empirical_distance_profile(graph: SampledGraph) -> dict:
    """Histogram of pairwise shortest-path distances over unordered vertex
    pairs; unreachable pairs (across components) appear under ``inf``."""
    d = _walk_distances(graph.adjacency)
    n = graph.n
    iu = np.triu_indices(n, k=1)
    vals = d[iu]
    hist: dict = {}
    finite = vals[np.isfinite(vals)].astype(int)
    for dist, count in zip(*np.unique(finite, return_counts=True)):
        hist[int(dist)] = int(count)
    unreachable = int(np.sum(~np.isfinite(vals)))
    if unreachable:
        hist[math.inf] = unreachable
    return hist


def compare_with_varadhan(w, n: int, trials: int, seed: int) -> dict:
    """Sample graphs and tabulate empirical shortest-path distances against
    the pointwise Varadhan distance at the latent coordinates.

    Reports the exact agreement rate and the rate of agreement within +1,
    the statistic that absorbs the systematic one-extra-hop deviation of
    finite samples.  Disconnected samples are reported, not fatal.
    """
    return _compare_samples(w, trials, sample_graph(w, n, seed))


def _compare_samples(w, trials: int, first: SampledGraph) -> dict:
    """The report of ``compare_with_varadhan`` from an already drawn
    trial-0 sample; trial t samples ``first.n`` vertices with seed
    ``first.seed + t``."""
    trials = int(trials)
    if trials < 1:
        raise ValidationError("comparison requires at least one trial")
    n, seed = first.n, first.seed
    field = distance_field(w)
    per_trial = []
    for trial in range(trials):
        graph = first if trial == 0 else sample_graph(w, n, seed + trial)
        # only the strict upper triangle is read, so the within-vertex
        # walk distances on the diagonal never enter the comparison
        d = _walk_distances(graph.adjacency)
        expected = field.pointwise(graph.coordinates[:, None],
                                  graph.coordinates[None, :])
        iu = np.triu_indices(graph.n, k=1)
        emp = d[iu]
        exp = np.asarray(expected)[iu]
        finite = np.isfinite(emp)
        agree = emp == exp
        within = agree | (emp == exp + 1.0)
        per_trial.append({
            "seed": int(seed + trial),
            "pairs": int(emp.size),
            "unreachable_pairs": int(np.sum(~finite)),
            "agreement": float(np.mean(agree)),
            "agreement_within_one": float(np.mean(within)),
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
