"""Property tests of the sampler's class-level walk and comparison: blow-ups
of small graphs (blocks with and without loops, uneven and empty block
populations, isolated and disconnected pieces) and simple graphs with no
twins, against the queue BFS oracle and the n x n comparison below."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from graphondist import (  # noqa: E402
    RNG_ALGORITHM,
    Partition,
    SampledGraph,
    distance_field,
    empirical_distance_profile,
    sample_graph,
    step,
)
from graphondist.sampler import _sample_classes, compare_sample  # noqa: E402
from conftest import bfs_oracle  # noqa: E402

PROPERTIES = settings(derandomize=True, max_examples=80, deadline=None)

# positions of a vertex inside its block: few, so coordinates coincide
FRACTIONS = (0.25, 0.5, 0.75)


def pair_comparison(w, trials: int, first: SampledGraph) -> dict:
    """The comparison over every vertex pair of the n x n matrices, with
    the walk distances of the BFS oracle."""
    n, seed = first.n, first.seed
    field = distance_field(w)
    per_trial = []
    for trial in range(trials):
        graph = first if trial == 0 else sample_graph(w, n, seed + trial)
        d = bfs_oracle(graph.adjacency)
        expected = field.pointwise(graph.coordinates[:, None],
                                   graph.coordinates[None, :])
        iu = np.triu_indices(graph.n, k=1)
        emp = d[iu]
        exp = np.asarray(expected)[iu]
        agree = emp == exp
        within = agree | (emp == exp + 1.0)
        per_trial.append({
            "seed": int(seed + trial),
            "pairs": int(emp.size),
            "unreachable_pairs": int(np.sum(~np.isfinite(emp))),
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
            np.mean([t["agreement_within_one"] for t in per_trial])),
    }


def pair_profile(graph: SampledGraph) -> dict:
    """The distance histogram over every vertex pair of the oracle."""
    vals = bfs_oracle(graph.adjacency)[np.triu_indices(graph.n, k=1)]
    hist = {int(v): int(c) for v, c in
            zip(*np.unique(vals[np.isfinite(vals)], return_counts=True))}
    if not np.isfinite(vals).all():
        hist[math.inf] = int(np.sum(~np.isfinite(vals)))
    return hist


@st.composite
def zero_one_graphons(draw):
    """{0,1} step graphons on up to 6 blocks, each block with or without a
    loop, sometimes an isolated block and two disconnected pieces."""
    k = draw(st.integers(1, 6))
    base = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            base[i, j] = base[j, i] = float(draw(st.booleans()))
    cut = draw(st.integers(0, k - 1))
    base[:cut, cut:] = base[cut:, :cut] = 0.0
    if draw(st.booleans()):
        lone = draw(st.integers(0, k - 1))
        base[lone, :] = base[:, lone] = 0.0
    return step(Partition.uniform(k), base)


@st.composite
def blow_ups(draw):
    """A blow-up of a {0,1} step graphon's block graph with uneven, possibly
    empty block populations in shuffled order, and coordinates in the
    vertices' blocks, some of them equal."""
    w = draw(zero_one_graphons())
    k = w.size
    sizes = draw(st.lists(st.integers(0, 6), min_size=k, max_size=k))
    n = sum(sizes)
    assume(n >= 2)
    order = draw(st.permutations(range(n)))
    blocks = np.repeat(np.arange(k), sizes)[order]
    adj = w.blocks[np.ix_(blocks, blocks)] > 0.0
    np.fill_diagonal(adj, False)
    frac = draw(st.lists(st.sampled_from(FRACTIONS), min_size=n, max_size=n))
    return w, SampledGraph((blocks + np.array(frac)) / k, adj, seed=0)


@st.composite
def twin_free_graphs(draw):
    """A simple graph on 7-12 vertices in which no two vertices share their
    open or their closed neighbourhood, with coordinates on a coarse grid
    (some equal) under a {0,1} step graphon."""
    n = draw(st.integers(7, 12))
    upper = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    adj = np.zeros((n, n), dtype=bool)
    adj[np.triu_indices(n, k=1)] = upper
    adj |= adj.T
    closed = adj | np.eye(n, dtype=bool)
    assume(np.unique(adj, axis=0).shape[0] == n)
    assume(np.unique(closed, axis=0).shape[0] == n)
    coords = draw(st.lists(st.sampled_from(np.linspace(0.0, 1.0, 9).tolist()),
                           min_size=n, max_size=n))
    return draw(zero_one_graphons()), SampledGraph(np.array(coords), adj, 0)


def assert_walk_and_counts_match(w, g):
    d, cls = _sample_classes(g)
    full = d[np.ix_(cls, cls)]
    off = ~np.eye(g.n, dtype=bool)
    assert np.array_equal(full[off], bfs_oracle(g.adjacency)[off])
    assert empirical_distance_profile(g) == pair_profile(g)
    assert (compare_sample(w, g)
            == pair_comparison(w, 1, g))
    return cls


@PROPERTIES
@given(blow_ups())
def test_blow_ups_walk_on_their_blocks(case):
    w, g = case
    cls = assert_walk_and_counts_match(w, g)
    # one class per occupied block: true twins in looped blocks, false
    # twins in the others
    assert cls.max() + 1 <= np.unique(w.partition.locate(g.coordinates)).size


@PROPERTIES
@given(twin_free_graphs())
def test_twin_free_graphs_walk_on_every_vertex(case):
    w, g = case
    cls = assert_walk_and_counts_match(w, g)
    assert np.array_equal(np.sort(cls), np.arange(g.n))


@PROPERTIES
@given(zero_one_graphons(), st.integers(2, 40), st.integers(0, 2**31 - 1))
def test_sampled_reports_match_the_pair_comparison(w, n, seed):
    first = sample_graph(w, n, seed)
    assert (compare_sample(w, first, 2)
            == pair_comparison(w, 2, first))
    _, cls = _sample_classes(first)
    assert cls.max() + 1 <= w.size
