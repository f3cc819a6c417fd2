import math
import tracemalloc

import numpy as np
import pytest

from graphondist import (
    RNG_ALGORITHM,
    SampledGraph,
    Partition,
    ValidationError,
    bipartite_graphon,
    circular_band_graphon,
    compare_sample,
    compare_with_varadhan,
    empirical_distance_profile,
    er_graphon,
    evaluate,
    lift,
    sample_graph,
    step,
)


# ---------------------------------------------------------------------------
# sample_graph
# ---------------------------------------------------------------------------

def test_sample_er_one_is_complete():
    g = sample_graph(er_graphon(1.0), 5, seed=1)
    off = ~np.eye(5, dtype=bool)
    assert g.adjacency[off].all()
    assert not np.diag(g.adjacency).any()
    assert g.edge_count == 10


def test_sample_er_zero_is_empty():
    g = sample_graph(er_graphon(0.0), 17, seed=3)
    assert g.edge_count == 0


def test_sample_bipartite_cross_edge_concentration():
    n = 1000
    g = sample_graph(bipartite_graphon(), n, seed=5)
    groups = g.coordinates < 0.5
    n1 = int(groups.sum())
    cross = int(g.adjacency[np.ix_(groups, ~groups)].sum())
    # all cross pairs are present with probability one
    assert cross == n1 * (n - n1)
    # group split fluctuates like a binomial: n1*n2 within 3 sigma of n^2/4
    assert abs(n1 * (n - n1) - n * n / 4) <= 9 * n / 4 + 1
    # nothing inside a group
    assert not g.adjacency[np.ix_(groups, groups)].any()


def test_sample_determinism_bit_for_bit():
    w = circular_band_graphon(0.2, 64)
    g1 = sample_graph(w, 300, seed=42)
    g2 = sample_graph(w, 300, seed=42)
    assert np.array_equal(g1.adjacency, g2.adjacency)
    assert np.array_equal(g1.coordinates, g2.coordinates)
    g3 = sample_graph(w, 300, seed=43)
    assert not np.array_equal(g1.adjacency, g3.adjacency)


def full_matrix_sample(w, n: int, seed: int) -> np.ndarray:
    """The adjacency as one n x n draw: probabilities and coins for every
    pair at once, the strict upper triangle mirrored."""
    rng = np.random.default_rng(seed)
    coords = rng.random(n)
    probs = evaluate(w, coords[:, None], coords[None, :])
    coins = rng.random((n, n))
    upper = np.triu(coins < probs, k=1)
    return upper | upper.T


def test_row_blocks_draw_the_full_matrix_stream():
    # probabilities strictly between 0 and 1, so every edge reads its coin
    w = lift(np.array([[0.3, 0.7, 0.1], [0.7, 0.5, 0.9], [0.1, 0.9, 0.2]]))
    for n in (1, 2, 7, 65, 300, 2000):
        got = sample_graph(w, n, seed=n).adjacency
        assert np.array_equal(got, full_matrix_sample(w, n, n))


def binary_step_graphon(rng):
    """A random step graphon, random measures included, whose block values
    are all exactly 0 or 1 (some of the zeros -0.0)."""
    k = int(rng.integers(1, 9))
    vals = np.triu(rng.random((k, k)) < rng.uniform(0.2, 0.8)).astype(float)
    vals = vals + np.triu(vals, 1).T
    vals[vals == 0.0] = rng.choice([0.0, -0.0], int((vals == 0.0).sum()))
    mu = rng.uniform(0.5, 1.5, k)
    return step(Partition(mu / mu.sum()), vals)


def counted_draws(monkeypatch, w, n: int, seed: int):
    """``sample_graph(w, n, seed)`` and the sizes of its uniform draws."""
    sizes = []
    default_rng = np.random.default_rng

    class Counting:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def random(self, size=None):
            sizes.append(size)
            return self.rng.random(size)

    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng", Counting)
        return sample_graph(w, n, seed), sizes


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_a_binary_graphon_draws_no_coins(monkeypatch, seed):
    # every block value exactly 0 or 1: a coin in [0, 1) is always below 1
    # and never below 0, so the sample is the support's blow-up, equal to
    # the coin path's, and only the coordinates are drawn
    rng = np.random.default_rng(seed)
    graphons = [circular_band_graphon(1 / 7, 64), bipartite_graphon(),
                er_graphon(0.0), er_graphon(1.0), er_graphon(-0.0)]
    graphons += [binary_step_graphon(rng) for _ in range(4)]
    for w in graphons:
        for n in (1, 2, 65, 300):
            got, sizes = counted_draws(monkeypatch, w, n, seed)
            assert sizes == [n]
            assert np.array_equal(got.adjacency,
                                  full_matrix_sample(w, n, seed))
            assert not got.adjacency.flags.writeable
    # a value strictly between 0 and 1 draws its coins
    got, sizes = counted_draws(monkeypatch, er_graphon(0.5), 300, seed)
    assert sizes[0] == 300 and len(sizes) > 1
    assert np.array_equal(got.adjacency,
                          full_matrix_sample(er_graphon(0.5), 300, seed))


def test_sampler_memory_is_one_boolean_adjacency():
    w = circular_band_graphon(1 / 7, 512)
    sample_graph(w, 50, seed=1)  # warm numpy before tracing
    tracemalloc.start()
    try:
        sample_graph(w, 2000, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the full-matrix draw holds two n x n float64 arrays: 64 MB
    assert peak < 16 * 2**20


def test_sample_edge_density_within_binomial_bounds():
    p = 0.31
    n = 400
    g = sample_graph(er_graphon(p), n, seed=11)
    pairs = n * (n - 1) / 2
    density = g.edge_count / pairs
    sigma = math.sqrt(p * (1 - p) / pairs)
    assert abs(density - p) <= 3 * sigma


def test_sample_density_tracks_kernel_mass(rng):
    from graphondist import Partition, step

    vals = rng.random((4, 4))
    blocks = np.triu(vals) + np.triu(vals, 1).T
    w = step(Partition(np.array([0.1, 0.2, 0.3, 0.4])), blocks)
    mu = w.partition.measures
    mass = float(mu @ w.blocks @ mu)
    n = 600
    g = sample_graph(w, n, seed=13)
    pairs = n * (n - 1) / 2
    density = g.edge_count / pairs
    sigma = math.sqrt(mass * (1 - mass) / pairs)
    # latent coordinates add variance on top of the edge coins; the fixed
    # seed keeps this deterministic inside a padded 3-sigma band
    assert abs(density - mass) <= 3 * sigma + 8.0 / n


def test_sample_rejects_empty_graph_request():
    with pytest.raises(ValidationError):
        sample_graph(er_graphon(0.5), 0, seed=1)


@pytest.mark.parametrize("adjacency", [
    [[0, 1], [0, 0]], np.eye(2), [[1, 1], [1, 0]], [0, 1], [[0, 1, 0]],
], ids=["asymmetric", "loops", "one-loop", "vector", "not-square"])
def test_a_sampled_graph_is_simple_and_undirected(adjacency):
    # an asymmetric or looped adjacency was accepted, though the edge list
    # and the twin quotient read it as a simple undirected graph
    with pytest.raises(ValidationError, match="sampled graph"):
        SampledGraph([0.1, 0.6], adjacency, 0)


def test_sample_rejects_negative_seed():
    with pytest.raises(ValidationError, match="nonnegative seed"):
        sample_graph(er_graphon(0.5), 10, seed=-1)
    with pytest.raises(ValidationError, match="nonnegative seed"):
        compare_with_varadhan(er_graphon(0.5), 10, trials=2, seed=-3)


@pytest.mark.parametrize("call", [
    lambda w: sample_graph(w, 2.7, 0),
    lambda w: sample_graph(w, 10, 1.5),
    lambda w: sample_graph(w, 10, math.nan),
    lambda w: compare_with_varadhan(w, 5, 2.5, 0),
    lambda w: compare_with_varadhan(w, 5.5, 1, 0),
    lambda w: compare_with_varadhan(w, 5, 1, 0.5),
    lambda w: compare_sample(w, sample_graph(w, 5, 0), 2.5),
    lambda w: compare_sample(w, sample_graph(w, 5, 0), 0),
], ids=["n", "seed", "nan-seed", "trials", "compare-n", "compare-seed",
        "sample-trials", "no-trials"])
def test_counts_and_seeds_are_whole_numbers(call):
    # a fraction is rejected, never truncated
    with pytest.raises(ValidationError):
        call(er_graphon(0.5))


def test_whole_numbers_of_any_type_sample_alike():
    w = er_graphon(0.5)
    want = sample_graph(w, 12, 3)
    for n, seed in ((12.0, 3.0), (np.int64(12), np.float64(3.0)),
                    (np.float64(12.0), np.uint8(3))):
        g = sample_graph(w, n, seed)
        assert np.array_equal(g.adjacency, want.adjacency)
        assert g.seed == 3 and type(g.seed) is int
    # a seed past 2^53 is kept exactly, not rounded through a float
    assert sample_graph(w, 3, 2**64 + 1).seed == 2**64 + 1
    report = compare_with_varadhan(w, 6, 2, 1)
    assert compare_with_varadhan(w, 6.0, np.float64(2.0), np.int64(1)) \
        == report
    assert compare_sample(w, sample_graph(w, 6, 1), 2.0) == report


def test_one_vertex_samples_but_does_not_compare():
    w = er_graphon(0.5)
    g = sample_graph(w, 1, seed=1)
    assert g.n == 1 and g.edge_count == 0
    assert empirical_distance_profile(g) == {}
    # one vertex leaves no pair, so the agreement rates are undefined
    with pytest.raises(ValidationError, match="at least two vertices"):
        compare_with_varadhan(w, 1, trials=1, seed=1)
    with pytest.raises(ValidationError, match="at least two vertices"):
        compare_sample(w, g, 2)


# ---------------------------------------------------------------------------
# empirical_distance_profile
# ---------------------------------------------------------------------------

def test_profile_complete_graph():
    g = sample_graph(er_graphon(1.0), 5, seed=1)
    assert empirical_distance_profile(g) == {1: 10}


def test_profile_path_graph():
    adj = np.zeros((4, 4), dtype=bool)
    for i in range(3):
        adj[i, i + 1] = adj[i + 1, i] = True
    g = SampledGraph(np.linspace(0.1, 0.9, 4), adj, seed=0)
    assert empirical_distance_profile(g) == {1: 3, 2: 2, 3: 1}


def test_profile_er_half_concentrates_at_two_hops():
    g = sample_graph(er_graphon(0.5), 2000, seed=7)
    hist = empirical_distance_profile(g)
    pairs = 2000 * 1999 / 2
    near = hist.get(1, 0) + hist.get(2, 0)
    assert near / pairs >= 0.99
    assert math.inf not in hist


def test_profile_reports_unreachable_pairs():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    g = SampledGraph(np.array([0.1, 0.5, 0.9]), adj, seed=0)
    hist = empirical_distance_profile(g)
    assert hist[1] == 1
    assert hist[math.inf] == 2


# ---------------------------------------------------------------------------
# compare_with_varadhan
# ---------------------------------------------------------------------------

def test_compare_bipartite_agreement():
    report = compare_with_varadhan(bipartite_graphon(), 500, trials=1, seed=2)
    assert report["rng"] == RNG_ALGORITHM
    assert report["mean_agreement"] >= 0.99
    assert report["per_trial"][0]["unreachable_pairs"] == 0


def test_compare_er_half_direct_hits():
    report = compare_with_varadhan(er_graphon(0.5), 500, trials=1, seed=9)
    # a direct edge (probability 1/2) realizes the limit distance exactly;
    # the remainder sits one hop above it
    assert 0.45 <= report["mean_agreement"] <= 0.55
    assert report["mean_agreement_within_one"] >= 0.999


def test_compare_counts_coincident_coordinates_at_distance_zero():
    # vertices 0 and 1 share a coordinate: expected distance 0, so their
    # edge agrees only within one; on er_graphon(1) every other pair is
    # expected at distance 1, which the edge (1, 2) meets and the two-hop
    # pair (0, 2) meets within one
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = True
    g = SampledGraph(np.array([0.2, 0.2, 0.7]), adj, seed=0)
    w = er_graphon(1.0)
    trial = compare_sample(w, g)["per_trial"][0]
    assert trial["pairs"] == 3 and trial["unreachable_pairs"] == 0
    assert trial["agreement"] == 1 / 3
    assert trial["agreement_within_one"] == 1.0


def band_sample():
    """The 2,000-vertex sample of the band tau = 1/7 on 512 cells: a blow-up
    of the cell support graph, whose vertices in one cell are true twins."""
    w = circular_band_graphon(1 / 7, 512)
    return w, sample_graph(w, 2000, seed=7)


def test_sample_walks_on_its_blow_up(monkeypatch):
    from graphondist import connectivity

    w, g = band_sample()
    walked = []
    original = connectivity._levels

    def recording(adj, front):
        walked.append(adj.shape[0])
        return original(adj, front)

    monkeypatch.setattr(connectivity, "_levels", recording)
    compare_sample(w, g)
    empirical_distance_profile(g)
    # the field of 512 cells, the sample twice: each on at most 512 classes
    assert len(walked) == 3 and max(walked) <= 512


def test_comparison_memory_is_class_pairs():
    w, g = band_sample()
    compare_sample(w, sample_graph(w, 50, seed=1))  # warm numpy
    tracemalloc.start()
    try:
        compare_sample(w, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an n x n comparison holds several 16-32 MB arrays at once
    assert peak <= 32 * 2**20


def test_compare_circular_band_within_one():
    w = circular_band_graphon(1 / 7, 700)
    report = compare_with_varadhan(w, 1000, trials=1, seed=3)
    assert report["mean_agreement_within_one"] >= 0.95
