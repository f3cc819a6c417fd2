import itertools
import json
import math
import sys

import numpy as np
import pytest

import graphondist
from graphondist import (
    IntervalSet,
    Partition,
    ValidationError,
    bipartite_graphon,
    circular_band_graphon,
    communicability_distance,
    communicability_embedding,
    cut_distance_homogeneous,
    cut_norm,
    er_graphon,
    heat_content,
    lift,
    merge_twins,
    neighbourhood_distance,
    permute_blocks,
    similarity_distance,
    step,
)
from graphondist import metrics
from graphondist.cli import main
from conftest import bfs_oracle, cycle_adjacency, random_step_graphon

I = lambda a, b: IntervalSet(((a, b),))


def random_interval_set(rng, max_pieces=3):
    pieces = []
    for _ in range(int(rng.integers(1, max_pieces + 1))):
        a, b = np.sort(rng.uniform(0.0, 1.0, 2))
        if b - a > 1e-3:
            pieces.append((a, b))
    if not pieces:
        return I(0.2, 0.4)
    return IntervalSet(tuple(pieces))


# ---------------------------------------------------------------------------
# communicability distance
# ---------------------------------------------------------------------------

def test_communicability_distance_identical_sets(rng):
    w = random_step_graphon(rng, 4)
    x = I(0.1, 0.6)
    assert communicability_distance(w, x, x) == 0.0


def test_communicability_distance_bipartite_halves():
    w = bipartite_graphon()
    got = communicability_distance(w, I(0.0, 0.5), I(0.5, 1.0))
    # 1_X - 1_Y has block averages (1, -1), an eigenvector of the block
    # action with eigenvalue -1/2, so e^{W/2} scales it by e^{-1/4}
    assert got == pytest.approx(math.exp(-0.25), abs=1e-10)


def test_communicability_distance_empty_kernel_is_l2():
    w = er_graphon(0.0)
    x, y = I(0.0, 0.3), I(0.5, 0.9)
    assert communicability_distance(w, x, y) == pytest.approx(
        math.sqrt(0.3 + 0.4), abs=1e-12)


def test_communicability_distance_allows_empty_sets():
    w = bipartite_graphon()
    assert communicability_distance(w, IntervalSet.empty(),
                                    IntervalSet.empty()) == 0.0
    d = communicability_distance(w, I(0.0, 0.25), IntervalSet.empty())
    assert d > 0.0


def test_communicability_metric_axioms(rng):
    for _ in range(4):
        w = random_step_graphon(rng, int(rng.integers(2, 6)))
        for _ in range(60):
            x = random_interval_set(rng)
            y = random_interval_set(rng)
            z = random_interval_set(rng)
            dxy = communicability_distance(w, x, y)
            dyx = communicability_distance(w, y, x)
            dyz = communicability_distance(w, y, z)
            dxz = communicability_distance(w, x, z)
            assert dxy == pytest.approx(dyx, abs=1e-12)
            assert dxz <= dxy + dyz + 1e-12


# ---------------------------------------------------------------------------
# communicability embedding
# ---------------------------------------------------------------------------

def test_embedding_bipartite_coordinates():
    w = bipartite_graphon()
    emb = communicability_embedding(w, I(0.0, 0.5), 2)
    # |<1_X, phi_k>| = 1/2 for both eigenfunctions of the two-block kernel
    assert np.allclose(np.sort(np.abs(emb.coordinates)),
                       np.sort([math.exp(0.25) / 2, math.exp(-0.25) / 2]),
                       atol=1e-12)
    assert emb.kernel_norm == pytest.approx(0.0, abs=1e-9)


def test_embedding_zero_measure_set_is_zero_vector():
    w = bipartite_graphon()
    emb = communicability_embedding(w, IntervalSet.empty(), 2)
    assert np.allclose(emb.coordinates, 0.0)
    assert emb.kernel_norm == 0.0


def test_embedding_distance_identity(rng):
    for _ in range(5):
        n = int(rng.integers(2, 6))
        w = random_step_graphon(rng, n)
        for _ in range(40):
            x = random_interval_set(rng)
            y = random_interval_set(rng)
            ex = communicability_embedding(w, x, n)
            ey = communicability_embedding(w, y, n)
            embed_dist2 = float(np.sum((ex.coordinates - ey.coordinates) ** 2))
            # orthogonal remainder of the indicator difference
            mu = w.partition.measures
            xm = x.block_masses(w.partition)
            ym = y.block_masses(w.partition)
            f2 = x.measure + y.measure - 2 * x.intersection_measure(y)
            orth2 = max(0.0, f2 - float(np.sum((xm - ym) ** 2 / mu)))
            want = communicability_distance(w, x, y) ** 2
            assert embed_dist2 + orth2 == pytest.approx(want, abs=1e-9)


def test_embedding_rejects_out_of_range_truncation():
    with pytest.raises(ValidationError):
        communicability_embedding(bipartite_graphon(), I(0.0, 0.5), 3)


@pytest.mark.parametrize("k", [1.5, 0.5, -1, float("nan")])
def test_embedding_rejects_a_fractional_or_negative_truncation(k):
    # 1.5 was truncated to 1 before
    with pytest.raises(ValidationError,
                       match="'truncation' must be a nonnegative integer"):
        communicability_embedding(bipartite_graphon(), I(0.0, 0.5), k)


def test_embedding_takes_whole_truncations_of_any_type():
    w = bipartite_graphon()
    one = communicability_embedding(w, I(0.0, 0.5), 1)
    for k in (1.0, np.int64(1), np.float64(1.0)):
        est = communicability_embedding(w, I(0.0, 0.5), k)
        assert est.truncation == 1 and isinstance(est.truncation, int)
        assert np.array_equal(est.coordinates, one.coordinates)
    assert communicability_embedding(w, I(0.0, 0.5), 0.0).coordinates.shape \
        == (0,)


def test_embedding_truncation_keeps_leading_coordinates():
    w = bipartite_graphon()
    full = communicability_embedding(w, I(0.0, 0.5), 2)
    top = communicability_embedding(w, I(0.0, 0.5), 1)
    assert top.coordinates.shape == (1,)
    assert top.coordinates[0] == full.coordinates[0]
    assert top.truncation == 1


def test_no_library_path_calls_expm(monkeypatch, tmp_path, rng):
    # the communicability side reads sym_eig only; expm is the tests' oracle
    def banned(x):
        raise AssertionError("a library path called expm")

    expm = graphondist.expm
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "graphondist"
                and getattr(module, "expm", None) is expm):
            monkeypatch.setattr(module, "expm", banned)
    w = random_step_graphon(rng, 6)
    x, y = I(0.1, 0.6), I(0.3, 0.9)
    assert communicability_distance(w, x, y) > 0.0
    assert communicability_embedding(w, x, 3).coordinates.shape == (3,)
    assert heat_content(w, x, y, 2.0, "laplacian") > 0.0
    spec = tmp_path / "w.json"
    spec.write_text(json.dumps({"kind": "step",
                                "measures": w.partition.measures.tolist(),
                                "blocks": w.blocks.tolist()}))
    assert main(["metrics", "--input", str(spec), "--out", str(tmp_path),
                 "--sets", "0:0.5;0.2:0.7", "--embed", "2",
                 "--cutnorm"]) == 0


# ---------------------------------------------------------------------------
# neighbourhood / similarity
# ---------------------------------------------------------------------------

def test_neighbourhood_distance_bipartite():
    w = bipartite_graphon()
    assert neighbourhood_distance(w, 0.2, 0.8) == pytest.approx(1.0)
    assert neighbourhood_distance(w, 0.2, 0.4) == 0.0


def test_neighbourhood_distance_circular_band_symmetric_difference(rng):
    # slices are arcs of half-width 1/4; two arcs at circular distance
    # delta overlap in 1/2 - delta, so the L1 slice distance is 2*delta
    n = 512
    g = circular_band_graphon(0.25, n)
    for _ in range(50):
        x, y = rng.random(2)
        gap = abs(x - y)
        delta = min(gap, 1 - gap)
        got = neighbourhood_distance(g, float(x), float(y))
        assert got == pytest.approx(2 * delta, abs=2.0 / n)


def test_similarity_distance_bipartite_half_of_neighbourhood():
    w = bipartite_graphon()
    r = neighbourhood_distance(w, 0.2, 0.8)
    rbar = similarity_distance(w, 0.2, 0.8)
    assert rbar == pytest.approx(0.5 * r, abs=1e-12)
    assert similarity_distance(w, 0.2, 0.4) == 0.0
    # identical zero/nonzero pattern across the two blocks
    for x, y in ((0.1, 0.9), (0.1, 0.2), (0.7, 0.9)):
        assert (neighbourhood_distance(w, x, y) == 0) == \
               (similarity_distance(w, x, y) == 0)


def test_similarity_never_exceeds_neighbourhood(rng):
    for _ in range(100):
        n = int(rng.integers(2, 7))
        w = random_step_graphon(rng, n)
        centers = (w.partition.breakpoints[:-1]
                   + w.partition.breakpoints[1:]) / 2
        for i in range(n):
            for j in range(n):
                r = neighbourhood_distance(w, centers[i], centers[j])
                rbar = similarity_distance(w, centers[i], centers[j])
                assert rbar <= r + 1e-12


# ---------------------------------------------------------------------------
# merge_twins
# ---------------------------------------------------------------------------

def _duplicate_blocks(w):
    """Split every block into two halves carrying identical rows."""
    n = w.size
    mu = np.repeat(w.partition.measures, 2) / 2
    blocks = np.repeat(np.repeat(w.blocks, 2, axis=0), 2, axis=1)
    return step(Partition(mu), blocks)


def test_merge_twins_recovers_bipartite():
    doubled = _duplicate_blocks(bipartite_graphon())
    merged = merge_twins(doubled)
    assert merged.size == 2
    assert np.allclose(merged.blocks, bipartite_graphon().blocks)
    assert np.allclose(merged.partition.measures, [0.5, 0.5])


def test_merge_twins_pure_graphon_unchanged(rng):
    w = random_step_graphon(rng, 5)
    merged = merge_twins(w)
    if merged.size == w.size:
        assert np.array_equal(merged.blocks, w.blocks)


def test_merge_twins_duplicated_cycle():
    doubled = _duplicate_blocks(lift(cycle_adjacency(6)))
    merged = merge_twins(doubled)
    assert merged.size == 6
    assert np.allclose(merged.blocks, cycle_adjacency(6))


def test_merge_twins_output_has_distinct_rows(rng):
    tol = 1e-9
    for _ in range(10):
        w = _duplicate_blocks(random_step_graphon(rng, 4))
        merged = merge_twins(w, tol)
        mu = merged.partition.measures
        for i in range(merged.size):
            for j in range(i + 1, merged.size):
                dist = float(np.sum(np.abs(merged.blocks[i] - merged.blocks[j])
                                    * mu))
                assert dist >= tol


def test_merge_twins_rejects_bad_tolerance():
    doubled = _duplicate_blocks(bipartite_graphon())
    for tol in (-1e-9, math.nan):
        with pytest.raises(ValidationError, match="nonnegative"):
            merge_twins(doubled, tol)


def test_row_distances_match_the_full_broadcast(rng):
    from graphondist.metrics import _row_distances

    w = random_step_graphon(rng, 40)
    a, mu = w.blocks, w.partition.measures
    full = np.sum(np.abs(a[:, None, :] - a[None, :, :]) * mu[None, None, :],
                  axis=2)
    assert np.array_equal(_row_distances(a, mu), full)


def test_merge_twins_memory_stays_quadratic(rng):
    import tracemalloc

    base = random_step_graphon(rng, 64, homogeneous=True).blocks
    labels = rng.permutation(np.repeat(np.arange(64), 4))
    w = lift(base[np.ix_(labels, labels)])
    tracemalloc.start()
    try:
        merged = merge_twins(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert merged.size == 64
    assert peak < 64e6  # a 256^3 float64 temporary alone is 134 MB


def test_merge_twins_of_distinct_rows_takes_one_row_at_a_time(rng):
    import tracemalloc

    w = random_step_graphon(rng, 512, homogeneous=True)  # 2.1 MB of blocks
    tracemalloc.start()
    try:
        merged = merge_twins(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert merged.size == 512
    assert peak < 16e6  # 16 x 512 x 512 float64 temporaries would be 34 MB each


def _loop_merge(w, tol):
    """merge_twins as a definition: close-row components by queue BFS and
    each merged value summed group pair by group pair."""
    current = w
    while current.size > 1:
        mu, a = current.partition.measures, current.blocks
        close = np.sum(np.abs(a[:, None, :] - a[None, :, :]) * mu, axis=2) < tol
        reach = np.isfinite(bfs_oracle(close))
        groups = [np.flatnonzero(row) for i, row in enumerate(reach)
                  if row.argmax() == i]
        if len(groups) == current.size:
            return current
        merged = np.empty((len(groups), len(groups)))
        for gi, rows in enumerate(groups):
            for gj, cols in enumerate(groups):
                mass = mu[rows][:, None] * mu[cols][None, :]
                merged[gi, gj] = (np.sum(a[np.ix_(rows, cols)] * mass)
                                  / mass.sum())
        current = step(Partition(np.array([mu[g].sum() for g in groups])),
                       merged)
    return current


def planted_copies(rng, k, copies, quiet_labels=0):
    """Copies of the blocks of a random k-block graphon, shuffled, with
    noise of 1e-9 in the rows and columns of every label but the first
    ``quiet_labels``, whose copies stay exact (equal rows)."""
    base = random_step_graphon(rng, k).blocks
    labels = rng.permutation(np.repeat(np.arange(k), copies))
    noise = rng.uniform(-1e-9, 1e-9, (labels.size, labels.size))
    quiet = labels < quiet_labels
    noise[quiet] = noise[:, quiet] = 0.0
    blocks = np.clip(base[np.ix_(labels, labels)] + noise + noise.T, 0.0, 1.0)
    mu = rng.uniform(0.5, 1.5, labels.size)
    return step(Partition(mu / mu.sum()), blocks)


def test_merge_twins_matches_the_group_pair_loop(rng):
    tol = 1e-6
    for k, copies, quiet in [(3, 2, 0), (8, 3, 0), (64, 4, 0), (16, 3, 8)]:
        w = planted_copies(rng, k, copies, quiet)
        got, want = merge_twins(w, tol), _loop_merge(w, tol)
        assert got.size == want.size < w.size
        assert np.allclose(got.partition.measures, want.partition.measures,
                           rtol=0.0, atol=1e-12)
        assert np.allclose(got.blocks, want.blocks, rtol=0.0, atol=1e-12)


def test_merge_twins_at_zero_tolerance_merges_equal_rows_only(rng):
    # 8 of 16 labels have exact copies: each becomes one block, and every
    # noisy copy (rows 1e-9 apart) stays its own block
    w = planted_copies(rng, 16, 3, 8)
    got = merge_twins(w, 0.0)
    assert got.size == 8 + 8 * 3
    # the loop at a tolerance below every noisy row distance merges the
    # same groups
    want = _loop_merge(w, 1e-15)
    assert want.size == got.size
    assert np.allclose(got.partition.measures, want.partition.measures,
                       rtol=0.0, atol=1e-12)
    assert np.allclose(got.blocks, want.blocks, rtol=0.0, atol=1e-12)
    # -0.0 and 0.0 are equal values: the end blocks of a path merge
    path = step(Partition.uniform(3), np.array([[0.0, 0.5, 0.0],
                                                [0.5, 0.0, 0.5],
                                                [0.0, 0.5, -0.0]]))
    merged = merge_twins(path, 0.0)
    assert np.array_equal(merged.partition.measures, [2 / 3, 1 / 3])
    assert np.array_equal(merged.blocks, [[0.0, 0.5], [0.5, 0.0]])


# ---------------------------------------------------------------------------
# cut norm / cut distance
# ---------------------------------------------------------------------------

def brute_force_cut_norm(blocks, mu):
    """Exhaust all 2^n x 2^n block selections on both sides.

    F[s, t] = sum_{i in s, j in t} mu_i mu_j W_ij for every pair of subset
    masks; independent of the one-sided enumeration used by the library.
    """
    n = blocks.shape[0]
    weighted = mu[:, None] * blocks * mu[None, :]
    ids = np.arange(1 << n, dtype=np.uint32)
    masks = ((ids[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(float)
    objective = masks @ weighted @ masks.T
    return float(np.max(np.abs(objective)))


def masked_cut_norm(weighted):
    """Exact sup_{S,T} |sum_{i in S, j in T} C_ij| over block subsets.

    The objective is bilinear in the per-block masses, so the optimum sits
    at a vertex (each block fully in or out).  One side is enumerated as
    0/1 masks times C; the other side is then separable and picked per
    sign, both sign sums taken in full.
    """
    n = weighted.shape[0]
    best = 0.0
    chunk = 1 << 14
    total = 1 << n
    shifts = np.arange(n, dtype=np.uint64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        masks = ((idx[:, None] >> shifts[None, :]) & 1).astype(float)
        g = masks @ weighted
        pos = np.sum(np.where(g > 0.0, g, 0.0), axis=1)
        neg = np.sum(np.where(g < 0.0, -g, 0.0), axis=1)
        best = max(best, float(pos.max(initial=0.0)),
                   float(neg.max(initial=0.0)))
    return best


def test_cut_norm_er_is_density():
    assert cut_norm(er_graphon(0.37)) == pytest.approx(0.37, abs=1e-15)


def test_cut_norm_bipartite_half():
    w = bipartite_graphon()
    assert cut_norm(w) == pytest.approx(0.5, abs=1e-15)
    assert cut_norm(w) == pytest.approx(
        brute_force_cut_norm(w.blocks, w.partition.measures), abs=1e-14)


def test_cut_norm_zero_graphon():
    assert cut_norm(lift(np.zeros((3, 3)))) == 0.0


def test_cut_norm_refuses_large_inputs():
    w = lift(np.zeros((25, 25)))
    with pytest.raises(ValidationError, match="coarsen"):
        cut_norm(w)


def test_cut_norm_bounded_and_permutation_invariant(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        w = random_step_graphon(rng, n)
        value = cut_norm(w)
        assert 0.0 <= value <= 1.0 + 1e-15
        sigma = rng.permutation(n)
        # identical up to summation-order rounding in the subset sums
        assert cut_norm(permute_blocks(w, sigma)) == \
            pytest.approx(value, rel=1e-14, abs=1e-15)


def test_cut_norm_at_the_block_limit_is_exact_in_small_tables(rng):
    import tracemalloc

    w = random_step_graphon(rng, 24, density=1.0)
    mu = w.partition.measures
    tracemalloc.start()
    try:
        value = cut_norm(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a nonnegative kernel attains its cut norm on the full square
    assert value == pytest.approx(float(mu @ w.blocks @ mu), rel=1e-13)
    # the high table (2^13 x 24 doubles) is 1.6 MB, and every other
    # temporary stays within the 2^16-entry budget (0.5 MB)
    assert peak < 4e6


def test_cut_distance_isomorphic_graphons_is_zero(rng):
    w = random_step_graphon(rng, 5, homogeneous=True)
    sigma = rng.permutation(5)
    assert cut_distance_homogeneous(w, permute_blocks(w, sigma)) == \
        pytest.approx(0.0, abs=1e-15)


def test_cut_distance_er_pair_is_density_gap():
    assert cut_distance_homogeneous(er_graphon(0.8), er_graphon(0.25)) == \
        pytest.approx(0.55, abs=1e-12)


def test_cut_distance_bipartite_vs_zero():
    zero = step(Partition(np.array([0.5, 0.5])), np.zeros((2, 2)))
    assert cut_distance_homogeneous(bipartite_graphon(), zero) == \
        pytest.approx(0.5, abs=1e-15)


def test_cut_distance_is_the_least_oracle_cut_norm_over_permutations(rng):
    # n = 6 stacks 720 permuted differences in batches that are not a
    # divisor of 720, so the last batch is a short one
    assert 720 % (metrics._CUT_ENTRIES // (6 << 6)) != 0
    for n in (1, 2, 3, 4, 5, 6, 6):
        w1 = random_step_graphon(rng, n, homogeneous=True)
        w2 = random_step_graphon(rng, n, homogeneous=True)
        mu = w1.partition.measures
        outer = mu[:, None] * mu[None, :]
        want = min(
            masked_cut_norm(outer * (w1.blocks - w2.blocks[np.ix_(p, p)]))
            for p in map(list, itertools.permutations(range(n))))
        got = cut_distance_homogeneous(w1, w2)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_cut_distance_rejects_mismatched_partitions():
    w1 = bipartite_graphon()
    w2 = step(Partition(np.array([0.25, 0.75])), np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        cut_distance_homogeneous(w1, w2)
    with pytest.raises(ValidationError):
        cut_distance_homogeneous(w1, er_graphon(0.5))
