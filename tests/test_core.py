import numpy as np
import pytest

from graphondist import (
    BlockFunction,
    GridGraphon,
    IntervalSet,
    Partition,
    StepGraphon,
    ValidationError,
    apply_adjacency,
    bipartite_graphon,
    coarsen,
    comp_power,
    degree,
    er_graphon,
    evaluate,
    is_connected,
    lift,
    mat,
    one_minus_max_graphon,
    permute_blocks,
    step,
    to_grid,
)
from graphondist.core import _check_symmetric
from conftest import (
    cycle_adjacency,
    quadrature_block_average,
    random_partition,
    random_step_graphon,
)

BIPARTITE_BLOCKS = np.array([[0.0, 1.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def test_partition_requires_positive_measures_summing_to_one():
    with pytest.raises(ValidationError):
        Partition(np.array([0.5, -0.1, 0.6]))
    with pytest.raises(ValidationError):
        Partition(np.array([0.5, 0.4]))
    p = Partition(np.array([0.25, 0.75]))
    assert np.allclose(p.breakpoints, [0.0, 0.25, 1.0])
    assert p.breakpoints[-1] == 1.0


def test_partition_locate_half_open_convention():
    p = Partition(np.array([0.25, 0.25, 0.5]))
    assert p.locate(0.0) == 0
    assert p.locate(0.25) == 1
    assert p.locate(0.499999) == 1
    assert p.locate(0.5) == 2
    assert p.locate(1.0) == 2
    with pytest.raises(ValidationError):
        p.locate(1.5)


def test_interval_set_normalizes_and_measures():
    s = IntervalSet(((0.4, 0.6), (0.1, 0.2), (0.2, 0.3)))
    assert s.intervals == ((0.1, 0.3), (0.4, 0.6))
    assert s.measure == pytest.approx(0.4)
    assert IntervalSet.empty().is_empty
    with pytest.raises(ValidationError):
        IntervalSet(((0.5, 0.5),))


def test_interval_set_intersections_and_block_masses():
    u = IntervalSet(((0.0, 0.5),))
    v = IntervalSet(((0.25, 0.75),))
    assert u.intersection_measure(v) == pytest.approx(0.25)
    assert u.intersect(v).intervals == ((0.25, 0.5),)
    p = Partition(np.array([0.25, 0.75]))
    assert np.allclose(u.block_masses(p), [0.25, 0.25])


def test_step_graphon_validation():
    p = Partition(np.array([0.5, 0.5]))
    with pytest.raises(ValidationError):
        StepGraphon(p, np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValidationError):
        StepGraphon(p, np.array([[0.0, 2.0], [2.0, 0.0]]))
    with pytest.raises(ValidationError):
        StepGraphon(p, np.eye(3))


def test_grid_graphon_validation():
    with pytest.raises(ValidationError):
        GridGraphon(2, np.array([[0.0, 1.0], [0.5, 0.0]]))
    g = GridGraphon(2, np.array([[0.2, 0.4], [0.4, 0.6]]))
    assert np.allclose(g.partition.measures, [0.5, 0.5])
    # endpoint falls in the last cell
    assert evaluate(g, 1.0, 1.0) == pytest.approx(0.6)
    assert evaluate(g, 0.0, 1.0) == pytest.approx(0.4)


def test_evaluate_rejects_nan():
    with pytest.raises(ValidationError):
        evaluate(bipartite_graphon(), np.nan, 0.1)


def test_grid_locate_rejects_nan():
    g = GridGraphon(4, np.full((4, 4), 0.5))
    with pytest.raises(ValidationError):
        g.partition.locate(np.nan)


def test_carriers_reject_non_finite_values():
    with pytest.raises(ValidationError):
        lift([[np.nan]])
    with pytest.raises(ValidationError):
        er_graphon(np.nan)
    with pytest.raises(ValidationError):
        GridGraphon(2, [[0.5, np.inf], [np.inf, 0.5]])
    with pytest.raises(ValidationError):
        Partition(np.array([0.5, np.nan]))


def test_step_graphon_keeps_a_private_symmetric_copy():
    raw = np.array([[0.2, 0.4, 0.0], [0.4, 0.6, 1.0], [0.0, 1.0, 0.0]])
    w = StepGraphon(Partition.uniform(3), raw)
    raw[0, 1] = 0.9
    assert w.blocks[0, 1] == 0.4
    assert not w.blocks.flags.writeable
    # asymmetric within the tolerance: averaged; just above 1: clipped
    near = np.array([[0.5, 0.3 + 4e-13], [0.3, 1.0 + 5e-10]])
    w = StepGraphon(Partition.uniform(2), near)
    assert w.blocks[0, 1] == w.blocks[1, 0] == (0.3 + 4e-13 + 0.3) / 2
    assert w.blocks[1, 1] == 1.0
    assert near[1, 1] == 1.0 + 5e-10


@pytest.mark.parametrize("corner", [[[0.0, np.nan], [1.0, 0.0]], [[np.nan]]])
def test_symmetry_check_rejects_a_nan_gap(corner):
    # a NaN asymmetry is no asymmetry within any tolerance, also when the
    # later tiles of a large matrix are symmetric
    corner = np.array(corner)
    big = np.zeros((600, 600))
    big[:corner.shape[0], :corner.shape[0]] = corner
    for a in (corner, big):
        with pytest.raises(ValidationError, match="not symmetric"):
            _check_symmetric(a, 1e-9, "matrix")


def test_step_graphon_checks_every_tile_pair(rng):
    # 600 blocks span three 256-wide tiles; the defect sits in the corner
    # tile pair that a diagonal-only comparison would miss
    vals = rng.uniform(0.0, 1.0, (600, 600))
    vals = (vals + vals.T) / 2
    w = StepGraphon(Partition.uniform(600), vals)
    assert np.array_equal(w.blocks, vals)
    bad = vals.copy()
    bad[10, 550] += 1e-6
    with pytest.raises(ValidationError, match="not symmetric within 1e-12"):
        StepGraphon(Partition.uniform(600), bad)
    bad = vals.copy()
    bad[599, 300] = 1.5
    bad[300, 599] = 1.5
    with pytest.raises(ValidationError,
                       match=r"must lie in \[0,1\]; found range \[.*, 1.5\]"):
        StepGraphon(Partition.uniform(600), bad)
    bad[300, 599] = bad[599, 300] = np.nan
    with pytest.raises(ValidationError, match="must be finite"):
        StepGraphon(Partition.uniform(600), bad)


# ---------------------------------------------------------------------------
# lift / step
# ---------------------------------------------------------------------------

def test_lift_bipartite():
    w = lift(BIPARTITE_BLOCKS)
    assert np.array_equal(w.blocks, BIPARTITE_BLOCKS)
    assert np.allclose(w.partition.measures, [0.5, 0.5])


def test_lift_zero_graphon():
    w = lift(np.array([[0.0]]))
    assert w.size == 1
    assert evaluate(w, 0.3, 0.8) == 0.0


def test_lift_cycle_six():
    a = cycle_adjacency(6)
    w = lift(a)
    assert w.size == 6
    assert np.allclose(w.partition.measures, np.full(6, 1 / 6))
    assert np.array_equal(w.blocks, a)


def test_lift_rejects_bad_matrices():
    with pytest.raises(ValidationError):
        lift(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        lift(np.array([[1.5]]))


def test_step_bipartite_equals_lift():
    w = step(Partition(np.array([0.5, 0.5])), BIPARTITE_BLOCKS)
    assert evaluate(w, 0.1, 0.9) == 1.0
    assert evaluate(w, 0.6, 0.9) == 0.0


def test_step_block_diagonal_two_communities():
    w = step(Partition(np.array([1 / 3, 2 / 3])), np.eye(2))
    assert evaluate(w, 0.1, 0.2) == 1.0
    assert evaluate(w, 0.5, 0.9) == 1.0
    assert evaluate(w, 0.1, 0.9) == 0.0


def test_step_four_cycle_matches_definition(rng):
    a = cycle_adjacency(4)
    w = step(Partition(np.full(4, 0.25)), a)
    xs = rng.random(200)
    ys = rng.random(200)
    expected = a[np.minimum((xs * 4).astype(int), 3),
                 np.minimum((ys * 4).astype(int), 3)]
    assert np.array_equal(evaluate(w, xs, ys), expected)


def test_step_dimension_mismatch():
    with pytest.raises(ValidationError):
        step(Partition(np.array([0.5, 0.5])), np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# mat / coarsen
# ---------------------------------------------------------------------------

def test_mat_is_left_inverse_of_step(rng):
    for _ in range(10):
        n = int(rng.integers(1, 7))
        w = random_step_graphon(rng, n)
        back = mat(w.partition, w)
        assert np.max(np.abs(back - w.blocks)) <= 1e-12


def test_mat_bipartite_on_quarter_split():
    w = bipartite_graphon()
    p = Partition(np.array([0.25, 0.75]))
    got = mat(p, w)
    # Exact block averages over the off-grid split, frozen from direct
    # rectangle integration of the kernel:
    #   P1 x P1 = [0,1/4)^2 inside the zero block            -> 0
    #   P1 x P2: mass 1/4 * 1/2 out of area 1/4 * 3/4        -> 2/3
    #   P2 x P2: mass 2 * (1/4 * 1/2) out of area 3/4 * 3/4  -> 4/9
    frozen = np.array([[0.0, 2 / 3], [2 / 3, 4 / 9]])
    assert np.max(np.abs(got - frozen)) <= 1e-12
    # independent midpoint-quadrature oracle
    quad = quadrature_block_average(w, 0.25, 1.0, 0.25, 1.0)
    assert got[1, 1] == pytest.approx(quad, abs=1e-3)
    quad01 = quadrature_block_average(w, 0.0, 0.25, 0.25, 1.0)
    assert got[0, 1] == pytest.approx(quad01, abs=1e-3)


def test_mat_grid_one_minus_max_matches_analytic():
    g = one_minus_max_graphon(256)
    p = Partition(np.array([0.5, 0.5]))
    got = mat(p, g)
    # analytic double integrals of 1 - max(x,y) over the quadrant split
    analytic = np.array([[2 / 3, 0.25], [0.25, 1 / 6]])
    assert np.max(np.abs(got - analytic)) <= 1e-2


def test_coarsen_identity_on_own_steps(rng):
    w = random_step_graphon(rng, 4)
    again = coarsen(w.partition, w)
    assert np.array_equal(again.blocks, w.blocks)


def test_coarsen_idempotent(rng):
    w = random_step_graphon(rng, 5)
    p = random_partition(rng, 3)
    once = coarsen(p, w)
    twice = coarsen(p, once)
    assert np.array_equal(once.blocks, twice.blocks)


def test_coarsen_of_connected_stays_connected(rng):
    # checked in depth in connectivity tests; definitional case here
    w = random_step_graphon(rng, 6, ensure_connected=True)
    p = random_partition(rng, 3)
    assert is_connected(coarsen(p, w))


def test_coarsen_grid_composes_mat_and_step():
    g = one_minus_max_graphon(64)
    p = Partition(np.array([0.5, 0.5]))
    assert np.array_equal(coarsen(p, g).blocks, step(p, mat(p, g)).blocks)


# ---------------------------------------------------------------------------
# comp_power
# ---------------------------------------------------------------------------

def test_comp_power_homogeneous_reduces_to_matrix_powers(rng):
    a = cycle_adjacency(6)
    w = lift(a)
    for m in range(1, 5):
        expected = np.linalg.matrix_power(a, m) / 6 ** (m - 1)
        assert np.max(np.abs(comp_power(w, m).blocks - expected)) <= 1e-12


def test_comp_power_bipartite_square():
    w2 = comp_power(bipartite_graphon(), 2)
    assert np.max(np.abs(w2.blocks - 0.5 * np.eye(2))) <= 1e-15
    # quadrature oracle for the kernel of the squared operator
    quad = quadrature_block_average(w2, 0.0, 0.5, 0.0, 0.5)
    assert quad == pytest.approx(0.5, abs=1e-12)


def test_comp_power_circular_band_square():
    from graphondist import circular_band_graphon

    n = 512
    g = circular_band_graphon(0.25, n)
    w2 = comp_power(g, 2)
    centers = (np.arange(n) + 0.5) / n
    gaps = np.abs(centers[:, None] - centers[None, :])
    delta = np.minimum(gaps, 1.0 - gaps)
    assert np.max(np.abs(w2.values - (0.5 - delta))) <= 2.0 / n


def test_comp_power_rejects_zeroth_power():
    with pytest.raises(ValidationError):
        comp_power(bipartite_graphon(), 0)


@pytest.mark.parametrize("m", [2.5, 1.5, float("nan"), float("inf")])
def test_comp_power_rejects_a_fractional_power(m):
    # 2.5 was truncated to the square before
    with pytest.raises(ValidationError, match="'m' must be a positive integer"):
        comp_power(lift(cycle_adjacency(6)), m)


def test_comp_power_takes_whole_powers_of_any_type():
    w = lift(cycle_adjacency(6))
    square = comp_power(w, 2).blocks
    for m in (2.0, np.int64(2), np.float64(2.0)):
        assert np.array_equal(comp_power(w, m).blocks, square)


def test_comp_power_semigroup(rng):
    w = random_step_graphon(rng, 5)
    mu = w.partition.measures
    m_op = w.blocks * mu[None, :]
    for a in range(1, 5):
        for b in range(1, 5):
            lhs = comp_power(w, a + b).blocks
            rhs = np.linalg.matrix_power(m_op, a + b - 1) @ w.blocks
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_comp_power_grid_agrees_with_step_on_aligned_grid(rng):
    # measures on a 1/24 lattice so a 24-cell grid aligns with the blocks
    parts = np.array([6, 4, 8, 6]) / 24
    w = step(Partition(parts), random_step_graphon(rng, 4).blocks)
    g = to_grid(w, 24)
    for m in range(1, 5):
        ws = comp_power(w, m)
        gs = comp_power(g, m)
        rendered = to_grid(ws, 24)
        assert np.max(np.abs(gs.values - rendered.values)) <= 1e-10


@pytest.mark.parametrize("build", [
    lambda: to_grid(lift(cycle_adjacency(6)), 2.5),
    lambda: GridGraphon(2.5, np.ones((2, 2))),
    lambda: Partition.uniform(2.5),
    lambda: to_grid(lift(cycle_adjacency(6)), 0),
], ids=["to-grid-fractional", "grid-fractional", "uniform-fractional",
        "to-grid-zero"])
def test_fractional_resolutions_are_rejected(build):
    # they were truncated to 2 cells before
    with pytest.raises(ValidationError, match="positive integer"):
        build()


def test_integral_resolutions_of_any_type_render():
    w = lift(cycle_adjacency(6))
    for res in (2, 2.0, np.int64(2), np.float64(2.0)):
        assert to_grid(w, res).resolution == 2
        assert GridGraphon(res, np.ones((2, 2))).resolution == 2
        assert Partition.uniform(res).size == 2


def test_comp_power_permutation_equivariance(rng):
    # zero patterns commute with permutation exactly; values agree to the
    # last bits modulo summation-order rounding in the matrix products
    for _ in range(10):
        n = int(rng.integers(2, 7))
        w = random_step_graphon(rng, n)
        sigma = rng.permutation(n)
        for m in range(1, 7):
            lhs = comp_power(permute_blocks(w, sigma), m).blocks
            rhs = permute_blocks(comp_power(w, m), sigma).blocks
            assert np.array_equal(lhs == 0.0, rhs == 0.0)
            assert np.max(np.abs(lhs - rhs)) <= 1e-14


# ---------------------------------------------------------------------------
# degree / apply_adjacency
# ---------------------------------------------------------------------------

def test_degree_bipartite_is_half():
    k = degree(bipartite_graphon())
    assert np.allclose(k.values, [0.5, 0.5])


def test_degree_er_is_constant():
    assert np.allclose(degree(er_graphon(0.37)).values, [0.37])


def test_degree_cycle_lift():
    k = degree(lift(cycle_adjacency(6)))
    assert np.max(np.abs(k.values - 1 / 3)) <= 1e-15


def test_apply_adjacency_on_ones_is_degree(rng):
    w = random_step_graphon(rng, 5)
    ones = BlockFunction(w.partition, np.ones(5))
    assert np.allclose(apply_adjacency(w, ones).values, degree(w).values)


def test_apply_adjacency_bipartite_sign_vector():
    w = bipartite_graphon()
    f = BlockFunction(w.partition, np.array([1.0, -1.0]))
    assert np.allclose(apply_adjacency(w, f).values, [-0.5, 0.5])


def test_apply_adjacency_zero_graphon():
    w = lift(np.zeros((3, 3)))
    f = BlockFunction(w.partition, np.array([1.0, 2.0, -1.0]))
    assert np.allclose(apply_adjacency(w, f).values, 0.0)


def test_apply_adjacency_dimension_mismatch():
    w = bipartite_graphon()
    other = BlockFunction(Partition(np.array([0.25, 0.75])), np.ones(2))
    with pytest.raises(ValidationError):
        apply_adjacency(w, other)


def test_degree_of_square_equals_adjacency_of_degree(rng):
    for _ in range(5):
        w = random_step_graphon(rng, 6)
        lhs = degree(comp_power(w, 2)).values
        rhs = apply_adjacency(w, degree(w)).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_grid_degree_and_adjacency():
    g = GridGraphon(4, np.full((4, 4), 0.8))
    assert np.allclose(degree(g).values, 0.8)
    ones = BlockFunction(g.partition, np.ones(4))
    assert np.allclose(apply_adjacency(g, ones).values, 0.8)


# ---------------------------------------------------------------------------
# evaluate / permute_blocks
# ---------------------------------------------------------------------------

def test_evaluate_bipartite_points():
    w = bipartite_graphon()
    assert evaluate(w, 0.1, 0.9) == 1.0
    assert evaluate(w, 0.1, 0.2) == 0.0


def test_evaluate_closed_last_block():
    blocks = np.array([[0.1, 0.2], [0.2, 0.9]])
    w = step(Partition(np.array([0.5, 0.5])), blocks)
    assert evaluate(w, 1.0, 1.0) == pytest.approx(0.9)


def test_evaluate_out_of_domain():
    with pytest.raises(ValidationError):
        evaluate(bipartite_graphon(), -0.1, 0.5)


def test_permute_blocks_identity_and_swap(rng):
    w = random_step_graphon(rng, 4)
    same = permute_blocks(w, np.arange(4))
    assert np.array_equal(same.blocks, w.blocks)
    b = bipartite_graphon()
    swapped = permute_blocks(b, [1, 0])
    assert np.array_equal(swapped.blocks, b.blocks)
    assert np.allclose(swapped.partition.measures, b.partition.measures)


def test_permute_blocks_rejects_non_permutation():
    with pytest.raises(ValidationError):
        permute_blocks(bipartite_graphon(), [0, 0])


@pytest.mark.parametrize("sigma", [[0, 1.5], [1.0, 0.0], [True, False],
                                   np.array([1, 0], dtype=object)])
def test_permute_blocks_reads_only_integer_dtypes(sigma):
    # 1.5 used to be truncated to 1 and True read as 1, so [0, 1.5] and
    # [True, False] returned graphons
    with pytest.raises(ValidationError, match="integer"):
        permute_blocks(lift([[0, 1], [1, 0]]), sigma)
    assert permute_blocks(lift([[0, 1], [1, 0]]), np.array([1, 0], np.uint8))


def test_values_are_immutable():
    w = bipartite_graphon()
    with pytest.raises(ValueError):
        w.blocks[0, 0] = 1.0
    with pytest.raises(ValueError):
        w.partition.measures[0] = 0.9
