import numpy as np
import pytest

from graphondist import (
    UNREACHABLE,
    Partition,
    SupportGraph,
    ValidationError,
    block_distance_matrix,
    bipartite_graphon,
    circular_band_graphon,
    comp_power,
    diameter,
    er_graphon,
    is_connected,
    lift,
    step,
    support_graph,
)
from conftest import bfs_oracle, cycle_adjacency, random_partition, random_step_graphon


# ---------------------------------------------------------------------------
# support_graph
# ---------------------------------------------------------------------------

def test_support_graph_bipartite():
    s = support_graph(bipartite_graphon())
    assert np.array_equal(s.matrix, np.array([[False, True], [True, False]]))


@pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 2, 2)])
def test_support_graph_rejects_a_matrix_that_is_not_square(shape):
    with pytest.raises(ValidationError, match="must be square"):
        SupportGraph(np.ones(shape, bool), 0.0)


def test_support_graph_rejects_an_asymmetric_matrix():
    # edges 0->1, 2->1 and 1->0 only: read as a graph it would put vertex 2
    # at distance 2 from vertex 0
    m = np.zeros((3, 3), bool)
    m[0, 1] = m[2, 1] = m[1, 0] = True
    with pytest.raises(ValidationError, match="square and symmetric"):
        block_distance_matrix(SupportGraph(m, 0.0))
    m[1, 2] = True
    assert block_distance_matrix(SupportGraph(m, 0.0))[0, 2] == 2


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -5, -1e-300])
def test_support_graph_checks_its_threshold_as_a_query_does(epsilon):
    # NaN and negative thresholds used to be constructed
    with pytest.raises(ValidationError, match="threshold"):
        SupportGraph(np.eye(2, dtype=bool), epsilon)
    with pytest.raises(ValidationError, match="threshold"):
        support_graph(bipartite_graphon(), epsilon)
    assert SupportGraph(np.eye(2, dtype=bool), 0).epsilon == 0.0


def test_support_graph_er_all_true():
    assert support_graph(er_graphon(0.2)).matrix.all()
    assert not support_graph(er_graphon(0.0)).matrix.any()


def test_support_graph_circular_band_width():
    n = 700
    s = support_graph(circular_band_graphon(1 / 7, n))
    # cell centers at index distance k are within tau iff min(k, n-k) <= 100
    ks = np.arange(n)
    expected = np.minimum(ks, n - ks) <= 100
    assert np.array_equal(s.matrix[0], expected)


def test_support_graph_negative_epsilon_rejected():
    with pytest.raises(ValueError):
        support_graph(bipartite_graphon(), -1.0)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf")])
def test_support_graph_non_finite_epsilon_rejected(eps):
    with pytest.raises(ValidationError):
        support_graph(bipartite_graphon(), eps)


# ---------------------------------------------------------------------------
# is_connected
# ---------------------------------------------------------------------------

def test_bipartite_is_connected():
    assert is_connected(bipartite_graphon())


def test_block_diagonal_is_disconnected():
    w = step(Partition(np.array([0.3, 0.7])), np.eye(2))
    assert not is_connected(w)


def test_er_connectivity():
    assert is_connected(er_graphon(0.01))
    assert not is_connected(er_graphon(0.0))


def test_lone_block_without_self_loop_is_disconnected():
    assert not is_connected(lift(np.array([[0.0]])))
    assert is_connected(lift(np.array([[1.0]])))


# ---------------------------------------------------------------------------
# block_distance_matrix
# ---------------------------------------------------------------------------

def test_walk_distances_cycle_six():
    d = block_distance_matrix(support_graph(lift(cycle_adjacency(6))))
    assert d[0, 3] == 3.0
    assert d[0, 1] == 1.0
    assert d[0, 2] == 2.0
    assert d[0, 0] == 2.0  # no self-loop: out and back


def test_walk_distances_bipartite():
    d = block_distance_matrix(support_graph(bipartite_graphon()))
    assert d[0, 0] == 2.0
    assert d[1, 1] == 2.0
    assert d[0, 1] == 1.0


def test_walk_distance_self_loop():
    d = block_distance_matrix(support_graph(lift(np.array([[1.0]]))))
    assert d[0, 0] == 1.0


def test_walk_distance_isolated_node_unreachable():
    w = step(Partition(np.array([0.4, 0.3, 0.3])),
             np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    d = block_distance_matrix(support_graph(w))
    assert d[2, 2] == UNREACHABLE
    assert d[0, 2] == UNREACHABLE


def test_walk_distances_match_bfs_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(2, 10))
        w = random_step_graphon(rng, n, density=0.4)
        s = support_graph(w)
        got = block_distance_matrix(s)
        oracle = bfs_oracle(s.matrix)
        off = ~np.eye(n, dtype=bool)
        assert np.array_equal(got[off], oracle[off])
        # diagonal: self-loop -> 1, else neighbour round trip -> 2
        for i in range(n):
            if s.matrix[i, i]:
                assert got[i, i] == 1.0
            elif (s.matrix[i] & off[i]).any():
                assert got[i, i] == 2.0
            else:
                assert got[i, i] == UNREACHABLE


# ---------------------------------------------------------------------------
# diameter
# ---------------------------------------------------------------------------

def test_diameter_er_is_one():
    assert diameter(er_graphon(0.5)) == 1


def test_diameter_bipartite_is_two():
    assert diameter(bipartite_graphon()) == 2


def test_diameter_circular_band_is_four():
    assert diameter(circular_band_graphon(1 / 7, 700)) == 4


def test_diameter_wide_circular_band_is_two():
    # the squared kernel of the quarter band is positive almost everywhere
    assert diameter(circular_band_graphon(0.25, 512)) == 2


def test_diameter_unbounded_flag():
    w = step(Partition(np.array([0.3, 0.7])), np.eye(2))
    assert diameter(w) == UNREACHABLE


def test_diameter_equals_matrix_max(rng):
    for _ in range(10):
        w = random_step_graphon(rng, int(rng.integers(2, 8)),
                                ensure_connected=True)
        d = block_distance_matrix(support_graph(w))
        assert diameter(w) == int(d.max())


# ---------------------------------------------------------------------------
# characterization coherence
# ---------------------------------------------------------------------------

def test_connected_iff_finitely_connected(rng):
    from conftest import finitely_connected

    hits = {True: 0, False: 0}
    for _ in range(60):
        n = int(rng.integers(1, 9))
        w = random_step_graphon(rng, n, density=float(rng.uniform(0.1, 0.9)))
        s = support_graph(w)
        hits[is_connected(w)] += 1
        assert is_connected(w) == finitely_connected(s)
    assert hits[True] and hits[False]  # both outcomes exercised


def test_connected_iff_simple_laplacian_kernel(rng):
    from conftest import laplacian_zero_simple

    for _ in range(40):
        n = int(rng.integers(2, 9))
        w = random_step_graphon(rng, n, density=float(rng.uniform(0.2, 0.9)))
        assert is_connected(w) == laplacian_zero_simple(w)


def test_disconnected_powers_stay_disconnected(rng):
    found = 0
    while found < 10:
        w = random_step_graphon(rng, int(rng.integers(2, 8)), density=0.25)
        if is_connected(w):
            continue
        found += 1
        for m in range(1, 5):
            assert not is_connected(comp_power(w, m))


def test_coarsen_of_connected_is_connected(rng):
    from graphondist import coarsen

    for _ in range(15):
        w = random_step_graphon(rng, 8, ensure_connected=True)
        k = int(rng.integers(2, 6))
        p = random_partition(rng, k)
        assert is_connected(coarsen(p, w))
