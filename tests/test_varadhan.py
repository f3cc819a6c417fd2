import math

import numpy as np
import pytest

from graphondist import (
    EXPONENTIAL,
    RESOLVENT,
    GridGraphon,
    IntervalSet,
    MathDomainError,
    Partition,
    UNREACHABLE,
    ValidationError,
    bipartite_graphon,
    circular_band_graphon,
    degree,
    distance_field,
    er_graphon,
    evaluate,
    expm,
    general_varadhan_slope,
    heat_content,
    lift,
    permute_blocks,
    set_distance,
    step,
    to_grid,
    varadhan_distance,
    varadhan_slope,
)
from conftest import cycle_adjacency, random_step_graphon

C6 = lift(cycle_adjacency(6))
I = lambda a, b: IntervalSet(((a, b),))


# ---------------------------------------------------------------------------
# set_distance
# ---------------------------------------------------------------------------

def test_set_distance_cycle_triangle_counterexample():
    x = I(0.0, 1 / 6)
    y = IntervalSet(((1 / 6, 3 / 6),))
    z = I(3 / 6, 4 / 6)
    assert set_distance(C6, x, y) == 1
    assert set_distance(C6, y, z) == 1
    assert set_distance(C6, x, z) == 3  # violates the triangle inequality


def test_set_distance_zero_on_overlap(rng):
    w = random_step_graphon(rng, 5)
    u = I(0.2, 0.6)
    assert set_distance(w, u, u) == 0
    assert set_distance(w, u, I(0.5, 0.9)) == 0


def test_set_distance_within_one_bipartite_block():
    w = bipartite_graphon()
    assert set_distance(w, I(0.0, 0.1), I(0.2, 0.3)) == 2


def test_set_distance_rejects_empty_sets():
    with pytest.raises(ValidationError):
        set_distance(C6, IntervalSet.empty(), I(0.0, 0.5))


def test_set_distance_unreachable_marker():
    w = step(Partition(np.array([0.5, 0.5])), np.eye(2))
    assert set_distance(w, I(0.0, 0.2), I(0.6, 0.8)) == UNREACHABLE


def test_set_distance_monotone_under_enlargement(rng):
    for _ in range(25):
        w = random_step_graphon(rng, 6, ensure_connected=True)
        a, b = sorted(rng.uniform(0.0, 1.0, 2))
        if b - a < 1e-3:
            continue
        inner = I(a, b)
        pad = rng.uniform(0.0, min(a, 1 - b)) if min(a, 1 - b) > 0 else 0.0
        outer = I(a - pad, b + pad)
        lo, hi = sorted(rng.uniform(0.0, 1.0, 2))
        if hi - lo < 1e-3:
            continue
        v = I(lo, hi)
        assert set_distance(w, inner, v) >= set_distance(w, outer, v)


# ---------------------------------------------------------------------------
# varadhan_distance / distance_field
# ---------------------------------------------------------------------------

def test_varadhan_distance_bipartite_cases():
    w = bipartite_graphon()
    assert varadhan_distance(w, 0.1, 0.7) == 1
    assert varadhan_distance(w, 0.1, 0.3) == 2
    assert varadhan_distance(w, 0.8, 0.9) == 2
    assert varadhan_distance(w, 0.42, 0.42) == 0


def test_varadhan_distance_er_independent_of_p():
    fields = [distance_field(er_graphon(p)) for p in (0.1, 0.5, 0.9)]
    for fld in fields:
        assert np.array_equal(fld.matrix, fields[0].matrix)
        assert fld.pointwise(0.3, 0.8) == 1
        assert fld.pointwise(0.3, 0.3) == 0


def test_varadhan_distance_circular_band_ceiling():
    n = 700
    fld = distance_field(circular_band_graphon(1 / 7, n))
    assert fld.pointwise(0.0005, 0.5005) == 4
    # spot-check one row against the integer ceiling oracle
    ks = np.arange(1, n)
    ring = np.minimum(ks, n - ks)
    expected = -(-ring // 100)  # ceil(ring / 100)
    assert np.array_equal(fld.matrix[0, 1:], expected.astype(float))


def test_distance_field_bipartite_layers():
    fld = distance_field(bipartite_graphon())
    assert np.array_equal(fld.matrix, np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert fld.layer_count == 2
    assert fld.connected


def test_distance_field_er_single_layer():
    fld = distance_field(er_graphon(0.42))
    assert np.array_equal(fld.matrix, np.array([[1.0]]))
    assert fld.layer_count == 1


def test_distance_field_disconnected_flagged():
    w = step(Partition(np.array([0.5, 0.5])), np.eye(2))
    fld = distance_field(w)
    assert not fld.connected
    assert fld.matrix[0, 1] == UNREACHABLE
    assert fld.pointwise(0.1, 0.9) == UNREACHABLE


def test_field_holds_class_levels_until_matrix_is_read():
    # 2,048 cells in 64 support classes: the field holds a 64 x 64 level
    # matrix and a class per cell, not a 32 MB float matrix
    fld = distance_field(to_grid(lift(cycle_adjacency(64)), 2048))
    assert fld.levels.shape == (64, 64) and fld.classes.shape == (2048,)
    assert fld.levels.nbytes + fld.classes.nbytes < 64 * 2**10
    assert fld.layer_count == 32 and fld.within_block.shape == (2048,)
    assert "matrix" not in vars(fld)
    assert fld.matrix.shape == (2048, 2048) and fld.matrix.max() == 32.0


def recorded_fields(monkeypatch, module):
    """Every field ``module`` builds through ``distance_field``."""
    built = []

    def recording(*args, **kwargs):
        built.append(distance_field(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(module, "distance_field", recording)
    return built


@pytest.mark.parametrize("allow", [False, True])
def test_cli_varadhan_never_builds_the_float_field(tmp_path, monkeypatch,
                                                   allow):
    import json

    from graphondist import cli

    built = recorded_fields(monkeypatch, cli)
    path = tmp_path / "w.json"
    path.write_text(json.dumps({
        "kind": "grid", "resolution": 6,
        "values": [[1.0 if (i < 3) == (j < 3) else 0.0 for j in range(6)]
                   for i in range(6)]}))
    argv = ["varadhan", "--input", str(path), "--out", str(tmp_path / "out")]
    assert cli.main(argv + ["--allow-disconnected"] * allow) == (0 if allow
                                                                  else 3)
    assert len(built) == 1 and "matrix" not in vars(built[0])


def test_comparison_never_builds_the_float_field(monkeypatch):
    from graphondist import compare_with_varadhan, sampler

    built = recorded_fields(monkeypatch, sampler)
    w = to_grid(step(Partition(np.array([0.3, 0.7])),
                     np.array([[0.0, 0.8], [0.8, 0.5]])), 40)
    report = compare_with_varadhan(w, 60, trials=2, seed=4)
    assert report["trials"] == 2
    assert len(built) == 1 and "matrix" not in vars(built[0])


def test_distance_field_entries_bounded_by_diameter(rng):
    from graphondist import diameter

    for _ in range(10):
        w = random_step_graphon(rng, 7, ensure_connected=True)
        fld = distance_field(w)
        assert fld.layer_count == diameter(w)
        assert float(fld.matrix.max()) <= diameter(w)


def test_varadhan_distance_metric_axioms(rng):
    for _ in range(5):
        w = random_step_graphon(rng, int(rng.integers(2, 11)),
                                ensure_connected=True)
        fld = distance_field(w)
        xs, ys, zs = rng.random((3, 2000))
        dxy = np.asarray(fld.pointwise(xs, ys))
        dyx = np.asarray(fld.pointwise(ys, xs))
        dyz = np.asarray(fld.pointwise(ys, zs))
        dxz = np.asarray(fld.pointwise(xs, zs))
        assert np.array_equal(dxy, dyx)
        assert np.all(dxz <= dxy + dyz)
        assert np.all((dxy > 0) | (xs == ys))
    band = distance_field(circular_band_graphon(1 / 7, 700))
    xs, ys, zs = rng.random((3, 10000))
    assert np.all(np.asarray(band.pointwise(xs, zs))
                  <= np.asarray(band.pointwise(xs, ys))
                  + np.asarray(band.pointwise(ys, zs)))


def test_varadhan_distance_isomorphism_invariance(rng):
    for _ in range(10):
        n = int(rng.integers(2, 8))
        w = random_step_graphon(rng, n, ensure_connected=True)
        sigma = rng.permutation(n)
        ws = permute_blocks(w, sigma)
        # block centers map onto each other under the rearrangement
        c_new = (ws.partition.breakpoints[:-1] + ws.partition.breakpoints[1:]) / 2
        c_old = (w.partition.breakpoints[:-1] + w.partition.breakpoints[1:]) / 2
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                lhs = varadhan_distance(ws, c_new[i], c_new[j])
                rhs = varadhan_distance(w, c_old[sigma[i]], c_old[sigma[j]])
                assert lhs == rhs


def test_set_distance_is_metric_on_partition_blocks(rng):
    # restricted to the blocks of a coarsened connected graphon, the set
    # distance gains back identity and the triangle inequality
    from graphondist import coarsen
    from conftest import random_partition

    for _ in range(10):
        w = random_step_graphon(rng, 7, ensure_connected=True)
        p = random_partition(rng, int(rng.integers(2, 6)))
        wp = coarsen(p, w)
        bp = p.breakpoints
        blocks = [I(bp[k], bp[k + 1]) for k in range(p.size)]
        d = np.array([[set_distance(wp, a, b) for b in blocks]
                      for a in blocks], dtype=float)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0)
        assert np.all((d > 0) | np.eye(p.size, dtype=bool))
        for i in range(p.size):
            for j in range(p.size):
                for k in range(p.size):
                    assert d[i, j] <= d[i, k] + d[k, j]


def test_nested_neighbourhoods_stabilize_at_varadhan_distance():
    x, y = 1 / 12, 7 / 12  # centers of blocks 0 and 3 of the 6-cycle
    target = varadhan_distance(C6, x, y)
    assert target == 3
    prev = 0
    for k in range(1, 12):
        eps = 2.0 ** (-k)
        xs = I(max(0.0, x - eps), min(1.0, x + eps))
        ys = I(max(0.0, y - eps), min(1.0, y + eps))
        d = set_distance(C6, xs, ys)
        assert d >= prev
        prev = d
    assert prev == target


# ---------------------------------------------------------------------------
# heat_content
# ---------------------------------------------------------------------------

def test_heat_content_er_full_sets():
    w = er_graphon(0.7)
    full = IntervalSet.full()
    for t in (0.0, 0.3, 1.0, 2.0):
        assert heat_content(w, full, full, t) == pytest.approx(
            math.exp(0.7 * t), rel=1e-12)


def test_heat_content_at_zero_is_overlap(rng):
    w = random_step_graphon(rng, 4)
    u = I(0.1, 0.5)
    v = I(0.3, 0.8)
    assert heat_content(w, u, v, 0.0) == pytest.approx(0.2, abs=1e-15)


def test_heat_content_bipartite_closed_form_and_expm_oracle():
    w = bipartite_graphon()
    u, v = I(0.0, 0.5), I(0.5, 1.0)
    mu = w.partition.measures
    m_op = w.blocks * mu[None, :]
    for t in (0.05, 0.4, 1.3):
        got = heat_content(w, u, v, t)
        assert got == pytest.approx(math.sinh(t / 2) / 2, rel=1e-12)
        # independent route: exponential of the block action
        um = u.block_masses(w.partition)
        vm = v.block_masses(w.partition)
        want = float(vm @ expm(m_op * t) @ (um / mu)) - float(vm @ (um / mu))
        assert got == pytest.approx(want, rel=1e-10)


def test_heat_content_nonnegative_for_adjacency(rng):
    for _ in range(20):
        w = random_step_graphon(rng, 5)
        a, b = sorted(rng.uniform(0, 1, 2))
        c, d = sorted(rng.uniform(0, 1, 2))
        if b - a < 1e-6 or d - c < 1e-6:
            continue
        assert heat_content(w, I(a, b), I(c, d), float(rng.uniform(0, 2))) >= 0.0


def test_heat_content_rejects_negative_time():
    with pytest.raises(ValidationError):
        heat_content(bipartite_graphon(), I(0, 0.5), I(0.5, 1), -0.1)


def test_heat_content_rejects_nan_time():
    for generator in ("adjacency", "laplacian"):
        with pytest.raises(ValidationError, match="t >= 0"):
            heat_content(bipartite_graphon(), I(0, 0.5), I(0.5, 1), math.nan,
                         generator)


def test_heat_content_on_grid_carrier():
    from graphondist import GridGraphon

    g = GridGraphon(8, np.full((8, 8), 0.5))
    full = IntervalSet.full()
    for t in (0.2, 1.0):
        assert heat_content(g, full, full, t) == pytest.approx(
            math.exp(0.5 * t), rel=1e-12)
        assert heat_content(g, full, full, t, "laplacian") == pytest.approx(
            1.0, abs=1e-12)


def test_heat_content_laplacian_constant_invariant():
    # the constant function is harmonic: <1, e^{-Lt} 1> stays 1
    w = er_graphon(0.6)
    full = IntervalSet.full()
    for t in (0.0, 0.5, 2.0):
        assert heat_content(w, full, full, t, "laplacian") == pytest.approx(
            1.0, abs=1e-12)


def test_heat_content_laplacian_at_long_times():
    # e^{-tL} is a contraction: at t = 800 only the constant survives, so
    # <1, e^{-tL} 1> = 1 and the two halves share <1_U, 1> <1, 1_V> = 1/4
    w = bipartite_graphon()
    full = IntervalSet.full()
    assert heat_content(w, full, full, 800.0, "laplacian") == pytest.approx(
        1.0, abs=1e-9)
    assert heat_content(w, I(0, 0.5), I(0.5, 1), 800.0,
                        "laplacian") == pytest.approx(0.25, abs=1e-9)


def test_heat_content_rejects_infinite_time():
    for generator in ("adjacency", "laplacian"):
        with pytest.raises(ValidationError, match="finite t"):
            heat_content(bipartite_graphon(), I(0, 0.5), I(0.5, 1), math.inf,
                         generator)


def test_heat_content_laplacian_against_refined_grid_oracle(rng):
    # blocks and sets aligned to a 1/12 lattice: the 12-cell discretization
    # is exact, so a dense eigensolver on it gives an independent answer
    parts = np.array([3, 4, 5]) / 12
    w = step(Partition(parts), random_step_graphon(rng, 3).blocks)
    g = to_grid(w, 12)
    u = IntervalSet(((0.0, 2 / 12), (5 / 12, 7 / 12)))
    v = IntervalSet(((1 / 12, 4 / 12), (9 / 12, 1.0)))
    n = 12
    lap = np.diag(degree(g)) - g.values / n
    lam, vec = np.linalg.eigh(lap)
    iu = np.zeros(n)
    iv = np.zeros(n)
    for a, b in u.intervals:
        iu[int(round(a * n)):int(round(b * n))] = 1.0
    for a, b in v.intervals:
        iv[int(round(a * n)):int(round(b * n))] = 1.0
    for t in (0.1, 0.7, 1.9):
        want = float(iv @ (vec @ (np.exp(-t * lam) * (vec.T @ iu)))) / n
        got = heat_content(w, u, v, t, "laplacian")
        assert got == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# varadhan_slope
# ---------------------------------------------------------------------------

def test_slope_cycle_distance_three():
    est = varadhan_slope(C6, I(0.0, 1 / 6), I(3 / 6, 4 / 6))
    assert abs(est.slope - 3.0) < 0.05
    assert est.estimated_distance == 3
    assert est.residual < 1e-3


def test_slope_overlap_is_zero():
    u = I(0.2, 0.5)
    est = varadhan_slope(C6, u, u)
    assert abs(est.slope) < 0.05


def test_slope_bipartite_within_block_two():
    est = varadhan_slope(bipartite_graphon(), I(0.0, 0.2), I(0.3, 0.5))
    assert abs(est.slope - 2.0) < 0.05


def test_slope_rejects_bad_grids():
    u, v = I(0.0, 0.2), I(0.5, 0.7)
    with pytest.raises(ValidationError):
        varadhan_slope(C6, u, v, np.array([1e-3]))
    with pytest.raises(ValidationError):
        varadhan_slope(C6, u, v, np.array([1e-5, 1e-3]))  # increasing
    for bad in ([1e-6, 0.0], [1e-6, -1e-9], [np.nan, 1e-6], [np.inf, 1e-6]):
        with pytest.raises(ValidationError, match="finite positive"):
            varadhan_slope(C6, u, v, np.array(bad))


def test_slope_error_names_t_when_mass_vanishes():
    w = step(Partition(np.array([0.5, 0.5])), np.eye(2))
    with pytest.raises(MathDomainError, match="t = "):
        varadhan_slope(w, I(0.0, 0.3), I(0.6, 0.9))


def test_cross_component_mass_is_exactly_zero_at_all_times():
    # faster-than-any-power decay degenerates to an exact zero here
    w = step(Partition(np.array([0.5, 0.5])), np.eye(2))
    for t in np.logspace(-3, -5, 6):
        assert heat_content(w, I(0.0, 0.3), I(0.6, 0.9), float(t)) == 0.0


def test_slope_matches_combinatorics_on_random_graphons(rng):
    for _ in range(10):
        w = random_step_graphon(rng, int(rng.integers(2, 7)),
                                ensure_connected=True)
        bp = w.partition.breakpoints
        for i in range(w.size):
            for j in range(i, w.size):
                u = I(bp[i], bp[i + 1])
                v = I(bp[j], bp[j + 1])
                expected = set_distance(w, u, v)
                est = varadhan_slope(w, u, v)
                assert abs(est.slope - expected) < 0.1
                assert est.estimated_distance == expected


# ---------------------------------------------------------------------------
# general_varadhan_slope
# ---------------------------------------------------------------------------

def test_general_slope_unit_weights_exp():
    a = cycle_adjacency(6)
    est = general_varadhan_slope(a, a, np.zeros(6), EXPONENTIAL, 0, 3)
    assert abs(est.slope - 3.0) < 0.1


def test_general_slope_random_weights_resolvent(rng):
    a = cycle_adjacency(6)
    raw = rng.uniform(0.5, 1.5, (6, 6))
    weights = a * (raw + raw.T) / 2
    diag = rng.uniform(-1.0, 1.0, 6)
    est = general_varadhan_slope(a, weights, diag, RESOLVENT, 0, 2)
    assert abs(est.slope - 2.0) < 0.1


def test_general_slope_diagonal_with_potential_is_zero(rng):
    a = cycle_adjacency(6)
    diag = np.full(6, 0.7)
    est = general_varadhan_slope(a, a, diag, EXPONENTIAL, 1, 1)
    assert abs(est.slope) < 0.1


def test_general_slope_rejects_pattern_violation():
    a = cycle_adjacency(4)
    bad = a.copy()
    bad[0, 1] = bad[1, 0] = 0.0
    with pytest.raises(ValidationError, match="zero pattern"):
        general_varadhan_slope(a, bad, np.zeros(4), EXPONENTIAL, 0, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", ["weights", "diagonal"])
def test_general_slope_rejects_nonfinite_operators(where, bad):
    a = cycle_adjacency(4)
    weights, diag = a.copy(), np.zeros(4)
    if where == "weights":
        weights[0, 1] = weights[1, 0] = bad
    else:
        diag[2] = bad
    with pytest.raises(ValidationError, match="must be finite"):
        general_varadhan_slope(a, weights, diag, EXPONENTIAL, 0, 1)


@pytest.mark.parametrize("i, j", [(1.0, 2), (0, "1"), (0, 4), (-1, 0)])
def test_general_slope_rejects_bad_indices(i, j):
    a = cycle_adjacency(4)
    with pytest.raises(ValidationError, match="indices"):
        general_varadhan_slope(a, a, np.zeros(4), EXPONENTIAL, i, j)


def test_general_slope_rejects_guard_violation():
    a = cycle_adjacency(4)
    with pytest.raises(MathDomainError, match="convergence guard"):
        general_varadhan_slope(a, a, np.zeros(4), RESOLVENT, 0, 1,
                               np.array([0.5, 0.2, 0.1]))


# ---------------------------------------------------------------------------
# cell boundaries on homogeneous partitions
# ---------------------------------------------------------------------------

def test_set_distance_exact_on_homogeneous_breakpoints():
    # [0.3, 0.4) is exactly vertex 3 of the 10-path; a breakpoint off by an
    # ulp (0.30000000000000004) would also touch vertex 2, one step from 1
    path = np.diag(np.ones(9), 1)
    path = path + path.T
    for w in (lift(path), GridGraphon(10, path)):
        assert set_distance(w, I(0.3, 0.4), I(0.1, 0.2)) == 2


def test_evaluate_and_distance_agree_on_cell_boundaries():
    # cells of opposite parity are joined, so from the centre of cell 0 a
    # point is at distance 1 exactly when its cell is odd; x = k/n lies in
    # cell k (the last cell keeps x = 1)
    n = 1000
    idx = np.arange(n)
    vals = ((idx[:, None] + idx[None, :]) % 2).astype(float)
    x = np.arange(n + 1) / n
    y = np.full(n + 1, 0.5 / n)
    odd = np.minimum(np.arange(n + 1), n - 1) % 2
    for w in (GridGraphon(n, vals), lift(vals)):
        assert np.array_equal(evaluate(w, x, y), odd)
        assert np.array_equal(varadhan_distance(w, x, y), 2 - odd)


def test_pointwise_distance_rejects_nan():
    with pytest.raises(ValidationError):
        varadhan_distance(bipartite_graphon(), math.nan, 0.1)
