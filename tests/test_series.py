"""Walk-mass series: entrywise truncation, log-domain slopes and the batched
transform mode.

Most distances here are far enough that a normwise truncation (stop once
the terms are small next to the largest one) leaves the entry at exactly 0,
and the heat content at set distance 63 underflows every double.
"""

import json
import math

import numpy as np
import pytest

from graphondist import (
    EXPONENTIAL,
    RESOLVENT,
    IntervalSet,
    MathDomainError,
    Partition,
    SlopeEstimate,
    analytic_transform,
    circular_band_graphon,
    dump_graphon,
    expm,
    general_varadhan_slope,
    heat_content,
    lift,
    set_distance,
    step,
    support_graph,
    varadhan_slope,
)
from graphondist.cli import main
from conftest import cycle_adjacency, random_step_graphon


def I(a, b):
    return IntervalSet(((a, b),))


def cycle_distance(i, j, k):
    return min(abs(i - j), k - abs(i - j))


def random_operator(rng, a):
    raw = rng.uniform(0.5, 1.5, a.shape)
    return a * (raw + raw.T) / 2.0, rng.uniform(-1.0, 1.0, a.shape[0])


# ---------------------------------------------------------------------------
# transform slopes: every pair of C16 and C24
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [16, 24])
@pytest.mark.parametrize("family", [EXPONENTIAL, RESOLVENT],
                         ids=["exp", "resolvent"])
@pytest.mark.parametrize("weighting", ["unit", "random"])
def test_every_cycle_pair_recovers_its_distance(k, family, weighting):
    a = cycle_adjacency(k)
    if weighting == "unit":
        weights, diag = a, np.zeros(k)
    else:
        weights, diag = random_operator(np.random.default_rng(k), a)
    for i in range(k):
        for j in range(k):
            est = general_varadhan_slope(a, weights, diag, family, i, j)
            assert est.estimated_distance == cycle_distance(i, j, k), (i, j)
            assert est.series_stop == "tail_bound"
            assert est.series_terms > cycle_distance(i, j, k)


def test_unreachable_pair_raises_with_the_first_t():
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = a[2, 3] = a[3, 2] = 1.0
    with pytest.raises(MathDomainError,
                       match=r"\|f\(Lt\)\|\[0,3\] is not positive at t = 0.001"):
        general_varadhan_slope(a, a, np.zeros(4), EXPONENTIAL, 0, 3)


# ---------------------------------------------------------------------------
# heat slopes
# ---------------------------------------------------------------------------

def test_band_heat_slope_at_set_distance_63():
    w = circular_band_graphon(1 / 128, 512)
    u, v = I(0.5 / 512, 3.5 / 512), I(255.5 / 512, 258.5 / 512)
    assert set_distance(w, u, v) == 63
    est = varadhan_slope(w, u, v)
    assert est.estimated_distance == 63
    assert abs(est.slope - 63) < 0.1
    assert np.all(np.isfinite(est.log_values))
    # the heat content itself is far below the smallest double
    assert heat_content(w, u, v, 1e-3) == 0.0


def test_band_heat_slope_holds_no_cell_by_cell_float():
    # the series reads the 512 x 512 blocks in place, with the measures as
    # its column scale; forming blocks * mu peaked at 4.9 MB
    import tracemalloc

    w = circular_band_graphon(1 / 128, 512)
    u, v = I(0.5 / 512, 3.5 / 512), I(255.5 / 512, 258.5 / 512)
    varadhan_slope(w, u, v)
    tracemalloc.start()
    try:
        est = varadhan_slope(w, u, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.estimated_distance == 63
    assert peak < 1.5e6, peak


@pytest.mark.parametrize("budget", [None, 0], ids=["formed", "scaled"])
def test_heat_series_with_a_column_scale_matches_the_formed_operator(
        rng, monkeypatch, budget):
    # a budget of 0 entries scales every power instead of forming
    # A diag(mu) (and sums one power a block on both sides)
    from graphondist import linalg
    from graphondist.linalg import _walk_series
    from graphondist.varadhan import _heat_series

    if budget is not None:
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", budget)
    ts = np.array([1e-3, 1e-4, 1e-5, 0.3])
    for _ in range(40):
        w = random_step_graphon(rng, int(rng.integers(1, 12)), density=0.4)
        a, b = sorted(rng.uniform(0, 1, 2))
        c, d = sorted(rng.uniform(0, 1, 2))
        if b - a < 1e-3 or d - c < 1e-3:
            continue
        u, v = I(a, b), I(c, d)
        mu = w.partition.measures
        got = _heat_series(w, u, v, ts)
        want = _walk_series(EXPONENTIAL, w.blocks * mu, ts,
                            start=u.block_masses(w.partition)[None, :],
                            end=(v.block_masses(w.partition) / mu)[:, None],
                            zeroth=u.intersection_measure(v))
        assert np.array_equal(got.terms, want.terms)
        assert np.array_equal(got.stop, want.stop)
        assert np.array_equal(np.isneginf(got.log_abs),
                              np.isneginf(want.log_abs))
        finite = np.isfinite(want.log_abs)
        assert np.allclose(got.log_abs[finite], want.log_abs[finite],
                           rtol=1e-12, atol=1e-12)


def test_slope_estimate_reports_its_series():
    c6 = lift(cycle_adjacency(6))
    est = varadhan_slope(c6, I(0.0, 1 / 6), I(3 / 6, 4 / 6))
    assert est.series_stop == "tail_bound"
    assert est.series_terms > 3
    # the new fields default, so the old constructor still works
    plain = SlopeEstimate(np.array([1e-3, 1e-4]), np.zeros(2), 1.0, 0.0)
    assert plain.series_terms == 0 and plain.series_stop == ""


def test_heat_mass_inside_a_bare_isolated_block_is_zero():
    # block 0 has no self-loop and no neighbour: two disjoint pieces of it
    # are joined by no walk, although they touch the same block
    w = step(Partition(np.array([0.5, 0.5])), np.array([[0.0, 0.0],
                                                        [0.0, 1.0]]))
    u, v = I(0.0, 0.2), I(0.3, 0.5)
    for t in (1e-5, 1e-3, 1.0):
        assert heat_content(w, u, v, t) == 0.0
    with pytest.raises(MathDomainError, match="not positive at t = "):
        varadhan_slope(w, u, v)


@pytest.mark.parametrize("tiny, terms", [(1e-120, 1), (1e-300, 2)])
def test_a_row_that_reaches_nothing_new_settles_after_power_one(tiny, terms):
    # a tiny entry keeps the blocks of powers to two (1e-120) or one
    # (1e-300): vertex 0 has no edge, so its walks reach no new vertex at
    # step 1, and its entry to vertex 1 settles as unreachable at the end
    # of the block that holds power 1
    from graphondist.linalg import STOP_REASONS, _walk_series

    a = np.array([[0.0, 0.0], [0.0, tiny]])
    series = _walk_series(EXPONENTIAL, a, np.array([1e-3, 1e-4]),
                          start=np.eye(2)[[0]], end=np.eye(2)[:, [1]])
    assert STOP_REASONS[series.stop[0, 0]] == "unreachable"
    assert series.terms[0, 0] == terms
    assert np.isneginf(series.log_abs).all()


def _heat_series_reference(w, u, v, t):
    """The adjacency heat series as a plain sum of t^m/m! u^T M^{m-1} A v,
    stopping after two negligible terms once mass has appeared."""
    mu = w.partition.measures
    a = w.blocks
    um = u.block_masses(w.partition)
    vm = v.block_masses(w.partition)
    total = u.intersection_measure(v)
    cap = max(400, mu.shape[0] + 50, int(3 * t) + 50)
    mm = a * mu[None, :]
    y = a @ vm
    coeff = t
    small_run = 0
    for m in range(1, cap + 1):
        contrib = coeff * float(um @ y)
        total += contrib
        if total > 0.0 and contrib <= 1e-18 * total:
            small_run += 1
            if small_run >= 2:
                return total
        else:
            small_run = 0
        coeff *= t / (m + 1)
        y = mm @ y
    return total


def test_heat_content_matches_the_plain_series(rng):
    for _ in range(60):
        w = random_step_graphon(rng, int(rng.integers(1, 9)), density=0.5)
        a, b = sorted(rng.uniform(0, 1, 2))
        c, d = sorted(rng.uniform(0, 1, 2))
        if b - a < 1e-3 or d - c < 1e-3:
            continue
        u, v = I(a, b), I(c, d)
        for t in (1e-5, 1e-3, 0.1, 1.0, 3.0):
            want = _heat_series_reference(w, u, v, t)
            got = heat_content(w, u, v, t)
            if want == 0.0:
                assert got == 0.0
            else:
                assert abs(got - want) <= 1e-12 * want


# ---------------------------------------------------------------------------
# analytic_transform
# ---------------------------------------------------------------------------

def test_analytic_transform_keeps_a_distance_seven_entry():
    a = cycle_adjacency(16)
    t = 2e-5
    lead = t ** 7 / math.factorial(7) * np.linalg.matrix_power(a, 7)[0, 7]
    got, order = analytic_transform(EXPONENTIAL, a, t)
    assert order >= 7
    assert got[0, 7] == pytest.approx(lead, rel=1e-9)
    resolvent, _ = analytic_transform(RESOLVENT, a, t)
    assert resolvent[0, 7] == pytest.approx(t ** 7, rel=1e-9)


def test_analytic_transform_negative_t_and_exact_zeros(rng):
    l = rng.uniform(-1.0, 1.0, (5, 5))
    got, _ = analytic_transform(EXPONENTIAL, l, -0.1)
    assert np.max(np.abs(got - expm(-0.1 * l))) <= 1e-12
    # no walk joins the two halves: those entries stay exactly zero
    split = np.kron(np.eye(2), np.ones((2, 2)))
    got, _ = analytic_transform(EXPONENTIAL, split, 0.3)
    assert np.all(got[:2, 2:] == 0.0) and np.all(got[2:, :2] == 0.0)
    assert np.max(np.abs(got - expm(0.3 * split))) <= 1e-12


def test_analytic_transform_depends_only_on_t_times_l():
    # powers of 1e20 * C24 overflow, and of 1e-20 * C24 underflow, within
    # one block of powers unless the rows are rescaled between blocks
    a = cycle_adjacency(24)
    want, _ = analytic_transform(EXPONENTIAL, a, 1e-3)
    for scale in (1e20, 1e-20):
        got, _ = analytic_transform(EXPONENTIAL, scale * a, 1e-3 / scale)
        assert np.all(want > 0.0)
        assert np.max(np.abs(got - want) / want) <= 1e-12


# ---------------------------------------------------------------------------
# CLI transform mode
# ---------------------------------------------------------------------------

def _slope_json(tmp_path, graphon, *flags):
    spec = tmp_path / "w.json"
    dump_graphon(graphon, spec)
    out = tmp_path / "out"
    code = main(["slope", "--input", str(spec), "--out", str(out),
                 "--reproducible", *flags])
    return code, json.loads((out / "slope.json").read_text())


@pytest.mark.parametrize("family", [EXPONENTIAL, RESOLVENT],
                         ids=["exp", "resolvent"])
def test_batched_pairs_equal_the_single_pair_slopes(tmp_path, family):
    w = lift(cycle_adjacency(16))
    code, payload = _slope_json(tmp_path, w, "--transform", family.name,
                                "--weights", "random", "--seed", "3")
    assert code == 0 and payload["all_match"] is True
    # the CLI's operator, rebuilt from the same seed
    a = support_graph(w).matrix.astype(float)
    weights, diag = random_operator(np.random.default_rng(3), a)
    assert len(payload["pairs"]) == 256
    for entry in payload["pairs"]:
        i, j = entry["pair"]
        est = general_varadhan_slope(a, weights, diag, family, i, j)
        assert abs(entry["slope"] - est.slope) <= 1e-12
        assert abs(entry["residual"] - est.residual) <= 1e-12
        assert entry["estimated"] == cycle_distance(i, j, 16)
        assert entry["series_terms"] == est.series_terms
        assert entry["series_stop"] == est.series_stop


def test_disconnected_transform_pairs_fail_one_by_one(tmp_path):
    w = step(Partition(np.array([0.5, 0.5])), np.eye(2))
    code, payload = _slope_json(tmp_path, w, "--transform", "exp",
                                "--weights", "unit")
    assert code == 1
    assert payload["all_match"] is False
    by_pair = {tuple(e["pair"]): e for e in payload["pairs"]}
    for pair in ((0, 0), (1, 1)):
        assert by_pair[pair]["match"] is True
        assert "reason" not in by_pair[pair]
    for pair in ((0, 1), (1, 0)):
        entry = by_pair[pair]
        assert entry["match"] is False
        assert entry["expected"] == "unreachable"
        assert entry["slope"] is None and entry["estimated"] is None
        assert "is not positive at t = 0.001" in entry["reason"]
        assert entry["series_stop"] == "unreachable"


def test_heat_mode_json_reports_the_series(tmp_path):
    code, payload = _slope_json(tmp_path, lift(cycle_adjacency(6)),
                                "--u", "0:0.1667", "--v", "0.5:0.6667")
    assert code == 0
    assert payload["series_stop"] == "tail_bound"
    assert payload["series_terms"] > 3


def test_series_past_the_exponential_limit_are_rejected():
    # t ||L||_inf > 700: the term cap used to outgrow int64 at t = 1e300
    # (object arrays, a TypeError), the sum to run for minutes at t = 1e5,
    # and the heat content to overflow to inf
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    for t in (1e5, 1e300, -1e5):
        with pytest.raises(MathDomainError, match="would overflow"):
            analytic_transform(EXPONENTIAL, swap, t)
    with pytest.raises(MathDomainError, match=r"= 700\.5 > 700"):
        analytic_transform(EXPONENTIAL, swap, 700.5)
    got, _ = analytic_transform(EXPONENTIAL, swap, 700.0)  # at the limit
    want = np.array([[np.cosh(700.0), np.sinh(700.0)],
                     [np.sinh(700.0), np.cosh(700.0)]])
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    c6 = lift(cycle_adjacency(6))  # ||A diag(mu)||_inf = 1/3
    u, v = I(0.0, 1 / 6), I(0.5, 4 / 6)
    with pytest.raises(MathDomainError, match="would overflow"):
        heat_content(c6, u, v, 1e4)
    with pytest.raises(MathDomainError, match="would overflow"):
        varadhan_slope(c6, u, v, [1e4, 1e3])
    assert math.isfinite(heat_content(c6, u, v, 2000.0))


@pytest.mark.parametrize("graphon, sets, grid", [
    ({"kind": "builtin", "name": "bipartite"}, ("0:0.5", "0.5:1"),
     "1e300:1e299:2"),
    ({"kind": "step", "measures": [1 / 6] * 6,
      "blocks": cycle_adjacency(6).tolist()},
     ("0:0.1667", "0.5:0.6667"), "1e4:1e3:2"),
], ids=["bipartite", "c6"])
def test_cli_slope_past_the_exponential_limit_is_code_3(tmp_path, capsys,
                                                        graphon, sets, grid):
    spec = tmp_path / "w.json"
    spec.write_text(json.dumps(graphon))
    out = tmp_path / "out"
    code = main(["slope", "--input", str(spec), "--out", str(out),
                 "--u", sets[0], "--v", sets[1], "--tgrid", grid])
    assert code == 3
    err = capsys.readouterr().err
    assert "math domain error" in err and "would overflow" in err
    assert not out.exists()


def test_cli_transform_pair_at_the_term_cap_is_reported(tmp_path):
    # the resolvent of the one-block graphon at t = 0.99 is the geometric
    # series of 0.99, which needs far more than the cap of 200 terms
    spec = tmp_path / "er.json"
    spec.write_text(json.dumps({"kind": "builtin", "name": "er",
                                "params": {"p": 1.0}}))
    out = tmp_path / "out"
    code = main(["slope", "--input", str(spec), "--out", str(out),
                 "--transform", "resolvent", "--weights", "unit",
                 "--tgrid", "0.99:0.98:2", "--reproducible"])
    assert code == 1
    payload = json.loads((out / "slope.json").read_text())
    (entry,) = payload["pairs"]
    assert payload["all_match"] is False and entry["match"] is False
    assert entry["series_stop"] == "term_cap" and entry["series_terms"] == 201
    assert entry["slope"] is None and entry["estimated"] is None
    assert entry["reason"] == ("|f(Lt)|[0,0] did not converge within 201 "
                               "terms; no slope is defined")
