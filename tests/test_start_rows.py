"""The kept start row of ``general_varadhan_slope`` against the pair summed
alone.

A single-pair transform slope reads its pair off the series of its whole
start row; the last row summed is kept.  The oracle here sums the pair by
itself (start row e_i, end column e_j) and reads it with ``_slope_estimate``;
every pair, in every query order, must give the oracle's outcome: the same
slope, residual and log values within 1e-12, the same term count and stop
reason, or the same exception text.
"""

import numpy as np
import pytest

from graphondist import (
    EXPONENTIAL,
    RESOLVENT,
    MathDomainError,
    ValidationError,
    general_varadhan_slope,
)
from graphondist import varadhan
from graphondist.linalg import STOP_REASONS, _walk_series
from graphondist.varadhan import (
    _slope_estimate,
    _transform_operator,
    _validate_t_grid,
    default_t_grid,
)
from conftest import cycle_adjacency

FAMILIES = {"exp": EXPONENTIAL, "resolvent": RESOLVENT}
# the resolvent guard |t| max|L| n < 1 holds at n = 30 with max|L| <= 1.5
CUSTOM_GRID = np.array([2e-2, 1e-2, 5e-3, 2e-3])


def pair_alone(adjacency, weights, diag, family, i, j, t_grid=None):
    """The single-pair slope as the series of (i, j) alone."""
    lmat = _transform_operator(adjacency, weights, diag)
    tg = default_t_grid() if t_grid is None else _validate_t_grid(t_grid)
    unit = np.eye(lmat.shape[0])
    series = _walk_series(family, lmat, tg, start=unit[[i]], end=unit[:, [j]])
    return _slope_estimate(tg, series, f"|f(Lt)|[{i},{j}]")


def outcome(slope_of, *args):
    try:
        return slope_of(*args)
    except MathDomainError as exc:
        return str(exc)


def assert_same(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert abs(got.slope - want.slope) <= 1e-12 * max(1.0, abs(want.slope))
    assert abs(got.residual - want.residual) <= 1e-12
    assert np.allclose(got.log_values, want.log_values, rtol=1e-12, atol=1e-12)
    assert np.array_equal(got.t_grid, want.t_grid)
    assert got.series_terms == want.series_terms
    assert got.series_stop == want.series_stop


def random_pattern(rng, n):
    """A random symmetric 0/1 pattern without loops; sparse ones are often
    disconnected."""
    upper = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.5), 1)
    return (upper | upper.T).astype(float)


def random_operator(rng, a):
    raw = rng.uniform(0.5, 1.5, a.shape)
    return a * (raw + raw.T) / 2.0, rng.uniform(-1.0, 1.0, a.shape[0])


def pair_orders(rng, n):
    pairs = [(i, j) for i in range(n) for j in range(n)]
    shuffled = [pairs[k] for k in rng.permutation(len(pairs))]
    return {"row-major": pairs,
            "column-major": [(i, j) for j in range(n) for i in range(n)],
            "shuffled": shuffled}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("grid", ["default", "custom"])
def test_every_pair_in_every_order_matches_the_pair_alone(family, grid):
    rng = np.random.default_rng(2024)
    fam = FAMILIES[family]
    tg = None if grid == "default" else CUSTOM_GRID
    raised = 0
    for n in (1, 2, 3, 5, 8, 13, 21, 30):
        a = random_pattern(rng, n)
        weights, diag = random_operator(rng, a)
        want = {(i, j): outcome(pair_alone, a, weights, diag, fam, i, j, tg)
                for i in range(n) for j in range(n)}
        raised += sum(isinstance(w, str) for w in want.values())
        for order, pairs in pair_orders(rng, n).items():
            for i, j in pairs:
                got = outcome(general_varadhan_slope, a, weights, diag, fam,
                              i, j, tg)
                assert_same(got, want[i, j])
    # the sparse patterns are disconnected, so some pairs have no slope
    assert raised > 0


def test_edits_in_place_between_calls_give_the_new_operator():
    rng = np.random.default_rng(7)
    a = cycle_adjacency(9)
    weights, diag = random_operator(rng, a)
    general_varadhan_slope(a, weights, diag, EXPONENTIAL, 0, 4)
    weights *= 3.0
    assert_same(general_varadhan_slope(a, weights, diag, EXPONENTIAL, 0, 4),
                pair_alone(a, weights, diag, EXPONENTIAL, 0, 4))
    diag[:] = 0.0
    assert_same(general_varadhan_slope(a, weights, diag, EXPONENTIAL, 0, 2),
                pair_alone(a, weights, diag, EXPONENTIAL, 0, 2))
    # a pattern edit reaches the validation, not a kept row
    weights[0, 4] = weights[4, 0] = 1.0
    with pytest.raises(ValidationError, match="zero pattern"):
        general_varadhan_slope(a, weights, diag, EXPONENTIAL, 0, 4)
    a[0, 4] = a[4, 0] = 1.0
    est = general_varadhan_slope(a, weights, diag, EXPONENTIAL, 0, 4)
    assert est.estimated_distance == 1
    assert_same(est, pair_alone(a, weights, diag, EXPONENTIAL, 0, 4))


def test_edits_past_the_bytes_comparison_give_the_new_operator():
    # 70 blocks, a larger operator than the other tests use
    rng = np.random.default_rng(13)
    a = cycle_adjacency(70)
    weights, diag = random_operator(rng, a)
    general_varadhan_slope(a, weights, diag, EXPONENTIAL, 0, 35)
    weights[3, 4] = weights[4, 3] = 9.0
    assert_same(general_varadhan_slope(a, weights, diag, EXPONENTIAL, 0, 35),
                pair_alone(a, weights, diag, EXPONENTIAL, 0, 35))
    view = weights.T  # equal bytes in another order: the kept row
    assert_same(general_varadhan_slope(a, view, diag, EXPONENTIAL, 0, 4),
                pair_alone(a, weights, diag, EXPONENTIAL, 0, 4))
    a[10, 11] = 2.0  # one entry of the adjacency, the pattern unchanged
    a[11, 10] = 2.0
    assert_same(general_varadhan_slope(a, weights, diag, EXPONENTIAL, 0, 35),
                pair_alone(a, weights, diag, EXPONENTIAL, 0, 35))
    weights[0, 35] = weights[35, 0] = 1.0
    with pytest.raises(ValidationError, match="zero pattern"):
        general_varadhan_slope(a, weights, diag, EXPONENTIAL, 0, 35)


def test_alternating_operators_never_mix():
    rng = np.random.default_rng(11)
    a, b = cycle_adjacency(10), cycle_adjacency(10)
    b[0, 5] = b[5, 0] = 1.0  # a chord: other distances from row 0
    ops = [(a, *random_operator(rng, a)), (b, *random_operator(rng, b)),
           (a, a, np.zeros(10))]
    for i in range(10):
        for j in range(10):
            for adj, weights, diag in ops:
                # the family and the grid each change the key alone
                for fam, tg in ((EXPONENTIAL, None), (RESOLVENT, None),
                                (RESOLVENT, CUSTOM_GRID),
                                (EXPONENTIAL, CUSTOM_GRID)):
                    assert_same(general_varadhan_slope(adj, weights, diag,
                                                       fam, i, j, tg),
                                pair_alone(adj, weights, diag, fam, i, j, tg))


def weak_edge_operator():
    """A 3-path with an edge of weight 1e-100 between vertices 1 and 2 and a
    unit diagonal.  At the resolvent's |t| max|L| n = 0.9 entry (0, 1)
    converges in 81 terms, but every entry whose leading term crosses the
    weak edge, such as (0, 2), needs far more than the cap of 200."""
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = a[1, 2] = a[2, 1] = 1.0
    weights = a.copy()
    weights[1, 2] = weights[2, 1] = 1e-100
    return a, weights, np.ones(3), np.array([0.3, 0.2])


def test_a_capped_entry_fails_alone():
    a, weights, diag, tg = weak_edge_operator()
    want = {(i, j): outcome(pair_alone, a, weights, diag, RESOLVENT, i, j, tg)
            for i in range(3) for j in range(3)}
    # the oracle's own series stops the capped entry, without raising
    capped = _walk_series(RESOLVENT, weights + np.diag(diag), tg,
                          start=np.eye(3)[[0]], end=np.eye(3)[:, [2]])
    assert STOP_REASONS[capped.stop[0, 0]] == "term_cap"
    assert capped.terms[0, 0] == 201 and np.isnan(capped.log_abs).all()
    assert want[0, 2] == ("|f(Lt)|[0,2] did not converge within 201 terms; "
                          "no slope is defined")
    assert not isinstance(want[0, 1], str) and want[0, 1].series_terms == 81
    assert {pair for pair, w in want.items() if isinstance(w, str)} == {
        (0, 2), (1, 2), (2, 0), (2, 1)}
    rng = np.random.default_rng(3)
    for order, pairs in pair_orders(rng, 3).items():
        for _ in range(2):  # a cold row, then the kept one
            for i, j in pairs:
                assert_same(outcome(general_varadhan_slope, a, weights, diag,
                                    RESOLVENT, i, j, tg), want[i, j])


def test_one_start_row_is_kept(monkeypatch):
    # the kept row is keyed by read-only copies of the converted inputs,
    # not by L: a kept pair compares bytes and validates nothing
    summed = []

    def counted(family, lmat, tg, row=None):
        summed.append(row)
        return transform_table(family, lmat, tg, row)

    transform_table = varadhan._transform_table
    monkeypatch.setattr(varadhan, "_transform_table", counted)
    monkeypatch.setattr(varadhan, "_kept_row", ((None,) * 4, None, -1, None))
    a = cycle_adjacency(12)
    zeros = np.zeros(12)
    for i in range(12):
        for j in (0, 6, 11, 6):
            assert_same(general_varadhan_slope(a, a, zeros, EXPONENTIAL, i, j),
                        pair_alone(a, a, zeros, EXPONENTIAL, i, j))
        kept, family, row_index, row = varadhan._kept_row
        assert (row_index, family) == (i, EXPONENTIAL)
        adjacency, weights, diag, tg = kept
        # one array given as adjacency and weights is kept once
        assert weights is adjacency
        assert tg is varadhan._DEFAULT_T_GRID
        for copy, given in ((adjacency, a), (diag, zeros)):
            assert copy.dtype == float and np.array_equal(copy, given)
            assert not copy.flags.writeable and copy.base is None
            assert not np.shares_memory(copy, given)
        assert np.array_equal(row.rows, [i]) and row.slope.shape == (1, 12)
    # a row by row sweep sums each row once; a row that was replaced is
    # summed again
    assert summed == list(range(12))
    general_varadhan_slope(a, a, zeros, EXPONENTIAL, 0, 3)
    assert summed == [*range(12), 0]


def test_a_row_by_row_sweep_validates_each_row_once(monkeypatch):
    validated = []

    def counted(adjacency, weights, diag):
        validated.append(1)
        return transform_operator(adjacency, weights, diag)

    transform_operator = varadhan._transform_operator
    monkeypatch.setattr(varadhan, "_transform_operator", counted)
    monkeypatch.setattr(varadhan, "_kept_row", ((None,) * 4, None, -1, None))
    a = cycle_adjacency(12)
    for i in range(12):
        for j in (0, 6, 11, 6):
            # a fresh diagonal each call: equal bytes, not the same array
            general_varadhan_slope(a, a, np.zeros(12), EXPONENTIAL, i, j)
    # one validation per row, where every one of the 48 calls used to
    # validate its arrays
    assert len(validated) == 12


def test_a_write_after_validation_never_enters_the_key(monkeypatch):
    # the caller's weights lose an edge just after the operator passed
    # validation, as another thread's write would: the kept key must hold
    # the bytes that passed, so the broken weights are validated and fail
    a = cycle_adjacency(8)
    weights, diag = random_operator(np.random.default_rng(3), a)

    def write_after(adjacency, w, d):
        lmat = transform_operator(adjacency, w, d)
        weights[0, 1] = weights[1, 0] = 0.0
        return lmat

    transform_operator = varadhan._transform_operator
    monkeypatch.setattr(varadhan, "_transform_operator", write_after)
    monkeypatch.setattr(varadhan, "_kept_row", ((None,) * 4, None, -1, None))
    general_varadhan_slope(a, weights, diag, EXPONENTIAL, 0, 4)
    monkeypatch.setattr(varadhan, "_transform_operator", transform_operator)
    with pytest.raises(ValidationError, match="zero pattern"):
        general_varadhan_slope(a, weights, diag, EXPONENTIAL, 0, 4)


def test_threads_sharing_the_kept_rows_get_their_own_operators():
    # more threads than cores, each alternating between two operators on
    # a short switch interval: a row read under another operator's or
    # another row's key breaks an answer or raises
    import sys
    import threading

    rng = np.random.default_rng(5)
    ops = []
    for chord in (3, 4):
        a = cycle_adjacency(8)
        a[0, chord] = a[chord, 0] = 1.0
        ops.append((a, *random_operator(rng, a)))
    want = {(k, i, j): pair_alone(*ops[k], EXPONENTIAL, i, j)
            for k in range(2) for i in range(8) for j in range(8)}
    errors = []

    def work(seed):
        order = np.random.default_rng(seed).permutation(2 * 64)
        try:
            for n in order:
                k, i, j = n % 2, n // 2 // 8, n // 2 % 8
                assert_same(general_varadhan_slope(*ops[k], EXPONENTIAL,
                                                   i, j), want[k, i, j])
        except Exception as exc:  # reported on the main thread below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]
