"""The all-pair table of ``transform_slopes`` against each pair summed alone.

Every pair of the table must give the outcome of the pair-alone oracle of
``test_start_rows``: the same slope, residual and log values within 1e-12,
the same term count and stop reason, or the same exception text.
"""

import math

import numpy as np
import pytest

from graphondist import (
    RESOLVENT,
    MathDomainError,
    TransformSlopes,
    ValidationError,
    general_varadhan_slope,
    transform_slopes,
)
from test_start_rows import (
    CUSTOM_GRID,
    FAMILIES,
    assert_same,
    outcome,
    pair_alone,
    random_operator,
    random_pattern,
    weak_edge_operator,
)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("grid", ["default", "custom"])
def test_every_pair_of_the_table_matches_the_pair_alone(family, grid):
    rng = np.random.default_rng(2025)
    fam = FAMILIES[family]
    tg = None if grid == "default" else CUSTOM_GRID
    raised = 0
    for n in (1, 2, 3, 5, 8, 13, 21, 30):
        a = random_pattern(rng, n)
        weights, diag = random_operator(rng, a)
        table = transform_slopes(a, weights, diag, fam, tg)
        assert isinstance(table, TransformSlopes)
        assert np.array_equal(table.rows, np.arange(n))
        assert table.slope.shape == table.residual.shape == (n, n)
        assert table.log_values.shape == (n, n, table.t_grid.size)
        assert not table.slope.flags.writeable
        for i in range(n):
            for j in range(n):
                want = outcome(pair_alone, a, weights, diag, fam, i, j, tg)
                assert_same(outcome(table.estimate, i, j), want)
                # the arrays say the same without an estimate
                if isinstance(want, str):
                    raised += 1
                    assert math.isnan(table.slope[i, j])
                    assert math.isnan(table.residual[i, j])
                    assert table.series_stop[i, j] != "tail_bound"
                    logs = table.log_values[i, j]
                    zero = table.t_grid[np.isneginf(logs)][0]
                    assert f"is not positive at t = {zero:g};" in want
                else:
                    assert np.isfinite(table.log_values[i, j]).all()
                    assert table.series_terms[i, j] == want.series_terms
                    assert table.series_stop[i, j] == want.series_stop
    # the sparse patterns are disconnected, so some pairs have no slope
    assert raised > 0


def test_the_table_rejects_pairs_it_does_not_hold():
    a = np.ones((3, 3)) - np.eye(3)
    table = transform_slopes(a, a, np.zeros(3), RESOLVENT, CUSTOM_GRID)
    for i, j in ((-1, 0), (3, 0), (0, -1), (0, 3)):
        with pytest.raises(ValidationError, match="not in the table"):
            table.estimate(i, j)
    for i, j in ((0.5, 1), (0, 2.0), ("0", 1), (None, 0)):
        with pytest.raises(ValidationError, match="must be integers"):
            table.estimate(i, j)
    assert table.estimate(np.int64(0), True).estimated_distance == 1


def test_a_capped_pair_fails_alone_in_the_table():
    # entries whose leading term crosses an edge of weight 1e-100 pass the
    # term cap; the table still holds every pair, and only those fail
    a, weights, diag, tg = weak_edge_operator()
    table = transform_slopes(a, weights, diag, RESOLVENT, tg)
    capped = table.series_stop == "term_cap"
    assert capped.sum() == 4 and capped[0, 2]
    assert np.isnan(table.slope[capped]).all()
    assert np.isnan(table.log_values[capped]).all()
    assert (table.series_terms[capped] == 201).all()
    assert np.isfinite(table.slope[~capped]).all()
    for i in range(3):
        for j in range(3):
            want = outcome(pair_alone, a, weights, diag, RESOLVENT, i, j, tg)
            assert_same(outcome(table.estimate, i, j), want)
            assert isinstance(want, str) == capped[i, j]
    with pytest.raises(MathDomainError, match=r"\[0,2\] did not converge"):
        table.estimate(0, 2)


def test_an_in_place_edit_of_the_grid_is_a_new_key():
    a = np.ones((4, 4)) - np.eye(4)
    a[0, 2] = a[2, 0] = 0.0
    tg = CUSTOM_GRID.copy()
    general_varadhan_slope(a, a, np.zeros(4), RESOLVENT, 0, 2, tg)
    tg *= 0.5
    assert_same(general_varadhan_slope(a, a, np.zeros(4), RESOLVENT, 0, 2, tg),
                pair_alone(a, a, np.zeros(4), RESOLVENT, 0, 2, tg))
