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
        assert table.slope.shape == table.first_zero.shape == (n, n)
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
                    assert f"t = {table.first_zero[i, j]:g};" in want
                else:
                    assert math.isnan(table.first_zero[i, j])
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


def test_a_table_whose_series_hits_the_cap_raises():
    # the path of test_start_rows' fallback: entry (0, 2) sits behind an
    # edge of weight 1e-100, so the all-row series passes its term cap
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = a[1, 2] = a[2, 1] = 1.0
    weights = a.copy()
    weights[1, 2] = weights[2, 1] = 1e-100
    with pytest.raises(MathDomainError, match="did not converge"):
        transform_slopes(a, weights, np.ones(3), RESOLVENT,
                         np.array([0.3, 0.2]))


def test_an_in_place_edit_of_the_grid_is_a_new_key():
    a = np.ones((4, 4)) - np.eye(4)
    a[0, 2] = a[2, 0] = 0.0
    tg = CUSTOM_GRID.copy()
    general_varadhan_slope(a, a, np.zeros(4), RESOLVENT, 0, 2, tg)
    tg *= 0.5
    assert_same(general_varadhan_slope(a, a, np.zeros(4), RESOLVENT, 0, 2, tg),
                pair_alone(a, a, np.zeros(4), RESOLVENT, 0, 2, tg))
