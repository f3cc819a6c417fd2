"""Property test of the one slope reader: on random series-shaped log
tables, some entries 0 (log -inf) at some t and some stopped at the term cap
(log NaN at every t), every defined entry's slope is the least-squares line
of numpy's ``polyfit``, and every undefined entry has a NaN slope and an
error that names the term cap or the first t of the grid where it is 0."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from graphondist import MathDomainError  # noqa: E402
from graphondist.linalg import STOP_REASONS, _Series  # noqa: E402
from graphondist.varadhan import _slope_estimate, _slopes  # noqa: E402

PROPERTIES = settings(derandomize=True, max_examples=200, deadline=None)


@st.composite
def log_tables(draw):
    """A strictly decreasing positive t-grid, a |t| x rows x cols table of
    log values, with -inf at some t in some entries and none in others, and
    the entries stopped at the term cap (NaN at every t)."""
    t_count = draw(st.integers(2, 10))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    steps = draw(arrays(float, t_count, elements=st.floats(0.1, 2.0)))
    tg = 1e-2 * np.exp(-np.cumsum(steps))
    shape = (t_count, rows, cols)
    logs = draw(arrays(float, shape, elements=st.floats(-60.0, 5.0)))
    zero = draw(arrays(bool, shape))
    zero[:, draw(arrays(bool, (rows, cols)))] = False
    logs[zero] = -np.inf
    capped = draw(arrays(bool, (rows, cols)))
    logs[:, capped] = np.nan
    return tg, logs, capped


@PROPERTIES
@given(log_tables())
def test_slopes_fit_defined_entries_and_name_the_first_zero(table):
    tg, logs, capped = table
    rows, cols = logs.shape[1:]
    stop = np.where(capped, STOP_REASONS.index("term_cap"), 0)
    series = _Series(logs, np.ones_like(logs), np.where(capped, 201, 7), stop,
                     200)
    slope, residual = _slopes(tg, series)
    assert slope.shape == residual.shape == (rows, cols)
    lt = np.log(tg)
    for r in range(rows):
        for c in range(cols):
            column = logs[:, r, c]
            zero = np.isneginf(column)
            entry = _Series(logs[:, r:r + 1, c:c + 1], series.sign,
                            series.terms[r:r + 1, c:c + 1],
                            stop[r:r + 1, c:c + 1], 200)
            if capped[r, c] or zero.any():
                assert math.isnan(slope[r, c]) and math.isnan(residual[r, c])
                with pytest.raises(MathDomainError) as err:
                    _slope_estimate(tg, entry, "f")
                assert str(err.value) == (
                    "f did not converge within 201 terms; no slope is defined"
                    if capped[r, c] else
                    f"f is not positive at t = {tg[np.argmax(zero)]:g}; no "
                    "slope is defined")
                continue
            est = _slope_estimate(tg, entry, "f")
            assert (est.series_terms, est.series_stop) == (7, "tail_bound")
            line = np.polyfit(lt, column, 1)
            for fit in (slope[r, c], est.slope):
                assert abs(fit - line[0]) <= 1e-12 * max(1.0, abs(line[0]))
            rms = math.sqrt(np.mean((column - np.polyval(line, lt)) ** 2))
            assert abs(residual[r, c] - rms) <= 1e-9 * max(1.0, rms)
