"""Property test of the one slope reader: on random series-shaped log
tables, some entries 0 (log -inf) at some t, every defined entry's slope is
the least-squares line of numpy's ``polyfit`` and every undefined entry
names the first t of the grid where it is 0."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from graphondist.linalg import _Series  # noqa: E402
from graphondist.varadhan import _slopes  # noqa: E402

PROPERTIES = settings(derandomize=True, max_examples=200, deadline=None)


@st.composite
def log_tables(draw):
    """A strictly decreasing positive t-grid and a |t| x rows x cols table
    of log values, with -inf at some t in some entries and none in others."""
    t_count = draw(st.integers(2, 10))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    steps = draw(arrays(float, t_count, elements=st.floats(0.1, 2.0)))
    tg = 1e-2 * np.exp(-np.cumsum(steps))
    shape = (t_count, rows, cols)
    logs = draw(arrays(float, shape, elements=st.floats(-60.0, 5.0)))
    zero = draw(arrays(bool, shape))
    zero[:, draw(arrays(bool, (rows, cols)))] = False
    logs[zero] = -np.inf
    return tg, logs


@PROPERTIES
@given(log_tables())
def test_slopes_fit_defined_entries_and_name_the_first_zero(table):
    tg, logs = table
    rows, cols = logs.shape[1:]
    series = _Series(logs, np.ones_like(logs), np.ones((rows, cols), int),
                     np.zeros((rows, cols), np.int8), 0)
    slope, residual, first_bad = _slopes(tg, series)
    assert slope.shape == residual.shape == first_bad.shape == (rows, cols)
    lt = np.log(tg)
    for r in range(rows):
        for c in range(cols):
            column = logs[:, r, c]
            zero = np.isneginf(column)
            if zero.any():
                assert math.isnan(slope[r, c]) and math.isnan(residual[r, c])
                assert first_bad[r, c] == tg[np.argmax(zero)]
                continue
            assert math.isnan(first_bad[r, c])
            line = np.polyfit(lt, column, 1)
            assert abs(slope[r, c] - line[0]) <= 1e-12 * max(1.0, abs(line[0]))
            rms = math.sqrt(np.mean((column - np.polyval(line, lt)) ** 2))
            assert abs(residual[r, c] - rms) <= 1e-9 * max(1.0, rms)
