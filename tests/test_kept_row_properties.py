"""Property test of the kept start row's key: between two calls on the same
start row the caller changes one input (an in-place edit, a -0.0 for a 0.0,
an int array or a list for a float array, a transposed view, an edit of the
weights or of the adjacency alone that breaks the zero pattern), and the
second call must give the outcome of its pair summed alone
(``test_start_rows.pair_alone``), or raise its error."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from graphondist import (  # noqa: E402
    EXPONENTIAL,
    RESOLVENT,
    MathDomainError,
    ValidationError,
    general_varadhan_slope,
)
from test_start_rows import (  # noqa: E402
    CUSTOM_GRID,
    assert_same,
    pair_alone,
    random_operator,
    random_pattern,
)

PROPERTIES = settings(derandomize=True, max_examples=120, deadline=None)


def result(slope_of, *args):
    """The estimate, or the type and text of the error it raised."""
    try:
        return slope_of(*args)
    except (MathDomainError, ValidationError) as exc:
        return type(exc).__name__, str(exc)


def assert_same_result(got, want):
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
    else:
        assert_same(got, want)


def flip_one_pair(inputs, rng):
    """Break the zero pattern: a weight where the adjacency has no edge,
    or 0 where it has one, on one off-diagonal pair."""
    a, weights = inputs[0], inputs[1]
    p, q = rng.choice(a.shape[0], 2, replace=False)
    weights[p, q] = weights[q, p] = 0.0 if a[p, q] else 0.7


def flip_one_edge(inputs, rng):
    """Break the zero pattern from the adjacency alone: drop an edge that
    keeps its weight, or add one where the weight is 0."""
    a = inputs[0]
    p, q = rng.choice(a.shape[0], 2, replace=False)
    a[p, q] = a[q, p] = 0.0 if a[p, q] else 1.0


def strided_transpose(inputs, rng):
    """The weights as a transposed view that is contiguous in neither
    order."""
    n = inputs[1].shape[0]
    big = np.zeros((2 * n, 2 * n))
    big[::2, ::2] = inputs[1]
    inputs[1] = big[::2, ::2].T


def negative_zero(inputs, rng):
    diag = inputs[2]
    diag[diag == 0.0] = -0.0


#: name -> edit of the inputs [adjacency, weights, diag, t-grid] between the
#: two calls, in place or by replacing one of them
CHANGES = {
    "adjacency in place": lambda x, rng: x[0].__setitem__(
        ..., np.where(x[0] != 0.0, 2.0, 0.0)),
    "weights in place": lambda x, rng: x[1].__imul__(1.5),
    "diag in place": lambda x, rng: x[2].__iadd__(rng.uniform(-1, 1,
                                                              x[2].size)),
    "t-grid in place": lambda x, rng: x[3].__imul__(0.5),
    "diag -0.0": negative_zero,
    "int adjacency": lambda x, rng: x.__setitem__(0, x[0].astype(int)),
    "list weights": lambda x, rng: x.__setitem__(1, x[1].tolist()),
    "list t-grid": lambda x, rng: x.__setitem__(3, x[3].tolist()),
    "transposed weights": strided_transpose,
    "pattern break": flip_one_pair,
    "adjacency pattern break": flip_one_edge,
}


@PROPERTIES
@given(st.sampled_from(sorted(CHANGES)), st.integers(2, 8),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_a_changed_input_is_never_answered_from_the_kept_row(change, n,
                                                             resolvent, seed):
    rng = np.random.default_rng(seed)
    a = random_pattern(rng, n)
    weights, diag = random_operator(rng, a)
    diag[rng.random(n) < 0.5] = 0.0
    family = RESOLVENT if resolvent else EXPONENTIAL
    inputs = [a, weights, diag, CUSTOM_GRID.copy()]
    i, j, k = rng.integers(n, size=3)
    result(general_varadhan_slope, *inputs[:3], family, i, j, inputs[3])
    CHANGES[change](inputs, rng)
    args = (*inputs[:3], family, i, k, inputs[3])
    got = result(general_varadhan_slope, *args)
    assert_same_result(got, result(pair_alone, *args))
    if change.endswith("pattern break"):
        assert got[0] == "ValidationError" and "zero pattern" in got[1]
