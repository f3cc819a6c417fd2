"""Property test of the subset-sum cut norm against the mask enumeration
oracle, on random signed matrices, symmetric and not, on both sides of the
low/high split of the subset-sum table and in stacks."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from graphondist import metrics  # noqa: E402
from test_metrics import masked_cut_norm  # noqa: E402

PROPERTIES = settings(derandomize=True, max_examples=60, deadline=None)


def signed_matrix(n: int, symmetric: bool, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.8)
    return (c + c.T) / 2.0 if symmetric else c


@PROPERTIES
@given(st.integers(1, 18), st.booleans(), st.integers(0, 2**32 - 1))
# 13 rows is the first size whose table is split (into 2^12 low and 2
# high subsets), and 18 rows run 128 high subsets
@example(13, False, 0)
@example(18, True, 1)
def test_cut_norm_matches_the_mask_enumeration(n, symmetric, seed):
    c = signed_matrix(n, symmetric, seed)
    want = masked_cut_norm(c)
    assert float(metrics._cut_norms(c)) == pytest.approx(want, rel=1e-13,
                                                         abs=0.0)


@PROPERTIES
@given(st.integers(1, 14), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_a_stack_is_its_matrices_one_by_one(n, count, seed):
    # a stack shares the entry budget, so its split comes at fewer rows
    stack = np.stack([signed_matrix(n, k % 2 == 0, seed + k)
                      for k in range(count)]).reshape(count, 1, n, n)
    got = metrics._cut_norms(stack)
    assert got.shape == (count, 1)
    for k in range(count):
        assert got[k, 0] == pytest.approx(masked_cut_norm(stack[k, 0]),
                                          rel=1e-13, abs=0.0)
