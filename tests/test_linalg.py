import math

import numpy as np
import pytest

from graphondist import (
    EXPONENTIAL,
    RESOLVENT,
    MathDomainError,
    TaylorFamily,
    ValidationError,
    analytic_transform,
    expm,
    sym_eig,
)
from conftest import cycle_adjacency


# ---------------------------------------------------------------------------
# sym_eig
# ---------------------------------------------------------------------------

def test_sym_eig_diagonal():
    spec = sym_eig(np.diag([3.0, 1.0]))
    assert np.allclose(spec.eigenvalues, [3.0, 1.0])
    assert np.allclose(np.abs(spec.eigenvectors), np.eye(2))


def test_sym_eig_symmetrized_bipartite():
    # characteristic polynomial of [[0, 1/2], [1/2, 0]] is x^2 - 1/4
    spec = sym_eig(np.array([[0.0, 0.5], [0.5, 0.0]]))
    assert np.allclose(spec.eigenvalues, [0.5, -0.5], atol=1e-12)


def test_sym_eig_reconstructs_random_matrix(rng):
    b = rng.standard_normal((8, 8))
    b = (b + b.T) / 2
    spec = sym_eig(b)
    v, lam = spec.eigenvectors, spec.eigenvalues
    fro = float(np.sqrt(np.sum(b * b)))
    assert np.max(np.abs(v @ np.diag(lam) @ v.T - b)) <= 1e-9 * fro
    assert np.max(np.abs(v.T @ v - np.eye(8))) <= 1e-10
    # eigen residuals
    for k in range(8):
        res = np.linalg.norm(b @ v[:, k] - lam[k] * v[:, k])
        assert res <= 1e-9 * fro
    assert np.sum(lam) == pytest.approx(np.trace(b), abs=1e-9)


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(ValidationError):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("b", [[[0.0, math.nan], [1.0, 0.0]], [[math.nan]],
                               [[math.inf]]])
def test_sym_eig_rejects_nonfinite(b):
    with pytest.raises(ValidationError, match="finite"):
        sym_eig(np.array(b))



def test_sym_eig_descending_order(rng):
    b = rng.standard_normal((6, 6))
    b = b + b.T
    lam = sym_eig(b).eigenvalues
    assert np.all(np.diff(lam) <= 1e-12)


def test_sym_eig_sign_convention(rng):
    # the largest-magnitude entry of each eigenvector is positive
    b = rng.standard_normal((7, 7))
    vec = sym_eig(b + b.T).eigenvectors
    lead = vec[np.argmax(np.abs(vec), axis=0), np.arange(7)]
    assert np.all(lead > 0.0)
    # on a tie in magnitude the first index wins
    vec = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]])).eigenvectors
    assert vec[0, 0] > 0.0 and vec[0, 1] > 0.0 and vec[1, 1] < 0.0


def test_sym_eig_forty_by_forty(rng):
    b = rng.standard_normal((40, 40))
    b = (b + b.T) / 2
    spec = sym_eig(b)
    fro = float(np.sqrt(np.sum(b * b)))
    recon = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.T
    assert np.max(np.abs(recon - b)) <= 1e-9 * fro
    assert np.max(np.abs(spec.eigenvectors.T @ spec.eigenvectors
                         - np.eye(40))) <= 1e-10


# ---------------------------------------------------------------------------
# expm
# ---------------------------------------------------------------------------

def test_expm_zero_is_identity():
    assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))


def test_expm_diagonal():
    got = expm(np.diag([1.3, -0.4]))
    assert np.allclose(got, np.diag([math.exp(1.3), math.exp(-0.4)]),
                       rtol=1e-12)


@pytest.mark.parametrize("t", [0.1, 0.5, 1.7, 3.0])
def test_expm_swap_matrix_closed_form(t):
    got = expm(t * np.array([[0.0, 1.0], [1.0, 0.0]]))
    want = np.array([[math.cosh(t), math.sinh(t)],
                     [math.sinh(t), math.cosh(t)]])
    assert np.max(np.abs(got - want)) <= 1e-10 * math.cosh(t)


def test_expm_inverse_identity(rng):
    for _ in range(5):
        x = rng.standard_normal((5, 5))
        x = (x + x.T) / 2
        x *= 2.0 / max(1.0, np.linalg.norm(x, 2))
        prod = expm(x) @ expm(-x)
        assert np.max(np.abs(prod - np.eye(5))) <= 1e-8


def test_expm_overflow_guard():
    with pytest.raises(MathDomainError, match="1-norm"):
        expm(np.full((2, 2), 1e6))


def test_expm_rejects_nonfinite():
    with pytest.raises(ValidationError):
        expm(np.array([[np.nan, 0.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# analytic_transform
# ---------------------------------------------------------------------------

def test_analytic_transform_exp_matches_expm(rng):
    for _ in range(5):
        l = rng.standard_normal((4, 4))
        t = 1.0 / max(1.0, np.linalg.norm(l, 1))
        got, order = analytic_transform(EXPONENTIAL, l, t)
        assert order > 0
        assert np.max(np.abs(got - expm(l * t))) <= 1e-10


def test_analytic_transform_resolvent_matches_solve():
    l = cycle_adjacency(6)
    for t in (0.01, 0.05):
        got, _ = analytic_transform(RESOLVENT, l, t)
        want = np.linalg.solve(np.eye(6) - t * l, np.eye(6))
        assert np.max(np.abs(got - want)) <= 1e-9


def test_analytic_transform_zero_matrix():
    got, order = analytic_transform(RESOLVENT, np.zeros((3, 3)), 0.2)
    assert np.array_equal(got, np.eye(3))


def test_analytic_transform_guard_violation():
    l = np.ones((4, 4))
    with pytest.raises(MathDomainError, match="convergence guard"):
        analytic_transform(RESOLVENT, l, 0.3)  # |t| * K * n = 1.2 >= 1


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_analytic_transform_rejects_nonfinite_t(t):
    for l in (np.eye(3), np.zeros((3, 3))):
        with pytest.raises(ValidationError, match="finite t"):
            analytic_transform(EXPONENTIAL, l, t)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_analytic_transform_rejects_nonfinite_entries(bad):
    # NaN used to escape as a plain ValueError from the term cap, and an
    # infinite entry as a MathDomainError about the convergence guard
    l = cycle_adjacency(4)
    l[0, 1] = l[1, 0] = bad
    for family in (EXPONENTIAL, RESOLVENT):
        with pytest.raises(ValidationError, match="finite entries"):
            analytic_transform(family, l, 1e-3)


def test_analytic_transform_rejects_zero_coefficients():
    broken = TaylorFamily("broken", lambda k: 0.0 if k == 1 else 1.0, math.inf)
    with pytest.raises(MathDomainError, match="zero coefficient"):
        analytic_transform(broken, np.eye(2), 0.5)


def test_analytic_transform_exp_invariant(rng):
    l = rng.uniform(-1.0, 1.0, (5, 5))
    for t in (1e-3, 0.05, 0.2):
        got, _ = analytic_transform(EXPONENTIAL, l, t)
        assert np.max(np.abs(got - expm(l * t))) <= 1e-9
