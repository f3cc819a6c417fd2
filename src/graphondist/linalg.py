"""Dense numerics: symmetric eigendecomposition (numpy's LAPACK ``eigh``
with a fixed sign convention), matrix exponential (scaling and squaring),
and truncated analytic matrix transforms with an entrywise convergence
guard."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import MathDomainError, ValidationError, _readonly


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Eigenvalues (descending) and orthonormal eigenvector columns of a
    symmetric matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues",
                           _readonly(np.asarray(self.eigenvalues, float)))
        object.__setattr__(self, "eigenvectors",
                           _readonly(np.asarray(self.eigenvectors, float)))


def sym_eig(b) -> SpectralData:
    """Full eigendecomposition of a symmetric matrix (LAPACK ``eigh``).

    Eigenvalues come in descending order.  Each eigenvector is signed so
    that its largest-magnitude entry is positive (the first such entry on
    ties), which makes the output independent of the solver's sign choice.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {b.shape}")
    scale = max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    if b.size and float(np.max(np.abs(b - b.T))) > 1e-9 * scale:
        raise ValidationError("matrix is not symmetric within 1e-9")
    lam, v = np.linalg.eigh((b + b.T) / 2.0)
    lam, v = lam[::-1], v[:, ::-1]
    if v.size:
        lead = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
        v = v * np.where(lead < 0.0, -1.0, 1.0)
    return SpectralData(lam, v)


def expm(x) -> np.ndarray:
    """Matrix exponential via scaling and squaring around a short Taylor
    core; the input is halved until its 1-norm is at most 0.5."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValidationError("matrix exponential requires finite entries")
    n = x.shape[0]
    norm1 = float(np.max(np.sum(np.abs(x), axis=0))) if x.size else 0.0
    if norm1 > 700.0:
        raise MathDomainError(
            f"matrix exponential would overflow: 1-norm {norm1:.6g} > 700"
        )
    squarings = 0 if norm1 <= 0.5 else int(math.ceil(math.log2(norm1 / 0.5)))
    y = x / (2.0 ** squarings)
    result = np.eye(n) + y
    term = y.copy()
    for k in range(2, 40):
        term = term @ y / k
        result += term
        if float(np.max(np.abs(term))) <= 1e-18 * max(1.0, float(np.max(np.abs(result)))):
            break
    for _ in range(squarings):
        result = result @ result
    return result


@dataclass(frozen=True)
class TaylorFamily:
    """Analytic function given by its Taylor coefficients a_k around zero.

    Every generated coefficient must be nonzero (checked up to the
    truncation order actually used); ``radius`` is the radius of
    convergence used for the entrywise guard ``|t| * max|L| * n < radius``.
    """

    name: str
    coefficient: Callable[[int], float]
    radius: float


EXPONENTIAL = TaylorFamily("exp", lambda k: 1.0 / math.factorial(k), math.inf)
RESOLVENT = TaylorFamily("resolvent", lambda k: 1.0, 1.0)

_MAX_TERMS = 200


def analytic_transform(family: TaylorFamily, L, t: float) -> tuple[np.ndarray, int]:
    """Evaluate sum_k a_k t^k L^k and report the truncation order used.

    Entries of L^k are bounded by (max|L| * n)^k / n, so the series
    converges entrywise whenever ``|t| * max|L| * n`` is below the family's
    convergence radius; requests outside that guard are rejected.  The sum
    stops once three consecutive terms fall below 1e-16 of the largest term
    retained so far.
    """
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {L.shape}")
    n = L.shape[0]
    kmax = float(np.max(np.abs(L))) if L.size else 0.0
    guard = abs(float(t)) * kmax * n
    if guard >= family.radius:
        raise MathDomainError(
            f"t outside the convergence guard for '{family.name}': "
            f"|t|*max|L|*n = {guard:.6g} >= radius {family.radius:g}"
        )
    a0 = family.coefficient(0)
    if a0 == 0.0:
        raise MathDomainError(f"family '{family.name}' has zero coefficient a_0")
    lt = L * float(t)
    total = a0 * np.eye(n)
    power = np.eye(n)
    max_term = abs(a0)
    small_run = 0
    order = 0
    for k in range(1, _MAX_TERMS + 1):
        power = power @ lt
        ak = family.coefficient(k)
        if ak == 0.0:
            raise MathDomainError(
                f"family '{family.name}' has zero coefficient a_{k}"
            )
        term = ak * power
        total += term
        order = k
        tn = float(np.max(np.abs(term)))
        max_term = max(max_term, tn)
        if tn <= 1e-16 * max_term:
            small_run += 1
            if small_run >= 3:
                return total, order
        else:
            small_run = 0
    raise MathDomainError(
        f"series for '{family.name}' did not converge within {_MAX_TERMS} terms "
        f"(|t|*max|L|*n = {guard:.6g})"
    )
