"""Dense numerics: symmetric eigendecomposition (numpy's LAPACK ``eigh``
with a fixed sign convention), truncated analytic matrix transforms with an
entrywise convergence guard, and ``expm`` (scaling and squaring), which is
public API and the tests' oracle; no library path calls it."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .connectivity import _bfs, _Bits
from .core import (MathDomainError, ValidationError, _check_symmetric, _own,
                   _readonly, _real, _square_matrix)


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Eigenvalues (descending) and orthonormal eigenvector columns of a
    symmetric matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        _own(self, eigenvalues=float, eigenvectors=float)


def sym_eig(b) -> SpectralData:
    """Full eigendecomposition of a symmetric matrix (LAPACK ``eigh``).

    Eigenvalues come in descending order.  Each eigenvector is signed so
    that its largest-magnitude entry is positive (the first such entry on
    ties), which makes the output independent of the solver's sign choice.
    """
    b = _square_matrix(b, "matrix")
    if not np.isfinite(b).all():
        raise ValidationError("eigendecomposition requires finite entries")
    _check_symmetric(b, 1e-9, "matrix")
    lam, v = np.linalg.eigh((b + b.T) / 2.0)
    lam, v = lam[::-1], v[:, ::-1]
    lead = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return SpectralData(lam, _readonly(v * np.where(lead < 0.0, -1.0, 1.0)))


def expm(x) -> np.ndarray:
    """Matrix exponential via scaling and squaring around a short Taylor
    core; the input is halved until its 1-norm is at most 0.5."""
    x = _square_matrix(x, "matrix")
    if not np.all(np.isfinite(x)):
        raise ValidationError("matrix exponential requires finite entries")
    n = x.shape[0]
    norm1 = float(np.max(np.sum(np.abs(x), axis=0)))
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
    truncation order actually used, plus the two coefficients the tail
    bound looks ahead to); ``radius`` is the radius of convergence used for
    the entrywise guard ``|t| * max|L| * n < radius``.  The truncation
    bound assumes the ratios |a_{k+1} / a_k| do not increase with k, which
    holds for both families below.  ``log_coefficient``, when given,
    returns log a_k of a family with positive coefficients and is used
    instead of ``coefficient``, whose values may underflow at high order.
    """

    name: str
    coefficient: Callable[[int], float]
    radius: float
    log_coefficient: Callable[[int], float] | None = None


EXPONENTIAL = TaylorFamily("exp", lambda k: 1.0 / math.factorial(k), math.inf,
                           lambda k: -math.lgamma(k + 1.0))
RESOLVENT = TaylorFamily("resolvent", lambda k: 1.0, 1.0)


def _check_family(family) -> None:
    """Reject anything but a ``TaylorFamily`` (a family's name, None) with
    ``ValidationError``."""
    if not isinstance(family, TaylorFamily):
        raise ValidationError(f"family must be a TaylorFamily, got {family!r}")


_MAX_TERMS = 200

#: a series stops once, at the largest t, the bound on every wanted entry's
#: remaining terms is below this share of the entry's leading term
_TAIL_TOL = 1e-17
_LOG_TAIL_TOL = math.log(_TAIL_TOL)
_LOG2 = math.log(2.0)

#: powers of a series computed between two evaluations on the t-grid, and
#: the most entries one block may hold, as powers (rows x n) or as terms on
#: the t-grid (|t| x rows x cols)
_BLOCK = 32
_BLOCK_ENTRIES = 1 << 16

#: why an entry's series stopped, indexed by ``_Series.stop`` codes
STOP_REASONS = ("tail_bound", "unreachable", "vanished", "term_cap")


@dataclass(frozen=True, eq=False)
class _Series:
    """f(tL) between start rows and end columns, for every t of a grid.

    ``log_abs[t, r, c]`` is log |f| (-inf where f is 0, NaN where the
    entry's series hit the term cap) and ``sign`` its sign; ``terms[r, c]``
    is the number of terms entry (r, c) needed and ``stop[r, c]`` indexes
    ``STOP_REASONS``; ``order`` is the index of the last term summed.
    """

    log_abs: np.ndarray
    sign: np.ndarray
    terms: np.ndarray
    stop: np.ndarray
    order: int


@functools.lru_cache(maxsize=32)
def _coefficient_table(family: TaylorFamily,
                       length: int) -> tuple[np.ndarray, np.ndarray]:
    """log|a_k| (-inf where a_k = 0) and sign a_k for k < length, as
    read-only arrays; lengths are multiples of 64, so a family has few."""
    logs = np.empty(length)
    signs = np.ones(length)
    for k in range(length):
        if family.log_coefficient is not None:
            logs[k] = family.log_coefficient(k)
            continue
        a = family.coefficient(k)
        logs[k] = math.log(abs(a)) if a != 0.0 else -math.inf
        signs[k] = math.copysign(1.0, a)
    return _readonly(logs), _readonly(signs)


def _log_coefficients(family: TaylorFamily, lo: int,
                      hi: int) -> tuple[np.ndarray, np.ndarray]:
    """log|a_k| and sign a_k for lo <= k < hi; a zero coefficient raises."""
    logs, signs = _coefficient_table(family, -(-hi // 64) * 64)
    zero = np.isneginf(logs[lo:hi])
    if zero.any():
        raise MathDomainError(f"family '{family.name}' has zero coefficient "
                              f"a_{lo + int(zero.argmax())}")
    return logs[lo:hi], signs[lo:hi]


def _magnitudes(L: np.ndarray,
                col_scale: np.ndarray | None) -> tuple[float, float, float]:
    """max |L_ij| c_j, the largest row sum of |L| diag(c) and its smallest
    nonzero entry (inf for a zero L), c = 1 when ``col_scale`` is None.
    |L| is formed only for a signed L, and L diag(c) never; with a column
    scale the smallest entry is a masked column reduction, so a scaled
    nonnegative L leaves no n x n float temporary."""
    a = L if float(L.min()) >= 0.0 else np.abs(L)
    if col_scale is None:
        top = float(a.max())
        return (top, float(a.sum(axis=1).max()),
                float(a[a > 0.0].min()) if top > 0.0 else math.inf)
    return (float((a.max(axis=0) * col_scale).max()),
            float((a @ col_scale).max()),
            float((np.min(a, axis=0, where=a > 0.0, initial=np.inf)
                   * col_scale).min()))


def _walk_series(family: TaylorFamily, L: np.ndarray, ts: np.ndarray,
                 start: np.ndarray | None = None,
                 end: np.ndarray | None = None,
                 zeroth=None,
                 col_scale: np.ndarray | None = None) -> _Series:
    """Sum ``a_k t^k S L^k C`` for every positive t of ``ts`` at once.

    S (start rows, default I) and C (end columns, default I) select the
    wanted entries; ``zeroth`` replaces the k = 0 term S C.  A positive
    ``col_scale`` c makes the operator L diag(c), formed only while it has
    at most ``_BLOCK_ENTRIES`` entries; past that each row step is
    (x @ L) * c.  A nonnegative L is read in place (``_magnitudes``), so a
    large heat series holds no n x n float beyond its blocks.  One sequence
    of rows S L^k is computed, up to ``_BLOCK`` powers at a time; between
    blocks each row is rescaled by a power of two (exact) and its log scale
    tracked, so no row as a whole under- or overflows (an entry below about
    2^-1074 of its row's largest entry is still lost).  Each entry's first
    nonzero term is factored out and the later terms are summed relative
    to it, in the log domain: a distance-d entry near t = 1e-5 is about
    (1e-5)^d / d! and needs no representable linear value.

    Truncation is entrywise.  After term k the remaining terms of row r
    are bounded by |a_{k+1}| t^{k+1} ||L||_inf ||S_r L^k||_1 max|C_c| /
    (1 - q), q = |a_{k+2} / a_{k+1}| t ||L||_inf (log-concave
    coefficients).  An entry stops ("tail_bound") once that bound at the
    largest t is below ``_TAIL_TOL`` of its first nonzero term, so it is
    never cut before that term.  An entry still zero when the set of
    columns reached from its row in at most k steps stops growing is zero
    at every order ("unreachable"), or, if the set reaches it, is compared
    with the row's largest term instead ("vanished": exact cancellation
    or underflow).  Those sets are the levels of one packed BFS
    (``connectivity._bfs``) of (L != 0) | I from the start rows' support,
    run once some entry is still zero after the first block; the first
    nonzero terms are found in the powers, never in the BFS.  The sum
    stops when every entry has stopped; an entry still open at the term
    cap stops there ("term_cap", log value NaN).  Memory is |t|
    accumulators per entry plus one block of powers, never a stack of all
    powers.  max(t) ||L||_inf > 700 (``expm``'s overflow limit) raises.
    """
    n = L.shape[0]
    ts = np.asarray(ts, dtype=float).reshape(-1)
    t_top = float(ts.max())
    if col_scale is not None and L.size <= _BLOCK_ENTRIES:
        # a small L diag(c) is formed once: cheaper than scaling each power
        L, col_scale = L * col_scale, None
    top, norm, tiny = _magnitudes(L, col_scale)
    guard = t_top * top * n
    if guard >= family.radius:
        raise MathDomainError(
            f"t outside the convergence guard for '{family.name}': "
            f"|t|*max|L|*n = {guard:.6g} >= radius {family.radius:g}"
        )
    if t_top * norm > 700.0:
        raise MathDomainError(f"series for '{family.name}' would overflow: "
                              f"max t * ||L||_inf = {t_top * norm:.6g} > 700")
    start = np.eye(n) if start is None else start
    rows = start.shape[0]
    cols = n if end is None else end.shape[1]
    cap = max(_MAX_TERMS, n + 50, int(3.0 * t_top * norm) + 50)
    # powers are rescaled between blocks only: a row's largest entry grows
    # at most ||L||_inf-fold a step and, for nonnegative L, shrinks at most
    # to the smallest nonzero |L_ij| times itself, so keep a block's drift
    # within 2^+-960
    drift = max(1.0, math.log2(max(norm, 1.0)), -math.log2(min(tiny, 1.0)))
    block = max(1, min(_BLOCK,
                       _BLOCK_ENTRIES // max(1, rows * max(n, cols * ts.size)),
                       int(960 / drift)))
    log_t = np.log(ts)[:, None, None]
    log_top = math.log(t_top)
    log_norm = math.log(norm) if norm > 0.0 else -math.inf

    scale = np.zeros(rows)                      # log2 scale of each row of x
    has = np.zeros((rows, cols), dtype=bool)    # first nonzero term seen
    lead = np.zeros((rows, cols))               # its log magnitude, t^d aside
    lead_sign = np.zeros((rows, cols))
    order = np.full((rows, cols), cap + 1)      # its order d
    ref = np.full((rows, cols), np.nan)         # what the tail is held against
    kind = np.zeros((rows, cols), dtype=np.int8)  # index into STOP_REASONS
    done_at = np.full((rows, cols), -1)
    acc = np.zeros((ts.shape[0], rows, cols))   # later terms / first term
    buffer = np.empty((block, rows, n))
    buffer[0] = start
    level = None                                # BFS levels from the start rows
    pending = True                              # an entry is neither led nor settled
    k0 = 0
    with np.errstate(divide="ignore"):
        log_colmax = (np.zeros(cols) if end is None
                      else np.log(np.abs(end).max(axis=0)))
        while k0 <= cap:  # past the cap, the entries still open stop
            k1 = min(k0 + block, cap + 1)
            powers = buffer[:k1 - k0]            # S L^k / 2^scale, k0 <= k < k1
            for b in range(1, k1 - k0):
                np.dot(powers[b - 1], L, out=powers[b])
                if col_scale is not None:
                    powers[b] *= col_scale
            v = powers if end is None else powers @ end
            if k0 == 0 and zeroth is not None:
                v = v.copy()
                v[0] = zeroth
            kb = np.arange(k0, k1)
            kb3 = kb[:, None, None]
            la, sa = _log_coefficients(family, k0, k1 + 2)
            sa = sa[:-2]
            signs = np.sign(v)
            if (sa < 0.0).any():
                signs *= sa[:, None, None]
            row_log = la[:-2, None] + scale * _LOG2     # log |a_k| 2^scale
            log_v = np.log(np.abs(v)) + row_log[:, :, None]

            if pending:
                nonzero = v != 0.0
                fresh = ~has & nonzero.any(axis=0)
                if fresh.any():
                    r, c = fresh.nonzero()
                    at = nonzero.argmax(axis=0)[r, c]
                    lead[r, c] = log_v[at, r, c]
                    lead_sign[r, c] = signs[at, r, c]
                    order[r, c] = k0 + at
                    ref[r, c] = log_v[at, r, c] + (k0 + at) * log_top
                    has[r, c] = True
                    pending = bool((~has & (kind == 0)).any())
            # every later term relative to its entry's first, for every t
            rel = np.where(kb3 > order, log_v - lead, -np.inf)
            rel = rel[:, None] + (kb3 - order)[:, None] * log_t
            acc += (signs[:, None] * np.exp(rel)).sum(axis=0)

            mass = np.log(np.abs(powers).sum(axis=2)) + scale * _LOG2
            if pending:
                if level is None:
                    reach = L != 0.0                # (L != 0) | I
                    reach.flat[::n + 1] = True
                    level = _bfs(_Bits.of(reach), start != 0.0)
                    del reach
                # the columns reached in <= k1 - 1 steps are levels
                # 1..k1 - 1; they grew at the last step where level k1 - 1
                # is new (at step 1: where level 1 is off the start row)
                settle = ~has & (kind == 0) & (k1 > 1)
                if settle.any():
                    grown = ((level == 1) != (start != 0.0) if k1 == 2
                             else level == k1 - 1)
                    settle &= ~grown.any(axis=1)[:, None]
                if settle.any():
                    reached = (level != 0) & (level < k1)
                    if end is not None:
                        reached = reached @ (end != 0.0)
                    peak = (mass + (la[:-2] + kb * log_top)[:, None]).max(
                        axis=0) - math.log(n)
                    kind[settle] = np.where(reached[settle], 2, 1)
                    ref[settle] = np.where(reached, peak[:, None], np.inf)[settle]
                pending = bool((~has & (kind == 0)).any())

            log_q = la[2:] - la[1:-1] + log_top + log_norm
            bound = np.where(
                log_q < 0.0,
                la[1:-1] + (kb + 1) * log_top + log_norm
                - np.log1p(-np.exp(np.minimum(log_q, 0.0))), np.inf)
            tail = ((bound[:, None] + mass)[:, :, None] + log_colmax
                    - _LOG_TAIL_TOL)
            conv = tail <= ref
            hit = conv.any(axis=0) & (done_at < 0)
            done_at[hit] = kb[conv.argmax(axis=0)][hit]
            k0 = k1
            if (done_at >= 0).all():
                break
            y = powers[-1].dot(L)
            if col_scale is not None:
                y *= col_scale
            _, e = np.frexp(np.abs(y).max(axis=1))
            np.ldexp(y, -e[:, None], out=buffer[0])
            scale += e

        capped = done_at < 0
        total = 1.0 + lead_sign * acc
        log_abs = np.where(capped, np.nan, np.where(
            has, lead + order * log_t + np.log(np.abs(total)), -np.inf))
    return _Series(log_abs, np.where(has, lead_sign * np.sign(total), 0.0),
                   np.where(capped, k0, done_at + 1),
                   np.where(capped, 3, np.where(has, 0, kind)), k0 - 1)


def analytic_transform(family: TaylorFamily, L, t: float) -> tuple[np.ndarray, int]:
    """Evaluate sum_k a_k t^k L^k and report the truncation order used.

    Entries of L^k are bounded by (max|L| * n)^k / n, so the series
    converges entrywise whenever ``|t| * max|L| * n`` is below the family's
    convergence radius; requests outside that guard are rejected.
    Truncation is entrywise (see ``_walk_series``, also for the limits on
    t that raise): no entry is cut before its first nonzero term, so an
    entry first reached at order d keeps its leading term a_d t^d (L^d)_ij.
    """
    _check_family(family)
    L = _square_matrix(L, "L")
    if not np.isfinite(L).all():
        raise ValidationError("analytic transform requires finite entries")
    t = _real(t, "t")
    if not math.isfinite(t):
        raise ValidationError(f"analytic transform requires finite t, got {t!r}")
    if t == 0.0:
        log_a, sign_a = _log_coefficients(family, 0, 1)
        return sign_a[0] * math.exp(log_a[0]) * np.eye(L.shape[0]), 0
    if t < 0.0:
        L, t = -L, -t
    series = _walk_series(family, L, np.array([t]))
    return _values(family, series), series.order


def _values(family: TaylorFamily, series: _Series) -> np.ndarray:
    """The values f of ``series`` at its first t; an entry that hit the
    term cap raises ``MathDomainError``."""
    if (series.stop == 3).any():  # "term_cap"
        raise MathDomainError(f"series for '{family.name}' did not converge "
                              f"within {series.order + 1} terms")
    return series.sign[0] * np.exp(series.log_abs[0])
