"""Integer-valued shortest-path (Varadhan) distance on graphons.

The distance between two positive-measure sets U, V is the least power m of
the adjacency operator with mass between them, ``min { m : <1_U, W^m 1_V> >
0 }``; between two points it is the index of the first composition power
whose support contains the pair.  Both are computed combinatorially on the
block/cell support graph -- walk counting, never series summation.

Every point and set query reads the k x k BFS levels between the
support classes of one whole-field walk (the support-twin quotient merges
cells with identical support rows into one of k classes, which is exact),
which the graphon keeps from its first query at a threshold on: a cold
one-shot query pays that walk, and every later one a lookup (see
``connectivity`` for the rule, its cost and what else the graphon keeps).
A ``DistanceField`` holds what the whole-field walk leaves, O(k^2 + n)
bytes: the k x k BFS levels between classes and the class of each of the
n cells; its n x n float ``matrix`` is derived only when read.

The heat-trace route (slope of log <1_V, e^{tW} 1_U> against log t as t
shrinks) recovers the same integers and is provided as an independent
verification path; the short-time limit is ill-conditioned in floating
point, so it is never the source of truth.  Each slope query (heat, one
transform pair, or all pairs at once) sums one walk-mass sequence for the
whole t-grid in the log domain, with each entry's leading term kept exact
(``linalg._walk_series``).  A heat series on more than 256 blocks reads
the blocks in place with the measures as its column scale, never forming
the n x n operator A diag(mu); a smaller one is formed, which is faster
than scaling every power.

All-pair transform slopes (``transform_slopes``) come from one series
over every start row, as a read-only ``TransformSlopes`` table in which a
pair with no slope (its series hit the term cap, or |f| is 0 at some t)
has a NaN slope and its own error.  A single pair (i, j) is read off the
table of start row i.  The last row summed is kept (``_start_row``), keyed
by the read-only L itself (compared with ``np.array_equal``; 8 MB at
1,000 blocks), the family, the t-grid and i, so an in-place edit of the
caller's arrays is a new operator.  A kept pair costs its validation and
the key comparison, a miss the whole row (one BLAS thread, a sparse random
pattern): 0.025 and 0.34 ms at 24 blocks, 0.050 and 0.87 ms at 100, 0.33
and 2.8 ms at 300, 8.2 and 27 ms at 1,000.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .connectivity import UNREACHABLE, _cell_levels, _distances, _walk
from .core import (
    GridGraphon,
    IntervalSet,
    MathDomainError,
    Partition,
    ValidationError,
    _own,
    _readonly,
    _square_matrix,
    degree,
)
from .linalg import (
    EXPONENTIAL,
    STOP_REASONS,
    TaylorFamily,
    _Series,
    _values,
    _walk_series,
    sym_eig,
)
from .metrics import _symmetrized_operator


@dataclass(frozen=True, eq=False)
class DistanceField:
    """Pairwise walk distances of a graphon at block/cell resolution:
    ``levels``, the read-only k x k small-integer BFS levels between the
    k support classes (0 where no walk joins two), and ``classes``, the
    class of each of the n blocks/cells.  The levels are the graphon's
    kept ones when a query has walked it, else the field's own.

    ``matrix``, built on first read and kept, is the n x n float64 field:
    ``matrix[i, j]`` is the distance between distinct points of blocks i
    and j; the diagonal holds the within-block distance for x != y (1 with
    a self-loop block, else 2 via a neighbour).  No other read builds it.
    The zero distance of coincident points lives only in ``pointwise``.
    """

    kind: str
    partition: Partition
    levels: np.ndarray
    classes: np.ndarray
    connected: bool

    def __post_init__(self):
        _own(self, levels=None, classes=None)

    @cached_property
    def matrix(self) -> np.ndarray:
        return _readonly(_distances(_cell_levels(self.levels, self.classes)))

    @property
    def size(self) -> int:
        return int(self.classes.shape[0])

    @property
    def breakpoints(self) -> np.ndarray:
        return self.partition.breakpoints

    @property
    def within_block(self) -> np.ndarray:
        return _distances(self.levels[self.classes, self.classes])

    @property
    def layer_count(self) -> int:
        """Number of distance layers = largest finite entry (the diameter
        for connected graphons), 0 when no walk joins any pair."""
        return int(self.levels.max())

    def pointwise(self, x, y):
        """Distance between points (scalars or broadcastable arrays);
        exactly 0 on coincident coordinates."""
        cx = self.classes[self.partition.locate(x)]
        cy = self.classes[self.partition.locate(y)]
        return _point_distances(x, y, _distances(self.levels[cx, cy]))


def _point_distances(x, y, d):
    """Block walk distances ``d`` of point pairs, set to exactly 0 on
    coincident coordinates; a scalar pair gives an int or ``UNREACHABLE``."""
    out = np.where(np.asarray(x, float) == np.asarray(y, float), 0.0, d)
    if np.ndim(out) == 0:
        val = float(out)
        return int(val) if math.isfinite(val) else UNREACHABLE
    return out


def distance_field(w, epsilon: float | None = None) -> DistanceField:
    """Build the full distance field of a graphon from one whole-field
    walk.

    The distance layers are the level sets of the levels; their count
    equals the diameter.  For a disconnected graphon the field is still
    returned, with level-0 (unreachable) entries and ``connected=False``.
    A graphon that keeps the class levels of a query's walk returns them
    without walking.  Otherwise every call walks again, and the graphon
    keeps only the diameter the walk decided: the field owns its levels
    (see ``connectivity`` for why).
    """
    walk = _walk(w, epsilon)
    kind = "grid" if isinstance(w, GridGraphon) else "step"
    levels = _readonly(walk.levels()) if walk.kept is None else walk.kept
    return DistanceField(kind, w.partition, levels, walk.classes,
                         math.isfinite(walk.diameter))


def varadhan_distance(w, x, y, epsilon: float | None = None):
    """Pointwise Varadhan distance (scalars or arrays).

    0 iff x == y; otherwise the walk distance of the blocks containing the
    two points, with the within-block rule on the diagonal: a lookup in
    the class levels the graphon keeps, walked on its first query at the
    threshold, once the points are located.
    """
    walk = _walk(w, epsilon)
    ix = walk.classes[w.partition.locate(x)]
    iy = walk.classes[w.partition.locate(y)]
    return _point_distances(x, y, _distances(walk.keep()[ix, iy]))


def set_distance(w, u: IntervalSet, v: IntervalSet, epsilon: float | None = None):
    """Least adjacency power with mass between two interval sets.

    0 when the sets overlap on positive measure; otherwise the minimum walk
    distance between any block touched by U and any block touched by V:
    the least nonzero level over U's classes x V's classes in the class
    levels the graphon keeps (walked on its first query at the threshold).
    ``UNREACHABLE`` when no power connects them (disconnected graphon).
    The threshold is checked also when the sets overlap.
    """
    if u.is_empty or v.is_empty:
        raise ValidationError("set distance requires nonempty interval sets")
    walk = _walk(w, epsilon)
    if u.intersection_measure(v) > 0.0:
        return 0
    um = np.zeros(walk.size, dtype=bool)  # U's classes
    vm = np.zeros(walk.size, dtype=bool)  # V's classes
    um[walk.classes[u.block_masses(w.partition) > 0.0]] = True
    vm[walk.classes[v.block_masses(w.partition) > 0.0]] = True
    block = walk.keep()[um][:, vm]
    reached = block[block > 0]
    return int(reached.min()) if reached.size else UNREACHABLE


def _heat_series(w, u: IntervalSet, v: IntervalSet, ts) -> _Series:
    """The adjacency heat series mu(U&V) + sum_{m>=1} t^m/m! u^T M^{m-1} A v,
    M = A diag(mu), for every t of ``ts`` at once.

    u^T M^{m-1} A v = u^T M^m (v / mu), so it is the exponential series of
    M from the start row u to the end column v / mu, with the k = 0 term
    replaced by the overlap measure.  The series gets the blocks A with the
    measures as its column scale, and forms M only while it is small.  All
    terms are nonnegative, so the leading term (order = walk distance) is
    summed without cancellation.
    """
    if u.is_empty or v.is_empty:
        raise ValidationError("heat content requires nonempty interval sets")
    mu = w.partition.measures
    um = u.block_masses(w.partition)
    vm = v.block_masses(w.partition)
    return _walk_series(EXPONENTIAL, w.blocks, ts, start=um[None, :],
                        end=(vm / mu)[:, None],
                        zeroth=u.intersection_measure(v), col_scale=mu)


def heat_content(w, u: IntervalSet, v: IntervalSet, t: float,
                 generator: str = "adjacency") -> float:
    """Heat mass <1_V, e^{tG} 1_U> for G the adjacency operator, or
    <1_V, e^{-tL} 1_U> for L the combinatorial Laplacian.

    Exact for step graphons, grids included, via the splitting of
    indicators into their block-average part plus an orthogonal remainder:
    the adjacency operator acts as a matrix on block averages and
    annihilates the remainder, while the Laplacian acts as multiplication
    by the degree values there.  The adjacency series has nonnegative terms
    only, so tiny leading orders (t^d at walk distance d) are summed without
    cancellation; it is exactly 0 between sets no walk joins, and raises
    where ``_walk_series`` does.  The Laplacian's block part reads the
    eigenpairs of diag(k) - D^{1/2} A D^{1/2}, so it is defined for every
    finite t >= 0.
    """
    t = float(t)
    if not 0.0 <= t < math.inf:
        raise ValidationError("heat content requires finite t >= 0")
    if u.is_empty or v.is_empty:
        raise ValidationError("heat content requires nonempty interval sets")

    if generator == "adjacency":
        if t == 0.0:
            return u.intersection_measure(v)
        return float(_values(EXPONENTIAL, _heat_series(w, u, v, [t]))[0, 0])

    if generator == "laplacian":
        mu = w.partition.measures
        um = u.block_masses(w.partition)
        vm = v.block_masses(w.partition)
        kv = degree(w).values
        spec = sym_eig(np.diag(kv) - _symmetrized_operator(w))
        pu, pv = (np.stack([um, vm]) / np.sqrt(mu)) @ spec.eigenvectors
        # L is positive semidefinite; an eigenvalue rounded below 0 must not
        # grow with t
        decay = np.exp(-t * np.maximum(spec.eigenvalues, 0.0))
        step_part = float(pv @ (decay * pu))
        per_block_overlap = u.intersect(v).block_masses(w.partition)
        orth_part = float(np.sum(np.exp(-t * kv) *
                                 (per_block_overlap - um * vm / mu)))
        return step_part + orth_part

    raise ValidationError(f"unknown generator {generator!r}")


@dataclass(frozen=True, eq=False)
class SlopeEstimate:
    """Least-squares slope of log values against log t on a decreasing
    positive t-grid, with the RMS fit residual, the number of series terms
    the value needed and why its series stopped (``STOP_REASONS``; a
    defined slope always stopped on ``"tail_bound"``)."""

    t_grid: np.ndarray
    log_values: np.ndarray
    slope: float
    residual: float
    series_terms: int = 0
    series_stop: str = ""

    def __post_init__(self):
        _own(self, t_grid=float, log_values=float)

    @property
    def estimated_distance(self) -> int:
        return int(round(self.slope))


def default_t_grid(lo: float = 1e-5, hi: float = 1e-3, k: int = 8) -> np.ndarray:
    """Decreasing grid of k log-spaced t values between the bounds, given
    in either order; the default window balances the O(t) subleading bias
    at the top against log underflow at the bottom.  Bounds must be finite
    and positive, k a whole number >= 2, and the grid strictly decreasing
    (so not equal bounds), as every slope fit requires."""
    lo, hi = sorted((float(lo), float(hi)))
    if not (0.0 < lo and hi < math.inf and float(k).is_integer() and k >= 2):
        raise ValidationError("t grid needs finite positive bounds and a "
                              f"whole k >= 2, got ({lo!r}, {hi!r}, {k!r})")
    return _validate_t_grid(np.logspace(math.log10(hi), math.log10(lo), int(k)))


def _validate_t_grid(t_grid) -> np.ndarray:
    """A slope-fit grid as a read-only float vector of its own: at least
    two t values, each finite and > 0, strictly decreasing.  There is no
    floor above 0: the series are summed in the log domain, so a grid as
    low as 1e-25 still has logarithms to fit."""
    tg = np.array(np.ravel(t_grid), dtype=float)
    if tg.size < 2:
        raise ValidationError("slope fit needs at least two t values")
    if not np.all(np.isfinite(tg) & (tg > 0.0)):
        raise ValidationError("t grid needs finite positive t values")
    if not np.all(np.diff(tg) < 0.0):
        raise ValidationError("t grid must be strictly decreasing")
    return _readonly(tg)


#: the grid of every slope query given none, built once
_DEFAULT_T_GRID = default_t_grid()


def _slopes(tg: np.ndarray, series: _Series):
    """Least-squares slope and RMS residual of log |f| against log t for
    every entry of ``series`` at once, as fresh arrays of its entry shape;
    NaN by arithmetic where log |f| is not finite at some t (|f| is 0
    there, or the series hit the term cap).  A mean is taken as sum /
    count, the value ``mean`` gives at less call cost."""
    shape = series.log_abs.shape[1:]
    logs = series.log_abs.reshape(tg.shape[0], -1)
    lt = np.log(tg)
    dt = lt - lt.sum() / len(tg)
    with np.errstate(invalid="ignore"):  # -inf - -inf and 0 * inf are NaN
        dy = logs - logs.sum(axis=0) / len(tg)
        slope = (dt @ dy).reshape(shape) / (dt @ dt)
        sq = ((dy - dt[:, None] * slope.reshape(-1)) ** 2).sum(axis=0)
    return slope, np.sqrt(sq.reshape(shape) / len(tg))


def _estimate(what: str, tg: np.ndarray, log_values: np.ndarray,
              slope: float, residual: float, terms: int,
              stop: str) -> SlopeEstimate:
    """One entry's ``SlopeEstimate``; an entry with no slope (NaN) raises
    ``MathDomainError``, naming the term cap its series hit or the first t
    of the grid where |f| is 0."""
    if math.isnan(slope):
        why = (f"did not converge within {terms} terms" if stop == "term_cap"
               else "is not positive at t = "
               f"{tg[np.argmin(np.isfinite(log_values))]:g}")
        raise MathDomainError(f"{what} {why}; no slope is defined")
    return SlopeEstimate(tg, log_values, slope, residual, terms, stop)


def _slope_estimate(tg: np.ndarray, series: _Series, what: str) -> SlopeEstimate:
    """The ``SlopeEstimate`` of entry (0, 0) of ``series``."""
    slope, residual = _slopes(tg, series)
    return _estimate(what, tg, series.log_abs[:, 0, 0], float(slope[0, 0]),
                     float(residual[0, 0]), int(series.terms[0, 0]),
                     STOP_REASONS[series.stop[0, 0]])


def varadhan_slope(w, u: IntervalSet, v: IntervalSet,
                   t_grid=None) -> SlopeEstimate:
    """Slope of log heat content against log t: a numerical verification of
    the combinatorial set distance (the slope converges to it as t -> 0+).

    One heat series serves the whole t-grid, evaluated in the log domain,
    so the heat content at set distance d ~ 63 (about t^63 / 63!, far below
    the smallest double) still has a logarithm to fit.
    """
    tg = _DEFAULT_T_GRID if t_grid is None else _validate_t_grid(t_grid)
    return _slope_estimate(tg, _heat_series(w, u, v, tg), "heat content")


def _transform_operator(adjacency, weights, diag) -> np.ndarray:
    """L = M + D, read-only, after checking that M is nonnegative with
    exactly the symmetric adjacency's zero pattern, and that L is finite."""
    a = _square_matrix(adjacency, "adjacency matrix")
    m = _square_matrix(weights, "weight matrix")
    if a.shape != m.shape:
        raise ValidationError("adjacency and weight matrices must be of "
                              f"equal shape, got {a.shape} and {m.shape}")
    if not np.array_equal(a, a.T):
        raise ValidationError("adjacency pattern must be symmetric")
    if not np.array_equal(a != 0.0, m != 0.0):
        raise ValidationError(
            "weight matrix zero pattern must equal the adjacency pattern"
        )
    if float(m.min()) < 0.0:
        raise ValidationError("weights must be nonnegative")
    d = np.asarray(diag, dtype=float).reshape(-1)
    if d.shape[0] != a.shape[0]:
        raise ValidationError("diagonal length does not match matrix size")
    lmat = m + np.diag(d)
    if not np.isfinite(lmat).all():
        raise ValidationError("weights and diagonal must be finite")
    return _readonly(lmat)


@dataclass(frozen=True, eq=False)
class TransformSlopes:
    """Slopes of log |f(Lt)_ij| against log t for every pair (i, j) with i
    one of the start ``rows`` (consecutive, ascending) and j any column,
    from one series: read-only arrays indexed ``[r, j]`` for start row
    ``rows[r]``.

    ``slope`` and ``residual`` are NaN where |f| is 0 at some t of
    ``t_grid`` or the series hit the term cap (log values NaN);
    ``log_values[r, j]`` is log |f| on the grid, and ``series_terms`` and
    ``series_stop`` are as in ``SlopeEstimate``.
    """

    t_grid: np.ndarray
    rows: np.ndarray
    slope: np.ndarray
    residual: np.ndarray
    log_values: np.ndarray
    series_terms: np.ndarray
    series_stop: np.ndarray

    def __post_init__(self):
        _own(self, **dict.fromkeys(self.__dataclass_fields__))

    def estimate(self, i: int, j: int) -> SlopeEstimate:
        """Pair (i, j)'s ``SlopeEstimate``, i a start row; a pair with no
        slope raises ``MathDomainError`` (see ``_estimate``)."""
        i, j = _indices(i, j)
        r = i - int(self.rows[0]) if self.rows.size else -1
        if not (0 <= r < self.rows.size and 0 <= j < self.slope.shape[1]):
            raise ValidationError(f"pair ({i}, {j}) is not in the table")
        return _estimate(f"|f(Lt)|[{i},{j}]", self.t_grid,
                         self.log_values[r, j], float(self.slope[r, j]),
                         float(self.residual[r, j]),
                         int(self.series_terms[r, j]),
                         str(self.series_stop[r, j]))


def _indices(i, j) -> tuple[int, int]:
    """Two indices read with ``operator.index``, else ``ValidationError``."""
    try:
        return operator.index(i), operator.index(j)
    except TypeError as exc:
        raise ValidationError(f"indices ({i!r}, {j!r}) must be integers") from exc


def _transform_table(family: TaylorFamily, lmat: np.ndarray, tg: np.ndarray,
                     row: int | None = None) -> TransformSlopes:
    """The slopes of f(tL) from start row ``row`` (every row for None) to
    every column, from one series."""
    n = lmat.shape[0]
    if row is None:
        start, rows = None, np.arange(n)
    else:
        start, rows = np.zeros((1, n)), np.array([row])
        start[0, row] = 1.0
    series = _walk_series(family, lmat, tg, start=start)
    slope, residual = _slopes(tg, series)
    # the log values, a (row, column, t) view of the series, are copied
    return TransformSlopes(tg, _readonly(rows), _readonly(slope),
                           _readonly(residual), np.moveaxis(series.log_abs, 0, -1),
                           _readonly(series.terms),
                           _readonly(np.array(STOP_REASONS)[series.stop]))


def transform_slopes(adjacency, weights, diag, family: TaylorFamily,
                     t_grid=None) -> TransformSlopes:
    """Slopes of log |f(Lt)_{ij}| for every pair (i, j) of L = M + D, from
    one series over every start row; the inputs are those of
    ``general_varadhan_slope``, checked once.  A pair whose series hits the
    term cap has a NaN slope, like a pair whose |f| is 0 at some t."""
    tg = _DEFAULT_T_GRID if t_grid is None else _validate_t_grid(t_grid)
    return _transform_table(family, _transform_operator(adjacency, weights,
                                                        diag), tg)


def general_varadhan_slope(adjacency, weights, diag, family: TaylorFamily,
                           i: int, j: int, t_grid=None) -> SlopeEstimate:
    """Slope of log |f(Lt)_{ij}| for L = M + D built from a 0/1 adjacency
    pattern.

    M must be nonnegative with exactly the adjacency's zero pattern and D is
    an arbitrary diagonal; for any analytic f with all-nonzero Taylor
    coefficients the slope recovers the shortest-path distance d(i,j).  One
    sequence of rows e_i^T L^k serves the whole t-grid; the leading term
    a_d t^d (L^d)_{ij} is a sum of positive walk weights, factored out
    before the later (signed) terms are added.  The ``TransformSlopes`` of
    the whole start row are kept (see the module docstring), so the other
    pairs of row i are lookups.
    """
    lmat = _transform_operator(adjacency, weights, diag)
    n = lmat.shape[0]
    i, j = _indices(i, j)
    if not (0 <= i < n and 0 <= j < n):
        raise ValidationError(f"indices ({i}, {j}) out of range for n = {n}")
    tg = _DEFAULT_T_GRID if t_grid is None else _validate_t_grid(t_grid)
    return _start_row(family, lmat, tg, i).estimate(i, j)


#: the kept start row of ``general_varadhan_slope``: (L, family, t-grid,
#: row index, that row's one-row ``TransformSlopes``), replaced whole under
#: the lock, so a call never reads another operator's row
_kept_row: tuple = (None, None, None, -1, None)
_kept_row_lock = threading.Lock()


def _start_row(family: TaylorFamily, lmat: np.ndarray, tg: np.ndarray,
               i: int) -> TransformSlopes:
    """The slopes of start row i of f(tL) over all columns, from the kept
    row when its key matches, else summed and kept in its place (see the
    module docstring for the key)."""
    global _kept_row
    kept_l, kept_family, kept_tg, kept_i, row = _kept_row  # one whole tuple
    if (kept_i == i and kept_family == family
            and (kept_tg is tg or np.array_equal(kept_tg, tg))
            and np.array_equal(kept_l, lmat)):
        return row
    row = _transform_table(family, lmat, tg, i)
    with _kept_row_lock:
        _kept_row = (lmat, family, tg, i, row)
    return row
