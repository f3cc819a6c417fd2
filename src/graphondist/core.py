"""The step graphon carrier (grids included) and the block operator algebra.

A graphon is a symmetric measurable function W : [0,1]^2 -> [0,1].  One
computable carrier is provided: :class:`StepGraphon`, block-constant on a
finite interval partition.  It represents a finite weighted graph exactly,
and every operation on it is evaluated in closed form (no quadrature).
:class:`GridGraphon` constructs the same carrier on the uniform partition
from an n x n discretization of a general graphon (cell-center samples);
its type records that provenance, so reports can flag grid results as
discretizations.

The operator algebra (``lift``, ``step``, ``mat``, ``coarsen``,
``comp_power``, ``degree``, ``apply_adjacency``) follows the standard
graph-limit conventions; a step graphon with partition measures ``mu`` and
block matrix ``A`` has adjacency action ``f |-> A @ (mu * f)`` on
block-constant functions, with the orthogonal complement annihilated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class ValidationError(ValueError):
    """Invalid input: shape/symmetry/range violations, bad coordinates."""


class MathDomainError(ValueError):
    """Mathematically out-of-domain request (overflow, divergent series, ...)."""


_SYM_TOL = 1e-12
_SUM_TOL = 1e-12
_RANGE_TOL = 1e-9


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _own(obj, **dtypes) -> None:
    """Set each named array field of the frozen value type ``obj`` to a
    read-only array of the given dtype (``None`` keeps the field's) that
    no caller can write.  An array that is read-only and owns its data is
    kept, a list (or an array of another dtype) is converted, and anything
    else -- a writable array, any view -- is copied.  So a caller's array
    is never frozen or aliased, and a fresh array passed read-only is
    never copied."""
    for name, dtype in dtypes.items():
        value = getattr(obj, name)
        a = np.asarray(value, dtype=dtype)
        if a.base is not None or a.flags.writeable:
            if a.base is not None or a is value or not isinstance(
                    value, (list, tuple, np.ndarray)):
                a = a.copy()
            _readonly(a)
        object.__setattr__(obj, name, a)


def _square_matrix(value, what: str, dtype=float) -> np.ndarray:
    """A caller's matrix as an array of ``dtype``, rejected unless it is
    a nonempty square 2-D array.  Nothing is copied but what the
    conversion needs, and finiteness is left to the caller."""
    a = np.asarray(value, dtype=dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise ValidationError(
            f"{what} must be square and nonempty, got shape {a.shape}")
    return a


def _checked_count(value, name: str = "resolution", floor: int = 1) -> int:
    """A count (a resolution, a power, a truncation) as an int.  Whole
    numbers of at least ``floor`` (0 or 1) pass, ``2.0`` and ``np.int64(2)``
    included; anything else is a ValidationError, so 2.5 is never
    truncated to 2."""
    res = float(value)
    if not (res.is_integer() and res >= floor):
        kind = "a positive" if floor else "a nonnegative"
        raise ValidationError(
            f"'{name}' must be {kind} integer, got {value!r}")
    return int(res)


#: rows and columns of the tiles in which a matrix meets its transpose
_SYM_TILE = 256


def _symmetry_gap(a: np.ndarray) -> float:
    """max |a - a.T| of a square matrix, taken one pair of tiles at a time
    so that the transposed read stays in cache; NaN when any difference is
    (``np.maximum`` keeps a NaN where Python's ``max`` would drop it)."""
    n = a.shape[0]
    gap = 0.0
    for i in range(0, n, _SYM_TILE):
        for j in range(i, n, _SYM_TILE):
            diff = (a[i:i + _SYM_TILE, j:j + _SYM_TILE]
                    - a[j:j + _SYM_TILE, i:i + _SYM_TILE].T)
            gap = float(np.maximum(gap, np.abs(diff).max()))
    return gap


def _check_symmetric(a: np.ndarray, tol: float, what: str,
                     scale: float | None = None) -> float:
    """Reject a matrix (square and nonempty, see ``_square_matrix``)
    asymmetric beyond ``tol`` times ``scale`` (default max(1, max|a|)) or
    by NaN (a NaN entry makes it so); return max |a - a.T|."""
    if scale is None:
        scale = max(1.0, float(np.abs(a).max()))
    gap = _symmetry_gap(a)
    if not gap <= tol * scale:
        raise ValidationError(f"{what} is not symmetric within {tol:g}")
    return gap


@dataclass(frozen=True, eq=False)
class Partition:
    """Ordered interval partition of [0,1] given by positive block measures.

    Block i is the half-open interval [b_{i-1}, b_i); the last block is
    closed on the right so that every point of [0,1] belongs to exactly one
    block.  Equal measures give the exact breakpoints k/n; a running sum
    would drift by an ulp and give blocks spurious overlaps.
    """

    measures: np.ndarray
    breakpoints: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _own(self, measures=float)
        mu = self.measures
        if mu.ndim != 1 or mu.size == 0:
            raise ValidationError("partition measures must be a nonempty "
                                  f"vector, got shape {mu.shape}")
        if not np.all(mu > 0.0):
            raise ValidationError("partition measures must all be positive")
        total = float(mu.sum())
        if abs(total - 1.0) > _SUM_TOL:
            raise ValidationError(
                f"partition measures must sum to 1 (got {total!r})"
            )
        if np.all(mu == mu[0]):
            bp = np.arange(mu.size + 1) / mu.size
        else:
            bp = np.concatenate(([0.0], np.cumsum(mu)))
            bp[-1] = 1.0
        object.__setattr__(self, "breakpoints", _readonly(bp))

    @property
    def size(self) -> int:
        return int(self.measures.shape[0])

    @classmethod
    def uniform(cls, n: int) -> "Partition":
        n = _checked_count(n)
        return cls(_readonly(np.full(n, 1.0 / n)))

    def locate(self, x):
        """Block index containing x (scalar or array); endpoints per the
        half-open convention, x = 1 falls in the last block."""
        xv = np.asarray(x, dtype=float)
        if not np.all((xv >= 0.0) & (xv <= 1.0)):
            raise ValidationError("coordinates must be finite and lie in [0,1]")
        idx = np.searchsorted(self.breakpoints, xv, side="right") - 1
        idx = np.clip(idx, 0, self.size - 1)
        return int(idx) if np.ndim(x) == 0 else idx

    def is_homogeneous(self, tol: float = 1e-12) -> bool:
        mu = self.measures
        return bool(np.max(np.abs(mu - 1.0 / mu.size)) <= tol)


@dataclass(frozen=True, eq=False)
class IntervalSet:
    """Finite union of disjoint half-open intervals [a,b) in [0,1].

    Construction normalizes the input: intervals are sorted and
    overlapping/adjacent pieces are merged.  The empty set is allowed.
    """

    intervals: tuple

    def __post_init__(self):
        norm = []
        for pair in self.intervals:
            a, b = float(pair[0]), float(pair[1])
            if not (0.0 <= a < b <= 1.0):
                raise ValidationError(
                    f"interval [{a!r}, {b!r}) must satisfy 0 <= a < b <= 1"
                )
            norm.append((a, b))
        norm.sort()
        merged = []
        for a, b in norm:
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        object.__setattr__(self, "intervals", tuple(merged))

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def full(cls) -> "IntervalSet":
        return cls(((0.0, 1.0),))

    @property
    def measure(self) -> float:
        return float(sum(b - a for a, b in self.intervals))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        for a, b in self.intervals:
            for c, d in other.intervals:
                lo, hi = max(a, c), min(b, d)
                if lo < hi:
                    out.append((lo, hi))
        return IntervalSet(tuple(out))

    def intersection_measure(self, other: "IntervalSet") -> float:
        total = 0.0
        for a, b in self.intervals:
            for c, d in other.intervals:
                total += max(0.0, min(b, d) - max(a, c))
        return total

    def block_masses(self, partition: Partition) -> np.ndarray:
        """Vector of overlap measures with each partition block."""
        bp = partition.breakpoints
        masses = np.zeros(partition.size)
        for a, b in self.intervals:
            lo = np.maximum(bp[:-1], a)
            hi = np.minimum(bp[1:], b)
            masses += np.maximum(0.0, hi - lo)
        return masses


@dataclass(frozen=True, eq=False)
class StepGraphon:
    """Block-constant graphon: an interval partition plus a symmetric block
    matrix with finite entries in [0,1]."""

    partition: Partition
    blocks: np.ndarray

    def __post_init__(self):
        a = _square_matrix(self.blocks, "block matrix")
        lo, hi = float(a.min()), float(a.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError("block matrix entries must be finite")
        gap = _check_symmetric(a, _SYM_TOL, "block matrix", max(1.0, hi, -lo))
        if a.shape[0] != self.partition.size:
            raise ValidationError(
                f"block matrix size {a.shape[0]} does not match partition "
                f"size {self.partition.size}"
            )
        if gap:
            a = (a + a.T) / 2.0
            lo, hi = float(a.min()), float(a.max())
        if lo < -_RANGE_TOL or hi > 1.0 + _RANGE_TOL:
            raise ValidationError("block matrix entries must lie in [0,1]; "
                                  f"found range [{lo:g}, {hi:g}]")
        clip = lo < 0.0 or hi > 1.0
        if clip:  # in place only on the symmetrized copy
            a = np.clip(a, 0.0, 1.0, out=a if gap else None)
        if gap or clip:  # a private array, so it is kept
            object.__setattr__(self, "blocks", _readonly(a))
        _own(self, blocks=float)

    @property
    def size(self) -> int:
        return self.partition.size


class GridGraphon(StepGraphon):
    """Uniform n x n cell discretization of a graphon, one value per cell
    pair (midpoint samples or cell averages, per the producer): a step
    graphon on the uniform partition whose type marks it as approximate."""

    def __init__(self, resolution: int, values):
        super().__init__(Partition.uniform(resolution), values)

    @property
    def resolution(self) -> int:
        return self.size

    @property
    def values(self) -> np.ndarray:
        return self.blocks


@dataclass(frozen=True, eq=False)
class BlockFunction:
    """Block-constant function on [0,1]: one value per partition block."""

    partition: Partition
    values: np.ndarray

    def __post_init__(self):
        _own(self, values=float)
        if self.values.shape != (self.partition.size,):
            raise ValidationError(
                f"value vector of shape {self.values.shape} does not match "
                f"partition size {self.partition.size}"
            )

    def __array__(self, dtype=None, copy=None):
        """The block values, so numpy functions accept a BlockFunction."""
        return np.array(self.values, dtype=dtype, copy=copy)


# ---------------------------------------------------------------------------
# operator algebra
# ---------------------------------------------------------------------------

def lift(a) -> StepGraphon:
    """Embed a symmetric matrix as a step graphon on the uniform partition."""
    a = _square_matrix(a, "block matrix")
    return StepGraphon(Partition.uniform(a.shape[0]), a)


def step(partition: Partition, a) -> StepGraphon:
    """Step graphon with the given partition and symmetric block matrix."""
    return StepGraphon(partition, a)


def _overlap_matrix(bp_rows: np.ndarray, bp_cols: np.ndarray) -> np.ndarray:
    """O[i,k] = length of block i of the row partition intersected with
    block k of the column partition (both given by breakpoints)."""
    lo = np.maximum(bp_rows[:-1, None], bp_cols[None, :-1])
    hi = np.minimum(bp_rows[1:, None], bp_cols[None, 1:])
    return np.maximum(0.0, hi - lo)


def mat(partition: Partition, w: StepGraphon) -> np.ndarray:
    """Block-average matrix of a graphon over a partition.

    Entry (i,j) is the mean of W over P_i x P_j, evaluated by exact
    intersection of the two interval partitions, so no quadrature error is
    introduced.  When the partitions coincide the averages are the block
    values themselves; returning them directly keeps `mat . step = id` and
    coarsen idempotence exact to the bit.
    """
    bp = w.partition.breakpoints
    if np.array_equal(partition.breakpoints, bp):
        return w.blocks.copy()
    overlap = _overlap_matrix(partition.breakpoints, bp)
    mass = overlap @ w.blocks @ overlap.T
    mu = partition.measures
    return mass / np.outer(mu, mu)


def coarsen(partition: Partition, w: StepGraphon) -> StepGraphon:
    """L2-orthogonal projection of a graphon onto P-step graphons."""
    return StepGraphon(partition, mat(partition, w))


def comp_power(w: StepGraphon, m: int) -> StepGraphon:
    """Kernel of the m-th power of the adjacency operator.

    With block matrix A and measures mu the result has blocks
    ``M^(m-1) @ A`` where ``M = A @ diag(mu)`` (for a grid, the
    midpoint-rule analogue ``(V/n)^(m-1) @ V``).  The result has the
    carrier type of ``w``, so a grid stays a grid.  ``m`` is a whole
    number of at least 1: the identity operator has no integral kernel.
    """
    m = _checked_count(m, "m")
    a = w.blocks
    mm = a * w.partition.measures[None, :]
    out = a
    for _ in range(m - 1):
        out = mm @ out
    # the base initializer keeps w's type without its own constructor
    result = object.__new__(type(w))
    StepGraphon.__init__(result, w.partition, np.clip(out, 0.0, 1.0))
    return result


def degree(w: StepGraphon) -> BlockFunction:
    """Degree function k(x) = integral of W(x, .), one value per block."""
    return BlockFunction(w.partition,
                         _readonly(w.blocks @ w.partition.measures))


def apply_adjacency(w: StepGraphon, f: BlockFunction) -> BlockFunction:
    """Apply the adjacency operator to a block-constant function.

    The action on block values is ``A @ (mu * f)``; functions orthogonal to
    the step subspace are annihilated and are not representable here.
    """
    if not isinstance(f, BlockFunction):
        raise ValidationError("graphons act on BlockFunction inputs")
    if f.partition.size != w.size or np.max(
        np.abs(f.partition.measures - w.partition.measures)
    ) > _SUM_TOL:
        raise ValidationError("function partition does not match graphon")
    vals = w.blocks @ (w.partition.measures * f.values)
    return BlockFunction(w.partition, _readonly(vals))


def evaluate(w: StepGraphon, x, y):
    """Point value W(x,y) by block lookup (scalars or arrays)."""
    out = w.blocks[w.partition.locate(x), w.partition.locate(y)]
    return float(out) if np.ndim(out) == 0 else out


def permute_blocks(w: StepGraphon, sigma) -> StepGraphon:
    """Rearrange the blocks of a step graphon by a permutation.

    Models the measure-preserving point bijection that maps block i of the
    result onto block sigma[i] of the input; adjacency operators of the two
    graphons are unitarily equivalent.
    """
    perm = np.asarray(sigma).reshape(-1)
    if not np.issubdtype(perm.dtype, np.integer):
        raise ValidationError(f"a permutation needs integer entries, got {sigma!r}")
    if sorted(perm.tolist()) != list(range(w.size)):
        raise ValidationError(f"not a permutation of 0..{w.size - 1}: {sigma!r}")
    mu = w.partition.measures[perm]
    blocks = w.blocks[np.ix_(perm, perm)]
    return StepGraphon(Partition(_readonly(mu)), blocks)


def to_grid(w: StepGraphon, resolution: int) -> GridGraphon:
    """Render a graphon onto a uniform grid by cell-center sampling."""
    n = _checked_count(resolution)
    centers = (np.arange(n) + 0.5) / n
    idx = w.partition.locate(centers)
    return GridGraphon(n, w.blocks[np.ix_(idx, idx)])
