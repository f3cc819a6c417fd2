"""Communicability distance and spectral embedding, neighbourhood and
similarity distances, twin-block merging, and the exact cut norm / cut
distance for step graphons.

The communicability distance between sets is the L2 norm of
``e^{W/2} (1_X - 1_Y)``.  On a step graphon this is evaluated exactly: the
indicator difference splits into its block-average part (on which the
adjacency operator acts as the symmetric matrix B = D^{1/2} A D^{1/2}) plus
an orthogonal remainder, which the operator annihilates so the exponential
fixes it.  The distance and the embedding read one eigendecomposition of B,
and the remainder's norm is carried as the "kernel" component of
embeddings, so the embedding distance identity holds by construction.

A graphon keeps that decomposition from its first call, as it keeps its
walks (``connectivity``): 8 n^2 bytes, the size of its blocks, freed with
it.  ``sym_eig`` is most of a distance call (2-vCPU host: 0.80 of 0.83 ms
at 80 blocks, 188 of 200 ms at 1,000), so later calls cost a few products.

The cut norm enumerates the row subsets S of C_ij = mu_i A_ij mu_j from
subset-sum tables built by doubling (one addition per sum): a low table
over the first h rows, h as large as keeps it within ``_CUT_ENTRIES`` =
2^16 entries, and a high table over the rest.  Each high subset costs one
add, one max and one sum over the low table, which give pos(S), the sum of
the positive column sums of S; neg(S) is pos(S) minus the total of S.  That
is about 2^n n additions in three passes, with no mask matrix.  On a 2-vCPU
host, one BLAS thread, best of 5 (3 from 22 blocks): 2.8 ms at 16 blocks,
9.4 ms at 18, 0.15 s at 22 and 0.63 s at 24.  The cut distance reads
stacks of permuted differences through the same kernel.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .connectivity import _Walk, _row_classes
from .core import (
    GridGraphon,
    IntervalSet,
    Partition,
    StepGraphon,
    ValidationError,
    _checked_count,
    _own,
)
from .linalg import SpectralData, sym_eig

_CUT_NORM_MAX_BLOCKS = 24
_CUT_DISTANCE_MAX_BLOCKS = 8
#: entries of the subset-sum table that each pass of the cut norm sweeps
#: (512 KB of doubles); 2^14 ran 1.3x slower at 22 blocks, paying 4x the
#: passes, and 2^17 or 2^19 gained nothing (2-vCPU host, one BLAS thread)
_CUT_ENTRIES = 1 << 16


def _symmetrized_operator(w: StepGraphon) -> np.ndarray:
    """B = D^{1/2} A D^{1/2}: symmetric matrix unitarily equivalent to the
    action of the adjacency operator on block averages."""
    root = np.sqrt(w.partition.measures)
    return root[:, None] * w.blocks * root[None, :]


#: graphon -> the eigenpairs of its B, kept as ``connectivity._WALKS``
#: keeps walks (see the module docstring)
_SPECTRA: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _spectrum(w: StepGraphon) -> SpectralData:
    """Eigenpairs of B, the one decomposition the communicability side
    reads, computed on the first call for a graphon and kept with it."""
    if isinstance(w, GridGraphon):
        raise ValidationError("communicability metrics need a step graphon; "
                              "coarsen or load the kernel as one first")
    if w not in _SPECTRA:
        _SPECTRA[w] = sym_eig(_symmetrized_operator(w))
    return _SPECTRA[w]


def _image(w: StepGraphon, spec: SpectralData,
           masses: np.ndarray) -> np.ndarray:
    """``e^{lam_k/2} <f, phi_k>`` over every eigenpair, for f with block
    masses ``masses``: B's eigenvectors applied to ``masses / sqrt(mu)``."""
    g = masses / np.sqrt(w.partition.measures)
    return np.exp(spec.eigenvalues / 2.0) * (spec.eigenvectors.T @ g)


def communicability_distance(w: StepGraphon, x: IntervalSet,
                             y: IntervalSet) -> float:
    """|| e^{W/2} (1_X - 1_Y) ||_2, exact for step graphons.

    The difference 1_X - 1_Y is projected as a whole, so nearly equal sets
    keep their relative precision.  Empty sets are allowed and stand for
    the zero function, so the distance to the empty set measures total
    communicability mass of a set.
    """
    spec = _spectrum(w)
    mu = w.partition.measures
    diff = x.block_masses(w.partition) - y.block_masses(w.partition)
    step_image = _image(w, spec, diff)
    f_norm2 = x.measure + y.measure - 2.0 * x.intersection_measure(y)
    orth2 = max(0.0, f_norm2 - float(np.sum(diff * diff / mu)))
    return math.sqrt(float(step_image @ step_image) + orth2)


@dataclass(frozen=True, eq=False)
class Embedding:
    """Truncated communicability coordinates of a set.

    ``coordinates[k] = e^{lam_k/2} <1_X, phi_k>`` over the retained
    eigenpairs; ``kernel_norm`` is the norm of the indicator outside the
    eigenfunction span (its step-orthogonal remainder).
    """

    truncation: int
    coordinates: np.ndarray
    kernel_norm: float

    def __post_init__(self):
        _own(self, coordinates=float)


def communicability_embedding(w: StepGraphon, x: IntervalSet,
                              truncation: int) -> Embedding:
    """Spectral communicability coordinates of an interval set.

    Eigenfunctions are recovered from the symmetrized block operator as step
    functions with block values ``v_k[i] / sqrt(mu_i)``.
    """
    spec = _spectrum(w)
    k = _checked_count(truncation, "truncation", 0)
    if k > w.size:
        raise ValidationError(
            f"truncation must lie in [0, {w.size}], got {truncation}"
        )
    mu = w.partition.measures
    xm = x.block_masses(w.partition)
    kernel2 = max(0.0, x.measure - float(np.sum(xm * xm / mu)))
    return Embedding(k, _image(w, spec, xm)[:k], math.sqrt(kernel2))


def _slice_rows(w, x: float, y: float) -> list[int]:
    return [w.partition.locate(float(x)), w.partition.locate(float(y))]


def neighbourhood_distance(w, x: float, y: float) -> float:
    """L1 distance between the kernel slices W(x, .) and W(y, .)."""
    rows = w.blocks[_slice_rows(w, x, y)]
    return float(np.sum(np.abs(rows[0] - rows[1]) * w.partition.measures))


def similarity_distance(w, x: float, y: float) -> float:
    """Neighbourhood distance taken on the two-step kernel W o W; never
    exceeds the plain neighbourhood distance.

    Only the two slices needed are formed, as ``(A[[i, j]] * mu) @ A``
    (the rows of ``comp_power(w, 2)``): O(k^2) instead of O(k^3).
    """
    mu = w.partition.measures
    a = w.blocks
    rows = np.clip((a[_slice_rows(w, x, y)] * mu) @ a, 0.0, 1.0)
    return float(np.sum(np.abs(rows[0] - rows[1]) * mu))


def _row_distances(blocks: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Measure-weighted L1 distances between all block rows, one row at a
    time so no temporary beyond one rows x columns array is formed."""
    out = np.empty((blocks.shape[0], blocks.shape[0]))
    for i, row in enumerate(blocks):
        out[i] = np.sum(np.abs(row - blocks) * mu, axis=1)
    return out


def merge_twins(w: StepGraphon, tol: float = 1e-9) -> StepGraphon:
    """Merge blocks whose kernel rows agree within tol in measure-weighted
    L1 (closer than tol, or equal); measures add and merged values are
    measure-weighted row averages.

    Repeats until no two blocks are within tol of each other, so the result
    has pairwise-distinct rows at the given tolerance.  A round costs
    k^2 n + n^2 m for k distinct rows and m groups.
    """
    if not tol >= 0.0:
        raise ValidationError("merge tolerance must be nonnegative")
    current = w
    while current.size > 1:
        mu = current.partition.measures
        # equal rows (-0.0 read as 0.0) are one distinct row, measured once
        reps, row = _row_classes(current.blocks + 0.0)
        close = _row_distances(current.blocks[reps], mu) < tol
        np.fill_diagonal(close, True)
        # the groups are the components of the closeness relation: rows of
        # equal reach, numbered by first member
        walk = _Walk(close)
        heads, group = _row_classes(np.packbits(walk.levels() > 0, axis=1))
        if heads.size == current.size:
            return current
        # one-hot block -> group map E: merged value = E^T (mu B mu) E / M M^T
        onehot = np.eye(heads.size)[group[walk.classes[row]]]
        mu_new = mu @ onehot
        mass = mu[:, None] * current.blocks * mu[None, :]
        blocks_new = (onehot.T @ mass @ onehot) / np.outer(mu_new, mu_new)
        current = StepGraphon(Partition(mu_new), blocks_new)
    return current


def _subset_sums(rows: np.ndarray) -> np.ndarray:
    """Every subset sum of the m rows of a (..., m, n) stack, as a
    (..., n, 2^m) table whose column s sums the rows whose bit is set in s.

    The table is filled by doubling, as ``connectivity._table_step`` fills
    its OR table: columns s..2s - 1 are columns 0..s - 1 plus row i, so
    each sum costs one addition.  It is kept column-wise so that the sums
    the cut norm takes over each column run along contiguous memory.
    """
    m = rows.shape[-2]
    table = np.zeros(rows.shape[:-2] + rows.shape[-1:] + (1 << m,))
    s = 1
    for i in range(m):
        np.add(table[..., :s], rows[..., i, :, None], out=table[..., s:2 * s])
        s *= 2
    return table


def _cut_norms(c: np.ndarray) -> np.ndarray:
    """Exact sup_{S,T} |sum_{i in S, j in T} C_ij| over block subsets, for
    each matrix C of a (..., n, n) stack.

    The objective is bilinear in the per-block masses, so the optimum sits
    at a vertex (each block fully in or out).  The row side S is
    enumerated; with g = sum_{i in S} C_i the column side is separable, and
    the best T gives pos(S) = sum_j max(g_j, 0) or neg(S) = pos(S) - sum_j
    g_j.  S is a low subset (of the first h rows, h as large as keeps the
    stack's low table within ``_CUT_ENTRIES``) plus a high one (of the
    other rows); no temporary exceeds the budget but the high table.
    """
    n = c.shape[-1]
    flat = c.reshape(-1, n, n)
    h = min(n, max(0, (_CUT_ENTRIES // (flat.shape[0] * n)).bit_length() - 1))
    low = _subset_sums(flat[:, :h])
    high = _subset_sums(flat[:, h:])
    low_total = low.sum(axis=1)
    high_total = high.sum(axis=1)
    g = np.empty_like(low)
    best = np.zeros(flat.shape[0])
    for s in range(high.shape[-1]):
        np.add(low, high[..., s, None], out=g)
        np.maximum(g, 0.0, out=g)
        pos = g.sum(axis=1)
        neg = pos - (low_total + high_total[:, s, None])
        np.maximum(best, np.maximum(pos, neg).max(axis=1), out=best)
    return best.reshape(c.shape[:-2])


def cut_norm(w: StepGraphon) -> float:
    """Exact cut norm sup_{S,T} |integral of W over S x T| of a step
    graphon, by enumerating one side's block subsets (2^n cases)."""
    if w.size > _CUT_NORM_MAX_BLOCKS:
        raise ValidationError(
            f"exact cut norm enumerates 2^n block subsets: n = {w.size} "
            f"exceeds the limit of {_CUT_NORM_MAX_BLOCKS}; coarsen the "
            "graphon to fewer blocks first"
        )
    mu = w.partition.measures
    return float(_cut_norms(mu[:, None] * w.blocks * mu[None, :]))


def cut_distance_homogeneous(w1: StepGraphon, w2: StepGraphon) -> float:
    """Cut distance between two step graphons on equal homogeneous
    partitions, minimized over all block permutations.

    Block permutations are the measure-preserving rearrangements available
    at this resolution, so the value is an upper bound on the infimum over
    all measure-preserving bijections.
    """
    if w1.size != w2.size:
        raise ValidationError("cut distance requires equal block counts")
    if not (w1.partition.is_homogeneous() and w2.partition.is_homogeneous()):
        raise ValidationError(
            "cut distance requires homogeneous partitions on both sides"
        )
    n = w1.size
    if n > _CUT_DISTANCE_MAX_BLOCKS:
        raise ValidationError(
            f"cut distance enumerates n! permutations: n = {n} exceeds the "
            f"limit of {_CUT_DISTANCE_MAX_BLOCKS}"
        )
    mu = w1.partition.measures
    outer = mu[:, None] * mu[None, :]
    a1, a2 = w1.blocks, w2.blocks
    # as many permuted differences per stack as keep its whole subset-sum
    # table within the entry budget
    batch = max(1, _CUT_ENTRIES // (n << n))
    perms = itertools.permutations(range(n))
    best = math.inf
    for chunk in iter(lambda: list(itertools.islice(perms, batch)), []):
        p = np.array(chunk)
        diffs = a1 - a2[p[:, :, None], p[:, None, :]]
        best = min(best, float(_cut_norms(outer * diffs).min()))
    return best
