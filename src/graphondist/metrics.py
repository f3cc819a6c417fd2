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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .connectivity import _Walk, _row_classes
from .core import (
    GridGraphon,
    IntervalSet,
    Partition,
    StepGraphon,
    ValidationError,
    _readonly,
)
from .linalg import SpectralData, sym_eig

_CUT_NORM_MAX_BLOCKS = 24
_CUT_DISTANCE_MAX_BLOCKS = 8


def _symmetrized_operator(w: StepGraphon) -> np.ndarray:
    """B = D^{1/2} A D^{1/2}: symmetric matrix unitarily equivalent to the
    action of the adjacency operator on block averages."""
    root = np.sqrt(w.partition.measures)
    return root[:, None] * w.blocks * root[None, :]


def _spectrum(w: StepGraphon) -> SpectralData:
    """Eigenpairs of B, the one decomposition the communicability side
    reads."""
    if isinstance(w, GridGraphon):
        raise ValidationError("communicability metrics need a step graphon; "
                              "coarsen or load the kernel as one first")
    return sym_eig(_symmetrized_operator(w))


def _image(w: StepGraphon, spec: SpectralData,
           masses: np.ndarray) -> np.ndarray:
    """``e^{lam_k/2} <f, phi_k>`` over every eigenpair, for f with block
    masses ``masses``: B's eigenvectors applied to ``masses / sqrt(mu)``."""
    g = masses / np.sqrt(w.partition.measures)
    return np.exp(spec.eigenvalues / 2.0) * (spec.eigenvectors.T @ g)


def _distance(w: StepGraphon, spec: SpectralData, x: IntervalSet,
              y: IntervalSet) -> float:
    """The communicability distance on the eigenpairs ``spec`` of B."""
    mu = w.partition.measures
    diff = x.block_masses(w.partition) - y.block_masses(w.partition)
    step_image = _image(w, spec, diff)
    f_norm2 = x.measure + y.measure - 2.0 * x.intersection_measure(y)
    orth2 = max(0.0, f_norm2 - float(np.sum(diff * diff / mu)))
    return math.sqrt(float(step_image @ step_image) + orth2)


def communicability_distance(w: StepGraphon, x: IntervalSet,
                             y: IntervalSet) -> float:
    """|| e^{W/2} (1_X - 1_Y) ||_2, exact for step graphons.

    The difference 1_X - 1_Y is projected as a whole, so nearly equal sets
    keep their relative precision.  Empty sets are allowed and stand for
    the zero function, so the distance to the empty set measures total
    communicability mass of a set.
    """
    return _distance(w, _spectrum(w), x, y)


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
        object.__setattr__(self, "coordinates",
                           _readonly(np.asarray(self.coordinates, float)))


def _embedding(w: StepGraphon, spec: SpectralData, x: IntervalSet,
               truncation: int) -> Embedding:
    """The embedding of ``x`` on the eigenpairs ``spec`` of B."""
    k = int(truncation)
    if not (0 <= k <= w.size):
        raise ValidationError(
            f"truncation must lie in [0, {w.size}], got {truncation}"
        )
    mu = w.partition.measures
    xm = x.block_masses(w.partition)
    kernel2 = max(0.0, x.measure - float(np.sum(xm * xm / mu)))
    return Embedding(k, _image(w, spec, xm)[:k], math.sqrt(kernel2))


def communicability_embedding(w: StepGraphon, x: IntervalSet,
                              truncation: int) -> Embedding:
    """Spectral communicability coordinates of an interval set.

    Eigenfunctions are recovered from the symmetrized block operator as step
    functions with block values ``v_k[i] / sqrt(mu_i)``.
    """
    return _embedding(w, _spectrum(w), x, truncation)


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


def _masked_cut_norm(weighted: np.ndarray) -> float:
    """Exact sup_{S,T} |sum_{i in S, j in T} C_ij| over block subsets.

    The objective is bilinear in the per-block masses, so the optimum sits
    at a vertex (each block fully in or out).  One side is enumerated; the
    other side is then separable and picked per sign.
    """
    n = weighted.shape[0]
    best = 0.0
    chunk = 1 << 14
    total = 1 << n
    shifts = np.arange(n, dtype=np.uint64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        masks = ((idx[:, None] >> shifts[None, :]) & 1).astype(float)
        g = masks @ weighted
        pos = np.sum(np.where(g > 0.0, g, 0.0), axis=1)
        neg = np.sum(np.where(g < 0.0, -g, 0.0), axis=1)
        best = max(best, float(pos.max(initial=0.0)),
                   float(neg.max(initial=0.0)))
    return best


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
    return _masked_cut_norm(mu[:, None] * w.blocks * mu[None, :])


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
    best = math.inf
    a1, a2 = w1.blocks, w2.blocks
    for perm in itertools.permutations(range(n)):
        p = np.asarray(perm)
        diff = a1 - a2[np.ix_(p, p)]
        best = min(best, _masked_cut_norm(outer * diff))
    return best
