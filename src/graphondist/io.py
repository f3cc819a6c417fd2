"""Graphon description files (JSON) and built-in graphon families.

Three kinds are accepted::

    {"kind": "step", "measures": [...], "blocks": [[...]]}
    {"kind": "grid", "resolution": n, "values": [[...]]}
    {"kind": "builtin", "name": "...", "params": {...}}

Matrices are row-major and must be symmetric within 1e-9 on load (they are
re-symmetrized afterwards); built-in names are ``bipartite``, ``er``,
``circular_band`` and ``one_minus_max``.  Serialization writes full-precision
floats, so a dump/load round trip reproduces values exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import (
    GridGraphon,
    Partition,
    StepGraphon,
    ValidationError,
    _as_real,
    _check_symmetric,
    _checked_count,
    _readonly,
    _real,
    _square_matrix,
    lift,
)

LOAD_SYM_TOL = 1e-9
BUILTIN_NAMES = ("bipartite", "er", "circular_band", "one_minus_max")


def bipartite_graphon() -> StepGraphon:
    """Two equal communities joined completely, nothing inside either."""
    return lift(np.array([[0.0, 1.0], [1.0, 0.0]]))


def er_graphon(p: float) -> StepGraphon:
    """Constant kernel of density p (Erdos-Renyi limit)."""
    p = _real(p, "'p'")
    return StepGraphon(Partition(np.array([1.0])), np.array([[p]]))


def circular_band_graphon(tau: float, resolution: int) -> GridGraphon:
    """Indicator of circular distance at most tau, sampled at cell centers.

    Cell-center sampling keeps the support band exactly ``floor(tau * n)``
    cells wide on each side, which the distance layers rely on.
    """
    tau = _real(tau, "'tau'")
    if not (0.0 < tau <= 0.5):
        raise ValidationError("circular band needs 0 < tau <= 1/2")
    n = _checked_count(resolution)
    # circular gap between cell centers i and j is min(d, n - d)/n with
    # d = (j - i) mod n; dividing the integer gap once avoids rounding fuzz
    # at the band edge.  The matrix is circulant, so it is read off one row
    # of offsets: row i is the window [n - i, 2n - i) of the doubled row,
    # and the constructor's private copy is its only n x n array.
    d = np.arange(n)
    band = (np.minimum(d, n - d) / n <= tau).astype(float)
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([band, band])[1:], n)
    return GridGraphon(n, windows[::-1])


def one_minus_max_graphon(resolution: int) -> GridGraphon:
    """W(x,y) = 1 - max(x,y), sampled at cell centers."""
    n = _checked_count(resolution)
    centers = (np.arange(n) + 0.5) / n
    values = np.maximum(centers[:, None], centers[None, :])
    return GridGraphon(n, _readonly(np.subtract(1.0, values, out=values)))


def builtin_graphon(name: str, params: dict | None = None,
                    resolution: int = 512):
    """Construct a named builtin; grid builtins honor a ``resolution``
    entry in params, falling back to the given default."""
    if params is not None and not isinstance(params, dict):
        raise ValidationError(f"'params' must be an object, got {params!r}")
    params = params or {}
    res = _checked_count(params.get("resolution", resolution))
    if name == "bipartite":
        return bipartite_graphon()
    if name == "er":
        if "p" not in params:
            raise ValidationError("builtin 'er' needs params {'p': ...}")
        return er_graphon(params["p"])
    if name == "circular_band":
        if "tau" not in params:
            raise ValidationError(
                "builtin 'circular_band' needs params {'tau': ...}"
            )
        return circular_band_graphon(params["tau"], res)
    if name == "one_minus_max":
        return one_minus_max_graphon(res)
    raise ValidationError(
        f"unknown builtin {name!r}; choose one of {', '.join(BUILTIN_NAMES)}"
    )


def _load_matrix(rows, what: str) -> np.ndarray:
    try:
        a = _as_real(rows)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed {what}: {exc}") from exc
    a = _square_matrix(a, what)
    _check_symmetric(a, LOAD_SYM_TOL, what, scale=1.0)
    return _readonly((a + a.T) / 2.0)


def graphon_from_dict(data: dict, grid_resolution: int = 512):
    """A graphon from its parsed description (see the module docstring)."""
    if not isinstance(data, dict):
        raise ValidationError(
            "a graphon description must be a JSON object, got "
            f"{type(data).__name__}")
    kind = data.get("kind")
    if kind == "step":
        if "measures" not in data or "blocks" not in data:
            raise ValidationError("step graphon needs 'measures' and 'blocks'")
        return StepGraphon(Partition(data["measures"]),
                           _load_matrix(data["blocks"], "'blocks'"))
    if kind == "grid":
        if "resolution" not in data or "values" not in data:
            raise ValidationError("grid graphon needs 'resolution' and 'values'")
        return GridGraphon(_checked_count(data["resolution"]),
                           _load_matrix(data["values"], "'values'"))
    if kind == "builtin":
        if "name" not in data:
            raise ValidationError("builtin graphon needs a 'name'")
        return builtin_graphon(data["name"], data.get("params"),
                               grid_resolution)
    raise ValidationError(
        f"unknown graphon kind {kind!r}; expected step, grid or builtin"
    )


def _reject_constant(name: str):
    raise ValidationError(f"non-finite JSON constant {name} in graphon file")


def load_graphon(source, grid_resolution: int = 512):
    """Load a graphon from an already-parsed dict or a JSON file path."""
    if isinstance(source, dict):
        return graphon_from_dict(source, grid_resolution)
    text = Path(source).read_text(encoding="utf-8")
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid graphon JSON in {source}: {exc}") from exc
    return graphon_from_dict(data, grid_resolution)


def graphon_to_dict(w) -> dict:
    if isinstance(w, GridGraphon):
        return {"kind": "grid",
                "resolution": w.resolution,
                "values": w.values.tolist()}
    if isinstance(w, StepGraphon):
        return {"kind": "step",
                "measures": w.partition.measures.tolist(),
                "blocks": w.blocks.tolist()}
    raise ValidationError(f"cannot serialize {type(w).__name__}")


def dump_graphon(w, path) -> None:
    Path(path).write_text(json.dumps(graphon_to_dict(w)), encoding="utf-8")
