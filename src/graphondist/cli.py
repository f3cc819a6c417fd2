"""Batch command line front end.

Subcommands: ``varadhan`` (distance matrix CSV + layer heatmap PGM + summary
JSON, every row looked up from the ``DistanceField``'s k x k class levels
at the classes of its cells, one string per level, so no n x n float
matrix is built), ``slope`` (log-log slope experiments, set-pair or
matrix-transform mode), ``metrics`` (communicability matrix / embedding /
cut norm), ``connectivity`` and ``sample``.  Each subcommand accepts only
the flags it reads, and each slope mode only its own.  ``main`` loads the graphon once; the subcommand
computes everything and returns its exit code and its writes, and only
then is ``--out`` created and written, so a rejected request writes
nothing.  Exit codes: 0 ok, 1 expectation check failed (in slope transform
mode: some pair misses its distance or has no defined slope; slope.json is
still written), 2 invalid input (a usage error, a bad graphon or option
value, or a request too large to allocate), 3 mathematical domain error
(including a disconnected graphon without --allow-disconnected), 4 I/O
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .connectivity import (
    block_distance_matrix,
    default_epsilon,
    diameter,
    is_connected,
    support_graph,
)
from .core import GridGraphon, IntervalSet, MathDomainError, ValidationError
from .io import load_graphon
from .linalg import EXPONENTIAL, RESOLVENT
from .metrics import (
    communicability_distance,
    communicability_embedding,
    cut_norm,
)
from .sampler import RNG_ALGORITHM, compare_sample, sample_graph
from .varadhan import (
    default_t_grid,
    distance_field,
    transform_slopes,
    varadhan_slope,
)


def parse_interval_set(text: str) -> IntervalSet:
    """Parse 'a:b,c:d' into an interval set."""
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            lo, hi = chunk.split(":")
            pairs.append((float(lo), float(hi)))
        except ValueError as exc:
            raise ValidationError(
                f"bad interval {chunk!r}; expected 'a:b'"
            ) from exc
    return IntervalSet(tuple(pairs))


def parse_t_grid(text: str) -> np.ndarray:
    """Parse 'a:b:k' into the ``default_t_grid`` of k log-spaced t values
    between a and b (either order), which checks them."""
    try:
        lo_s, hi_s, k_s = text.split(":")
        lo, hi, k = float(lo_s), float(hi_s), int(k_s)
    except ValueError as exc:
        raise ValidationError(f"bad t grid {text!r}; expected 'a:b:k'") from exc
    return default_t_grid(lo, hi, k)


def _flag_type(convert, ok, rule: str):
    """An argparse type: the converted text if ``ok`` accepts it, else a
    usage error (exit 2) that names ``rule``."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")
    return parse


_FINITE = _flag_type(float, math.isfinite, "a finite number")
_NONNEGATIVE = _flag_type(int, lambda v: v >= 0, "a nonnegative integer")
_POSITIVE = _flag_type(int, lambda v: v >= 1, "a positive integer")

#: flags that several subcommands read; each adds only the ones it reads
_SHARED_FLAGS = {
    "--epsilon": {"type": _FINITE, "help": "support threshold override"},
    "--seed": {"type": _NONNEGATIVE, "default": 0},
    "--allow-disconnected": {"action": "store_true"},
    "--tolerance": {"type": _flag_type(float, lambda v: 0.0 <= v < math.inf,
                                       "a finite nonnegative number"),
                    "default": 0.1},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphondist",
        description="Distances on graphons: Varadhan (shortest-path), "
                    "communicability, neighbourhood/similarity and cut "
                    "metrics, plus W-random sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, *shared: str):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--input", required=True, help="graphon JSON file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--grid", default=512, type=_POSITIVE,
                       help="grid resolution for builtin grid graphons")
        p.add_argument("--reproducible", action="store_true",
                       help="suppress timestamps for byte-identical output")
        for flag in shared:
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        return p

    command("varadhan", "distance field, layers, summary",
            "--epsilon", "--allow-disconnected")

    p = command("slope", "log-log slope experiments",
                "--epsilon", "--seed", "--tolerance")
    p.add_argument("--u", help="interval set 'a:b,c:d'")
    p.add_argument("--v", help="interval set 'a:b,c:d'")
    p.add_argument("--tgrid", default=None, help="'a:b:k' log-spaced t grid")
    p.add_argument("--expect", type=_FINITE, default=None)
    p.add_argument("--transform", choices=["exp", "resolvent"], default=None,
                   help="matrix-transform mode over all block pairs")
    p.add_argument("--weights", choices=["unit", "random"], default=None,
                   help="transform weights (default random)")
    # None until given, so the mode check below sees every given flag
    p.set_defaults(seed=None)

    p = command("metrics", "communicability / embedding / cut norm")
    p.add_argument("--sets", help="semicolon-separated interval sets")
    p.add_argument("--embed", type=_NONNEGATIVE, default=None,
                   help="embedding truncation (needs --sets)")
    p.add_argument("--cutnorm", action="store_true")

    command("connectivity", "connectedness and diameter", "--epsilon")

    p = command("sample", "W-random graph and agreement report",
                "--epsilon", "--seed", "--allow-disconnected")
    p.add_argument("--n", type=_POSITIVE, default=500)
    p.add_argument("--trials", type=_POSITIVE, default=1)
    return parser


#: the slope flags that only one mode reads
_TRANSFORM_FLAGS = ("--weights", "--seed", "--epsilon")
_SET_PAIR_FLAGS = ("--u", "--v", "--expect")


def _config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """The parsed options with the paths, the t-grid and the interval sets
    parsed in place; a slope flag that the other mode reads is rejected
    here, before the input is read."""
    args.input, args.out = Path(args.input), Path(args.out)
    if args.command == "slope":
        transform = args.transform is not None
        unread = [flag for flag in (_SET_PAIR_FLAGS if transform
                                    else _TRANSFORM_FLAGS)
                  if getattr(args, flag[2:]) is not None]
        if unread:
            mode = "transform" if transform else "set-pair"
            raise ValidationError(f"slope {mode} mode does not read "
                                  + ", ".join(unread))
        if transform:
            args.weights = args.weights or "random"
            args.seed = args.seed or 0
        args.tgrid = parse_t_grid(args.tgrid) if args.tgrid else \
            default_t_grid()
        args.set_u = parse_interval_set(args.u) if args.u else None
        args.set_v = parse_interval_set(args.v) if args.v else None
    elif args.command == "metrics":
        args.sets = [parse_interval_set(s)
                     for s in (args.sets or "").split(";") if s.strip()]
        if args.embed is not None and not args.sets:
            raise ValidationError("--embed needs --sets")
    return args


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _metadata(cfg: argparse.Namespace, options: dict) -> dict:
    meta = {
        "tool": "graphondist",
        "version": __version__,
        "input": str(cfg.input),
        "input_sha256": hashlib.sha256(cfg.input.read_bytes()).hexdigest(),
        "options": options,
    }
    if not cfg.reproducible:
        meta["generated_at"] = datetime.now(timezone.utc).isoformat()
    return meta


def _meta_lines(meta: dict) -> list[str]:
    return [f"# {key}: {json.dumps(meta[key], sort_keys=True)}"
            for key in sorted(meta)]


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _axis_labels(w) -> list[str]:
    if isinstance(w, GridGraphon):
        return [repr((i + 0.5) / w.resolution) for i in range(w.resolution)]
    return [f"block_{i}" for i in range(w.size)]


def _write_lines(path: Path, *parts) -> None:
    """A text output: every line of every part, each ending in a newline."""
    with path.open("w", encoding="utf-8") as f:
        for line in itertools.chain(*parts):
            f.write(line + "\n")


def _write_csv(path: Path, rows, labels: list[str], meta: dict) -> None:
    """The metadata lines, a header of labels, then each label with its
    row of formatted cells."""
    _write_lines(path, _meta_lines(meta), [",".join(["index"] + labels)],
                 (label + "," + ",".join(cells)
                  for label, cells in zip(labels, rows)))


def read_csv_matrix(path) -> np.ndarray:
    """Read back a matrix CSV written by this tool (metadata lines skipped)."""
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#") or line.startswith("index,"):
            continue
        cells = line.split(",")[1:]
        rows.append([math.inf if c == "inf" else float(c) for c in cells])
    return np.asarray(rows)


def _write_pgm(path: Path, rows, shape: tuple[int, int], maxval: int,
               meta: dict) -> None:
    """A plain PGM of ``shape`` (rows, columns) from formatted pixel rows."""
    _write_lines(path, ["P2"], _meta_lines(meta),
                 [f"{shape[1]} {shape[0]}", str(max(1, maxval))],
                 (" ".join(cells) for cells in rows))


def _level_rows(fld, table: list[str]):
    """The cell rows of a distance field as lists of strings, level m
    written ``table[m]`` (``table[0]`` for unreachable): row i looks up
    ``levels[classes[i]][classes]``."""
    table = np.array(table, dtype=object)
    for c in fld.classes:
        yield table[fld.levels[c][fld.classes]].tolist()


def _write_edges(path: Path, graph, meta: dict) -> None:
    """One 'u v' line per edge u < v, in row-major order, after the
    metadata lines."""
    adj = graph.adjacency
    names = np.array([str(i) for i in range(graph.n)], dtype=object)
    with path.open("w", encoding="utf-8") as f:
        for line in _meta_lines(meta):
            f.write(line + "\n")
        for u in range(graph.n):
            cols = np.flatnonzero(adj[u, u + 1:]) + (u + 1)
            if cols.size:
                head = names[u] + " "
                f.write(head + ("\n" + head).join(names[cols]) + "\n")


# ---------------------------------------------------------------------------
# subcommands: (options, graphon) -> (exit code, [(writer, file, *args)])
# ---------------------------------------------------------------------------

def _require_connected(connected: bool, cfg: argparse.Namespace) -> None:
    if not connected and not cfg.allow_disconnected:
        raise MathDomainError("graphon is disconnected; rerun with "
                              "--allow-disconnected")


def _layer_sizes(w, fld) -> dict:
    """Each layer's product measure, summed in the float field's row-major
    order (bit-stable); its n x n temporaries are freed on return."""
    mass = np.outer(w.partition.measures, w.partition.measures)
    cells = fld.levels[np.ix_(fld.classes, fld.classes)]
    return {str(m): float(np.sum(mass[cells == m]))
            for m in range(1, fld.layer_count + 1)}


def cmd_varadhan(cfg: argparse.Namespace, w) -> tuple[int, list]:
    fld = distance_field(w, cfg.epsilon)
    _require_connected(fld.connected, cfg)
    meta = _metadata(cfg, {"epsilon": cfg.epsilon, "grid": cfg.grid,
                           "kind": fld.kind})
    top = fld.layer_count
    maxval = top + (0 if fld.connected else 1)
    summary = {
        "meta": meta,
        "connected": fld.connected,
        "diameter": top if fld.connected else "unbounded",
        "layer_count": top,
        "layer_sizes": _layer_sizes(w, fld),
        "blocks": int(fld.size),
    }
    levels = range(1, top + 1)
    return 0, [
        (_write_csv, "varadhan_distance.csv",
         _level_rows(fld, ["inf"] + [repr(float(m)) for m in levels]),
         _axis_labels(w), meta),
        (_write_pgm, "varadhan_layers.pgm",
         _level_rows(fld, [str(maxval)] + [str(m) for m in levels]),
         (fld.size, fld.size), maxval, meta),
        (_write_json, "varadhan_summary.json", summary),
    ]


def _slope_transform_mode(cfg: argparse.Namespace, w) -> tuple[int, list]:
    if isinstance(w, GridGraphon):
        raise ValidationError("transform mode requires a step graphon")
    support = support_graph(w, cfg.epsilon)
    pattern = support.matrix.astype(float)
    n = pattern.shape[0]
    rng = np.random.default_rng(cfg.seed)
    if cfg.weights == "random":
        raw = rng.uniform(0.5, 1.5, size=(n, n))
        weights = pattern * (raw + raw.T) / 2.0
        diag = rng.uniform(-1.0, 1.0, size=n)
    else:
        weights = pattern
        diag = np.zeros(n)
    expected = block_distance_matrix(support).copy()
    np.fill_diagonal(expected, 0.0)
    family = EXPONENTIAL if cfg.transform == "exp" else RESOLVENT
    table = transform_slopes(pattern, weights, diag, family, cfg.tgrid)
    slopes, residuals = table.slope.tolist(), table.residual.tolist()
    terms, stops = table.series_terms.tolist(), table.series_stop.tolist()
    first_zero = table.first_zero.tolist()
    pairs = []
    for (i, j), want in np.ndenumerate(expected):
        entry = {"pair": [i, j],
                 "expected": float(want) if math.isfinite(want)
                 else "unreachable",
                 "series_terms": terms[i][j], "series_stop": stops[i][j]}
        if math.isnan(first_zero[i][j]):
            slope = slopes[i][j]
            entry.update(slope=slope, residual=residuals[i][j],
                         estimated=int(round(slope)),
                         match=bool(math.isfinite(want) and
                                    abs(slope - want) <= cfg.tolerance))
        else:
            try:  # the library's reason for a pair without a slope
                table.estimate(i, j)
            except MathDomainError as exc:
                entry.update(slope=None, residual=None, estimated=None,
                             match=False, reason=str(exc))
        pairs.append(entry)
    all_ok = all(entry["match"] for entry in pairs)
    meta = _metadata(cfg, {"transform": cfg.transform, "weights": cfg.weights,
                           "seed": cfg.seed, "tolerance": cfg.tolerance,
                           "t_grid": cfg.tgrid.tolist()})
    payload = {"meta": meta, "mode": "transform", "family": cfg.transform,
               "pairs": pairs, "all_match": all_ok, "rng": RNG_ALGORITHM}
    return (0 if all_ok else 1), [(_write_json, "slope.json", payload)]


def cmd_slope(cfg: argparse.Namespace, w) -> tuple[int, list]:
    if cfg.transform:
        return _slope_transform_mode(cfg, w)
    if cfg.set_u is None or cfg.set_v is None:
        raise ValidationError("slope needs --u and --v (or --transform)")
    est = varadhan_slope(w, cfg.set_u, cfg.set_v, cfg.tgrid)
    pair = {"u": [list(p) for p in cfg.set_u.intervals],
            "v": [list(p) for p in cfg.set_v.intervals]}
    payload = {
        "meta": _metadata(cfg, {**pair, "tolerance": cfg.tolerance,
                                "expect": cfg.expect}),
        "pair": pair,
        "t_grid": est.t_grid.tolist(),
        "log_values": est.log_values.tolist(),
        "slope": est.slope,
        "residual": est.residual,
        "estimated_distance": est.estimated_distance,
        "expected": cfg.expect,
        "series_terms": est.series_terms,
        "series_stop": est.series_stop,
    }
    missed = (cfg.expect is not None
              and abs(est.slope - cfg.expect) > cfg.tolerance)
    if missed:
        print(f"slope {est.slope:.4f} misses expected {cfg.expect} "
              f"by more than {cfg.tolerance}", file=sys.stderr)
    return int(missed), [(_write_json, "slope.json", payload)]


def cmd_metrics(cfg: argparse.Namespace, w) -> tuple[int, list]:
    if not cfg.sets and not cfg.cutnorm:
        raise ValidationError("metrics needs --sets and/or --cutnorm")
    writes = []
    if cfg.sets:
        sets = cfg.sets
        meta = _metadata(cfg, {"sets": [[list(p) for p in s.intervals]
                                        for s in sets]})
        m = np.zeros((len(sets), len(sets)))
        for i, si in enumerate(sets):
            for j in range(i, len(sets)):
                m[i, j] = m[j, i] = communicability_distance(w, si, sets[j])
        labels = [f"set_{i}" for i in range(len(sets))]
        rows = [[repr(v) for v in row] for row in m.tolist()]
        writes.append((_write_csv, "metrics_communicability.csv", rows,
                       labels, meta))
        if cfg.embed is not None:
            embs = [communicability_embedding(w, s, cfg.embed)
                    for s in sets]
            payload = {"meta": meta, "embeddings": [
                {"set": [list(p) for p in s.intervals],
                 "coordinates": e.coordinates.tolist(),
                 "kernel_norm": e.kernel_norm, "truncation": e.truncation}
                for s, e in zip(sets, embs)]}
            writes.append((_write_json, "metrics_embedding.json", payload))
    if cfg.cutnorm:
        if isinstance(w, GridGraphon):
            raise ValidationError("cut norm requires a step graphon")
        cut = {"meta": _metadata(cfg, {"cutnorm": True}),
               "cut_norm": cut_norm(w), "blocks": w.size}
        writes.append((_write_json, "metrics_cutnorm.json", cut))
    return 0, writes


def cmd_connectivity(cfg: argparse.Namespace, w) -> tuple[int, list]:
    eps = cfg.epsilon if cfg.epsilon is not None else default_epsilon(w)
    diam = diameter(w, eps)
    connected = math.isfinite(diam)
    meta = _metadata(cfg, {"epsilon": eps})
    grid = isinstance(w, GridGraphon)
    payload = {
        "meta": meta,
        "connected": connected,
        "diameter": diam if math.isfinite(diam) else "unbounded",
        "epsilon": eps,
        "resolution": "cell" if grid else "block",
        # block-level decisions are exact for step graphons; the cell
        # support graph of a grid is a discretization
        "exact": not grid,
    }
    return 0, [(_write_json, "connectivity.json", payload)]


def cmd_sample(cfg: argparse.Namespace, w) -> tuple[int, list]:
    # connectedness keeps the class levels at --epsilon, which the
    # comparison's field reads
    connected = is_connected(w, cfg.epsilon)
    _require_connected(connected, cfg)
    graph = sample_graph(w, cfg.n, cfg.seed)
    options = {"n": cfg.n, "trials": cfg.trials, "seed": cfg.seed,
               "rng": RNG_ALGORITHM}
    if cfg.epsilon is not None:
        options["epsilon"] = cfg.epsilon
    meta = _metadata(cfg, options)
    payload = {"meta": meta, "edges": graph.edge_count,
               "vertices": graph.n}
    if connected:
        payload["comparison"] = compare_sample(w, graph, cfg.trials,
                                               cfg.epsilon)
    return 0, [(_write_edges, "sample_edges.txt", graph, meta),
               (_write_json, "sample_report.json", payload)]


_DISPATCH = {
    "varadhan": cmd_varadhan,
    "slope": cmd_slope,
    "metrics": cmd_metrics,
    "connectivity": cmd_connectivity,
    "sample": cmd_sample,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = _config_from_args(args)
        code, writes = _DISPATCH[cfg.command](
            cfg, load_graphon(cfg.input, cfg.grid))
        # created only now, so a rejected request writes nothing
        cfg.out.mkdir(parents=True, exist_ok=True)
        for write, name, *parts in writes:
            write(cfg.out / name, *parts)
        return code
    except (ValidationError, MemoryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except MathDomainError as exc:
        print(f"math domain error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
