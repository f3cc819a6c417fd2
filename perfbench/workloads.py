"""The three benchmark workloads: inputs made from a seed, the fixed list
of operations one pass runs, and the check of every answer.

``prepare`` is the timed set-up: it writes the input files and builds the
graphon objects through the library.  ``make_ops`` is untimed: it computes
the independent references (see refs.py) and returns the op list.

An op is one checked call into the public API or one ``cli.main``
invocation.  Ops of one pass share a dict, so an op can use the graphon an
earlier op of the same pass loaded.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import refs


@dataclass
class Op:
    kind: str
    run: Callable[[dict], Any]
    check: Callable[[Any, dict], bool]
    # documented defect of the library: an exception this predicate accepts
    # is a known failure, counted apart from unexpected failures
    known: Callable[[BaseException], bool] | None = None
    # distance-field cells the answer depends on (varadhan.useful_cell_ratio)
    cells_read: int = 0
    # output directory of a cli.main op (cli.bytes_written)
    out_dir: Path | None = None


@dataclass
class Prepared:
    workdir: Path
    inputs: dict = field(default_factory=dict)
    graphons: dict = field(default_factory=dict)


def _interior_points(rng, cells, breakpoints):
    """Points strictly inside the given cells, away from cell edges, so the
    cell a point falls in is never a rounding question."""
    cells = np.asarray(cells)
    lo, hi = breakpoints[cells], breakpoints[cells + 1]
    return lo + rng.uniform(0.25, 0.75, size=cells.shape) * (hi - lo)


def _interval_set(rng, breakpoints, max_pieces=3, max_len=None, lo=0,
                  hi=None):
    """Random union of 1..max_pieces intervals with ends inside cells
    lo..hi-1."""
    hi = breakpoints.shape[0] - 1 if hi is None else hi
    max_len = max_len or max(1, (hi - lo) // 8)
    pieces = []
    for _ in range(int(rng.integers(1, max_pieces + 1))):
        start = int(rng.integers(lo, hi - max_len))
        length = int(rng.integers(1, max_len + 1))
        a = float(_interior_points(rng, [start], breakpoints)[0])
        b = float(_interior_points(rng, [start + length], breakpoints)[0])
        pieces.append((a, b))
    return refs.merge_intervals(pieces)


def _disjoint_sets(rng, breakpoints):
    """Two interval sets on opposite sides of a random cell boundary, so
    no set query is answered by the overlap shortcut and every one costs
    the same kind of work whatever the seed."""
    n = breakpoints.shape[0] - 1
    cut = int(rng.integers(n // 3, 2 * n // 3))
    return (_interval_set(rng, breakpoints, hi=cut),
            _interval_set(rng, breakpoints, lo=cut))


def _cell_breakpoints(n: int) -> np.ndarray:
    return np.arange(n + 1) / n


def _step_breakpoints(measures: np.ndarray) -> np.ndarray:
    bp = np.concatenate(([0.0], np.cumsum(measures)))
    bp[-1] = 1.0
    return bp


def _random_measures(rng, n: int) -> np.ndarray:
    mu = rng.uniform(0.5, 1.5, n)
    return mu / mu.sum()


def _random_kernel(rng, n: int, density: float = 1.0) -> np.ndarray:
    vals = rng.random((n, n)) * (rng.random((n, n)) < density)
    upper = np.triu(vals)
    return upper + np.triu(upper, 1).T


def _connected_kernel(rng, n: int, density: float) -> np.ndarray:
    while True:
        blocks = _random_kernel(rng, n, density)
        if refs.is_connected(blocks > 0.0):
            return blocks


def _sparse_connected_kernel(rng, n: int, degree: float) -> np.ndarray:
    """Random recursive tree plus random chords (about `degree` neighbours
    per block) and some self-loops, with weights in [0.2, 1]: connected by
    construction, so generating it costs the same for every seed."""
    pattern = np.triu(rng.random((n, n)) < (degree - 2.0) / n, 1)
    order = rng.permutation(n)
    for i in range(1, n):
        a, b = order[i], order[int(rng.integers(0, i))]
        pattern[min(a, b), max(a, b)] = True
    pattern = pattern | pattern.T
    np.fill_diagonal(pattern, rng.random(n) < 0.2)
    weights = np.triu(rng.uniform(0.2, 1.0, (n, n)))
    weights = weights + np.triu(weights, 1).T
    return np.where(pattern, weights, 0.0)


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _builtin_band(tau_num, tau_den, n):
    return {"kind": "builtin", "name": "circular_band",
            "params": {"tau": tau_num / tau_den, "resolution": n}}


def _store(key, fn):
    """Op body that keeps its answer for later ops of the same pass."""
    def run(st):
        st[key] = fn(st)
        return st[key]
    return run


def _cli(gd_cli, argv):
    return lambda st: gd_cli.main([str(a) for a in argv])


def _equal(ref):
    return lambda res, st: bool(np.array_equal(np.asarray(res, float), ref))


def _close(ref, tol):
    return lambda res, st: abs(float(res) - ref) <= tol * max(1.0, abs(ref))


def _sample_report_ok(out: Path, values: np.ndarray, n: int,
                      floor: float) -> bool:
    report = json.loads((out / "sample_report.json").read_text())
    p, sigma = refs.edge_density_sigma(values, n)
    density = report["edges"] / (n * (n - 1) / 2)
    edge_lines = [ln for ln in (out / "sample_edges.txt").read_text().splitlines()
                  if ln and not ln.startswith("#")]
    return (report["vertices"] == n
            and len(edge_lines) == report["edges"]
            and abs(density - p) <= SAMPLE_SIGMAS * sigma
            and report["comparison"]["mean_agreement_within_one"] >= floor)


def _varadhan_outputs_ok(out: Path, ref: np.ndarray, rows) -> bool:
    summary = json.loads((out / "varadhan_summary.json").read_text())
    n = ref.shape[0]
    diam = int(ref.max())
    sizes_ok = all(
        abs(summary["layer_sizes"][str(lv)] - np.count_nonzero(ref == lv) / n**2)
        <= 1e-9 for lv in range(1, diam + 1))
    pgm = (out / "varadhan_layers.pgm").read_text().splitlines()
    pgm_head = [ln for ln in pgm[1:] if not ln.startswith("#")][:2]
    csv = [ln for ln in (out / "varadhan_distance.csv").read_text().splitlines()
           if ln and not ln.startswith("#") and not ln.startswith("index,")]
    rows_ok = len(csv) == n and all(
        np.array_equal(np.array(csv[i].split(",")[1:], dtype=float), ref[i])
        for i in rows)
    return (summary["connected"] and summary["diameter"] == diam
            and summary["blocks"] == n and sizes_ok and rows_ok
            and pgm[0] == "P2" and pgm_head == [f"{n} {n}", str(diam)])


# edge density of a sampled graph must lie within this many standard
# deviations of the kernel mean, and the sampled-vs-Varadhan agreement
# within one hop above this floor (band tau=1/7 on 512 cells, n = 2000,
# reads 1.0 at the seed commit)
SAMPLE_SIGMAS = 6.0
SAMPLE_AGREEMENT_FLOOR = 0.95


# ---------------------------------------------------------------------------
# field: all-pairs answers on grids, every graphon reloaded on every pass
# ---------------------------------------------------------------------------

FIELD_BANDS = (("band7_1024", 1, 7, 1024), ("band7_2048", 1, 7, 2048),
               ("band64_1024", 1, 64, 1024))
FIELD_RES = 1024
SAMPLE_N = 2000


def field_prepare(gd, seed: int, workdir: Path) -> Prepared:
    rng = np.random.default_rng([seed, 1])
    prep = Prepared(workdir)
    files = {}
    for name, num, den, n in FIELD_BANDS:
        files[name] = _write_json(workdir / f"{name}.json",
                                  _builtin_band(num, den, n))
    ring = rng.permutation(64)
    prep.inputs["c64_ring"] = ring
    files["c64"] = _write_json(workdir / "c64.json", {
        "kind": "step", "measures": [1.0 / 64] * 64,
        "blocks": refs.cycle_adjacency(64, ring).tolist()})
    files["omm_1024"] = _write_json(workdir / "omm_1024.json", {
        "kind": "builtin", "name": "one_minus_max",
        "params": {"resolution": FIELD_RES}})
    files["band7_512"] = _write_json(workdir / "band7_512.json",
                                     _builtin_band(1, 7, 512))
    prep.inputs["files"] = files
    prep.inputs["sample_seed"] = int(rng.integers(0, 2**31))
    prep.inputs["csv_rows"] = rng.choice(FIELD_RES, 32, replace=False)
    for name, path in files.items():
        prep.graphons[name] = gd.load_graphon(path)
    return prep


def field_ops(gd, gd_cli, prep: Prepared) -> list[Op]:
    files = prep.inputs["files"]
    ring = prep.inputs["c64_ring"]
    cells = np.arange(FIELD_RES) // (FIELD_RES // 64)
    # values and distances of each grid; distances kept as small integers
    # so the references add little to the process's peak memory
    grids = {name: (refs.band_values(num, den, n),
                    refs.band_distances(num, den, n))
             for name, num, den, n in FIELD_BANDS}
    grids["c64"] = (refs.cycle_adjacency(64, ring)[np.ix_(cells, cells)],
                    refs.rendered_cycle_distances(ring, FIELD_RES))
    centers = (np.arange(FIELD_RES) + 0.5) / FIELD_RES
    grids["omm_1024"] = (1.0 - np.maximum(centers[:, None], centers[None, :]),
                         np.ones((FIELD_RES, FIELD_RES), dtype=np.int8))
    prep.inputs["support_row_classes"] = sum(
        refs.support_row_classes(values, 1e-9) for values, _ in grids.values())

    ops = []
    for name in ("band7_1024", "band7_2048", "band64_1024", "c64", "omm_1024"):
        values, dist = grids[name]
        n = dist.shape[0]
        key = "w:" + name
        if name == "c64":
            load = lambda st, p=files[name]: gd.to_grid(gd.load_graphon(p),
                                                        FIELD_RES)
        else:
            load = lambda st, p=files[name]: gd.load_graphon(p)

        # the reload belongs to the first op on each graphon, so every op
        # of this workload builds a whole field
        def reload_and_field(st, load=load, key=key):
            st[key] = load(st)
            return gd.distance_field(st[key])

        ops.append(Op("varadhan.distance_field+reload", reload_and_field,
                      lambda res, st, k=key, v=values, d=dist: bool(
                          st[k].resolution == v.shape[0]
                          and np.max(np.abs(st[k].values - v)) <= 1e-12
                          and res.connected and np.array_equal(res.matrix, d)),
                      cells_read=n * n))
        diam = int(dist.max())
        ops.append(Op("connectivity.diameter",
                      lambda st, k=key: gd.diameter(st[k]),
                      lambda res, st, d=diam: res == d, cells_read=n * n))
        ops.append(Op("connectivity.is_connected",
                      lambda st, k=key: gd.is_connected(st[k]),
                      lambda res, st: res is True))

    out = prep.workdir / "cli_varadhan"
    ops.append(Op("cli.varadhan",
                  _cli(gd_cli, ["varadhan", "--input", files["band7_1024"],
                                "--out", out, "--reproducible"]),
                  lambda res, st, o=out: res == 0 and _varadhan_outputs_ok(
                      o, grids["band7_1024"][1], prep.inputs["csv_rows"]),
                  cells_read=FIELD_RES ** 2, out_dir=out))
    out = prep.workdir / "cli_sample"
    ops.append(Op("cli.sample",
                  _cli(gd_cli, ["sample", "--input", files["band7_512"],
                                "--out", out, "--n", SAMPLE_N, "--seed",
                                prep.inputs["sample_seed"], "--reproducible"]),
                  lambda res, st, o=out: res == 0 and _sample_report_ok(
                      o, refs.band_values(1, 7, 512), SAMPLE_N,
                      SAMPLE_AGREEMENT_FLOOR),
                  cells_read=512 ** 2, out_dir=out))
    return ops


# ---------------------------------------------------------------------------
# query: many small answers from four long-lived graphons
# ---------------------------------------------------------------------------

QUERY_RES = 1024
QUERY_ARRAY = 64
# ops per pass on each graphon.  The mix sets where the percentiles fall:
# 6 ops under 100 ms (slices, the 200-block graphon, a band7 similarity),
# 8 band7 whole-field queries (~130 ms) and 3 32-layer whole-field queries
# (~800 ms).  The median op lands inside the band7 group and the 90th
# percentile inside the 32-layer group, not on an edge between two groups.
QUERY_MIX = {
    "band7": {"point": 2, "points": 2, "set": 3, "diameter": 1,
              "similarity": 1, "neighbourhood": 1},
    "band64": {"point": 0, "points": 0, "set": 1, "diameter": 1,
               "similarity": 0, "neighbourhood": 1},
    "c64grid": {"point": 0, "points": 1, "set": 0, "diameter": 0,
                "similarity": 0, "neighbourhood": 0},
    "step200": {"point": 1, "points": 0, "set": 1, "diameter": 0,
                "similarity": 0, "neighbourhood": 1},
}


def query_prepare(gd, seed: int, workdir: Path) -> Prepared:
    rng = np.random.default_rng([seed, 2])
    prep = Prepared(workdir)
    ring = rng.permutation(64)
    mu = _random_measures(rng, 200)
    blocks = _sparse_connected_kernel(rng, 200, 4.0)
    prep.inputs.update(ring=ring, mu200=mu, blocks200=blocks,
                       op_rng=np.random.default_rng([seed, 3]))
    prep.graphons["band7"] = gd.circular_band_graphon(1 / 7, QUERY_RES)
    prep.graphons["band64"] = gd.circular_band_graphon(1 / 64, QUERY_RES)
    prep.graphons["c64grid"] = gd.to_grid(
        gd.lift(refs.cycle_adjacency(64, ring)), QUERY_RES)
    prep.graphons["step200"] = gd.step(gd.Partition(mu), blocks)
    return prep


def query_ops(gd, gd_cli, prep: Prepared) -> list[Op]:
    rng = prep.inputs["op_rng"]
    ring = prep.inputs["ring"]
    cells = np.arange(QUERY_RES) // (QUERY_RES // 64)
    cell_mu = np.full(QUERY_RES, 1.0 / QUERY_RES)
    cell_bp = _cell_breakpoints(QUERY_RES)
    blocks = prep.inputs["blocks200"]
    mu = prep.inputs["mu200"]
    tables = {  # values, measures, breakpoints, walk distances
        "band7": (refs.band_values(1, 7, QUERY_RES).astype(float), cell_mu,
                  cell_bp, refs.band_distances(1, 7, QUERY_RES)),
        "band64": (refs.band_values(1, 64, QUERY_RES).astype(float), cell_mu,
                   cell_bp, refs.band_distances(1, 64, QUERY_RES)),
        "c64grid": (refs.cycle_adjacency(64, ring)[np.ix_(cells, cells)],
                    cell_mu, cell_bp,
                    refs.rendered_cycle_distances(ring, QUERY_RES)),
        "step200": (blocks, mu, _step_breakpoints(mu),
                    refs.walk_distances(blocks > 1e-12)),
    }
    eps = {"band7": 1e-9, "band64": 1e-9, "c64grid": 1e-9, "step200": 1e-12}
    prep.inputs["support_row_classes"] = sum(
        refs.support_row_classes(t[0], eps[name]) for name, t in tables.items())

    ops = []
    for name, mix in QUERY_MIX.items():
        w = prep.graphons[name]
        values, measures, bp, dist = tables[name]
        n = dist.shape[0]
        two_step = np.clip((values * measures[None, :]) @ values, 0.0, 1.0)
        for _ in range(mix["point"]):
            ci, cj = rng.integers(0, n, 2)
            x, y = _interior_points(rng, np.array([ci, cj]), bp)
            ref = float(refs.point_distance(dist, ci, cj, x, y))
            ops.append(Op("varadhan.varadhan_distance/point",
                          lambda st, w=w, x=x, y=y: gd.varadhan_distance(w, x, y),
                          _close(ref, 0.0), cells_read=int(x != y)))
        for _ in range(mix["points"]):
            ci = rng.integers(0, n, QUERY_ARRAY)
            cj = rng.integers(0, n, QUERY_ARRAY)
            x = _interior_points(rng, ci, bp)
            y = _interior_points(rng, cj, bp)
            ref = refs.point_distance(dist, ci, cj, x, y)
            ops.append(Op("varadhan.varadhan_distance/array",
                          lambda st, w=w, x=x, y=y: gd.varadhan_distance(w, x, y),
                          _equal(ref), cells_read=int(np.count_nonzero(x != y))))
        for _ in range(mix["set"]):
            u, v = _disjoint_sets(rng, bp)
            ref = refs.set_distance(dist, bp, u, v)
            read = int(refs.touched_cells(u, bp).sum()
                       * refs.touched_cells(v, bp).sum())
            ops.append(Op("varadhan.set_distance",
                          lambda st, w=w, u=u, v=v: gd.set_distance(
                              w, gd.IntervalSet(u), gd.IntervalSet(v)),
                          _close(ref, 0.0), cells_read=read))
        for _ in range(mix["diameter"]):
            ops.append(Op("connectivity.diameter",
                          lambda st, w=w: gd.diameter(w),
                          _close(float(dist.max()), 0.0), cells_read=n * n))
        for func, count, table in (
                ("similarity_distance", mix["similarity"], two_step),
                ("neighbourhood_distance", mix["neighbourhood"], values)):
            for _ in range(count):
                ci, cj = rng.integers(0, n, 2)
                x, y = _interior_points(rng, np.array([ci, cj]), bp)
                ref = refs.slice_distance(table, measures, ci, cj)
                ops.append(Op("metrics." + func,
                              lambda st, f=func, w=w, x=x, y=y:
                              getattr(gd, f)(w, float(x), float(y)),
                              _close(ref, 1e-9)))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# ---------------------------------------------------------------------------
# step: exact step-graphon analytics and slope verification
# ---------------------------------------------------------------------------

GENERAL_SLOPE_CYCLES = (16, 24)
HEAT_SLOPE_CYCLES = (8, 16, 24)
# analytic_transform truncates once terms fall below 1e-16 of the largest,
# which zeroes every entry at walk distance >= 7 on the default t-grid
TRANSFORM_KNOWN_FROM = 7
HEAT_FAR_DISTANCE = 63
SPECTRAL_KERNEL_SEED = 2024


def step_prepare(gd, seed: int, workdir: Path) -> Prepared:
    rng = np.random.default_rng([seed, 4])
    # the spectral kernels do not depend on the seed: the number of Jacobi
    # sweeps, and so the cost, varies by about a third between random
    # kernels of one size; the seed picks the sets instead
    fixed = np.random.default_rng(SPECTRAL_KERNEL_SEED)
    prep = Prepared(workdir)
    g, inp = prep.graphons, prep.inputs
    for n in (40, 80, 120):
        mu = _random_measures(fixed, n)
        inp[f"comm{n}"] = (mu, _random_kernel(fixed, n))
        g[f"comm{n}"] = gd.step(gd.Partition(mu), inp[f"comm{n}"][1])
        bp = _step_breakpoints(mu)
        inp[f"comm{n}_sets"] = (_interval_set(rng, bp, 3, n // 4),
                                _interval_set(rng, bp, 3, n // 4))
    for n in (16, 18):
        mu = _random_measures(rng, n)
        inp[f"cut{n}"] = (mu, _random_kernel(rng, n))
        g[f"cut{n}"] = gd.step(gd.Partition(mu), inp[f"cut{n}"][1])
    a6 = _random_kernel(rng, 6)
    perm6 = rng.permutation(6)
    g["cutd6"] = (gd.lift(a6), gd.lift(a6[np.ix_(perm6, perm6)]))
    base = _random_kernel(rng, 64)
    labels = rng.permutation(np.repeat(np.arange(64), 4))
    inp["twins"] = (base, labels)
    g["twins256"] = gd.lift(base[np.ix_(labels, labels)])
    for k in set(HEAT_SLOPE_CYCLES) | set(GENERAL_SLOPE_CYCLES) | {12}:
        inp[f"ring{k}"] = rng.permutation(k)
        inp[f"cycle{k}"] = refs.cycle_adjacency(k, inp[f"ring{k}"])
    for k in HEAT_SLOPE_CYCLES:
        g[f"cycle{k}"] = gd.lift(inp[f"cycle{k}"])
    g["band128_512"] = gd.circular_band_graphon(1 / 128, 512)
    inp["far_start"] = int(rng.integers(0, 512 - 260))
    mu24 = _random_measures(rng, 24)
    # dense enough that every walk distance stays below 7, where the
    # transform-slope defect starts (the general-slope ops above show it)
    inp["step24"] = (mu24, _connected_kernel(rng, 24, 0.5))
    inp["files"] = {
        "cycle12": _write_json(workdir / "cycle12.json", {
            "kind": "step", "measures": [1.0 / 12] * 12,
            "blocks": inp["cycle12"].tolist()}),
        "step24": _write_json(workdir / "step24.json", {
            "kind": "step", "measures": mu24.tolist(),
            "blocks": inp["step24"][1].tolist()}),
    }
    inp["cli_seed"] = int(rng.integers(0, 2**31))
    inp["op_rng"] = np.random.default_rng([seed, 5])
    return prep


def _block_masses(intervals, bp):
    lo, hi = bp[:-1], bp[1:]
    out = np.zeros(lo.shape[0])
    for a, b in intervals:
        out += np.maximum(0.0, np.minimum(hi, b) - np.maximum(lo, a))
    return out


def _measure(intervals) -> float:
    return float(sum(b - a for a, b in intervals))


def _communicability_ref(mu, blocks, x, y) -> float:
    """||e^{W/2}(1_X - 1_Y)|| through numpy's eigh, not the library's
    scaling-and-squaring expm."""
    bp = _step_breakpoints(mu)
    xm, ym = _block_masses(x, bp), _block_masses(y, bp)
    root = np.sqrt(mu)
    lam, vec = np.linalg.eigh(root[:, None] * blocks * root[None, :])
    coeffs = (xm - ym) / mu
    image = vec @ (np.exp(lam / 2.0) * (vec.T @ (root * coeffs)))
    inter = sum(max(0.0, min(b, d) - max(a, c)) for a, b in x for c, d in y)
    f2 = _measure(x) + _measure(y) - 2.0 * inter
    orth2 = max(0.0, f2 - float(np.sum(mu * coeffs * coeffs)))
    return math.sqrt(float(image @ image) + orth2)


def _slope_rounds_to(ref):
    return lambda res, st: int(round(res.slope)) == ref


def _slope_json_ok(out: Path, expected: np.ndarray) -> bool:
    report = json.loads((out / "slope.json").read_text())
    got = np.zeros_like(expected)
    for pair in report["pairs"]:
        i, j = pair["pair"]
        got[i, j] = pair["estimated"]
    return (report["all_match"] and len(report["pairs"]) == expected.size
            and np.array_equal(got, expected))


def step_ops(gd, gd_cli, prep: Prepared) -> list[Op]:
    g, inp = prep.graphons, prep.inputs
    rng = inp["op_rng"]
    domain_error = lambda exc: isinstance(exc, gd.MathDomainError)
    ops = []

    for n in (40, 80):
        mu, blocks = inp[f"comm{n}"]
        x, _ = inp[f"comm{n}_sets"]
        w = g[f"comm{n}"]
        kernel = math.sqrt(max(0.0, _measure(x) - float(np.sum(
            _block_masses(x, _step_breakpoints(mu)) ** 2 / mu))))
        ops.append(Op("metrics.communicability_embedding",
                      _store(f"emb{n}", lambda st, w=w, x=x, n=n:
                             gd.communicability_embedding(
                                 w, gd.IntervalSet(x), n)),
                      lambda res, st, k=kernel, n=n: bool(
                          res.coordinates.shape == (n,)
                          and abs(res.kernel_norm - k) <= 1e-9)))
        ref = _communicability_ref(mu, blocks, x, ())
        # README identity: |emb(X) - emb(Y)|^2 + orth^2 = d(X, Y)^2, Y empty
        ops.append(Op("metrics.communicability_distance",
                      lambda st, w=w, x=x: gd.communicability_distance(
                          w, gd.IntervalSet(x), gd.IntervalSet.empty()),
                      lambda res, st, r=ref, n=n: bool(
                          abs(res - r) <= 1e-9 * max(1.0, r)
                          and abs(float(np.sum(st[f"emb{n}"].coordinates ** 2))
                                  + st[f"emb{n}"].kernel_norm ** 2 - res ** 2)
                          <= 1e-9 * max(1.0, res ** 2))))
    mu, blocks = inp["comm120"]
    x, y = inp["comm120_sets"]
    ops.append(Op("metrics.communicability_distance",
                  lambda st: gd.communicability_distance(
                      g["comm120"], gd.IntervalSet(x), gd.IntervalSet(y)),
                  _close(_communicability_ref(mu, blocks, x, y), 1e-9)))

    for n in (16, 18):
        mu, blocks = inp[f"cut{n}"]
        # a nonnegative kernel attains its cut norm on the full square
        ops.append(Op("metrics.cut_norm",
                      lambda st, w=g[f"cut{n}"]: gd.cut_norm(w),
                      _close(float(mu @ blocks @ mu), 1e-12)))
    ops.append(Op("metrics.cut_distance_homogeneous",
                  lambda st: gd.cut_distance_homogeneous(*g["cutd6"]),
                  _close(0.0, 1e-12)))

    base, labels = inp["twins"]
    first = labels[np.sort(np.unique(labels, return_index=True)[1])]
    ops.append(Op("metrics.merge_twins",
                  lambda st: gd.merge_twins(g["twins256"]),
                  lambda res, st, b=base[np.ix_(first, first)]: bool(
                      res.size == 64
                      and np.allclose(res.partition.measures, 1.0 / 64,
                                      rtol=0, atol=1e-12)
                      and np.allclose(res.blocks, b, rtol=0, atol=1e-12))))

    for k in HEAT_SLOPE_CYCLES:
        ring = inp[f"ring{k}"]
        block_at = np.argsort(ring)
        for d in range(1, k // 2 + 1):
            start = int(rng.integers(0, k))
            a, b = block_at[start], block_at[(start + d) % k]
            u = (((a + 0.25) / k, (a + 0.75) / k),)
            v = (((b + 0.25) / k, (b + 0.75) / k),)
            ops.append(Op("varadhan.varadhan_slope/cycle",
                          lambda st, w=g[f"cycle{k}"], u=u, v=v:
                          gd.varadhan_slope(w, gd.IntervalSet(u),
                                            gd.IntervalSet(v)),
                          _slope_rounds_to(d)))

    c = inp["far_start"]
    u = ((c + 0.5) / 512, (c + 3.5) / 512),
    v = ((c + 255.5) / 512, (c + 258.5) / 512),
    far = int(refs.set_distance(refs.band_distances(1, 128, 512),
                                _cell_breakpoints(512), u, v))
    if far != HEAT_FAR_DISTANCE:
        raise RuntimeError(f"far heat pair sits at {far}, not "
                           f"{HEAT_FAR_DISTANCE}")
    ops.append(Op("varadhan.varadhan_slope/band_far",
                  lambda st: gd.varadhan_slope(g["band128_512"],
                                               gd.IntervalSet(u),
                                               gd.IntervalSet(v)),
                  _slope_rounds_to(far), known=domain_error))

    for k in GENERAL_SLOPE_CYCLES:
        adj = inp[f"cycle{k}"]
        ring = inp[f"ring{k}"]
        zeros = np.zeros(k)
        for i in range(k):
            for j in range(k):
                d = int(refs.cycle_distance(ring[i], ring[j], k))
                ops.append(Op("varadhan.general_varadhan_slope",
                              lambda st, a=adj, z=zeros, i=i, j=j:
                              gd.general_varadhan_slope(a, a, z, gd.EXPONENTIAL,
                                                        i, j),
                              _slope_rounds_to(d),
                              known=domain_error if d >= TRANSFORM_KNOWN_FROM
                              else None))

    for name, adj in (("cycle12", inp["cycle12"]),
                      ("step24", inp["step24"][1] > 1e-12)):
        expected = refs.walk_distances(adj)
        np.fill_diagonal(expected, 0.0)
        out = prep.workdir / f"cli_slope_{name}"
        ops.append(Op("cli.slope",
                      _cli(gd_cli, ["slope", "--input", inp["files"][name],
                                    "--out", out, "--transform", "exp",
                                    "--seed", inp["cli_seed"],
                                    "--reproducible"]),
                      lambda res, st, o=out, e=expected: res == 0
                      and _slope_json_ok(o, e),
                      cells_read=adj.shape[0] ** 2, out_dir=out))
    prep.inputs["support_row_classes"] = sum(
        refs.support_row_classes(a, 1e-12) for a in
        (inp["cycle12"], inp["step24"][1]))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable
    make_ops: Callable
    # a run keeps going until it has this many passes, even past --seconds;
    # each op's latency is its mean over the passes
    min_passes: int = 3


WORKLOADS = {
    "field": Workload(
        "field", "all-pairs fields on grids, nothing reused: BFS, field "
        "construction, CSV output and the sampler do the work",
        field_prepare, field_ops),
    "query": Workload(
        "query", "point, set and slice queries on four long-lived graphons; "
        "each query rebuilds a whole field today",
        # passes take about 3 s; ten of them average over more of the
        # host's minute-long swings in CPU speed than 20 s would
        query_prepare, query_ops, min_passes=10),
    "step": Workload(
        "step", "step-graphon spectra, cut norms, twin merging and heat and "
        "transform slopes, including the known slope failures",
        step_prepare, step_ops),
}
