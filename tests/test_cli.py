import json
import math
import sys

import numpy as np
import pytest

from graphondist import (
    ValidationError,
    communicability_distance,
    communicability_embedding,
    distance_field,
    dump_graphon,
    lift,
    load_graphon,
    sample_graph,
)
from graphondist import linalg
from graphondist.cli import main, parse_interval_set, parse_t_grid, read_csv_matrix
from graphondist.sampler import compare_sample
from conftest import cycle_adjacency, random_step_graphon

BIPARTITE = {"kind": "builtin", "name": "bipartite"}
ER = {"kind": "builtin", "name": "er", "params": {"p": 0.3}}
BAND70 = {"kind": "builtin", "name": "circular_band",
          "params": {"tau": 1 / 7, "resolution": 70}}
DISCONNECTED = {"kind": "step", "measures": [0.5, 0.5],
                "blocks": [[1.0, 0.0], [0.0, 1.0]]}


def write_spec(tmp_path, payload, name="graphon.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def c6_file(tmp_path):
    path = tmp_path / "c6.json"
    dump_graphon(lift(cycle_adjacency(6)), path)
    return path


def test_parse_helpers():
    s = parse_interval_set("0:0.25,0.5:0.75")
    assert s.intervals == ((0.0, 0.25), (0.5, 0.75))
    grid = parse_t_grid("1e-5:1e-3:4")
    assert grid.shape == (4,)
    assert np.all(np.diff(grid) < 0)
    with pytest.raises(Exception):
        parse_interval_set("0-0.25")
    for bad in ("nan:1e-3:4", "1e-5:inf:4", "0:1e-3:4", "1e-5:1e-3:1"):
        with pytest.raises(ValidationError, match="finite positive"):
            parse_t_grid(bad)
    # equal endpoints give no slope; both slope modes read this one rule
    with pytest.raises(ValidationError, match="strictly decreasing"):
        parse_t_grid("1e-4:1e-4:3")


# ---------------------------------------------------------------------------
# varadhan subcommand
# ---------------------------------------------------------------------------

def test_cmd_varadhan_bipartite(tmp_path):
    spec = write_spec(tmp_path, BIPARTITE)
    out = tmp_path / "out"
    assert main(["varadhan", "--input", str(spec), "--out", str(out)]) == 0
    summary = json.loads((out / "varadhan_summary.json").read_text())
    assert summary["connected"] is True
    assert summary["diameter"] == 2
    assert summary["layer_sizes"]["1"] == pytest.approx(0.5)
    assert summary["layer_sizes"]["2"] == pytest.approx(0.5)

    matrix = read_csv_matrix(out / "varadhan_distance.csv")
    assert np.array_equal(matrix, np.array([[2.0, 1.0], [1.0, 2.0]]))

    pgm = (out / "varadhan_layers.pgm").read_text().splitlines()
    assert pgm[0] == "P2"
    body = [line for line in pgm[1:] if not line.startswith("#")]
    assert body[0] == "2 2"
    assert body[1] == "2"
    assert body[2].split() == ["2", "1"]


def test_cmd_varadhan_band_has_four_levels(tmp_path):
    spec = write_spec(tmp_path, BAND70)
    out = tmp_path / "band"
    assert main(["varadhan", "--input", str(spec), "--out", str(out)]) == 0
    summary = json.loads((out / "varadhan_summary.json").read_text())
    assert summary["diameter"] == 4
    matrix = read_csv_matrix(out / "varadhan_distance.csv")
    assert set(np.unique(matrix)) == {1.0, 2.0, 3.0, 4.0}


def test_cmd_varadhan_er_constant_field(tmp_path):
    spec = write_spec(tmp_path, ER)
    out = tmp_path / "er"
    assert main(["varadhan", "--input", str(spec), "--out", str(out)]) == 0
    matrix = read_csv_matrix(out / "varadhan_distance.csv")
    assert np.array_equal(matrix, np.array([[1.0]]))


def test_cmd_varadhan_accepts_explicit_grid_files(tmp_path):
    vals = np.full((8, 8), 0.25)
    spec = write_spec(tmp_path, {"kind": "grid", "resolution": 8,
                                 "values": vals.tolist()})
    out = tmp_path / "g"
    assert main(["varadhan", "--input", str(spec), "--out", str(out)]) == 0
    summary = json.loads((out / "varadhan_summary.json").read_text())
    assert summary["diameter"] == 1
    matrix = read_csv_matrix(out / "varadhan_distance.csv")
    assert matrix.shape == (8, 8)
    assert np.array_equal(matrix, np.ones((8, 8)))


def test_cmd_varadhan_disconnected_exit_code(tmp_path):
    spec = write_spec(tmp_path, DISCONNECTED)
    out = tmp_path / "out"
    assert main(["varadhan", "--input", str(spec), "--out", str(out)]) == 3
    assert main(["varadhan", "--input", str(spec), "--out", str(out),
                 "--allow-disconnected"]) == 0
    summary = json.loads((out / "varadhan_summary.json").read_text())
    assert summary["connected"] is False
    assert summary["diameter"] == "unbounded"


def test_cmd_varadhan_csv_round_trip(tmp_path):
    spec = write_spec(tmp_path, BAND70)
    out = tmp_path / "rt"
    main(["varadhan", "--input", str(spec), "--out", str(out)])
    matrix = read_csv_matrix(out / "varadhan_distance.csv")
    fld = distance_field(load_graphon(spec))
    assert np.max(np.abs(matrix - fld.matrix)) <= 1e-12


# ---------------------------------------------------------------------------
# slope subcommand
# ---------------------------------------------------------------------------

def test_cmd_slope_cycle_expectation(tmp_path):
    spec = c6_file(tmp_path)
    out = tmp_path / "out"
    code = main(["slope", "--input", str(spec), "--out", str(out),
                 "--u", "0:0.16666", "--v", "0.5:0.66666", "--expect", "3"])
    assert code == 0
    payload = json.loads((out / "slope.json").read_text())
    assert payload["estimated_distance"] == 3
    assert abs(payload["slope"] - 3) < 0.05
    assert payload["residual"] < 1e-3
    assert len(payload["t_grid"]) == 8


def test_cmd_slope_expectation_failure_exit(tmp_path):
    spec = c6_file(tmp_path)
    code = main(["slope", "--input", str(spec), "--out", str(tmp_path),
                 "--u", "0:0.16666", "--v", "0.5:0.66666", "--expect", "2"])
    assert code == 1


def test_cmd_slope_overlap_zero(tmp_path):
    spec = c6_file(tmp_path)
    code = main(["slope", "--input", str(spec), "--out", str(tmp_path),
                 "--u", "0.1:0.3", "--v", "0.1:0.3", "--expect", "0"])
    assert code == 0


def test_cmd_slope_missing_sets_is_input_error(tmp_path):
    spec = c6_file(tmp_path)
    assert main(["slope", "--input", str(spec), "--out", str(tmp_path)]) == 2


def test_cmd_slope_honors_tgrid_flag(tmp_path):
    spec = c6_file(tmp_path)
    out = tmp_path / "tg"
    code = main(["slope", "--input", str(spec), "--out", str(out),
                 "--u", "0:0.16666", "--v", "0.16666:0.5",
                 "--tgrid", "1e-5:1e-4:5", "--expect", "1"])
    assert code == 0
    payload = json.loads((out / "slope.json").read_text())
    assert len(payload["t_grid"]) == 5
    assert max(payload["t_grid"]) == pytest.approx(1e-4)


def test_cmd_connectivity_honors_epsilon(tmp_path):
    # raising the threshold above the off-diagonal value disconnects it
    faint = {"kind": "step", "measures": [0.5, 0.5],
             "blocks": [[0.0, 1e-6], [1e-6, 0.0]]}
    spec = write_spec(tmp_path, faint)
    out = tmp_path / "eps"
    assert main(["connectivity", "--input", str(spec), "--out", str(out)]) == 0
    assert json.loads((out / "connectivity.json").read_text())["connected"]
    assert main(["connectivity", "--input", str(spec), "--out", str(out),
                 "--epsilon", "1e-3"]) == 0
    payload = json.loads((out / "connectivity.json").read_text())
    assert payload["connected"] is False
    assert payload["epsilon"] == 1e-3


@pytest.mark.parametrize("mode", [
    pytest.param(["--u", "0:0.16666", "--v", "0.5:0.66666", "--expect", "3"],
                 id="set-pair"),
    pytest.param(["--transform", "exp"], id="transform"),
])
def test_cmd_slope_fits_grids_far_below_the_default(tmp_path, mode):
    # the log-domain series leave no floor on t but t > 0
    spec = c6_file(tmp_path)
    out = tmp_path / "tiny"
    assert main(["slope", "--input", str(spec), "--out", str(out),
                 "--tgrid", "1e-12:1e-9:4", *mode]) == 0
    payload = json.loads((out / "slope.json").read_text())
    if "pairs" in payload:
        assert payload["all_match"] is True
        assert payload["meta"]["options"]["t_grid"][-1] == pytest.approx(1e-12)
    else:
        assert abs(payload["slope"] - 3) < 1e-6
        assert payload["t_grid"][-1] == pytest.approx(1e-12)


def test_cmd_slope_transform_mode(tmp_path):
    spec = c6_file(tmp_path)
    out = tmp_path / "tr"
    code = main(["slope", "--input", str(spec), "--out", str(out),
                 "--transform", "resolvent", "--weights", "random",
                 "--seed", "5"])
    assert code == 0
    payload = json.loads((out / "slope.json").read_text())
    assert payload["all_match"] is True
    assert len(payload["pairs"]) == 36
    for entry in payload["pairs"]:
        assert entry["match"] is True


# ---------------------------------------------------------------------------
# metrics subcommand
# ---------------------------------------------------------------------------

def test_cmd_metrics_cutnorm_er(tmp_path):
    spec = write_spec(tmp_path, ER)
    out = tmp_path / "m"
    code = main(["metrics", "--input", str(spec), "--out", str(out),
                 "--cutnorm"])
    assert code == 0
    payload = json.loads((out / "metrics_cutnorm.json").read_text())
    assert payload["cut_norm"] == pytest.approx(0.3, abs=1e-12)


def test_cmd_metrics_communicability_and_embedding(tmp_path):
    spec = write_spec(tmp_path, BIPARTITE)
    out = tmp_path / "m"
    code = main(["metrics", "--input", str(spec), "--out", str(out),
                 "--sets", "0:0.5;0.5:1", "--embed", "2"])
    assert code == 0
    matrix = read_csv_matrix(out / "metrics_communicability.csv")
    assert matrix[0, 0] == 0.0
    assert matrix[0, 1] == pytest.approx(math.exp(-0.25), abs=1e-10)
    assert matrix[0, 1] == matrix[1, 0]
    emb = json.loads((out / "metrics_embedding.json").read_text())
    assert len(emb["embeddings"]) == 2
    assert len(emb["embeddings"][0]["coordinates"]) == 2


def test_cmd_metrics_requires_a_mode(tmp_path):
    spec = write_spec(tmp_path, ER)
    assert main(["metrics", "--input", str(spec),
                 "--out", str(tmp_path)]) == 2


def test_cmd_metrics_decomposes_once(tmp_path, monkeypatch, rng):
    # every pair's distance and every set's embedding read one sym_eig,
    # and give what the public functions give
    calls = []
    sym_eig = linalg.sym_eig

    def counting(b):
        calls.append(1)
        return sym_eig(b)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "graphondist"
                and getattr(module, "sym_eig", None) is sym_eig):
            monkeypatch.setattr(module, "sym_eig", counting)
    w = random_step_graphon(rng, 12)
    spec = write_spec(tmp_path, {"kind": "step",
                                 "measures": w.partition.measures.tolist(),
                                 "blocks": w.blocks.tolist()})
    texts = [f"{a / 10}:{a / 10 + 0.15}" for a in range(8)]
    out = tmp_path / "m"
    assert main(["metrics", "--input", str(spec), "--out", str(out),
                 "--sets", ";".join(texts), "--embed", "4"]) == 0
    assert len(calls) == 1
    sets = [parse_interval_set(t) for t in texts]
    matrix = read_csv_matrix(out / "metrics_communicability.csv")
    want = [[communicability_distance(w, x, y) for y in sets] for x in sets]
    assert np.array_equal(matrix, want)
    emb = json.loads((out / "metrics_embedding.json").read_text())
    for s, entry in zip(sets, emb["embeddings"]):
        assert entry["coordinates"] == \
            communicability_embedding(w, s, 4).coordinates.tolist()


def wrote_nothing(out) -> bool:
    return not out.exists() or not any(out.iterdir())


def test_cmd_metrics_rejects_before_writing(tmp_path):
    # a truncation beyond the block count, and a cut norm beyond its block
    # limit, are rejected after the distances are known but before any
    # file is written
    out = tmp_path / "m"
    assert main(["metrics", "--input", str(write_spec(tmp_path, BIPARTITE)),
                 "--out", str(out), "--sets", "0:0.5;0.5:1",
                 "--embed", "5"]) == 2
    assert wrote_nothing(out)
    big = write_spec(tmp_path, {"kind": "step", "measures": [1 / 25] * 25,
                                "blocks": np.full((25, 25), 0.5).tolist()},
                     "big.json")
    assert main(["metrics", "--input", str(big), "--out", str(out),
                 "--sets", "0:0.5", "--cutnorm"]) == 2
    assert wrote_nothing(out)


def test_cmd_metrics_embed_needs_sets(tmp_path):
    out = tmp_path / "m"
    assert main(["metrics", "--input", str(write_spec(tmp_path, ER)),
                 "--out", str(out), "--embed", "1", "--cutnorm"]) == 2
    assert wrote_nothing(out)


# ---------------------------------------------------------------------------
# connectivity subcommand
# ---------------------------------------------------------------------------

def test_cmd_connectivity_bipartite(tmp_path):
    spec = write_spec(tmp_path, BIPARTITE)
    out = tmp_path / "c"
    assert main(["connectivity", "--input", str(spec), "--out", str(out)]) == 0
    payload = json.loads((out / "connectivity.json").read_text())
    assert payload["connected"] is True
    assert payload["diameter"] == 2
    assert payload["exact"] is True
    assert payload["resolution"] == "block"


def test_cmd_connectivity_grid_flagged_approximate(tmp_path):
    spec = write_spec(tmp_path, BAND70)
    out = tmp_path / "c"
    assert main(["connectivity", "--input", str(spec), "--out", str(out)]) == 0
    payload = json.loads((out / "connectivity.json").read_text())
    assert payload["exact"] is False
    assert payload["resolution"] == "cell"


def test_cmd_connectivity_disconnected_reports(tmp_path):
    spec = write_spec(tmp_path, DISCONNECTED)
    out = tmp_path / "c"
    assert main(["connectivity", "--input", str(spec), "--out", str(out)]) == 0
    payload = json.loads((out / "connectivity.json").read_text())
    assert payload["connected"] is False
    assert payload["diameter"] == "unbounded"


# ---------------------------------------------------------------------------
# sample subcommand
# ---------------------------------------------------------------------------

def test_cmd_sample_bipartite(tmp_path):
    spec = write_spec(tmp_path, BIPARTITE)
    out = tmp_path / "s"
    code = main(["sample", "--input", str(spec), "--out", str(out),
                 "--n", "200", "--seed", "4"])
    assert code == 0
    report = json.loads((out / "sample_report.json").read_text())
    assert report["comparison"]["mean_agreement"] >= 0.95
    lines = [l for l in (out / "sample_edges.txt").read_text().splitlines()
             if l and not l.startswith("#")]
    assert len(lines) == report["edges"]
    u, v = lines[0].split()
    assert 0 <= int(u) < int(v) < 200


def test_cmd_sample_draws_each_trial_once(tmp_path, monkeypatch):
    from graphondist import cli, sampler

    seeds = []
    original = sampler.sample_graph

    def counting(w, n, seed):
        seeds.append(seed)
        return original(w, n, seed)

    monkeypatch.setattr(cli, "sample_graph", counting)
    monkeypatch.setattr(sampler, "sample_graph", counting)
    spec = write_spec(tmp_path, BIPARTITE)
    assert main(["sample", "--input", str(spec), "--out", str(tmp_path / "s"),
                 "--n", "30", "--trials", "3", "--seed", "5"]) == 0
    assert seeds == [5, 6, 7]


def test_cmd_sample_one_vertex_is_invalid(tmp_path):
    spec = write_spec(tmp_path, BIPARTITE)
    out = tmp_path / "s"
    # one vertex has no pair to compare: exit 2, and nothing is written
    assert main(["sample", "--input", str(spec), "--out", str(out),
                 "--n", "1"]) == 2
    assert not (out / "sample_report.json").exists()
    assert main(["sample", "--input", str(spec), "--out", str(out),
                 "--n", "2"]) == 0
    text = (out / "sample_report.json").read_text()
    report = json.loads(text, parse_constant=pytest.fail)
    assert report["comparison"]["per_trial"][0]["pairs"] == 1


def test_cmd_sample_disconnected_needs_flag(tmp_path):
    spec = write_spec(tmp_path, DISCONNECTED)
    out = tmp_path / "s"
    assert main(["sample", "--input", str(spec), "--out", str(out),
                 "--n", "50"]) == 3
    assert main(["sample", "--input", str(spec), "--out", str(out),
                 "--n", "50", "--allow-disconnected"]) == 0
    report = json.loads((out / "sample_report.json").read_text())
    assert "comparison" not in report


# a step graphon whose 0.05 block pair closes the path 0-1-2-3 into a
# 4-cycle: connected at both thresholds, with a different field at 0.1
FAINT_CYCLE = {"kind": "step", "measures": [0.25] * 4,
               "blocks": [[0.0, 0.9, 0.0, 0.05],
                          [0.9, 0.0, 0.9, 0.0],
                          [0.0, 0.9, 0.0, 0.9],
                          [0.05, 0.0, 0.9, 0.0]]}


def test_cmd_sample_compares_at_its_epsilon(tmp_path):
    spec = write_spec(tmp_path, FAINT_CYCLE)
    argv = ["sample", "--input", str(spec), "--n", "300", "--trials", "2",
            "--seed", "4"]
    assert main(argv + ["--out", str(tmp_path / "d")]) == 0
    assert main(argv + ["--out", str(tmp_path / "e"), "--epsilon", "0.1"]) == 0
    default = json.loads((tmp_path / "d" / "sample_report.json").read_text())
    at = json.loads((tmp_path / "e" / "sample_report.json").read_text())
    w = load_graphon(spec)
    assert distance_field(w, 0.1).connected
    want = compare_sample(w, sample_graph(w, 300, 4), 2, 0.1)
    assert at["comparison"] == want
    assert at["comparison"] != default["comparison"]
    # the threshold is recorded only when it is given
    assert at["meta"]["options"]["epsilon"] == 0.1
    assert "epsilon" not in default["meta"]["options"]


def test_cmd_sample_decides_connectedness_at_its_epsilon(tmp_path):
    # the 0.05 pair joins two components at the default threshold only
    spec = write_spec(tmp_path, {"kind": "step", "measures": [0.25] * 4,
                                 "blocks": [[0.0, 0.9, 0.0, 0.05],
                                            [0.9, 0.0, 0.0, 0.0],
                                            [0.0, 0.0, 0.0, 0.9],
                                            [0.05, 0.0, 0.9, 0.0]]})
    argv = ["sample", "--input", str(spec), "--n", "50",
            "--out", str(tmp_path / "s")]
    assert main(argv) == 0
    assert main(argv + ["--epsilon", "0.1"]) == 3
    assert main(argv + ["--epsilon", "0.1", "--allow-disconnected"]) == 0
    report = json.loads((tmp_path / "s" / "sample_report.json").read_text())
    assert "comparison" not in report


# each (subcommand, shared flag) pair that the subcommand never reads
UNREAD_FLAGS = [
    ("varadhan", ["--seed", "1"]), ("varadhan", ["--tolerance", "0.5"]),
    ("slope", ["--allow-disconnected"]),
    ("metrics", ["--epsilon", "0.1"]), ("metrics", ["--seed", "1"]),
    ("metrics", ["--allow-disconnected"]), ("metrics", ["--tolerance", "0.5"]),
    ("connectivity", ["--seed", "1"]),
    ("connectivity", ["--allow-disconnected"]),
    ("connectivity", ["--tolerance", "0.5"]),
    ("sample", ["--tolerance", "0.5"]),
]

# a request of each subcommand that succeeds on the 6-cycle
WORKING = {
    "varadhan": [],
    "slope": ["--transform", "exp"],
    "metrics": ["--cutnorm"],
    "connectivity": [],
    "sample": ["--n", "20"],
}


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS,
                         ids=[c + f[0] for c, f in UNREAD_FLAGS])
def test_cli_rejects_flags_a_subcommand_does_not_read(tmp_path, command, flag):
    argv = [command, "--input", str(c6_file(tmp_path)), *WORKING[command]]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out), *flag]) == 2
    assert not out.exists()
    assert main(argv + ["--out", str(out)]) == 0


SET_PAIR = ["--u", "0:0.5", "--v", "0.5:1"]
TRANSFORM = ["--transform", "exp"]

# each slope flag that only the other mode reads
OTHER_MODE_FLAGS = [
    (SET_PAIR, ["--weights", "unit"]), (SET_PAIR, ["--epsilon", "0.5"]),
    (SET_PAIR, ["--seed", "3"]),
    (TRANSFORM, ["--u", "0:0.5"]), (TRANSFORM, ["--v", "0.5:1"]),
    (TRANSFORM, ["--expect", "7"]),
]


@pytest.mark.parametrize("mode, flag", OTHER_MODE_FLAGS,
                         ids=[("transform" if m is TRANSFORM else "set-pair")
                              + f[0] for m, f in OTHER_MODE_FLAGS])
def test_cli_slope_rejects_flags_of_the_other_mode(tmp_path, capsys, mode,
                                                   flag):
    spec = write_spec(tmp_path, BIPARTITE)
    out = tmp_path / "out"
    # rejected before the input is read: a missing file is not an i/o error
    for path in (spec, tmp_path / "absent.json"):
        assert main(["slope", "--input", str(path), "--out", str(out),
                     *mode, *flag]) == 2
        assert flag[0] in capsys.readouterr().err
    assert not out.exists()
    assert main(["slope", "--input", str(spec), "--out", str(out),
                 *mode]) == 0


@pytest.mark.parametrize("spec, argv, code", [
    pytest.param(DISCONNECTED, ["varadhan"], 3, id="varadhan-disconnected"),
    pytest.param(BIPARTITE, ["slope", "--u", "0:0.5"], 2, id="slope-no-v"),
    pytest.param({"kind": "grid", "resolution": 4,
                  "values": np.ones((4, 4)).tolist()},
                 ["slope", "--transform", "exp"], 2, id="slope-grid"),
    pytest.param(BIPARTITE, ["metrics", "--sets", "0:0.5", "--embed", "5"], 2,
                 id="metrics-embed"),
    pytest.param(BIPARTITE, ["connectivity", "--epsilon", "-1"], 2,
                 id="connectivity-epsilon"),
    pytest.param(BIPARTITE, ["sample", "--n", "1"], 2, id="sample-n1"),
    pytest.param(DISCONNECTED, ["sample", "--n", "20"], 3,
                 id="sample-disconnected"),
])
def test_cli_failed_requests_create_no_output(tmp_path, spec, argv, code):
    out = tmp_path / "out"
    assert main(argv + ["--input", str(write_spec(tmp_path, spec)),
                        "--out", str(out)]) == code
    assert not out.exists()


@pytest.mark.parametrize("spec, flags", [
    pytest.param({"kind": "builtin", "name": "one_minus_max",
                  "params": {"resolution": 1e12}}, [], id="file"),
    pytest.param({"kind": "builtin", "name": "circular_band",
                  "params": {"tau": 0.1}}, ["--grid", "1000000000000"],
                 id="grid-flag"),
])
def test_cli_oversize_resolution_is_code_2(tmp_path, capsys, spec, flags):
    # the first 8 TB allocation is refused at once, so nothing is touched
    out = tmp_path / "out"
    assert main(["connectivity", "--input", str(write_spec(tmp_path, spec)),
                 "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# uniform behaviours
# ---------------------------------------------------------------------------

def test_cli_invalid_input_file_is_code_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "step", "measures": [0.5, 0.5],
                               "blocks": [[0.0, 1.0], [0.5, 0.0]]}))
    assert main(["connectivity", "--input", str(bad),
                 "--out", str(tmp_path)]) == 2


def test_cli_missing_file_is_io_error(tmp_path):
    assert main(["connectivity", "--input", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path)]) == 4


def test_cli_non_finite_json_constant_is_code_2(tmp_path):
    bad = tmp_path / "nan.json"
    bad.write_text('{"kind": "step", "measures": [0.5, 0.5], '
                   '"blocks": [[NaN, 1.0], [1.0, 0.0]]}')
    assert main(["connectivity", "--input", str(bad),
                 "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "connectivity.json").exists()


def test_cli_bad_arguments_exit_2(tmp_path):
    assert main(["unknown-command"]) == 2


def test_cli_non_finite_epsilon_is_code_2(tmp_path):
    spec = write_spec(tmp_path, BIPARTITE)
    out = tmp_path / "eps"
    assert main(["connectivity", "--input", str(spec), "--out", str(out),
                 "--epsilon", "nan"]) == 2
    assert not (out / "connectivity.json").exists()


def test_cli_non_finite_tolerance_is_code_2(tmp_path):
    spec = c6_file(tmp_path)
    assert main(["slope", "--input", str(spec), "--out", str(tmp_path / "s"),
                 "--u", "0:0.1667", "--v", "0.5:0.6667",
                 "--tolerance", "inf"]) == 2


@pytest.mark.parametrize("argv", [
    ["sample", "--seed", "-1"],
    ["slope", "--transform", "exp", "--seed", "-3"],
])
def test_cli_negative_seed_is_code_2(tmp_path, argv):
    spec = c6_file(tmp_path)
    out = tmp_path / "neg"
    assert main(argv + ["--input", str(spec), "--out", str(out)]) == 2
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("argv", [
    ["sample", "--trials", "-3", "--allow-disconnected"],
    ["sample", "--trials", "0", "--allow-disconnected"],
    ["sample", "--n", "0", "--allow-disconnected"],
    ["metrics", "--embed", "-1", "--sets", "0:0.5"],
], ids=["trials-negative", "trials-zero", "n-zero", "embed-negative"])
def test_cli_counts_below_their_floor_are_code_2(tmp_path, capsys, argv):
    # rejected at parse time whatever the graphon, disconnected or not,
    # and before the input is read: a missing file is not an i/o error
    out = tmp_path / "out"
    for spec in (write_spec(tmp_path, DISCONNECTED), c6_file(tmp_path),
                 tmp_path / "absent.json"):
        assert main(argv + ["--input", str(spec), "--out", str(out)]) == 2
        assert f"argument {argv[1]}: {argv[2]!r} is not a" in \
            capsys.readouterr().err
    assert not out.exists()


def test_cli_negative_tolerance_is_code_2(tmp_path):
    # a negative tolerance would fail every expectation check (exit 1)
    spec = c6_file(tmp_path)
    out = tmp_path / "s"
    assert main(["slope", "--input", str(spec), "--out", str(out),
                 "--u", "0:0.1667", "--v", "0.5:0.6667", "--expect", "3",
                 "--tolerance", "-1"]) == 2
    assert not (out / "slope.json").exists()


def test_cli_non_finite_expect_is_code_2(tmp_path):
    spec = c6_file(tmp_path)
    out = tmp_path / "s"
    assert main(["slope", "--input", str(spec), "--out", str(out),
                 "--u", "0:0.1667", "--v", "0.5:0.6667",
                 "--expect", "nan"]) == 2
    assert not (out / "slope.json").exists()


def test_cli_reproducible_outputs_are_byte_identical(tmp_path):
    spec = write_spec(tmp_path, BIPARTITE)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(["varadhan", "--input", str(spec), "--out", str(out),
                     "--reproducible"]) == 0
        assert main(["sample", "--input", str(spec), "--out", str(out),
                     "--n", "100", "--seed", "9", "--reproducible"]) == 0
    for name in ("varadhan_summary.json", "varadhan_distance.csv",
                 "varadhan_layers.pgm", "sample_report.json",
                 "sample_edges.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_metadata_headers_present(tmp_path):
    spec = write_spec(tmp_path, BIPARTITE)
    out = tmp_path / "meta"
    main(["varadhan", "--input", str(spec), "--out", str(out)])
    csv_text = (out / "varadhan_distance.csv").read_text()
    assert '# input_sha256' in csv_text
    assert '# version' in csv_text
    summary = json.loads((out / "varadhan_summary.json").read_text())
    assert summary["meta"]["tool"] == "graphondist"
    assert "input_sha256" in summary["meta"]
    assert "generated_at" in summary["meta"]


def test_cli_reads_only_the_public_api():
    # every library name the CLI imports, or reads off an imported library
    # module, is public (dunders such as __version__ aside)
    import ast
    from pathlib import Path

    from graphondist import cli

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "graphondist"):
            found += [a.name for a in node.names if private(a.name)]
            found += [part for part in (node.module or "").split(".")
                      if private(part)]
            bound |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.split(".")[0] == "graphondist"
                      and any(map(private, a.name.split(".")))]
            bound |= {a.asname or a.name.split(".")[0] for a in node.names
                      if a.name.split(".")[0] == "graphondist"}
    found += [node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in bound and private(node.attr)]
    assert bound and not found, found
