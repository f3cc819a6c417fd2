import json

import numpy as np
import pytest

from graphondist import (
    GridGraphon,
    ValidationError,
    circular_band_graphon,
    dump_graphon,
    graphon_from_dict,
    graphon_to_dict,
    load_graphon,
    one_minus_max_graphon,
)
from conftest import random_step_graphon


def test_step_round_trip_exact(tmp_path, rng):
    w = random_step_graphon(rng, 5)
    path = tmp_path / "w.json"
    dump_graphon(w, path)
    back = load_graphon(path)
    assert np.array_equal(back.blocks, w.blocks)
    assert np.array_equal(back.partition.measures, w.partition.measures)


def test_grid_round_trip_exact(tmp_path, rng):
    vals = rng.random((6, 6))
    g = GridGraphon(6, (vals + vals.T) / 2)
    path = tmp_path / "g.json"
    dump_graphon(g, path)
    back = load_graphon(path)
    assert isinstance(back, GridGraphon)
    assert np.array_equal(back.values, g.values)


def test_builtin_dispatch():
    w = graphon_from_dict({"kind": "builtin", "name": "bipartite"})
    assert w.size == 2
    er = graphon_from_dict({"kind": "builtin", "name": "er",
                            "params": {"p": 0.3}})
    assert er.blocks[0, 0] == 0.3
    band = graphon_from_dict({"kind": "builtin", "name": "circular_band",
                              "params": {"tau": 0.25, "resolution": 32}})
    assert band.resolution == 32
    omm = graphon_from_dict({"kind": "builtin", "name": "one_minus_max"},
                            grid_resolution=16)
    assert omm.resolution == 16


def test_circular_band_matches_pairwise_gaps():
    from graphondist import circular_band_graphon

    for n in (1, 2, 7, 64, 100, 1024):
        idx = np.arange(n)
        gap = np.abs(idx[:, None] - idx[None, :])
        delta = np.minimum(gap, n - gap) / n
        for tau in (1e-9, 1 / 64, 1 / 7, 0.25, 0.3, 0.5):
            values = circular_band_graphon(tau, n).values
            assert np.array_equal(values, (delta <= tau).astype(float))
            assert values.flags.c_contiguous and not values.flags.writeable


def test_builtin_errors():
    with pytest.raises(ValidationError):
        graphon_from_dict({"kind": "builtin", "name": "nope"})
    with pytest.raises(ValidationError):
        graphon_from_dict({"kind": "builtin", "name": "er"})
    with pytest.raises(ValidationError):
        graphon_from_dict({"kind": "builtin", "name": "circular_band"})


def test_load_rejects_asymmetric_blocks(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "kind": "step", "measures": [0.5, 0.5],
        "blocks": [[0.0, 1.0], [0.5, 0.0]],
    }))
    with pytest.raises(ValidationError, match="symmetric"):
        load_graphon(path)


def test_load_symmetrizes_tiny_asymmetry(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "kind": "step", "measures": [0.5, 0.5],
        "blocks": [[0.0, 0.5 + 4e-10], [0.5 - 4e-10, 0.0]],
    }))
    w = load_graphon(path)
    assert w.blocks[0, 1] == w.blocks[1, 0]


def test_load_rejects_bad_json_and_kind(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError):
        load_graphon(path)
    with pytest.raises(ValidationError):
        graphon_from_dict({"kind": "mystery"})
    with pytest.raises(ValidationError):
        graphon_to_dict("not a graphon")


GRID_2 = [[0.5, 0.5], [0.5, 0.5]]

MALFORMED = {
    "builtin resolution": {"kind": "builtin", "name": "circular_band",
                           "params": {"tau": 0.25, "resolution": "abc"}},
    "grid resolution": {"kind": "grid", "resolution": "abc",
                        "values": GRID_2},
    "p": {"kind": "builtin", "name": "er", "params": {"p": "x"}},
    "tau": {"kind": "builtin", "name": "circular_band",
            "params": {"tau": [0.25]}},
    "params": {"kind": "builtin", "name": "er", "params": [1, 2]},
    "measures": {"kind": "step", "measures": "abc", "blocks": GRID_2},
    "ragged blocks": {"kind": "step", "measures": [0.5, 0.5],
                      "blocks": [[0.5, 0.5], [0.5]]},
    "non-numeric block": {"kind": "step", "measures": [0.5, 0.5],
                          "blocks": [[0.5, "x"], ["x", 0.5]]},
    "fractional grid resolution": {"kind": "grid", "resolution": 1.7,
                                   "values": [[0.5]]},
    "fractional builtin resolution": {
        "kind": "builtin", "name": "one_minus_max",
        "params": {"resolution": 1.7}},
    "negative builtin resolution": {
        "kind": "builtin", "name": "circular_band",
        "params": {"tau": 0.1, "resolution": -3}},
    "zero grid resolution": {"kind": "grid", "resolution": 0,
                             "values": [[0.5]]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_fields_are_validation_errors(case):
    with pytest.raises(ValidationError):
        graphon_from_dict(MALFORMED[case])


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_cli_exits_2_on_malformed_fields(tmp_path, capsys, case):
    from graphondist.cli import main

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED[case]))
    assert main(["connectivity", "--input", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "input error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("build", [
    lambda: circular_band_graphon(0.1, -3),
    lambda: circular_band_graphon(0.1, 2.5),
    lambda: one_minus_max_graphon(0),
    lambda: one_minus_max_graphon(2.5),
], ids=["band-negative", "band-fractional", "max-zero", "max-fractional"])
def test_grid_builtins_check_their_resolution(build):
    with pytest.raises(ValidationError, match="positive integer"):
        build()


def test_integral_resolutions_still_load():
    grid = graphon_from_dict({"kind": "grid", "resolution": 2.0,
                              "values": GRID_2})
    assert grid.resolution == 2
    band = graphon_from_dict({"kind": "builtin", "name": "circular_band",
                              "params": {"tau": 0.25, "resolution": 16}})
    assert band.resolution == 16
