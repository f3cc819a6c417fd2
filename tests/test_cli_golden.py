"""Byte-level golden outputs of the CLI under ``--reproducible``.

The digests pin the exact files written by ``varadhan``, ``connectivity``
and ``sample`` for one step and one grid description, so a refactor that
changes any output byte fails here; a 600-cell band and a 600-vertex
sample pin outputs of walks on hundreds of classes, several words per
packed row.  Inputs are passed as relative paths
from a fixed working directory, which keeps ``meta.input`` stable.  Slope
and metrics outputs are not pinned: their last float digits depend on the
BLAS build.
"""

import hashlib
import json

import pytest

from graphondist.cli import main

STEP = {"kind": "step", "measures": [0.1, 0.2, 0.3, 0.4],
        "blocks": [[0.9, 0.4, 0.0, 0.0],
                   [0.4, 0.0, 0.7, 0.0],
                   [0.0, 0.7, 0.0, 0.25],
                   [0.0, 0.0, 0.25, 0.6]]}
GRID = {"kind": "grid", "resolution": 8,
        "values": [[0.75 if min(abs(i - j), 8 - abs(i - j)) <= 1 else 0.0
                    for j in range(8)] for i in range(8)]}

BAND = {"kind": "builtin", "name": "circular_band",
        "params": {"tau": 0.05, "resolution": 600}}

COMMANDS = {
    "varadhan": ["varadhan"],
    "connectivity": ["connectivity"],
    "sample": ["sample", "--n", "40", "--trials", "2", "--seed", "3"],
}

GOLDEN = {
    ("step", "connectivity"): {
        "connectivity.json":
            "bd67a89c8f1dab6bc244e7fb4fde4bff169a84f68ad88e1ef92f35c1c171ecb8",
    },
    ("step", "sample"): {
        "sample_edges.txt":
            "bf255921aba838d48c474426b4648d5913b351f5aa38277257d06579967cd531",
        "sample_report.json":
            "fb15abea14d09a87cbcee97da29304b0fdf1a3f3b7fac42f9839b90bce3bc06f",
    },
    ("step", "varadhan"): {
        "varadhan_distance.csv":
            "5f4061f208676b4fdf723f3f5c26c9d433f12684b2839431559eb0b6066d5bf6",
        "varadhan_layers.pgm":
            "ebc388bfb53ffef66da9b73cd1460a2abfc4e470db07cc1eac7d3ee4bb6e9f67",
        "varadhan_summary.json":
            "a5ea3510d5af8d45612739fca903fb7ce1d356926439df3f028ecc5610b9db15",
    },
    ("grid", "connectivity"): {
        "connectivity.json":
            "49045b7cd53b13b8b128b3fbb40b70afc2e520f1ae5e30ed177a34a8374cdd6e",
    },
    ("grid", "sample"): {
        "sample_edges.txt":
            "80801f59e52055cb23c5dc9cb22216fea418c4408bac14e7767f056846b3aaae",
        "sample_report.json":
            "c09db8d355041de2a65f7f2cd5a9d2f29fb535927345c30c7ee53dbd63d4adc6",
    },
    ("grid", "varadhan"): {
        "varadhan_distance.csv":
            "00e1b4a5b5b474f1949ec6f9e887f5e01ed02d7231fce1b196800c42c0de8f21",
        "varadhan_layers.pgm":
            "aabd1b70bf19e9352b8bf221eef09d0189ea8f7bae645e5f6e4a6dc104fe27cf",
        "varadhan_summary.json":
            "786ef184af2d2f7ed0850baf7a092e9a0489cf8bd142cfaa8c81fc54cf489ddd",
    },
}


@pytest.mark.parametrize("kind", ["step", "grid"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_reproducible_outputs_match_golden_digests(tmp_path, monkeypatch,
                                                   kind, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{kind}.json").write_text(
        json.dumps(STEP if kind == "step" else GRID))
    argv = COMMANDS[command] + ["--input", f"{kind}.json", "--out", "out",
                                "--reproducible"]
    assert main(argv) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted((tmp_path / "out").iterdir())}
    assert digests == GOLDEN[kind, command]


PANEL_COMMANDS = {
    "varadhan": ["varadhan"],
    "sample": ["sample", "--n", "600", "--trials", "2", "--seed", "3"],
}

PANEL_GOLDEN = {
    "sample": {
        "sample_edges.txt":
            "648d513ec71ecd31c3a2e6585ef3cd1a7555afa3ba067ab7b437aaef409c2b69",
        "sample_report.json":
            "100efd6c595c82cfa5758146f35bfd9590bddfbae1ab350b18b8585140ecb154",
    },
    "varadhan": {
        "varadhan_distance.csv":
            "b90ed9e2abc01612b72b27d0784c38f09c366f1c950aa293e2224dd943fc1ca0",
        "varadhan_layers.pgm":
            "02944cc2ecc80bc1b8790663c3b470e102144d47ff8c29e23cc6cd87d69c4b2b",
        "varadhan_summary.json":
            "52a0407cf94c8462dbceedf4154720231203d0597b2b293fdcda8fe4ac593b8d",
    },
}


@pytest.mark.parametrize("command", sorted(PANEL_COMMANDS))
def test_outputs_across_row_panels_match_golden_digests(tmp_path, monkeypatch,
                                                        command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "band.json").write_text(json.dumps(BAND))
    argv = PANEL_COMMANDS[command] + ["--input", "band.json", "--out", "out",
                                      "--reproducible"]
    assert main(argv) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted((tmp_path / "out").iterdir())}
    assert digests == PANEL_GOLDEN[command]


# a disconnected step graphon: blocks 0-1 and 2-3 are two pieces and block
# 4 carries no edge at all, so the field holds unreachable entries (CSV
# "inf", PGM maxval = layer count + 1) and sample writes no comparison
SPLIT = {"kind": "step", "measures": [0.1, 0.2, 0.3, 0.25, 0.15],
         "blocks": [[0.9, 0.4, 0.0, 0.0, 0.0],
                    [0.4, 0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.5, 0.0],
                    [0.0, 0.0, 0.5, 0.3, 0.0],
                    [0.0, 0.0, 0.0, 0.0, 0.0]]}


def _twin_value(i: int, j: int) -> float:
    """A path of four 3-cell blocks with self-loops on the end blocks:
    the cells of a block are support twins, with values that differ."""
    a, b = i // 3, j // 3
    if abs(a - b) == 1 or (a == b and a in (0, 3)):
        return 0.5 + 0.01 * (i + j)
    return 0.0


# a grid whose 12 cells fall into 4 support classes, so every output row
# is spread from the class field
TWINS = {"kind": "grid", "resolution": 12,
         "values": [[_twin_value(i, j) for j in range(12)]
                    for i in range(12)]}

EXPANSION_COMMANDS = {
    "varadhan": ["varadhan", "--allow-disconnected"],
    "sample": ["sample", "--n", "60", "--trials", "2", "--seed", "5",
               "--allow-disconnected"],
}

EXPANSION_GOLDEN = {
    ("split", "sample"): {
        "sample_edges.txt":
            "dbafe21b5832234deb7588a4ec4a8d1ca7c42b6b181084ef16b2e572849e4e9f",
        "sample_report.json":
            "abe0b55059b950de302aaedba3c13b0233e8dc302b04d189da278bf1b3650af5",
    },
    ("split", "varadhan"): {
        "varadhan_distance.csv":
            "43640e4ea7916247bc709e46aacdd23e22ee16c775c156efb385624306b61c67",
        "varadhan_layers.pgm":
            "bc84aa061670ac540f4b69999ef553b518e55444a2d2e2c7db539a9122d9241d",
        "varadhan_summary.json":
            "bd17bbc2ad97d4e8a1dfb00b84e3884ec01bb46f221052632584ea93859a0bd5",
    },
    ("twins", "sample"): {
        "sample_edges.txt":
            "1bf75070a917a9e22913d7760ad3b6b67d44c8e62ff4f9bbb77b2e1410cf0285",
        "sample_report.json":
            "2bfe06c298253b2ab1dd9efcb183e02be8994e67239fbda1a0529fb28ee6841d",
    },
    ("twins", "varadhan"): {
        "varadhan_distance.csv":
            "c7629e6f4873923c331cd7b9a0cbfb82465cca379c99163f68e4eadeb490c00a",
        "varadhan_layers.pgm":
            "25175c9614e49cef8a074b253dddcd110cdd14709d93918bd4acae36678c4fa8",
        "varadhan_summary.json":
            "f030dbc2985c3571271f1e222313d921e5ba1482b2cb9bcc2a349a1a86f81403",
    },
}


@pytest.mark.parametrize("kind", ["split", "twins"])
@pytest.mark.parametrize("command", sorted(EXPANSION_COMMANDS))
def test_unreachable_and_twin_outputs_match_golden_digests(
        tmp_path, monkeypatch, kind, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{kind}.json").write_text(
        json.dumps(SPLIT if kind == "split" else TWINS))
    argv = EXPANSION_COMMANDS[command] + ["--input", f"{kind}.json",
                                          "--out", "out", "--reproducible"]
    assert main(argv) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted((tmp_path / "out").iterdir())}
    assert digests == EXPANSION_GOLDEN[kind, command]
