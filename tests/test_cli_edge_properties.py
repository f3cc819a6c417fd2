"""Property tests of the edge list that CLI ``sample`` writes: after its
metadata lines, ``sample_edges.txt`` equals a per-edge formatter that
writes one ``f"{u} {v}\\n"`` line for every edge u < v of
``sample_graph(w, n, seed)`` in row-major order.  Vertex counts sit at
the digit boundaries of the vertex ids (2, 9, 10, 11, 99, 100, 101, 999,
1000 and 1001, so ids of one to four digits and packed words of 2, 4 and
8 bytes), and the samples include an edgeless and a complete graph."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from graphondist import dump_graphon, load_graphon, sample_graph  # noqa: E402
from graphondist.cli import main  # noqa: E402
from test_walk_properties import step_graphons  # noqa: E402

PROPERTIES = settings(derandomize=True, max_examples=30, deadline=None)

DIGIT_BOUNDARIES = [2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001]


def edge_oracle(adj) -> str:
    """One 'u v' line per edge u < v, in row-major order."""
    u, v = np.nonzero(np.triu(adj, 1))
    return "".join(f"{a} {b}\n" for a, b in zip(u.tolist(), v.tolist()))


def sampled_edges(tmp: Path, w, n: int, seed: int):
    """The edge lines of ``sample`` on ``w`` after its metadata lines, its
    metadata lines, and the graph the library samples."""
    dump_graphon(w, tmp / "w.json")
    assert main(["sample", "--input", str(tmp / "w.json"), "--out",
                 str(tmp / "out"), "--n", str(n), "--seed", str(seed),
                 "--reproducible", "--allow-disconnected"]) == 0
    text = (tmp / "out" / "sample_edges.txt").read_bytes().decode("ascii")
    lines = text.splitlines(keepends=True)
    meta = [line for line in lines if line.startswith("#")]
    assert lines[:len(meta)] == meta and len(meta) >= 4
    graph = sample_graph(load_graphon(tmp / "w.json"), n, seed)
    return "".join(lines[len(meta):]), graph


@PROPERTIES
@given(step_graphons(), st.sampled_from(DIGIT_BOUNDARIES),
       st.integers(0, 2 ** 32 - 1))
def test_edges_equal_the_per_edge_formatter(w, n, seed):
    with tempfile.TemporaryDirectory() as tmp:
        edges, graph = sampled_edges(Path(tmp), w, n, seed)
        assert edges == edge_oracle(graph.adjacency)
        assert edges.count("\n") == graph.edge_count


@pytest.mark.parametrize("n", DIGIT_BOUNDARIES)
@pytest.mark.parametrize("p", [0.0, 0.5, 1.0],
                         ids=["edgeless", "er-half", "complete"])
def test_edges_at_every_digit_boundary(tmp_path, n, p):
    (tmp_path / "er.json").write_text(json.dumps(
        {"kind": "builtin", "name": "er", "params": {"p": p}}))
    edges, graph = sampled_edges(tmp_path, load_graphon(tmp_path / "er.json"),
                                 n, 7)
    assert edges == edge_oracle(graph.adjacency)
    if p == 0.0:
        assert edges == ""
    if p == 1.0:
        assert graph.edge_count == n * (n - 1) // 2
        assert edges.endswith(f"{n - 2} {n - 1}\n")
