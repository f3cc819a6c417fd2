"""Property tests of the rows that CLI ``varadhan`` writes, past the few
levels the goldens reach: on generated step graphons (support twins,
disconnected pieces, isolated blocks) and on a 300-block path (levels past
255, six-byte cell strings), the CSV and PGM bytes equal a per-cell
formatter that joins one string per cell, and the CSV reads back as the
distance field's matrix."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402

from graphondist import (DistanceField, Partition, ValidationError,  # noqa: E402
                         distance_field, dump_graphon, lift, step)
from graphondist.cli import _layer_sizes, _level_rows, main, read_csv_matrix  # noqa: E402
from test_walk_properties import step_graphons  # noqa: E402

PROPERTIES = settings(derandomize=True, max_examples=60, deadline=None)


def path_graphon(k: int):
    """A path on k blocks: distance |i - j| off the diagonal, 2 on it."""
    a = np.zeros((k, k))
    i = np.arange(k - 1)
    a[i, i + 1] = a[i + 1, i] = 1.0
    return lift(a)


def cell_rows(fld, table):
    """Row i of the field as one string per cell, level m written
    ``table[m]``: the formatter the panel gather replaced."""
    table = np.array(table, dtype=object)
    for c in fld.classes:
        yield table[fld.levels[c][fld.classes]].tolist()


def row_texts(fld, table, sep):
    """The rows that ``_level_rows`` renders, as strings without their
    newlines."""
    return b"".join(_level_rows(fld, table, sep)).decode("ascii").splitlines()


def oracle_files(w, meta_lines):
    """The CSV and PGM text of ``varadhan`` on the step graphon ``w``,
    each row joined cell by cell after the given metadata lines."""
    fld = distance_field(w)
    top = int(fld.levels.max())
    maxval = top + (0 if fld.connected else 1)
    labels = [f"block_{i}" for i in range(w.size)]
    csv = meta_lines + [",".join(["index"] + labels)] + [
        label + "," + ",".join(cells) for label, cells in zip(
            labels, cell_rows(fld, ["inf"] + [repr(float(m))
                                              for m in range(1, top + 1)]))]
    pgm = ["P2"] + meta_lines + [f"{w.size} {w.size}", str(max(1, maxval))] + [
        " ".join(cells) for cells in cell_rows(
            fld, [str(maxval)] + [str(m) for m in range(1, top + 1)])]
    return ["".join(line + "\n" for line in lines) for lines in (csv, pgm)]


@PROPERTIES
@given(step_graphons())
@example(path_graphon(300))
def test_rows_equal_the_per_cell_formatter(w):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        dump_graphon(w, tmp / "w.json")
        assert main(["varadhan", "--input", str(tmp / "w.json"), "--out",
                     str(tmp / "out"), "--reproducible",
                     "--allow-disconnected"]) == 0
        csv = (tmp / "out" / "varadhan_distance.csv").read_text()
        pgm = (tmp / "out" / "varadhan_layers.pgm").read_text()
        meta = [line for line in csv.splitlines() if line.startswith("#")]
        assert [csv, pgm] == oracle_files(w, meta)
        assert np.array_equal(read_csv_matrix(tmp / "out" /
                                              "varadhan_distance.csv"),
                              distance_field(w).matrix)


def test_a_path_past_255_levels_reads_back():
    w = path_graphon(300)
    fld = distance_field(w)
    assert fld.levels.dtype == np.uint16
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        dump_graphon(w, tmp / "w.json")
        assert main(["varadhan", "--input", str(tmp / "w.json"), "--out",
                     str(tmp / "out"), "--reproducible"]) == 0
        d = read_csv_matrix(tmp / "out" / "varadhan_distance.csv")
        i = np.arange(300)
        want = np.abs(i[:, None] - i[None, :]).astype(float)
        np.fill_diagonal(want, 2.0)
        assert np.array_equal(d, want)
        pgm = [line for line in (tmp / "out" / "varadhan_layers.pgm")
               .read_text().splitlines() if not line.startswith("#")]
        assert pgm[1:3] == ["300 300", "299"]


def test_a_string_wider_than_a_word_is_refused():
    # the widest a uint16 walk needs is "65535.0," (8 bytes); a longer
    # string has no word to go in and must not be cut, and is refused
    # before a row is made, so the CLI writes no file
    fld = distance_field(path_graphon(3))
    assert len(row_texts(fld, ["inf", "1.0", "2.0"], ",")) == 3
    assert row_texts(fld, ["x", "65535.0", "y"], ",")[1] == \
        "65535.0,y,65535.0"
    with pytest.raises(ValidationError, match="9 bytes"):
        _level_rows(fld, ["inf", "65535.00", "2.0"], ",")


def test_permuted_classes_render_their_cells():
    # every cell its own class, but not numbered in order: the rows and
    # the layer sizes read levels[classes][:, classes], not the levels
    w = step(Partition([0.25, 0.75]), np.ones((2, 2)))
    fld = DistanceField("step", w.partition, [[1, 2], [2, 3]], [1, 0], True)
    assert row_texts(fld, ["inf", "1.0", "2.0", "3.0"], ",") == \
        ["3.0,2.0", "2.0,1.0"]
    assert _layer_sizes(w, fld) == {"1": 0.5625, "2": 0.375, "3": 0.0625}
