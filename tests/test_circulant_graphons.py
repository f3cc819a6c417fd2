"""Property tests of circulant block matrices recognised on construction
(``StepGraphon._circulant``): against the general path, the same graphon
built with recognition turned off, the blocks, the errors, the kept
levels, classes and diameter and the distance field are the same, no walk
takes more rows, and the kept levels hold O(p) bytes for a support row
of least period p.  Near misses -- a later row that differs, a row
asymmetric within 1e-9, NaN, out of range -- take the general path."""

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from graphondist import (  # noqa: E402
    GridGraphon,
    Partition,
    StepGraphon,
    ValidationError,
    circular_band_graphon,
    distance_field,
    load_graphon,
)
from graphondist import connectivity, core  # noqa: E402
from test_walks import walked_rows  # noqa: E402

PROPERTIES = settings(derandomize=True, max_examples=80, deadline=None)

#: values at and around the thresholds the walks are read at
VALUES = st.sampled_from([0.0, -0.0, 1.0, 0.5, 0.25, 1e-13, 2e-9, 0.2])
THRESHOLDS = (None, 0.0, 0.2)


def circulant(row: np.ndarray) -> np.ndarray:
    """The circulant of a row, entry [i, j] = row[(j - i) mod n], by index
    arithmetic."""
    i = np.arange(row.size)
    return row[(i[None, :] - i[:, None]) % row.size]


@st.composite
def symmetric_rows(draw, max_n: int = 36) -> np.ndarray:
    """A row equal to its reflection (row[j] == row[-j mod n]) of some
    period p dividing n: the first p entries tiled n / p times."""
    n = draw(st.integers(1, max_n))
    p = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    half = draw(st.lists(VALUES | st.floats(0.0, 1.0), min_size=p // 2 + 1,
                         max_size=p // 2 + 1))
    base = np.array([half[min(j, p - j)] for j in range(p)])
    return np.tile(base, n // p)


def build(make, *args):
    """The graphon ``make(*args)``, or the type and text of its error."""
    try:
        return make(*args)
    except ValidationError as exc:
        return type(exc), str(exc)


def general(make, *args):
    """``build`` with recognition turned off: every matrix takes the path
    that checks it whole."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(core, "_circulant_row", lambda a: None)
        return build(make, *args)


def walked(w, eps):
    """The kept walk of ``w`` at ``eps`` and the rows of the first level
    of every walk it took."""
    with pytest.MonkeyPatch.context() as m:
        rows = walked_rows(m)
        return connectivity._walk(w, eps), rows


def check_same(make, *args) -> bool:
    """``make(*args)`` against the general path: equal errors, or equal
    blocks and, at every threshold, equal levels (dtype too), classes,
    diameter and field, no more rows walked, and kept levels of 2p
    entries when recognised.  Returns whether it was recognised."""
    got, want = build(make, *args), general(make, *args)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return False
    assert want._circulant is None
    assert got.blocks.dtype == want.blocks.dtype
    assert got.blocks.tobytes() == want.blocks.tobytes()
    assert not got.blocks.flags.writeable and got.blocks.flags.c_contiguous
    row = got._circulant
    if row is not None:
        assert np.shares_memory(row, got.blocks)
        assert row.tobytes() == got.blocks[0].tobytes()
    for eps in THRESHOLDS:
        (walk, rows), (oracle, oracle_rows) = walked(got, eps), walked(want,
                                                                       eps)
        assert walk.levels.dtype == oracle.levels.dtype
        assert np.array_equal(walk.levels, oracle.levels)
        assert walk.classes.dtype == oracle.classes.dtype
        assert np.array_equal(walk.classes, oracle.classes)
        assert walk.diameter == oracle.diameter
        assert len(rows) == len(oracle_rows) == 1
        assert rows[0] <= oracle_rows[0]
        assert not walk.levels.flags.writeable
        if row is not None:
            p = int(walk.classes.max()) + 1
            assert isinstance(walk.levels.base, core._Map)
            assert len(walk.levels.base) == 2 * p * walk.levels.itemsize
        assert np.array_equal(distance_field(got, eps).matrix,
                              distance_field(want, eps).matrix)
    return row is not None


def lifted(m: np.ndarray, grid: bool):
    return (GridGraphon(m.shape[0], m) if grid
            else StepGraphon(Partition.uniform(m.shape[0]), m))


@PROPERTIES
@example(row=np.array([0.5]), grid=False, seed=0)
@example(row=np.array([0.0]), grid=True, seed=0)
@example(row=np.array([0.0, 1.0]), grid=False, seed=0)
@example(row=np.array([1.0, 1.0]), grid=True, seed=0)
@example(row=np.zeros(12), grid=False, seed=0)
@example(row=np.ones(12), grid=True, seed=0)
@given(symmetric_rows(), st.booleans(), st.integers(0, 2**16))
def test_a_symmetric_circulant_is_recognised(row, grid, seed):
    # periodic rows included: a row of period p < n keeps p classes, walks
    # one row of the p-circulant and keeps 2p levels
    m = circulant(row)
    assert check_same(lifted, m, grid)
    # -0.0 for 0.0 anywhere in the matrix is still the circulant of row 0,
    # and the blocks keep the caller's bytes
    zeros = np.flatnonzero(m == 0.0)
    if zeros.size:
        rng = np.random.default_rng(seed)
        m = m.copy()
        m.flat[rng.choice(zeros, (zeros.size + 1) // 2, replace=False)] = -0.0
        assert check_same(lifted, m, grid)


@PROPERTIES
@given(symmetric_rows(), st.booleans())
def test_a_strided_circulant_is_kept_dense(row, grid):
    # circular_band_graphon hands over a strided view of one doubled row: the
    # blocks are a contiguous copy, so products read them at full speed
    n = row.size
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((row, row))[1:], n)[::-1]
    assert check_same(lifted, windows, grid)


@PROPERTIES
@given(symmetric_rows(), st.data())
def test_a_later_row_that_differs_is_checked_whole(row, data):
    # row 1 is row 0 rotated, but one symmetric pair away from rows and
    # columns 0 and 1 is not
    n = row.size
    hypothesis.assume(n >= 3)
    m = circulant(row)
    i = data.draw(st.integers(2, n - 1))
    j = data.draw(st.integers(2, n - 1))
    m[i, j] = m[j, i] = 0.5 if m[i, j] != 0.5 else 0.0
    assert not check_same(lifted, m, data.draw(st.booleans()))


@PROPERTIES
@given(symmetric_rows(), st.data())
def test_a_row_asymmetric_within_tolerance_is_symmetrized(row, data):
    # a circulant whose row is not its own reflection, by less than the
    # symmetry tolerance: the general path symmetrizes it
    n = row.size
    hypothesis.assume(n >= 3)
    j = data.draw(st.integers(1, n - 1))
    hypothesis.assume(j != n - j)
    row = row.copy()
    row[j] = 0.5 + data.draw(st.sampled_from([1e-13, -1e-13, 5e-16]))
    assert not check_same(lifted, circulant(row), data.draw(st.booleans()))


@PROPERTIES
@given(symmetric_rows(), st.data())
def test_a_bad_value_takes_the_general_paths_error_or_clip(row, data):
    # NaN and infinities, values outside [0, 1] beyond the tolerance (an
    # error) and within it (clipped), placed symmetrically
    n = row.size
    j = data.draw(st.integers(0, n - 1))
    bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf, 1.5, -0.5,
                                     1.0 + 1e-12, -1e-12]))
    row = row.copy()
    row[j] = row[-j % n] = bad
    assert not check_same(lifted, circulant(row), data.draw(st.booleans()))


@PROPERTIES
@given(symmetric_rows())
def test_a_size_mismatch_is_the_same_error(row):
    n = row.size
    assert not check_same(StepGraphon, Partition.uniform(n + 1),
                          circulant(row))


def test_a_non_circulant_construction_compares_one_row(monkeypatch):
    # a matrix whose row 1 is not row 0 rotated is turned away by the
    # first comparison, of one row: row 0's rotations are never made
    made = []
    rotations = core._rotations
    monkeypatch.setattr(core, "_rotations", lambda row, keep=False: (
        made.append(row.size) or rotations(row, keep)))
    m = circulant(np.array([0.0, 1.0, 0.5, 0.5, 1.0]))
    assert StepGraphon(Partition.uniform(5), m)._circulant is not None
    assert made == [5]
    m[[0, 1]] = m[[1, 0]]
    m[:, [0, 1]] = m[:, [1, 0]]
    assert StepGraphon(Partition.uniform(5), m)._circulant is None
    assert made == [5]


@pytest.mark.parametrize("n", [64, 700])
def test_a_json_value_grid_of_the_band_is_its_builtin(tmp_path, n):
    # the band written as values and loaded from JSON is recognised, keeps
    # the builtin's blocks, walks one row and keeps 2n levels
    band = circular_band_graphon(1 / 7, n)
    path = tmp_path / "band.json"
    path.write_text(json.dumps({"kind": "grid", "resolution": n,
                                "values": band.blocks.tolist()}))
    assert check_same(load_graphon, path)
    w = load_graphon(path)
    assert w.blocks.tobytes() == band.blocks.tobytes()
    assert np.array_equal(distance_field(w).matrix,
                          distance_field(band).matrix)
