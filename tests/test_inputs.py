"""The input gate of ``core``: every value type owns its arrays (a caller's
array is never aliased or frozen), and every caller's matrix passes one
rule (a nonempty, square, 2-D array) or raises ``ValidationError``."""

import json
import math
import mmap

import numpy as np
import pytest

from graphondist import (
    EXPONENTIAL,
    BlockFunction,
    DistanceField,
    Embedding,
    IntervalSet,
    Partition,
    SampledGraph,
    SlopeEstimate,
    SpectralData,
    StepGraphon,
    SupportGraph,
    TransformSlopes,
    ValidationError,
    analytic_transform,
    block_distance_matrix,
    circular_band_graphon,
    communicability_distance,
    communicability_embedding,
    comp_power,
    default_t_grid,
    diameter,
    distance_field,
    er_graphon,
    expm,
    general_varadhan_slope,
    graphon_from_dict,
    heat_content,
    lift,
    merge_twins,
    neighbourhood_distance,
    permute_blocks,
    sample_graph,
    set_distance,
    step,
    sym_eig,
    to_grid,
    transform_slopes,
    varadhan_distance,
    varadhan_slope,
)
from graphondist import connectivity, core
from graphondist.cli import main
from conftest import cycle_adjacency

P2 = Partition.uniform(2)

#: value type -> (its array fields, a builder from those fields, and the
#: writable arrays a caller would pass for them)
VALUE_TYPES = {
    "Partition": (("measures",), Partition,
                  lambda: [np.array([0.25, 0.75])]),
    "BlockFunction": (("values",), lambda v: BlockFunction(P2, v),
                      lambda: [np.array([1.0, 2.0])]),
    "StepGraphon": (("blocks",), lambda b: StepGraphon(P2, b),
                    lambda: [np.array([[0.0, 1.0], [1.0, 0.5]])]),
    "SpectralData": (("eigenvalues", "eigenvectors"), SpectralData,
                     lambda: [np.array([1.0, -1.0]), np.eye(2)]),
    "Embedding": (("coordinates",), lambda c: Embedding(2, c, 0.0),
                  lambda: [np.array([0.5, 0.25])]),
    "DistanceField": (
        ("levels", "classes"),
        lambda lv, cl: DistanceField("step", P2, lv, cl, True),
        lambda: [np.array([[2, 1], [1, 2]], np.uint8), np.array([0, 1])]),
    "SlopeEstimate": (("t_grid", "log_values"),
                      lambda t, lv: SlopeEstimate(t, lv, 1.0, 0.0),
                      lambda: [np.array([1e-3, 1e-4]), np.array([-7.0, -9.0])]),
    "TransformSlopes": (
        ("t_grid", "rows", "slope", "residual", "log_values", "series_terms",
         "series_stop"), TransformSlopes,
        lambda: [np.array([1e-3, 1e-4]), np.array([0]), np.ones((1, 2)),
                 np.zeros((1, 2)), np.zeros((1, 2, 2)), np.ones((1, 2), int),
                 np.array([["tail_bound", "tail_bound"]])]),
    "SampledGraph": (("coordinates", "adjacency"),
                     lambda c, a: SampledGraph(c, a, 0),
                     lambda: [np.array([0.1, 0.6]),
                              np.array([[0, 1], [1, 0]], dtype=bool)]),
    "SupportGraph": (("matrix",), lambda m: SupportGraph(m, 0.0),
                     lambda: [np.eye(2, dtype=bool)]),
}


def scribble(a: np.ndarray) -> None:
    """Change every entry of a caller's array in place."""
    if a.dtype == bool:
        a ^= True
    elif a.dtype.kind in "fiu":
        a += 1
    else:
        a[...] = "changed"


@pytest.mark.parametrize("kind", sorted(VALUE_TYPES))
def test_a_value_type_neither_aliases_nor_freezes_a_callers_array(kind):
    # SampledGraph and the others used to freeze the caller's array, and
    # Partition and BlockFunction to keep a view of it
    names, build, arrays = VALUE_TYPES[kind]
    given = arrays()
    value = build(*given)
    for name, a in zip(names, given):
        kept = getattr(value, name)
        before = kept.copy()
        assert not kept.flags.writeable and a.flags.writeable
        scribble(a)
        assert np.array_equal(kept, before)


@pytest.mark.parametrize("kind", sorted(VALUE_TYPES))
def test_a_value_type_keeps_an_owned_read_only_array_and_copies_a_view(kind):
    names, build, arrays = VALUE_TYPES[kind]
    owned = arrays()
    for a in owned:
        a.setflags(write=False)
    value = build(*owned)
    for name, a in zip(names, owned):
        assert getattr(value, name) is a
    # a read-only view of a writable array is still the caller's memory
    given = arrays()
    views = [a[...] for a in given]
    for v in views:
        v.setflags(write=False)
    value = build(*views)
    for name, a in zip(names, given):
        assert not np.may_share_memory(getattr(value, name), a)


def test_a_library_map_is_kept_and_a_callers_map_is_copied():
    # an array over a caller's memory map is copied, since the caller can
    # still write through the map; one over a map of the library's own
    # (what a graphon keeps of its walk) is kept like an owned array
    buf = mmap.mmap(-1, 16)
    theirs = np.ndarray((2,), float, buffer=buf)
    theirs[:] = [0.25, 0.75]
    theirs.setflags(write=False)
    p = Partition(theirs)
    assert p.measures is not theirs
    buf[:8] = np.float64(0.5).tobytes()
    assert p.measures.tolist() == [0.25, 0.75]
    ours = core._mapped(np.array([0.25, 0.75]))
    assert isinstance(ours.base, core._Map) and not ours.flags.writeable
    assert Partition(ours).measures is ours


def test_a_lists_conversion_is_kept_without_a_second_copy():
    p = Partition([0.25, 0.75])
    assert p.measures.base is None and not p.measures.flags.writeable
    assert np.array_equal(p.measures, [0.25, 0.75])


def test_editing_the_callers_measures_does_not_move_the_graphon():
    # the measures used to be a view of the caller's array: after the edit
    # the distance read 0.51337, a graphon whose measures said [0.5, 0.5]
    # but whose breakpoints were still [0, 0.25, 1]
    mu = np.array([0.25, 0.75])
    w = step(Partition(mu), [[0, 1], [1, 0.5]])
    x, empty = IntervalSet(((0.0, 0.25),)), IntervalSet.empty()
    before = communicability_distance(w, x, empty)
    assert abs(before - 0.52640) < 1e-5
    mu[:] = [0.5, 0.5]
    assert communicability_distance(w, x, empty) == before
    assert np.array_equal(w.partition.measures, [0.25, 0.75])
    fresh = step(Partition(np.array([0.5, 0.5])), [[0, 1], [1, 0.5]])
    assert abs(communicability_distance(fresh, x, empty) - 0.51708) < 1e-5


def test_library_values_keep_their_fresh_arrays():
    # what the library builds goes in read-only, so nothing is copied twice
    w = lift(cycle_adjacency(6))
    fld = distance_field(w)
    walk = connectivity._walk(w)
    assert fld.levels is walk.levels and fld.classes is walk.classes
    spec = sym_eig(w.blocks)
    assert spec.eigenvectors.base is None
    a = cycle_adjacency(5)
    table = transform_slopes(a, a, np.zeros(5), EXPONENTIAL)
    est = general_varadhan_slope(a, a, np.zeros(5), EXPONENTIAL, 0, 2)
    assert est.t_grid is table.t_grid  # the default grid, never copied
    assert table.slope.base is None and table.residual.base is None


@pytest.mark.parametrize("vector", [[[0.5, 0.5]], [[0.5], [0.5]]])
def test_partition_measures_and_block_values_are_vectors(vector):
    with pytest.raises(ValidationError, match="vector"):
        Partition(np.array(vector))
    with pytest.raises(ValidationError, match="does not match"):
        BlockFunction(P2, np.array(vector))


#: every entry point that reads a caller's matrix, given that matrix
MATRIX_READERS = {
    "StepGraphon": lambda m: StepGraphon(P2, m),
    "lift": lift,
    "sym_eig": sym_eig,
    "expm": expm,
    "analytic_transform": lambda m: analytic_transform(EXPONENTIAL, m, 0.1),
    "transform_slopes adjacency": lambda m: transform_slopes(
        m, np.ones((2, 2)), np.zeros(2), EXPONENTIAL),
    "transform_slopes weights": lambda m: transform_slopes(
        np.ones((2, 2)), m, np.zeros(2), EXPONENTIAL),
    "general_varadhan_slope": lambda m: general_varadhan_slope(
        m, m, np.zeros(2), EXPONENTIAL, 0, 0),
    "SupportGraph": lambda m: block_distance_matrix(
        SupportGraph(np.asarray(m, bool), 0.0)),
    "step JSON": lambda m: graphon_from_dict(
        {"kind": "step", "measures": [0.5, 0.5], "blocks": m.tolist()}),
    "grid JSON": lambda m: graphon_from_dict(
        {"kind": "grid", "resolution": 2, "values": m.tolist()}),
}


@pytest.mark.parametrize("shape", [(0, 0), (2, 3), (2,), (1, 2, 2), ()])
@pytest.mark.parametrize("reader", sorted(MATRIX_READERS))
def test_every_matrix_reader_rejects_what_is_not_a_nonempty_square(reader,
                                                                   shape):
    # a 0 x 0 matrix used to escape as numpy's bare ValueError (expm,
    # the slopes), an IndexError (SupportGraph's distances), or an empty
    # answer (sym_eig, analytic_transform)
    with pytest.raises(ValidationError, match="must be square"):
        MATRIX_READERS[reader](np.zeros(shape))


def test_nested_measures_exit_2(tmp_path, capsys):
    # they were flattened into two blocks and the report was written
    path = tmp_path / "nested.json"
    path.write_text(json.dumps({"kind": "step", "measures": [[0.5, 0.5]],
                                "blocks": [[0, 1], [1, 0]]}))
    assert main(["connectivity", "--input", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "input error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_family_that_is_not_a_taylor_family_is_an_input_error():
    # a family's name or None used to raise AttributeError ("'str' object
    # has no attribute 'radius'")
    a = cycle_adjacency(4)
    for family in ("exp", "resolvent", None):
        with pytest.raises(ValidationError, match="TaylorFamily"):
            general_varadhan_slope(a, a, np.zeros(4), family, 0, 1)
        with pytest.raises(ValidationError, match="TaylorFamily"):
            transform_slopes(a, a, np.zeros(4), family)
        with pytest.raises(ValidationError, match="TaylorFamily"):
            analytic_transform(family, a, 0.1)


C2 = np.array([[0.0, 1.0], [1.0, 0.0]])

#: (matrix, vector) inputs that are not read as real arrays: ragged,
#: non-numeric, complex (lists, and arrays whose imaginary parts numpy
#: would drop with only a ComplexWarning), strings or bytes, which
#: numpy would read as numbers ("0.5") or, as booleans, by truthiness,
#: and integers past the float range (a bare OverflowError)
UNREADABLE = {
    "ragged": ([[0, 1], [1]], [0.5, [0.5]]),
    "non-numeric": ([[0, "x"], [1, 0]], [0.5, "x"]),
    "complex list": ([[0, 1 + 1j], [1 + 1j, 0]], [0.5, 0.5 + 1j]),
    "complex array": (C2 * (1 + 1j), np.array([0.5, 0.5 + 1j])),
    "numeric strings": ([["0", "1"], ["1", "0"]], ["0.5", "0.5"]),
    "bytes": (np.array([[b"0", b"1"], [b"1", b"0"]]), [b"0.5", b"0.5"]),
    "strings in an object array": (np.array([[0, "1"], ["1", 0]], object),
                                   np.array(["0.5", 0.5], object)),
    "bytes in an object array": (np.array([[0, b"1"], [b"1", 0]], object),
                                 np.array([b"0.5", 0.5], object)),
    "past the float range": ([[0, 10**400], [10**400, 0]], [0.5, 10**400]),
}

#: every reader of a caller's vector, given that vector
VECTOR_READERS = {
    "Partition": Partition,
    "BlockFunction": lambda v: BlockFunction(P2, v),
    "transform_slopes diag": lambda v: transform_slopes(C2, C2, v,
                                                        EXPONENTIAL),
    "general_varadhan_slope diag": lambda v: general_varadhan_slope(
        C2, C2, v, EXPONENTIAL, 0, 1),
    "general_varadhan_slope t-grid": lambda v: general_varadhan_slope(
        C2, C2, np.zeros(2), EXPONENTIAL, 0, 1, v),
}


@pytest.mark.parametrize("reader, value", [
    (reader, value)
    for reader in sorted({*MATRIX_READERS, *VECTOR_READERS}
                         - {"step JSON", "grid JSON"})
    for value in sorted(UNREADABLE)])
def test_a_value_numpy_cannot_read_as_real_is_an_input_error(reader, value):
    # numpy's bare ValueError and TypeError used to escape, complex
    # entries lost their imaginary parts (step(P, [[0, 1+1j], [1+1j, 0]])
    # built [[0, 1], [1, 0]] and transform_slopes returned slopes), and
    # strings were read as numbers, or as truth values by SupportGraph
    # (all True for [["0", "0"], ["0", "0"]], and 10**400 was an edge)
    matrix, vector = UNREADABLE[value]
    if reader == "SupportGraph":
        read = lambda m: SupportGraph(m, 0.0)  # noqa: E731
    else:
        read = MATRIX_READERS.get(reader)
    with pytest.raises(ValidationError, match="real numbers"):
        if read is None:
            VECTOR_READERS[reader](vector)
        else:
            read(matrix)


#: the value types whose array fields are all read as real numbers (a
#: ``DistanceField``'s levels and classes keep the integer dtype they are
#: given, and the tables of a ``TransformSlopes`` keep theirs)
REAL_VALUE_TYPES = sorted(set(VALUE_TYPES) - {"DistanceField",
                                              "TransformSlopes"})


@pytest.mark.parametrize("entry", [pytest.param(str, id="str"),
                                   pytest.param(lambda x: str(x).encode(),
                                                id="bytes")])
@pytest.mark.parametrize("kind", REAL_VALUE_TYPES)
def test_a_string_in_an_object_array_is_an_input_error(kind, entry):
    # numpy reads an object array entry by entry, so a string in one was
    # read as a number (Partition(np.array(['0.5', 0.5], dtype=object))
    # had measures [0.5, 0.5]) or, as a boolean, by truthiness (a
    # SupportGraph of '0' strings was all True)
    names, build, arrays = VALUE_TYPES[kind]
    for field in range(len(names)):
        given = arrays()
        a = given[field].astype(object)
        a.flat[0] = entry(a.flat[0])
        given[field] = a
        with pytest.raises(ValidationError, match="real numbers"):
            build(*given)


@pytest.mark.parametrize("t", [[[0.1]], [0.1], np.array([0.1]), 0.1j, "x",
                               "0.1", b"0.1", np.array("0.1")])
def test_a_time_that_is_not_a_real_number_is_an_input_error(t):
    # a nested list used to raise TypeError
    w = lift(C2)
    half = IntervalSet(((0.0, 0.5),))
    with pytest.raises(ValidationError, match="real number"):
        heat_content(w, half, half, t)
    with pytest.raises(ValidationError, match="real number"):
        analytic_transform(EXPONENTIAL, C2, t)


def test_a_callers_vector_is_never_flattened():
    # a (3, 1) diagonal, a column t-grid and a column permutation used to
    # be read as vectors
    a = cycle_adjacency(3)
    column = np.zeros((3, 1))
    with pytest.raises(ValidationError, match="diagonal must be a vector"):
        general_varadhan_slope(a, a, column, EXPONENTIAL, 0, 1)
    with pytest.raises(ValidationError, match="diagonal must be a vector"):
        transform_slopes(a, a, column, EXPONENTIAL)
    grid = [[1e-3], [1e-4]]
    with pytest.raises(ValidationError, match="t grid must be a vector"):
        general_varadhan_slope(a, a, np.zeros(3), EXPONENTIAL, 0, 1, grid)
    with pytest.raises(ValidationError, match="t grid must be a vector"):
        transform_slopes(a, a, np.zeros(3), EXPONENTIAL, grid)
    with pytest.raises(ValidationError, match="t grid must be a vector"):
        varadhan_slope(lift(a), IntervalSet(((0.0, 0.3),)),
                       IntervalSet(((0.5, 0.6),)), grid)
    with pytest.raises(ValidationError, match="permutation must be a vector"):
        permute_blocks(lift(C2), [[1], [0]])
    # the vectors they meant still read
    assert general_varadhan_slope(a, a, np.zeros(3), EXPONENTIAL, 0, 1,
                                  [1e-3, 1e-4]).estimated_distance == 1
    assert np.array_equal(permute_blocks(lift(C2), [1, 0]).blocks, C2)


@pytest.mark.parametrize("field, value", [
    ("measures", ["0.5", "0.5"]),
    ("blocks", [["0", "1"], ["1", "0"]]),
    ("blocks", [[0, "1"], ["1", 0]]),
])
def test_string_entries_in_a_graphon_file_exit_2(tmp_path, capsys, field,
                                                 value):
    # they were read as the numbers they spell, and the report was written
    data = {"kind": "step", "measures": [0.5, 0.5], "blocks": C2.tolist()}
    data[field] = value
    with pytest.raises(ValidationError,
                       match="real numbers" if field == "measures"
                       else "malformed 'blocks'"):
        graphon_from_dict(data)
    path = tmp_path / "strings.json"
    path.write_text(json.dumps(data))
    assert main(["connectivity", "--input", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "input error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


HUGE = 10**400
STEP_C2 = {"kind": "step", "measures": [0.5, 0.5], "blocks": C2.tolist()}
BAND = {"kind": "builtin", "name": "circular_band", "params": {"tau": 0.25}}


@pytest.mark.parametrize("command, data, flags", [
    ("connectivity", {"kind": "grid", "resolution": HUGE,
                      "values": C2.tolist()}, []),
    ("connectivity", {"kind": "step", "measures": [0.5, HUGE],
                      "blocks": C2.tolist()}, []),
    ("connectivity", BAND, ["--grid", str(HUGE)]),
    ("slope", STEP_C2, ["--u", "0:0.5", "--v", "0.5:1",
                        "--tgrid", f"1e-5:1e-3:{HUGE}"]),
])
def test_an_integer_past_the_float_range_exits_2(tmp_path, capsys, command,
                                                 data, flags):
    # float() raised a bare OverflowError, which the CLI printed as a
    # traceback
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    assert main([command, "--input", str(path), *flags,
                 "--out", str(tmp_path / "out")]) == 2
    assert "input error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


C6 = lift(cycle_adjacency(6))
HALF = IntervalSet(((0.0, 0.5),))

#: every scalar a caller passes, read through the one gate: a string, a
#: numeric one too, a sequence and None are input errors (numpy's or
#: Python's bare ValueError or TypeError escaped, and "0.1" was read as
#: the number it spells)
BAD_SCALARS = {
    "t grid bound 'x'": lambda: default_t_grid("x"),
    "t grid bound '1e-5'": lambda: default_t_grid("1e-5", 1e-3),
    "t grid size [2]": lambda: default_t_grid(1e-5, 1e-3, [2]),
    "t grid size '4'": lambda: default_t_grid(1e-5, 1e-3, "4"),
    "field threshold 'x'": lambda: distance_field(C6, "x"),
    "field threshold '0.1'": lambda: distance_field(C6, "0.1"),
    "diameter threshold [0.1]": lambda: diameter(C6, [0.1]),
    "set threshold '0.1'": lambda: set_distance(C6, HALF, HALF, "0.1"),
    "interval endpoint 'a'": lambda: IntervalSet((("a", 0.5),)),
    "interval endpoint '0.5'": lambda: IntervalSet(((0.0, "0.5"),)),
    "uniform partition 'x'": lambda: Partition.uniform("x"),
    "uniform partition '3'": lambda: Partition.uniform("3"),
    "to_grid None": lambda: to_grid(C6, None),
    "comp_power '2'": lambda: comp_power(C6, "2"),
    "embedding truncation 'x'": lambda: communicability_embedding(
        C6, HALF, "x"),
    "sample seed 'x'": lambda: sample_graph(C6, 10, "x"),
    "sample size '10'": lambda: sample_graph(C6, "10", 1),
    "merge tolerance 'x'": lambda: merge_twins(C6, "x"),
    "merge tolerance '0.1'": lambda: merge_twins(C6, "0.1"),
    "point '0.1'": lambda: varadhan_distance(C6, "0.1", 0.6),
    "point list of strings": lambda: varadhan_distance(C6, ["0.1"], 0.6),
    "slice point '0.1'": lambda: neighbourhood_distance(C6, "0.1", 0.6),
    "er p '0.5'": lambda: er_graphon("0.5"),
    "band tau '0.25'": lambda: circular_band_graphon("0.25", 16),
    "uniform partition 10**400": lambda: Partition.uniform(10**400),
    "t grid size 10**400": lambda: default_t_grid(1e-5, 1e-3, 10**400),
    "er p 10**400": lambda: er_graphon(10**400),
    # a string held in a 0-d object array was read as a number
    # (er_graphon(np.array('0.5', dtype=object)) built [[0.5]])
    "er p '0.5' in an object array": lambda: er_graphon(
        np.array("0.5", dtype=object)),
    "er p b'0.5' in an object array": lambda: er_graphon(
        np.array(b"0.5", dtype=object)),
    "threshold '0.1' in an object array": lambda: diameter(
        C6, np.array("0.1", dtype=object)),
    "interval endpoint -10**400": lambda: IntervalSet(((-10**400, 0.5),)),
}


@pytest.mark.parametrize("case", sorted(BAD_SCALARS))
def test_a_scalar_that_is_not_a_real_number_is_an_input_error(case):
    with pytest.raises(ValidationError):
        BAD_SCALARS[case]()


def test_a_number_in_a_0d_object_array_is_still_read():
    assert er_graphon(np.array(0.5, dtype=object)).blocks.tolist() == [[0.5]]


#: DistanceField levels and classes that are not what a walk keeps: an
#: integer square matrix and an integer vector
BAD_FIELDS = {
    "string levels": (np.array([["2", "1"], ["1", "2"]], dtype=object),
                      np.array([0, 1])),
    "float levels": (np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([0, 1])),
    "bool levels": (np.array([[True, True], [True, True]]), np.array([0, 1])),
    "non-square levels": (np.array([[2, 1]]), np.array([0, 1])),
    "empty levels": (np.zeros((0, 0), dtype=np.uint8), np.array([0, 1])),
    "vector levels": (np.array([2, 1]), np.array([0, 1])),
    "float classes": (np.array([[2, 1], [1, 2]]), np.array([0.0, 1.0])),
    "string classes": (np.array([[2, 1], [1, 2]]), np.array(["0", "1"])),
    "matrix classes": (np.array([[2, 1], [1, 2]]), np.array([[0, 1]])),
    "classes past the levels": (np.array([[2, 1], [1, 2]]), np.array([0, 5])),
    "negative classes": (np.array([[2, 1], [1, 2]]), np.array([-1, 0])),
    "more classes than blocks": (np.array([[2, 1], [1, 2]]),
                                 np.array([0, 1, 1])),
    "fewer classes than blocks": (np.array([[2, 1], [1, 2]]), np.array([0])),
}


@pytest.mark.parametrize("case", sorted(BAD_FIELDS))
def test_a_distance_field_keeps_integer_levels_and_classes(case):
    # DistanceField('step', P2, <object array of strings>, [0, 1], True)
    # used to be accepted and kept its object levels
    levels, classes = BAD_FIELDS[case]
    with pytest.raises(ValidationError):
        DistanceField("step", P2, levels, classes, True)
    fld = DistanceField("step", P2, [[2, 1], [1, 2]], np.array([0, 1]), True)
    assert fld.levels.dtype.kind in "iu" and fld.matrix[0, 1] == 1.0


def test_a_distance_field_reads_permuted_classes():
    # with as many classes as blocks, the matrix used to be the levels
    # themselves whatever the classes: classes [1, 0] gave [[1, 2], [2, 3]]
    # while within_block read [3, 1] and pointwise(0.25, 0.3) read 3
    fld = DistanceField("step", P2, [[1, 2], [2, 3]], [1, 0], True)
    assert fld.matrix.tolist() == [[3.0, 2.0], [2.0, 1.0]]
    assert fld.within_block.tolist() == [3.0, 1.0]
    assert fld.pointwise(0.25, 0.3) == 3 and fld.pointwise(0.25, 0.75) == 2


@pytest.mark.parametrize("classes", [[0, 5], [2, 0], [-1, 0]])
def test_distance_classes_out_of_range_are_an_input_error(classes):
    # classes [0, 5] for two levels used to be kept, and failed only when
    # a read indexed the levels with them
    with pytest.raises(ValidationError, match="must lie in"):
        DistanceField("step", P2, [[1, 2], [2, 3]], classes, True)


def test_distance_classes_give_one_class_per_block():
    # two classes for a 3-block partition used to be kept
    with pytest.raises(ValidationError, match="2 classes for 3 blocks"):
        DistanceField("step", Partition.uniform(3), [[1, 2], [2, 3]],
                      [0, 1], True)


@pytest.mark.parametrize("entry", [math.nan, 0.5, 2.0, 10**400],
                         ids=["nan", "half", "two", "past the float range"])
def test_a_support_entry_is_a_boolean_or_exactly_0_or_1(entry):
    # a support entry used to be read by truthiness, so each of these
    # became one edge
    with pytest.raises(ValidationError):
        SupportGraph([[entry]], 0.0)
    with pytest.raises(ValidationError):
        SupportGraph([[0, entry], [entry, 0]], 0.0)
    for ok in ([[True]], [[1]], [[1.0]], np.ones((1, 1), dtype=np.int8)):
        assert SupportGraph(ok, 0.0).matrix.tolist() == [[True]]
    assert SupportGraph([[0.0]], 0.0).matrix.tolist() == [[False]]
