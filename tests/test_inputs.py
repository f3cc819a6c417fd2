"""The input gate of ``core``: every value type owns its arrays (a caller's
array is never aliased or frozen), and every caller's matrix passes one
rule (a nonempty, square, 2-D array) or raises ``ValidationError``."""

import json

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
    communicability_distance,
    distance_field,
    expm,
    general_varadhan_slope,
    graphon_from_dict,
    lift,
    step,
    sym_eig,
    transform_slopes,
)
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
                     lambda: [np.array([0.1, 0.6]), np.eye(2, dtype=bool)]),
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
    assert fld.levels.base is None and fld.classes.base is None
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
