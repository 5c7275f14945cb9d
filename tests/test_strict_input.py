"""One rule for integer input: every integer matrix the package reads is checked by
errors.strict_matrix, and an entry is exactly an int."""

import enum

import pytest

from shakekit import (
    Band,
    BandPresentation,
    GoeritzData,
    UnitCirclePoint,
    alexander,
    an_family,
    classical_signature_seifert,
    inertia_hermitian_at_root,
    inertia_symmetric_exact,
)
from shakekit.errors import strict_int, strict_matrix
from shakekit.exactlinalg import int_matrix_from_json


class Flag(enum.IntEnum):
    ONE = 1


# Each entry point with the name its messages give the matrix.
ENTRY_POINTS = {
    "alexander": (alexander, "matrix"),
    "classical_signature_seifert": (classical_signature_seifert, "matrix"),
    "inertia_hermitian_at_root": (
        lambda rows: inertia_hermitian_at_root(rows, UnitCirclePoint.minus_one()), "matrix"),
    "inertia_symmetric_exact": (inertia_symmetric_exact, "matrix"),
    "GoeritzData": (GoeritzData, "G"),
    "BandPresentation": (
        lambda rows: BandPresentation([Band(orientable=False)] * len(rows), rows), "crossings"),
    "int_matrix_from_json": (lambda rows: int_matrix_from_json({"entries": rows}), "matrix"),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("rows, message", [
    ([[0, 1], [True, 0]], "expected integer {} entry at (1,0), got True"),
    ([[0, 1], [1.0, 0]], "expected integer {} entry at (1,0), got 1.0"),
    ([[0, 1], [Flag.ONE, 0]], "expected integer {} entry at (1,0), got <Flag.ONE: 1>"),
    ([[0, 1], [1]], "{} must be 2x2, got no entry at (1,1)"),
], ids=["bool", "float", "IntEnum", "ragged"])
def test_every_matrix_entry_point_names_the_refused_entry(name, rows, message):
    fn, what = ENTRY_POINTS[name]
    with pytest.raises(ValueError) as refusal:
        fn(rows)
    assert str(refusal.value) == message.format(what)


class TestStrictMatrix:
    def test_returns_a_tuple_of_int_tuples(self):
        assert strict_matrix([[1, 2], [3, 4]], "matrix") == ((1, 2), (3, 4))
        assert strict_matrix(((0, 5), (5, 0)), "G", symmetric=True) == ((0, 5), (5, 0))
        assert strict_matrix([], "matrix", symmetric=True) == ()

    def test_a_row_past_the_dimension_names_its_first_extra_entry(self):
        with pytest.raises(ValueError, match=r"^matrix must be 2x2, got an entry at \(0,2\)$"):
            strict_matrix([[1, 2, 3], [4, 5]], "matrix")

    def test_shape_is_named_before_a_bad_entry_in_a_later_row(self):
        with pytest.raises(ValueError, match=r"^matrix must be 2x2, got no entry at \(0,1\)$"):
            strict_matrix([[1], [2.5, 1]], "matrix")

    def test_the_first_asymmetric_pair_is_named(self):
        rows = [[0, 1, 2], [1, 0, 3], [2, 4, 0]]
        assert strict_matrix(rows, "matrix") == tuple(map(tuple, rows))
        with pytest.raises(ValueError, match=r"^matrix must be symmetric, differs at \(1,2\)$"):
            strict_matrix(rows, "matrix", symmetric=True)


def test_a_scalar_follows_the_entry_rule():
    assert strict_int(7, "count") == 7
    for bad in (True, 7.0, "7", Flag.ONE):
        with pytest.raises(ValueError, match=f"^expected integer count, got {bad!r}$"):
            strict_int(bad, "count")
    with pytest.raises(ValueError, match="expected integer family index n, got <Flag.ONE: 1>"):
        an_family(Flag.ONE)
