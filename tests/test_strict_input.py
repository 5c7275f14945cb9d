"""One rule for integer input: every integer matrix the package reads is checked by
errors.strict_matrix, and an entry is exactly an int."""

import enum
import sys

import pytest

from shakekit import (
    Band,
    BandPresentation,
    GoeritzData,
    UnitCirclePoint,
    alexander,
    an_family,
    classical_signature_seifert,
    eval_invariant,
    inertia_hermitian_at_root,
    inertia_symmetric_exact,
    parse_pattern,
    table_profile,
)
from shakekit.cli import int_matrix_from_json
from shakekit.errors import brief, strict_bool, strict_int, strict_keys, strict_matrix


class Flag(enum.IntEnum):
    ONE = 1


# Each entry point with the name its messages give the matrix.
ENTRY_POINTS = {
    "alexander": (alexander, "matrix"),
    "classical_signature_seifert": (classical_signature_seifert, "matrix"),
    "inertia_hermitian_at_root": (
        lambda rows: inertia_hermitian_at_root(rows, UnitCirclePoint.root(1, 2)), "matrix"),
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

    @pytest.mark.parametrize("rows, shown", [
        (["12", "34"], "'12'"),  # was split into characters: "got '1'" at (0,0)
        ([[1, 0], b"\x00\x01"], "b'\\x00\\x01'"),  # was read as the row (0, 1)
        ([[1], {0: 1}], "{0: 1}"),  # was read as its keys
        ([range(1)], "range(0, 1)"),
    ], ids=["str", "bytes", "dict", "range"])
    def test_a_row_that_is_not_a_list_or_tuple_is_named(self, rows, shown):
        i = next(i for i, row in enumerate(rows) if type(row) not in (list, tuple))
        with pytest.raises(ValueError) as refusal:
            strict_matrix(rows, "matrix")
        assert str(refusal.value) == f"matrix row {i} must be a list or a tuple, got {shown}"

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


@pytest.mark.parametrize("theta, shown", [
    ("0.5", "'0.5'"),  # was read as 0.5
    (True, "True"),  # was read as 1.0
    (Flag.ONE, "<Flag.ONE: 1>"),
    (10**400, "1" + "0" * 79 + "... (401 characters in all)"),  # was an OverflowError
    (-(2**1024), repr(-(2**1024))[:80] + "... (310 characters in all)"),
], ids=["str", "bool", "IntEnum", "past-the-float-range", "just-past-it"])
def test_theta_is_a_float_or_an_int_in_the_float_range(theta, shown):
    with pytest.raises(ValueError) as refusal:
        UnitCirclePoint(theta=theta)
    assert str(refusal.value) == ("theta must be a float, or an int within the float range "
                                  f"+-1.7976931348623157e+308; got {shown}")
    assert UnitCirclePoint(theta=2).theta == UnitCirclePoint(theta=2.0).theta == 2.0
    assert UnitCirclePoint(theta=int(1.7976931348623157e+308)).theta == 1.7976931348623157e+308


class TestBriefRepr:
    def test_a_short_value_is_shown_whole(self):
        value = "x" * 98
        assert brief(value) == repr(value)
        assert brief(Flag.ONE) == "<Flag.ONE: 1>"

    def test_a_long_value_is_clipped_and_its_length_named(self):
        value = "x" * 99
        assert brief(value) == "'" + "x" * 79 + "... (101 characters in all)"

    def test_an_angle_too_long_to_show_is_still_refused(self):
        # an int past the digit limit of int-to-str conversion is named by its digit count
        with pytest.raises(ValueError, match="got <an int of 5001 digits>$"):
            UnitCirclePoint(theta=10**5000)

    LIMIT = sys.get_int_max_str_digits()

    @pytest.mark.parametrize("value, digits", [
        (10**LIMIT, LIMIT + 1), (10 ** (LIMIT + 1) - 1, LIMIT + 1),
        (-(10 ** (LIMIT + 1)), LIMIT + 2), (2 * 10 ** (2 * LIMIT - 1), 2 * LIMIT),
    ], ids=["power-of-ten", "all-nines", "negative", "twice-the-limit"])
    def test_an_int_past_the_digit_limit_is_named_by_its_digit_count(self, value, digits):
        sign = "a negative" if value < 0 else "an"
        assert brief(value) == f"<{sign} int of {digits} digits>"
        assert brief(10**self.LIMIT - 1).endswith(f"({self.LIMIT} characters in all)")

    @pytest.mark.parametrize("check", [
        lambda value: strict_int(value, "count"),
        lambda value: strict_bool(value, "flag"),
        lambda value: strict_keys({value: 0}, ("a",), "the doc"),
        lambda value: strict_matrix([[value]], "matrix"),
        lambda value: UnitCirclePoint(theta=value),
        lambda value: table_profile({"0": 0, "-" + "0" * 4000: 0}),
        lambda value: eval_invariant(parse_pattern(value[:50_000]), {}),
    ], ids=["strict_int", "strict_bool", "strict_keys", "strict_matrix", "theta",
            "profile-keys", "unassigned-atom"])
    def test_every_refusal_clips_what_it_echoes(self, check):
        value = "y" * 100_000
        with pytest.raises((ValueError, LookupError)) as refusal:
            check(value)
        assert len(str(refusal.value)) < 200
        assert " characters in all)" in str(refusal.value)
