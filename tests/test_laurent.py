import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import eval_at_angle, eval_naive
from shakekit.laurent import (
    LaurentPoly,
    UnitCirclePoint,
    eval_symmetric_real,
    format_laurent,
    laurent_from_entry,
    lp_is_symmetric,
    parse_laurent,
)

# Symmetrized Alexander polynomial of the first family member, written out
# by hand; several tests below pin evaluations of it.
DELTA_1 = LaurentPoly({-2: 1, -1: -3, 0: 5, 1: -3, 2: 1})

polys = st.dictionaries(
    st.integers(-6, 6), st.integers(-9, 9), max_size=6
).map(LaurentPoly)


class TestCanonicalForm:
    def test_zero_coefficients_dropped(self):
        assert LaurentPoly({2: 0, 1: 3}).coeffs == {1: 3}

    def test_zero_poly(self):
        assert LaurentPoly().is_zero()
        assert LaurentPoly({5: 0}).coeffs == {}
        assert not LaurentPoly({0: 1}).is_zero()

    def test_equality_is_structural(self):
        assert LaurentPoly({0: 2, 3: -1}) == LaurentPoly({3: -1, 0: 2})
        assert LaurentPoly({0: 7}) == 7
        assert LaurentPoly() == 0
        assert LaurentPoly({1: 1}) != LaurentPoly({-1: 1})

    def test_hashable(self):
        assert len({LaurentPoly({0: 1}), LaurentPoly.one(), LaurentPoly.t()}) == 2

    def test_constants_hash_as_the_int_they_equal(self):
        for c in (0, 1, -1, 7, 10**30):
            assert LaurentPoly({0: c}) == c and hash(LaurentPoly({0: c})) == hash(c)
        assert len({LaurentPoly.one(), 1}) == len({LaurentPoly.zero(), 0}) == 1
        assert {LaurentPoly.t(): "t", 1: "one"}[LaurentPoly.one()] == "one"
        assert len({LaurentPoly.t(), LaurentPoly({0: 1, 1: 1}), 1}) == 3

    def test_exponent_range(self):
        p = LaurentPoly({-2: 1, 3: 4})
        assert p.min_exp() == -2
        assert p.max_exp() == 3

    def test_rejects_bad_entries(self):
        with pytest.raises(TypeError):
            LaurentPoly({0.5: 1})  # type: ignore[dict-item]
        with pytest.raises(TypeError):
            LaurentPoly({0: 1.5})  # type: ignore[dict-item]


class TestArithmetic:
    def test_add(self):
        p = LaurentPoly({1: 1, 0: 1})
        assert p + LaurentPoly({0: -1}) == LaurentPoly.t()
        assert p + LaurentPoly.zero() == p
        assert p + (-p) == 0

    def test_mul(self):
        p = LaurentPoly({1: 1, 0: -1})  # t - 1
        q = LaurentPoly({-1: 1, 0: -1})  # t^-1 - 1
        assert p * q == LaurentPoly({1: -1, 0: 2, -1: -1})
        assert p * LaurentPoly.one() == p
        assert p * 0 == 0

    def test_pow(self):
        p = LaurentPoly({1: 1, -1: 1})
        assert p**2 == LaurentPoly({2: 1, 0: 2, -2: 1})
        assert p**0 == 1
        with pytest.raises(ValueError):
            p ** (-1)

    def test_scalar_ops(self):
        p = LaurentPoly({1: 2})
        assert 3 - p == LaurentPoly({0: 3, 1: -2})
        assert p * 2 == LaurentPoly({1: 4})

    def test_shift_and_inverse_variable(self):
        p = LaurentPoly({0: 1, 1: 2})
        assert p.shift(-1) == LaurentPoly({-1: 1, 0: 2})
        assert p.inverse_variable() == LaurentPoly({0: 1, -1: 2})
        assert DELTA_1.inverse_variable() == DELTA_1

    @given(polys, polys)
    def test_add_commutes(self, p, q):
        assert p + q == q + p

    @given(polys, polys, polys)
    def test_mul_associates_and_distributes(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(polys, polys)
    def test_mul_commutes(self, p, q):
        assert p * q == q * p


class TestSymmetry:
    def test_examples(self):
        assert lp_is_symmetric(DELTA_1)
        assert lp_is_symmetric(LaurentPoly.zero())
        assert lp_is_symmetric(LaurentPoly.one())
        assert not lp_is_symmetric(LaurentPoly.t())
        assert not lp_is_symmetric(LaurentPoly({-1: 1, 1: 2}))

    @given(polys)
    def test_symmetrization_is_symmetric(self, p):
        assert lp_is_symmetric(p + p.inverse_variable())


class TestUnitCirclePoint:
    def test_normalization(self):
        assert UnitCirclePoint.root(2, 4) == UnitCirclePoint.root(1, 2)
        assert UnitCirclePoint.root(7, 5) == UnitCirclePoint.root(2, 5)
        assert UnitCirclePoint.root(-1, 3) == UnitCirclePoint.root(2, 3)
        assert str(UnitCirclePoint.root(2, 6)) == "1/3"

    def test_is_one(self):
        assert UnitCirclePoint.root(0, 1).is_one()
        assert UnitCirclePoint.root(5, 5).is_one()
        assert not UnitCirclePoint.minus_one().is_one()
        assert UnitCirclePoint.angle(0.0).is_one()

    def test_minus_one(self):
        w = UnitCirclePoint.minus_one()
        assert w == UnitCirclePoint.root(1, 2)
        assert w.theta == math.pi

    def test_a_root_never_equals_a_float_angle(self):
        # equal points hash equal, so a set never holds two equal members
        assert UnitCirclePoint.root(1, 2) != UnitCirclePoint.angle(math.pi)
        assert len({UnitCirclePoint.root(1, 2), UnitCirclePoint.angle(math.pi)}) == 2
        assert len({UnitCirclePoint.root(0, 1), UnitCirclePoint.angle(0.0)}) == 2
        assert len({UnitCirclePoint.root(2, 4), UnitCirclePoint.minus_one()}) == 1
        assert len({UnitCirclePoint.angle(0.0), UnitCirclePoint.angle(-0.0)}) == 1
        assert UnitCirclePoint.angle(0.5) == UnitCirclePoint.angle(0.5)

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            UnitCirclePoint.root(1, 0)

    def test_angle_point(self):
        w = UnitCirclePoint.angle(1.0)
        assert not w.is_rational
        assert w.theta == 1.0

    def test_theta_of_orders_beyond_the_float_range(self):
        # tau * k / m as before wherever it is finite, tau * (k/m) past that
        for k, m in ((1, 3), (5, 11), (10**17 + 1, 10**18), (1, 2**1000), (3, 2**1023 + 1)):
            assert UnitCirclePoint.root(k, m).theta == math.tau * k / m
        assert UnitCirclePoint.root(1, 10**400).theta == 0.0
        assert UnitCirclePoint.root(10**400 - 1, 2 * 10**400).theta == math.pi
        assert UnitCirclePoint.root(1, 2**1030).theta == math.tau * 2.0**-1030


def l1(p: LaurentPoly) -> float:
    return float(sum(abs(c) for c in p.coeffs.values()))


class TestEvaluation:
    """eval_symmetric_real, the one float evaluator, against the naive power sum."""

    def test_delta1_at_one(self):
        assert eval_symmetric_real(DELTA_1, 1.0) == 1.0

    def test_delta1_at_minus_one(self):
        # pinned against the naive power sum: 1 + 3 + 5 + 3 + 1
        assert eval_symmetric_real(DELTA_1, -1.0) == 13.0
        assert eval_naive(DELTA_1, -1 + 0j) == 13 + 0j

    def test_delta1_quadratic_in_real_part(self):
        # a0 + 2*a1*x + 2*a2*(2x^2 - 1) collapses to 4x^2 - 6x + 3
        for x in [-1.0, -0.5, 0.0, 0.25, 1.0]:
            assert math.isclose(
                eval_symmetric_real(DELTA_1, x), 4 * x * x - 6 * x + 3, rel_tol=1e-14
            )

    def test_symmetric_evaluation_is_float(self):
        val = eval_symmetric_real(DELTA_1, math.cos(math.tau / 7))
        assert isinstance(val, float)

    def test_eval_symmetric_real_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eval_symmetric_real(LaurentPoly.t(), 0.5)

    @given(polys, st.integers(0, 60), st.integers(1, 60))
    def test_matches_naive_evaluation(self, p, k, m):
        sym = p + p.inverse_variable()
        theta = math.tau * k / m
        got = eval_symmetric_real(sym, math.cos(theta))
        want = eval_at_angle(sym, theta)
        assert abs(got - want) <= 1e-12 * max(1.0, l1(sym))

    @given(polys, polys, st.integers(0, 24), st.integers(1, 24))
    def test_evaluation_is_multiplicative(self, p, q, k, m):
        p, q = p + p.inverse_variable(), q + q.inverse_variable()
        x = math.cos(math.tau * k / m)
        lhs = eval_symmetric_real(p * q, x)
        rhs = eval_symmetric_real(p, x) * eval_symmetric_real(q, x)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, l1(p) * l1(q))

    @given(polys)
    def test_symmetric_part_evaluates_real(self, p):
        sym = p + p.inverse_variable()
        theta = math.tau / 7
        assert isinstance(eval_symmetric_real(sym, math.cos(theta)), float)
        assert abs(eval_at_angle(sym, theta).imag) <= 1e-12 * max(1.0, l1(sym))


class TestParseFormat:
    def test_parse_examples(self):
        assert parse_laurent("t^-2 - 3*t^-1 + 5 - 3*t + t^2") == DELTA_1
        assert parse_laurent("0") == LaurentPoly.zero()
        assert parse_laurent("1") == LaurentPoly.one()
        assert parse_laurent("-t") == LaurentPoly({1: -1})
        assert parse_laurent("2*t^3") == LaurentPoly({3: 2})
        assert parse_laurent("t + t") == LaurentPoly({1: 2})

    def test_format_examples(self):
        assert format_laurent(DELTA_1) == "t^-2 - 3*t^-1 + 5 - 3*t + t^2"
        assert format_laurent(LaurentPoly.zero()) == "0"
        assert format_laurent(LaurentPoly({0: -1, 1: 1})) == "-1 + t"
        assert str(LaurentPoly({1: -1})) == "-t"

    def test_parse_rejects_garbage(self):
        for bad in ["", "t^", "x + 1", "t**2", "3 3",
                    "\u0663*t^\u0662", "t^\u0662", "\u0663", "2*t^-\u0663", "\uff11 + t", "t^\u00b2"]:
            with pytest.raises(ValueError):
                parse_laurent(bad)

    @given(polys)
    def test_round_trip(self, p):
        assert parse_laurent(format_laurent(p)) == p

    def test_laurent_from_entry(self):
        assert laurent_from_entry(3) == LaurentPoly({0: 3})
        assert laurent_from_entry("t - 1") == LaurentPoly({1: 1, 0: -1})
        assert laurent_from_entry(DELTA_1) == DELTA_1
        # JSON booleans/floats are invalid entries, not coercible ints
        with pytest.raises(ValueError):
            laurent_from_entry(True)
        with pytest.raises(ValueError):
            laurent_from_entry(1.5)  # type: ignore[arg-type]
