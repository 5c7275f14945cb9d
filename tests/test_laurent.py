import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import eval_at_angle, eval_naive
from shakekit.laurent import (
    LaurentPoly,
    UnitCirclePoint,
    eval_symmetric_real,
    lp_is_symmetric,
)

# Symmetrized Alexander polynomial of the first family member, written out
# by hand; several tests below pin evaluations of it.
DELTA_1 = LaurentPoly({-2: 1, -1: -3, 0: 5, 1: -3, 2: 1})

polys = st.dictionaries(
    st.integers(-6, 6), st.integers(-9, 9), max_size=6
).map(LaurentPoly)
# symmetric under t -> 1/t: a_k for k >= 0 read from the dict, a_-k = a_k
sym_polys = st.dictionaries(
    st.integers(0, 6), st.integers(-9, 9), max_size=6
).map(lambda d: LaurentPoly({s * e: c for e, c in d.items() for s in (1, -1)}))


class TestCanonicalForm:
    def test_zero_coefficients_dropped(self):
        assert LaurentPoly({2: 0, 1: 3}).coeffs == {1: 3}

    def test_zero_poly(self):
        assert not LaurentPoly()
        assert LaurentPoly({5: 0}).coeffs == {}
        assert LaurentPoly({0: 1})

    def test_equality_is_structural(self):
        assert LaurentPoly({0: 2, 3: -1}) == LaurentPoly({3: -1, 0: 2})
        assert LaurentPoly({0: 7}) == 7
        assert LaurentPoly() == 0
        assert LaurentPoly({1: 1}) != LaurentPoly({-1: 1})

    def test_hashable(self):
        assert len({LaurentPoly({0: 1}), LaurentPoly({0: 1}), LaurentPoly({1: 1})}) == 2

    def test_constants_hash_as_the_int_they_equal(self):
        for c in (0, 1, -1, 7, 10**30):
            assert LaurentPoly({0: c}) == c and hash(LaurentPoly({0: c})) == hash(c)
        assert len({LaurentPoly({0: 1}), 1}) == len({LaurentPoly(), 0}) == 1
        assert {LaurentPoly({1: 1}): "t", 1: "one"}[LaurentPoly({0: 1})] == "one"
        assert len({LaurentPoly({1: 1}), LaurentPoly({0: 1, 1: 1}), 1}) == 3

    def test_rejects_bad_entries(self):
        with pytest.raises(TypeError):
            LaurentPoly({0.5: 1})  # type: ignore[dict-item]
        with pytest.raises(TypeError):
            LaurentPoly({0: 1.5})  # type: ignore[dict-item]


def plus(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """p + q from the coefficient dicts: LaurentPoly has no + of its own."""
    coeffs = p.coeffs
    for e, c in q.coeffs.items():
        coeffs[e] = coeffs.get(e, 0) + c
    return LaurentPoly(coeffs)


class TestArithmetic:
    def test_mul(self):
        p = LaurentPoly({1: 1, 0: -1})  # t - 1
        q = LaurentPoly({-1: 1, 0: -1})  # t^-1 - 1
        assert p * q == LaurentPoly({1: -1, 0: 2, -1: -1})
        assert p * LaurentPoly({0: 1}) == p
        assert p * 0 == 0

    def test_scalar_ops(self):
        p = LaurentPoly({1: 2})
        assert p * 2 == 2 * p == LaurentPoly({1: 4})

    def test_shift(self):
        p = LaurentPoly({0: 1, 1: 2})
        assert p.shift(-1) == LaurentPoly({-1: 1, 0: 2})
        assert DELTA_1.shift(2) == LaurentPoly({0: 1, 1: -3, 2: 5, 3: -3, 4: 1})

    @given(polys, polys, polys)
    def test_mul_associates_and_distributes(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * plus(q, r) == plus(p * q, p * r)

    @given(polys, polys)
    def test_mul_commutes(self, p, q):
        assert p * q == q * p


class TestSymmetry:
    def test_examples(self):
        assert lp_is_symmetric(DELTA_1)
        assert lp_is_symmetric(LaurentPoly())
        assert lp_is_symmetric(LaurentPoly({0: 1}))
        assert not lp_is_symmetric(LaurentPoly({1: 1}))
        assert not lp_is_symmetric(LaurentPoly({-1: 1, 1: 2}))

    @given(sym_polys)
    def test_symmetrization_is_symmetric(self, p):
        assert lp_is_symmetric(p)


class TestUnitCirclePoint:
    def test_normalization(self):
        assert UnitCirclePoint.root(2, 4) == UnitCirclePoint.root(1, 2)
        assert UnitCirclePoint.root(7, 5) == UnitCirclePoint.root(2, 5)
        assert UnitCirclePoint.root(-1, 3) == UnitCirclePoint.root(2, 3)
        assert str(UnitCirclePoint.root(2, 6)) == "1/3"

    def test_is_one(self):
        assert UnitCirclePoint.root(0, 1).is_one()
        assert UnitCirclePoint.root(5, 5).is_one()
        assert not UnitCirclePoint.root(1, 2).is_one()
        assert UnitCirclePoint.angle(0.0).is_one()

    def test_minus_one(self):
        w = UnitCirclePoint.root(1, 2)
        assert (w.k, w.m) == (1, 2)
        assert w.theta == math.pi

    def test_a_root_never_equals_a_float_angle(self):
        # equal points hash equal, so a set never holds two equal members
        assert UnitCirclePoint.root(1, 2) != UnitCirclePoint.angle(math.pi)
        assert len({UnitCirclePoint.root(1, 2), UnitCirclePoint.angle(math.pi)}) == 2
        assert len({UnitCirclePoint.root(0, 1), UnitCirclePoint.angle(0.0)}) == 2
        assert len({UnitCirclePoint.root(2, 4), UnitCirclePoint.root(1, 2)}) == 1
        assert len({UnitCirclePoint.angle(0.0), UnitCirclePoint.angle(-0.0)}) == 1
        assert UnitCirclePoint.angle(0.5) == UnitCirclePoint.angle(0.5)

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            UnitCirclePoint.root(1, 0)

    @pytest.mark.parametrize("k, m, message", [
        (1, True, "expected integer root order m, got True"),
        (True, 3, "expected integer root index k, got True"),
        (1, 2.0, "expected integer root order m, got 2.0"),
        (0.5, 4, "expected integer root index k, got 0.5"),
        ("1", 3, "expected integer root index k, got '1'"),
    ], ids=["order-bool", "index-bool", "order-float", "index-float", "index-str"])
    def test_takes_ints_only(self, k, m, message):
        # root(1, True) was omega = 1 and root(True, 3) the root 1/3
        with pytest.raises(ValueError, match=re.escape(message)):
            UnitCirclePoint.root(k, m)
        with pytest.raises(ValueError, match=re.escape(message)):
            UnitCirclePoint(k=k, m=m)

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
            eval_symmetric_real(LaurentPoly({1: 1}), 0.5)

    @given(sym_polys, st.integers(0, 60), st.integers(1, 60))
    def test_matches_naive_evaluation(self, sym, k, m):
        theta = math.tau * k / m
        got = eval_symmetric_real(sym, math.cos(theta))
        want = eval_at_angle(sym, theta)
        assert abs(got - want) <= 1e-12 * max(1.0, l1(sym))

    @given(sym_polys, sym_polys, st.integers(0, 24), st.integers(1, 24))
    def test_evaluation_is_multiplicative(self, p, q, k, m):
        x = math.cos(math.tau * k / m)
        lhs = eval_symmetric_real(p * q, x)
        rhs = eval_symmetric_real(p, x) * eval_symmetric_real(q, x)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, l1(p) * l1(q))

    @given(sym_polys)
    def test_symmetric_part_evaluates_real(self, sym):
        theta = math.tau / 7
        assert isinstance(eval_symmetric_real(sym, math.cos(theta)), float)
        assert abs(eval_at_angle(sym, theta).imag) <= 1e-12 * max(1.0, l1(sym))


class TestParseFormat:
    def test_format_examples(self):
        assert str(DELTA_1) == "t^-2 - 3*t^-1 + 5 - 3*t + t^2"
        assert str(LaurentPoly()) == "0"
        assert str(LaurentPoly({0: -1, 1: 1})) == "-1 + t"
        assert str(LaurentPoly({1: -1})) == "-t"
