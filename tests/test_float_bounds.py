"""The two float error bounds, under errors injected inside their own error models.

complexity._delta_sign counts the float value of Delta_n only past _DELTA_BOUND,
and circle._certified_sign counts a float sum only past its
rounding-error bound.  Each test replaces one module's math with a namespace
whose cosine errs by as much as that module's docstring allows, in both
directions.  An exact zero must then give 0 or a refusal, never a nonzero
sign; a value just past the bound and the injected error must keep its sign.

Near the sixth root k/m ~ 1/6, 2cos(theta) - 1 = -sqrt(3)*(theta - pi/3) +
O((theta - pi/3)^2), and so is Delta_6, whose derivative there is also
-sqrt(3).  With 6k - m = d = +-1, theta - pi/3 = tau*d/(6m), so both values
have the sign -d and the size sqrt(3)*tau/(6m) (_near_sixth).
"""

import itertools
import math
import types

import pytest

from shakekit import NearSingular, UnitCirclePoint, circle, complexity
from shakekit.seifert import delta_n_closed

U = 2.0 ** -53

# Delta_N vanishes on the circle at the primitive sixth roots exactly when 6 | N
ZEROS = [(n, k) for n in (6, 12, 600, 6 * 10**20) for k in (1, 5)]


def outcome(fn):
    try:
        return fn()
    except NearSingular:
        return "refused"


def _near_sixth(size: float) -> list[tuple[int, int, int]]:
    """(k, m, sign) with k/m ~ 1/6, 6k - m = -sign, where 2cos - 1 and Delta_6 have size ~size*u."""
    j = round(math.sqrt(3) * math.tau / (36 * size * U))
    return [(j, 6 * j + sign, sign) for sign in (1, -1)]


def nudged_cosines(*nudges: float) -> types.SimpleNamespace:
    """math, whose successive cosines are off by the nudges in turn (cyclically), in units of u."""
    cycle = itertools.cycle(nudges)
    return types.SimpleNamespace(**{**vars(math), "cos": lambda a: math.cos(a) + next(cycle) * U})


class _Cosine(float):
    """cos(a), whose product with a coefficient c is off by nudge * |c|."""

    def __rmul__(self, c):
        return c * float(self) + self.nudge * abs(c)


def nudged_terms(sign: int) -> types.SimpleNamespace:
    """math, in which each term c*cos(phi) of a sum is off by sign * 8u(|phi| + 1) * |c|.

    _certified_sign's err is 8u(max|phi_e| + 1) at a root, and
    8u(|theta| * reach + k + 1) at a float angle, which for k = 0 is at least
    8u(|phi_e| + 1).  A term may be off by |c| * (err + 4u), so this leaves
    the 4u to the real roundings.  All terms move one way, whatever the
    signs of their coefficients.
    """
    def cos(a):
        x = _Cosine(math.cos(a))
        x.nudge = sign * 8 * U * (abs(a) + 1)
        return x

    return types.SimpleNamespace(**{**vars(math), "cos": cos})


class TestDeltaBound:
    """_DELTA_BOUND (640u) is twice the 320u its docstring derives, with each cosine off by 20u."""

    @pytest.mark.parametrize("nudges", list(itertools.product((19, -19), repeat=2)))
    def test_exact_zeros_give_zero_or_a_refusal(self, monkeypatch, nudges):
        # x = cos(theta) and cos(n*theta) off by 19u each, in all four directions; with
        # opposite signs Delta_n moves by about 76u at the sixth roots
        monkeypatch.setattr(complexity, "math", nudged_cosines(*nudges))
        for n, k in ZEROS:
            assert outcome(lambda: complexity._delta_sign(n, k, 6)) in (0, "refused"), (n, k)

    @pytest.mark.parametrize("nudges", list(itertools.product((19, -19), repeat=2)))
    def test_values_just_past_the_bound_keep_their_sign(self, monkeypatch, nudges):
        monkeypatch.setattr(complexity, "math", nudged_cosines(*nudges))
        probes = _near_sixth(760)  # 640u, and the 76u the nudges can move Delta_6
        assert [complexity._delta_sign(6, k, m) for k, m, _ in probes] == [s for *_, s in probes]


class TestSumBound:
    """_certified_sign's bound (err + 8u) * sum|c|, with each term off by up to |c| * err."""

    @pytest.mark.parametrize("sign", [1, -1])
    def test_exact_zeros_give_zero_or_a_refusal(self, monkeypatch, sign):
        monkeypatch.setattr(circle, "math", nudged_terms(sign))
        for n, k in ZEROS:
            terms = sorted(delta_n_closed(n).coeffs.items())
            omega = UnitCirclePoint.root(k, 6)
            assert outcome(lambda: circle._sign_at(omega, 0, terms)) == 0, (n, k)
            assert outcome(lambda: circle._certified_sign(omega, 0, terms)) == "refused"
            assert outcome(lambda: complexity._delta_sign(n, k, 6)) == 0, (n, k)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_values_just_past_the_bound_keep_their_sign(self, monkeypatch, sign):
        # 2cos(theta) - 1 at 1/6 + ~1e-15 turns: its bound is about 73u and the nudges
        # move it by about 41u
        monkeypatch.setattr(circle, "math", nudged_terms(sign))
        probes, terms = _near_sixth(150), [(-1, 1), (0, -1), (1, 1)]
        assert [circle._certified_sign(UnitCirclePoint.root(k, m), 0, terms)
                for k, m, _ in probes] == [s for *_, s in probes]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_a_float_angle_near_a_zero_is_refused(self, monkeypatch, sign):
        # Delta_6 at the float nearest pi/3 is within 2u of 0, and the bound from _angle_error,
        # about 970u, must cover the nudges' 523u
        monkeypatch.setattr(circle, "math", nudged_terms(sign))
        terms = sorted(delta_n_closed(6).coeffs.items())
        omega = UnitCirclePoint.angle(math.pi / 3)
        assert outcome(lambda: circle._certified_sign(omega, 0, terms)) == "refused"
