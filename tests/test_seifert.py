import cmath
import math
import random

import pytest

import shakekit
from oracles import congruence, eval_naive, numpy_signature, random_unimodular
from shakekit.errors import DomainError, OddDimension
from shakekit import exactlinalg
from shakekit.exactlinalg import inertia_hermitian_at_root
from shakekit.laurent import LaurentPoly, UnitCirclePoint, lp_is_symmetric
from shakekit.seifert import (
    alexander,
    an_family,
    classical_signature_seifert,
    delta_n_closed,
    delta_sign_scan,
    lt_signature,
)

TREFOIL = [[-1, 1], [0, -1]]
MINUS_ONE = UnitCirclePoint.root(1, 2)

A1 = [
    [1, 1, 1, 0],
    [0, 0, 1, -1],
    [1, 2, 0, 0],
    [0, 0, -1, 0],
]

A2 = [
    [1, 1, 1, 0, 0, 0],
    [0, 0, 1, 0, 0, -1],
    [1, 2, 0, 0, 0, 0],
    [0, 0, -1, 0, 0, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 1, 0],
]

# 14x14 member written out in full; the generator must reproduce it.
A6 = [
    [1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1],
    [1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
]

DELTA_1 = LaurentPoly({-2: 1, -1: -3, 0: 5, 1: -3, 2: 1})
DELTA_2 = LaurentPoly({-3: 1, -2: -2, 0: 3, 2: -2, 3: 1})


class TestFamilyMatrices:
    def test_first_member(self):
        assert an_family(1) == A1

    def test_second_member(self):
        assert an_family(2) == A2

    def test_sixth_member(self):
        assert an_family(6) == A6

    def test_dimensions(self):
        for n in range(1, 10):
            a = an_family(n)
            assert len(a) == 2 * n + 2
            assert all(len(row) == 2 * n + 2 for row in a)

    def test_rejects_bad_index(self):
        with pytest.raises(DomainError):
            an_family(0)
        with pytest.raises(DomainError):
            an_family(-2)


class TestAlexander:
    def test_trefoil(self):
        assert alexander(TREFOIL) == LaurentPoly({-1: 1, 0: -1, 1: 1})

    def test_first_family_member(self):
        assert alexander(A1) == DELTA_1

    def test_empty_matrix(self):
        assert alexander([]) == LaurentPoly({0: 1})

    def test_odd_dimension_rejected(self):
        assert OddDimension is shakekit.OddDimension is shakekit.errors.OddDimension
        with pytest.raises(OddDimension):
            alexander([[1]])
        with pytest.raises(OddDimension):
            alexander([[0, 1, 0], [0, 0, 0], [1, 1, 1]])

    def test_odd_dimension_rejected_by_the_signatures(self):
        # as alexander: the strict input check first, then the parity; the Hermitian inertia
        # itself answers any square matrix
        for A in ([[1]], [[0, 1, 0], [0, 0, 0], [1, 1, 1]]):
            with pytest.raises(OddDimension, match="^dimension .* is odd"):
                lt_signature(A, UnitCirclePoint.root(1, 3))
            with pytest.raises(OddDimension):
                classical_signature_seifert(A)
        assert inertia_hermitian_at_root([[1]], UnitCirclePoint.root(1, 3)).signature == 1
        with pytest.raises(ValueError, match="must be 3x3") as exc:
            lt_signature([[1, 0, 0], [0, 1], [0, 0, 1]], UnitCirclePoint.root(1, 3))
        assert not isinstance(exc.value, OddDimension)
        with pytest.raises(ValueError, match="got 1.0") as exc:
            classical_signature_seifert([[1.0]])
        assert not isinstance(exc.value, OddDimension)

    def test_non_seifert_matrix_rejected(self):
        with pytest.raises(DomainError, match="must be 1"):
            alexander([[0, 0], [0, 0]])

    def test_always_symmetric(self):
        for n in range(1, 6):
            assert lp_is_symmetric(alexander(an_family(n)))

    def test_value_one_at_one(self):
        for n in range(1, 13):
            assert sum(alexander(an_family(n)).coeffs.values()) == 1


class TestClosedForm:
    def test_frozen_small_cases(self):
        assert delta_n_closed(1) == DELTA_1
        assert delta_n_closed(2) == DELTA_2

    def test_matches_determinant_route(self):
        for n in range(1, 13):
            assert alexander(an_family(n)) == delta_n_closed(n), f"n={n}"

    def test_matches_determinant_route_up_to_dimension_82(self):
        for n in range(13, 41):
            assert alexander(an_family(n)) == delta_n_closed(n), f"n={n}"

    def test_every_leading_minor_in_closed_form(self):
        # a_family_profile's proof sketch: P_1 = t - 1, P_2j = t^j and
        # P_2j+1 = t^(j-1)(1 - 2t + 2t^2 - t^3) below dim = 2n+2, and
        # P_dim = t^(n+1) * Delta_n; these pivots carry powers of t, which
        # the elimination applies as shifts
        cubic = LaurentPoly({0: 1, 1: -2, 2: 2, 3: -1})
        for n in range(1, 121):
            pivots = exactlinalg._pencil.__wrapped__(tuple(map(tuple, an_family(n))))
            dim = 2 * n + 2
            want = [LaurentPoly({1: 1, 0: -1})] + [
                LaurentPoly({k // 2: 1}) if k % 2 == 0 else cubic.shift(k // 2 - 1)
                for k in range(2, dim)] + [delta_n_closed(n).shift(n + 1)]
            assert [pivots.minor(k) for k in range(1, dim + 1)] == want, f"n={n}"

    def test_rejects_bad_index(self):
        with pytest.raises(DomainError):
            delta_n_closed(0)

    @pytest.mark.parametrize("build", [an_family, delta_n_closed])
    @pytest.mark.parametrize("n", [True, 2.0, "2"], ids=["bool", "float", "str"])
    def test_index_is_an_int_never_coerced(self, build, n):
        with pytest.raises(ValueError, match=f"expected integer family index n, got {n!r}"):
            build(n)

    def test_symmetric_with_value_one_at_one(self):
        for n in range(1, 13):
            d = delta_n_closed(n)
            assert lp_is_symmetric(d)
            assert sum(d.coeffs.values()) == 1

    def test_roots_of_unity_identity(self):
        # at a nontrivial n-th root of unity the middle terms telescope,
        # leaving 2*Re(omega) - 1
        for n in range(2, 13):
            d = delta_n_closed(n)
            for k in range(1, n):
                w = cmath.exp(1j * math.tau * k / n)
                expected = 2 * math.cos(math.tau * k / n) - 1
                assert abs(eval_naive(d, w) - expected) < 1e-9, (n, k)

    def test_minus_one_values(self):
        # parity of n splits the evaluation: 13 for odd n, -3 for even
        for n in range(1, 13):
            expected = 13.0 if n % 2 else -3.0
            assert eval_naive(delta_n_closed(n), -1) == expected


class TestSignatures:
    def test_classical_values(self):
        assert classical_signature_seifert(A1) == 0
        assert classical_signature_seifert(A2) == 2
        assert classical_signature_seifert(TREFOIL) == -2

    def test_classical_after_the_pencil_is_memoised(self):
        # the trefoil's D_1(-1) = -2 P_1(-1) < 0 and D_2(-1) = 4 P_2(-1) > 0:
        # without the (-1)^k factor the count would give +2
        for A, want in ((A1, 0), (A2, 2), (TREFOIL, -2)):
            exactlinalg._pencil.cache_clear()
            alexander(A)
            assert classical_signature_seifert(A) == want

    def test_lt_at_minus_one_matches_classical(self):
        w = UnitCirclePoint.root(1, 2)
        for n in range(1, 5):
            a = an_family(n)
            assert lt_signature(a, w) == classical_signature_seifert(a)

    def test_lt_values(self):
        w = UnitCirclePoint.root(1, 2)
        assert lt_signature(A1, w) == 0
        assert lt_signature(A2, w) == 2
        assert lt_signature(TREFOIL, w) == -2

    def test_lt_inertia_dim(self):
        inertia = inertia_hermitian_at_root(A1, UnitCirclePoint.root(1, 2))
        assert inertia.dim == 4
        assert inertia.n_zero == 0

    def test_lt_signature_even(self):
        for n in range(1, 4):
            a = an_family(n)
            for k in range(1, 7):
                w = UnitCirclePoint.root(k, 7)
                assert lt_signature(a, w) % 2 == 0


class TestEntriesAreInts:
    """A bool or float entry is refused before _pencil's memo, where (1.0, True) == (1, 1)."""

    FUNCTIONS = {
        "alexander": alexander,
        "classical": classical_signature_seifert,
        "lt": lambda A: lt_signature(A, UnitCirclePoint.root(1, 2)),
        "hermitian": lambda A: inertia_hermitian_at_root(A, UnitCirclePoint.root(1, 2)),
    }

    @pytest.mark.parametrize("name", FUNCTIONS)
    @pytest.mark.parametrize("bad, where", [
        ([[1.0, 1], [0, 1]], "at (0,0), got 1.0"),
        ([[1, 1], [0, True]], "at (1,1), got True"),
        ([[True, True], [False, True]], "at (0,0), got True"),
    ], ids=["float", "bool", "all-bool"])
    def test_refused_with_a_cold_memo_and_a_warm_one(self, name, bad, where):
        fn = self.FUNCTIONS[name]
        exactlinalg._pencil.cache_clear()
        with pytest.raises(ValueError) as cold:
            fn(bad)
        # an int matrix equal to bad, answered, with its pencil memoised
        alexander([[1, 1], [0, 1]])
        fn([[1, 1], [0, 1]])
        with pytest.raises(ValueError) as warm:
            fn(bad)
        assert str(cold.value) == str(warm.value) == f"expected integer matrix entry {where}"


class TestClassicalSignatureRoutes:
    """sigma(A + A^T) is counted from the pencil's pivots where the memo holds them, else the
    form A + A^T is eliminated; both answers agree with numpy for any square matrix."""

    def test_both_routes_agree_with_numpy(self, monkeypatch):
        forms = []
        real = exactlinalg._form_inertia
        monkeypatch.setattr(exactlinalg, "_form_inertia",
                            lambda rows: forms.append(1) or real(rows))
        rng = random.Random(45)
        routes = {"pencil": 0, "form": 0}
        for trial in range(3200):
            n = rng.randint(1, 9)  # odd, singular and non-knot matrices included
            density = (0.2, 0.5, 0.9)[trial % 3]
            A = [[rng.randint(-2, 2) if rng.random() < density else 0 for _ in range(n)]
                 for _ in range(n)]
            exactlinalg._pencil.cache_clear()
            cold = inertia_hermitian_at_root(A, MINUS_ONE).signature
            assert exactlinalg._pencil.held == {}
            exactlinalg._pencil(tuple(map(tuple, A)))
            forms.clear()
            warm = inertia_hermitian_at_root(A, MINUS_ONE).signature
            if n % 2:
                with pytest.raises(OddDimension):
                    classical_signature_seifert(A)
            else:
                assert classical_signature_seifert(A) == warm
            routes["form" if forms else "pencil"] += 1
            want = numpy_signature([[a + b for a, b in zip(row, col)]
                                    for row, col in zip(A, zip(*A))])
            assert cold == warm == want, A
        assert min(routes.values()) >= 1000, routes

    def test_after_alexander_no_kernel_runs(self, kernel_calls):
        A = congruence(random_unimodular(random.Random(45), 18, 60), an_family(8))
        exactlinalg._pencil.cache_clear()
        alexander(A)
        held, = exactlinalg._pencil.held.values()
        assert len(kernel_calls) == 1 and kernel_calls[0].result is held
        kernel_calls.clear()
        assert classical_signature_seifert(A) == classical_signature_seifert(an_family(8)) == 2
        assert len(kernel_calls) == 1  # an_family(8)'s cold call

    def test_a_cold_call_builds_no_pencil(self, kernel_calls):
        exactlinalg._pencil.cache_clear()
        assert classical_signature_seifert(TREFOIL) == -2
        call, = kernel_calls
        assert call.rows == [{0: -2, 1: 1}, {0: 1, 1: -2}] and not any(call.lows) and call.pivots
        assert call.result.values == (-2, 3)  # the form's leading minors, no pencil's
        assert exactlinalg._pencil.held == {}

    def test_the_library_checks_no_knot_rule(self):
        # A - A^T = 0: no knot's matrix, but a square one with sigma(A + A^T) = 2
        exactlinalg._pencil.cache_clear()
        assert classical_signature_seifert([[1, 0], [0, 1]]) == 2
        assert lt_signature([[1, 0], [0, 1]], UnitCirclePoint.root(1, 3)) == 2
        assert classical_signature_seifert([[1, 0], [0, 1]]) == 2
        with pytest.raises(DomainError, match="must be 1, got Alexander value 0 at t = 1"):
            alexander([[1, 0], [0, 1]])


class TestSignScan:
    def test_positive_polynomial_has_no_arcs(self):
        assert delta_sign_scan(delta_n_closed(1), 360) == []
        assert delta_sign_scan(LaurentPoly({0: 1}), 16) == []

    def test_third_member_changes_sign(self):
        arcs = delta_sign_scan(delta_n_closed(3), 720)
        assert arcs
        step = math.tau / 720
        for lo, hi in arcs:
            assert math.isclose(hi - lo, step)
            assert 0 <= lo < math.tau

    def test_arc_endpoints_have_opposite_signs(self):
        d = delta_n_closed(3)
        arcs = delta_sign_scan(d, 720)
        assert len(arcs) == 4  # conjugate pairs of two root pairs
        for lo, hi in arcs:
            a = eval_naive(d, cmath.exp(1j * lo)).real
            b = eval_naive(d, cmath.exp(1j * hi)).real
            assert a * b < 0, (lo, hi, a, b)

    def test_arcs_mirror_under_conjugation(self):
        # symmetric polynomials are even in theta, so arcs pair up
        arcs = delta_sign_scan(delta_n_closed(3), 720)
        thetas = [lo for lo, _ in arcs]
        step = math.tau / 720
        for lo, hi in arcs:
            partner = (math.tau - hi) % math.tau
            assert any(abs(partner - t) < step / 2 for t in thetas)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            delta_sign_scan(LaurentPoly({1: 1}), 360)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            delta_sign_scan(delta_n_closed(1), 1)


class TestArcConstancy:
    def test_lt_signature_constant_between_sign_changes(self):
        # sigma(K, omega) can only jump where the form degenerates, i.e.
        # inside the scanned sign-change arcs; sample three angles in each
        # gap between consecutive arcs and demand a single value
        a = an_family(2)
        arcs = delta_sign_scan(delta_n_closed(2), 720)
        assert len(arcs) >= 2
        for (_, lo), (hi, _) in zip(arcs, arcs[1:]):
            values = set()
            for f in (0.25, 0.5, 0.75):
                theta = lo + (hi - lo) * f
                values.add(lt_signature(a, UnitCirclePoint.angle(theta)))
            assert len(values) == 1, (lo, hi, values)
