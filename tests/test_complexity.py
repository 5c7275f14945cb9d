import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from oracles import family_signature, float_grid_points, reduce_first
from shakekit import circle, complexity, exactlinalg, laurent, seifert, verify
from shakekit.complexity import (
    WitnessNotFound,
    a_family_profile,
    certify_complexity,
    find_witness_root,
)
from shakekit.errors import DomainError
from shakekit.circle import InvalidRoot, NearSingular, _sign_at, _vanishes
from shakekit.laurent import UnitCirclePoint
from shakekit.patterns import parse_pattern
from shakekit.seifert import an_family, delta_n_closed, lt_signature

# find_witness_root(n) for n = 1..200, frozen from the search that took
# each signature with the general kernel; odd n always witness at -1.
# 190, 196, 198 and 200, which that search refused, pass no grid rule and
# are answered by the exact rule.
WITNESSES = {n: (1, 2) for n in range(1, 201, 2)}
WITNESSES.update({
    2: (1, 3), 4: (1, 5), 6: (2, 7), 8: (1, 3), 10: (2, 11), 12: (5, 11), 14: (1, 3),
    16: (3, 13), 18: (4, 11), 20: (1, 3), 22: (4, 13), 24: (1, 5), 26: (1, 3), 28: (3, 11),
    30: (5, 11), 32: (1, 3), 34: (1, 5), 36: (6, 13), 38: (1, 3), 40: (6, 13), 42: (3, 13),
    44: (1, 3), 46: (4, 11), 48: (2, 7), 50: (1, 3), 52: (8, 17), 54: (1, 5), 56: (1, 3),
    58: (9, 19), 60: (5, 17), 62: (1, 3), 64: (1, 5), 66: (6, 13), 68: (1, 3), 70: (8, 19),
    72: (5, 13), 74: (1, 3), 76: (2, 7), 78: (5, 11), 80: (1, 3), 82: (8, 17), 84: (1, 5),
    86: (1, 3), 88: (8, 23), 90: (2, 7), 92: (1, 3), 94: (1, 5), 96: (7, 17), 98: (3, 11),
    100: (5, 11), 102: (7, 19), 104: (1, 5), 106: (7, 17), 108: (5, 17), 110: (10, 37),
    112: (4, 11), 114: (1, 5), 116: (4, 13), 118: (2, 7), 120: (3, 11), 122: (5, 11),
    124: (1, 5), 126: (8, 29), 128: (11, 29), 130: (10, 23), 132: (3, 7), 134: (1, 5),
    136: (9, 19), 138: (10, 29), 140: (7, 19), 142: (4, 13), 144: (1, 5), 146: (3, 7),
    148: (19, 41), 150: (5, 13), 152: (7, 17), 154: (1, 5), 156: (4, 11), 158: (8, 19),
    160: (3, 7), 162: (10, 23), 164: (1, 5), 166: (12, 29), 168: (4, 13), 170: (16, 37),
    172: (14, 41), 174: (1, 5), 176: (14, 31), 178: (4, 11), 180: (12, 31), 182: (17, 37),
    184: (1, 5), 186: (7, 17), 188: (18, 37), 192: (25, 53), 194: (1, 5)
})
EXACT_RULE_WITNESSES = {190: (3, 11), 196: (6, 13), 198: (3, 13), 200: (1, 3)}
WITNESSES.update(EXACT_RULE_WITNESSES)

# find_witness_root(n, max_order) for n = 185..215 at max_order 200 and at
# 1000, frozen from the search that scanned every prime-order root up to
# the bound; the two tables agree.  At these orders 190 and 196 pass the
# grid rule, and 198 and 200, where no two adjacent grid points have
# Delta_(1+n) < 0, keep their exact-rule witnesses.
DEEP_WITNESSES = {n: (1, 2) for n in range(185, 216, 2)}
DEEP_WITNESSES.update({
    186: (7, 17), 188: (18, 37), 190: (29, 73), 192: (25, 53), 194: (1, 5), 196: (30, 61),
    198: (3, 13), 200: (1, 3), 202: (2, 7), 204: (1, 5), 206: (1, 3), 208: (2, 11),
    210: (5, 11), 212: (1, 3), 214: (1, 5),
})


def outcome(fn):
    """fn()'s value, or the type of the exception it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


def prime_order_roots(bound: int) -> list[UnitCirclePoint]:
    primes = itertools.takewhile(lambda p: p <= bound, complexity._primes())
    return [UnitCirclePoint.root(k, p) for p in primes for k in range(1, p)]


def is_prime(m: int) -> bool:
    return m >= 2 and all(m % d for d in range(2, int(m**0.5) + 1))


# the product of the primes <= 59: Delta_(1+n) > 0 at every prime-order
# root of order <= 59, so it has no witness at the default order bound
PRIMORIAL_59 = math.prod(p for p in range(2, 60) if is_prime(p))


class TestWitnessSearch:
    def test_first_twist_uses_minus_one(self):
        assert find_witness_root(1) == UnitCirclePoint.root(1, 2)

    def test_second_twist_uses_third_root(self):
        # delta_3 is positive at -1 (value 13), so p = 2 is skipped
        assert find_witness_root(2) == UnitCirclePoint.root(1, 3)

    def test_odd_twists_use_minus_one(self):
        for n in (3, 5, 7):
            assert find_witness_root(n) == UnitCirclePoint.root(1, 2)

    def test_witness_properties(self):
        for n in range(1, 9):
            w = find_witness_root(n)
            assert is_prime(w.m)
            assert w.m <= 60
            assert lt_signature(an_family(1 + n), w) != 0

    def test_deterministic(self):
        assert find_witness_root(4) == find_witness_root(4)

    def test_rejects_bad_index(self):
        with pytest.raises(DomainError):
            find_witness_root(0)

    def test_answers_without_float_evaluation(self, monkeypatch):
        def refuse(p, x):
            raise RuntimeError("the witness search must not evaluate in floats")

        monkeypatch.setattr(laurent, "eval_symmetric_real", refuse)
        for n in range(1, 13):
            cert = certify_complexity(n, 2)
            assert cert.witness == UnitCirclePoint.root(*WITNESSES[n]), n

    def test_witness_table(self):
        assert sorted(WITNESSES) == list(range(1, 201))
        for n, (k, m) in WITNESSES.items():
            assert find_witness_root(n) == UnitCirclePoint.root(k, m), n

    def test_third_roots_keep_two_grid_points(self):
        # 1/3 and 2/3 lie on grid points 240 and 480, but are read against
        # 239 and 240 and against 479 and 480, as the float rule read them;
        # reading them at 240 and 480 alone would pick 1/3 at both framings
        assert complexity._grid_points(1, 3) == (239, 240)
        assert complexity._grid_points(2, 3) == (479, 480)
        assert find_witness_root(98) == UnitCirclePoint.root(3, 11)
        assert find_witness_root(104) == UnitCirclePoint.root(1, 5)

    def test_grid_points_match_the_float_reading(self):
        # the integer reading agrees with the float rule it replaced on every
        # root of prime order <= 2000
        tried = 0
        for p in itertools.takewhile(lambda p: p <= 2000, complexity._primes()):
            for k in range(1, p):
                assert complexity._grid_points(k, p) == float_grid_points(k, p), (k, p)
                tried += 1
        assert tried == 276747
        assert complexity._grid_points(1, 2) == (360,)
        assert complexity._grid_points(4, 5) == (576,)
        assert complexity._grid_points(1, 7) == (102, 103)
        assert complexity._grid_points(1008, 1009) == (719, 0)

    def test_roots_of_prime_order_fail_exactly_on_the_failing_set(self):
        # ROADMAP item 1: Delta_N at a root of order p depends only on N mod p, and some k/p has
        # Delta_N(k/p) < 0 exactly when N mod p is outside the failing set: N odd at p = 2,
        # N != 0 at p = 3, 5, 7, and N = +-1 or +-2^-1 at p >= 11
        mismatches = []
        for p in itertools.takewhile(lambda p: p <= 199, complexity._primes()):
            if p == 2:
                failing = {1}
            elif p <= 7:
                failing = set(range(1, p))
            else:
                half = pow(2, -1, p)
                failing = {1, p - 1, half, p - half}
            for r in range(p):
                N = p + r  # N >= 2 with N = r mod p
                witnessed = any(complexity._delta_sign(N, k, p) < 0 for k in range(1, p))
                if witnessed == (r in failing):
                    mismatches.append((p, r))
        assert mismatches == []

    def test_exact_zero_at_sixth_roots(self, monkeypatch):
        # for n = 5 mod 6, Delta_{1+n} vanishes at the primitive sixth roots
        # (grid points 120 and 600), where a float sample reads about 2e-16:
        # the float sign is not certified, and one exact zero test decides
        reductions = []

        def spy(terms, m):
            reductions.append(m)
            return _vanishes(terms, m)

        monkeypatch.setattr(circle, "_vanishes", spy)
        for n in (5, 11, 17, 197):
            terms = sorted(delta_n_closed(1 + n).coeffs.items())
            for omega in (UnitCirclePoint.root(1, 6), UnitCirclePoint.root(5, 6),
                          UnitCirclePoint.root(120, complexity.WITNESS_GRID),
                          UnitCirclePoint.root(600, complexity.WITNESS_GRID)):
                assert omega.m == 6
                reductions.clear()
                assert _sign_at(omega, 0, terms) == 0, (n, omega)
                assert reductions == [6], (n, omega)

    def test_exact_signs_match_floats_on_the_grid(self):
        step = math.tau / complexity.WITNESS_GRID
        for n in (1, 2, 7, 16, 40):
            poly = delta_n_closed(1 + n)
            terms = sorted(poly.coeffs.items())
            for i in range(complexity.WITNESS_GRID):
                value = laurent.eval_symmetric_real(poly, math.cos(i * step))
                if abs(value) > 1e-9:
                    omega = UnitCirclePoint.root(i, complexity.WITNESS_GRID)
                    want = 1 if value > 0 else -1
                    assert _sign_at(omega, 0, terms) == want, (n, i)

    def test_exhausted_order_budget(self):
        # Delta_3(-1) > 0, and -1 is the one root of prime order <= 2
        with pytest.raises(WitnessNotFound) as exc:
            find_witness_root(2, max_order=2)
        assert (exc.value.n, exc.value.max_order, exc.value.tried) == (2, 2, 1)
        assert "order <= 2 for n = 2" in str(exc.value)
        assert "retry" not in str(exc.value)

    @pytest.mark.parametrize("max_order", [1, 0, -5])
    def test_order_bound_under_two_is_refused(self, max_order):
        # no root has prime order below 2, so such a search would try nothing
        with pytest.raises(DomainError) as exc:
            find_witness_root(1, max_order=max_order)
        assert str(exc.value).startswith(f"max_order {max_order} is under the lower bound of 2")
        with pytest.raises(DomainError, match="lower bound of 2"):
            certify_complexity(3, 1, max_order=max_order)

    def test_refusal_counts_the_roots_tried(self):
        # Delta_37 > 0 at every prime-order root of order <= 7; 3/11 is the
        # first witness
        terms = sorted(delta_n_closed(37).coeffs.items())
        assert all(_sign_at(omega, 0, terms) > 0 for omega in prime_order_roots(7))
        with pytest.raises(WitnessNotFound) as exc:
            find_witness_root(36, max_order=7)
        assert exc.value.tried == 1 + 2 + 4 + 6
        assert str(exc.value).endswith("Delta_37 is positive, so the LT signature is 0, "
                                       "at all 13 prime-order roots tried")
        assert find_witness_root(36, max_order=11) == UnitCirclePoint.root(3, 11)

    def test_no_sign_vanishes_at_prime_order(self):
        # the argument the search rests on: Delta_(1+n), the one sign the
        # family's signature reads, is nonzero at every root of prime order
        roots = prime_order_roots(61)
        assert len(roots) == 483
        for n in range(1, 61):
            terms = sorted(delta_n_closed(1 + n).coeffs.items())
            assert all(_sign_at(omega, 0, terms) for omega in roots), n

    @pytest.mark.parametrize("max_order", [200, 1000])
    def test_witness_table_at_larger_orders(self, max_order):
        for n, (k, m) in DEEP_WITNESSES.items():
            assert find_witness_root(n, max_order=max_order) == UnitCirclePoint.root(k, m), n

    def test_scan_stops_when_no_root_can_pass_the_grid_rule(self, monkeypatch):
        # no two adjacent grid points have Delta_201 < 0, so past order 5 no
        # root passes the grid rule and the exact-rule witness 1/3 is final:
        # a larger order bound takes no further sign
        signs, real = [], complexity._delta_sign

        def spy(n, k, m):
            signs.append((k, m))
            return real(n, k, m)

        monkeypatch.setattr(complexity, "_delta_sign", spy)
        taken = []
        for max_order in (200, 1000, 2000):
            signs.clear()
            assert find_witness_root(200, max_order=max_order) == UnitCirclePoint.root(1, 3)
            taken.append(len(signs))
        assert taken[0] == taken[1] == taken[2] < 3 * complexity.WITNESS_GRID
        # the framings of the certify grid stop before the grid signs are due
        for n in range(1, 26):
            signs.clear()
            find_witness_root(n)
            assert len(signs) < complexity.WITNESS_GRID, n

    def test_huge_order_bound_answers(self):
        # the grid is read in integers, so no order bound is too large for it
        assert find_witness_root(200, max_order=10**12) == UnitCirclePoint.root(1, 3)
        with pytest.raises(WitnessNotFound):
            find_witness_root(PRIMORIAL_59)
        assert find_witness_root(PRIMORIAL_59, max_order=10**12) == UnitCirclePoint.root(19, 73)
        assert find_witness_root(1, max_order=10**100) == UnitCirclePoint.root(1, 2)

    def test_exact_rule_after_the_grid_rule(self):
        # no root of order <= 60 passes the grid rule at these framings; the
        # first prime-order root with Delta_(1+n) < 0 is the witness
        for n, (k, m) in EXACT_RULE_WITNESSES.items():
            terms = sorted(delta_n_closed(1 + n).coeffs.items())
            witness = UnitCirclePoint.root(k, m)
            assert find_witness_root(n) == witness, n
            for omega in prime_order_roots(m):
                if (omega.m, omega.k) < (m, k):
                    assert _sign_at(omega, 0, terms) > 0, (n, omega)
            assert _sign_at(witness, 0, terms) < 0
        # the kernel agrees on one of them; its pencil has dimension 400
        assert lt_signature(an_family(199), UnitCirclePoint.root(3, 13)) == 2

    def test_exact_rule_changes_no_grid_witness(self):
        # Delta_99 < 0 at 1/3, 2/3 and 2/11, before the grid witness 3/11 of
        # n = 98: the exact rule alone would have chosen 1/3
        terms = sorted(delta_n_closed(99).coeffs.items())
        early = [w for w in prime_order_roots(11) if (w.m, w.k) < (11, 3)
                 and _sign_at(w, 0, terms) < 0]
        assert early == [UnitCirclePoint.root(k, m) for k, m in ((1, 3), (2, 3), (2, 11))]
        assert find_witness_root(98) == UnitCirclePoint.root(3, 11)

    def test_primes_in_order(self):
        want = [p for p in range(2, 5000) if is_prime(p)]
        assert list(itertools.takewhile(lambda p: p < 5000, complexity._primes())) == want

    def test_large_order_bound_allocates_nothing_up_front(self):
        tracemalloc.start()
        try:
            assert find_witness_root(2, max_order=10**6) == UnitCirclePoint.root(1, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


class TestClosedForm:
    """The closed-form signature against the general kernel on an_family(n)."""

    def test_matches_the_kernel_at_every_root(self):
        # every coprime k/m with m <= 48, omega = 1 and the primitive sixth
        # roots, where the form can be singular, included
        roots = [UnitCirclePoint.root(k, m) for m in range(1, 49)
                 for k in range(m) if math.gcd(k, m) == 1]
        refusals = {InvalidRoot: 0, NearSingular: 0}
        for n in range(1, 41):
            A = an_family(n)
            for omega in roots:
                got = outcome(lambda: family_signature(n, omega))
                assert got == outcome(lambda: lt_signature(A, omega)), (n, omega)
                if got in refusals:
                    refusals[got] += 1
        assert refusals == {InvalidRoot: 40, NearSingular: 12}

    # every residue class mod 6 past the all-roots range, and the matrix of
    # framing 198, answered by the exact rule; the kernel's pencils grow
    # costly with n, so the larger n are sampled
    @pytest.mark.parametrize("n", [41, 42, 47, 48, 53, 54, 59, 60, 61, 98, 199])
    def test_matches_the_kernel_at_prime_order_roots(self, n):
        A = an_family(n)
        for omega in prime_order_roots(61):
            assert family_signature(n, omega) == lt_signature(A, omega), (n, omega)

    def test_matches_the_kernel_at_angles(self):
        for n in range(1, 41):
            A = an_family(n)
            for theta in (0.1, 0.7, 2.0, 3.0, -1.3, 5.9):
                omega = UnitCirclePoint.angle(theta)
                assert family_signature(n, omega) == lt_signature(A, omega), (n, theta)

    def test_singular_form_is_refused_as_the_kernel_does(self):
        # Delta_6 vanishes at the primitive sixth roots, where 1 - 2cos = 0 too
        omega = UnitCirclePoint.root(1, 6)
        for fn in (lambda: family_signature(6, omega),
                   lambda: lt_signature(an_family(6), omega)):
            with pytest.raises(NearSingular) as exc:
                fn()
            assert exc.value.index == 13
            assert "D_13 = D_14 = 0 exactly" in str(exc.value)
        with pytest.raises(InvalidRoot):
            family_signature(3, UnitCirclePoint.root(0, 1))

    def test_certify_builds_no_pencil(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("certify must not run the general kernel")

        monkeypatch.setattr(seifert, "lt_signature", refuse)
        monkeypatch.setattr(exactlinalg, "_pencil", refuse)
        for n in range(1, 61):
            cert = certify_complexity(n, 2)
            assert cert.witness == UnitCirclePoint.root(*WITNESSES[n]), n
            assert cert.bound >= 2


class TestClosedFormSigns:
    """complexity's closed-form sign of Delta_n against _sign_at, and the identity that makes it
    the one sign the family's signature reads."""

    def test_delta_matches_sign_at_and_falls_back_only_at_zeros(self, monkeypatch):
        # every k/m with m <= 60 and every i/720; _sign_at is taken once per distinct root
        grid = complexity.WITNESS_GRID
        points = {(k, m): UnitCirclePoint.root(k, m) for m in range(1, 61) for k in range(m)}
        points.update({(i, grid): UnitCirclePoint.root(i, grid) for i in range(grid)})
        sixths = [p for p, omega in points.items() if omega.m == 6]
        assert {(1, 6), (5, 6), (120, grid), (600, grid)} <= set(sixths)
        fallbacks = []

        def spy(omega, k, terms):
            fallbacks.append(omega)
            return _sign_at(omega, k, terms)

        monkeypatch.setattr(circle, "_sign_at", spy)
        for n in [*range(1, 61), 10**18 + 6, 6 * 10**30, 10**400 + 7]:
            terms = sorted(delta_n_closed(n).coeffs.items())
            want = {omega: _sign_at(omega, 0, terms) for omega in set(points.values())}
            fallbacks.clear()
            for (k, m), omega in points.items():
                assert complexity._delta_sign(n, k, m) == want[omega], (n, k, m)
            # Delta_n vanishes only at the primitive sixth roots, for n = 0 mod 6,
            # and only there does the closed form leave the sign to _sign_at
            zeros = sixths if n % 6 == 0 else []
            assert [p for p, omega in points.items() if want[omega] == 0] == zeros, n
            assert fallbacks == [points[p] for p in zeros], n

    def test_delta_is_the_only_sign_of_the_signature(self):
        # Delta_N = (t + 1/t - 1) + (2 - t - 1/t)(2 - t^N - 1/t^N) as coefficient
        # dicts, so Delta_N(omega) >= 2cos(theta) - 1 on the circle
        def poly(*terms):
            out = {}
            for e, c in terms:
                out[e] = out.get(e, 0) + c
            return {e: c for e, c in out.items() if c}

        for N in [*range(1, 200), 10**18 + 6, 10**400 + 7]:
            f, g = poly((0, 2), (1, -1), (-1, -1)), poly((0, 2), (N, -1), (-N, -1))
            product = ((e + d, c * b) for e, c in f.items() for d, b in g.items())
            assert poly((1, 1), (-1, 1), (0, -1), *product) == delta_n_closed(N).coeffs, N
        # so sigma is 0 or 2 at every k/m with m <= 60 and every i/720, and a
        # singular form is refused at D_(dim-1), where Delta_n = 0 at a sixth root
        grid = complexity.WITNESS_GRID
        points = {UnitCirclePoint.root(k, m) for m in range(1, 61) for k in range(1, m)}
        points.update(UnitCirclePoint.root(i, grid) for i in range(1, grid))
        for n in [*range(1, 61), 10**18 + 6, 6 * 10**30, 10**400 + 7]:
            terms = sorted(delta_n_closed(n).coeffs.items())
            for omega in points:
                delta = _sign_at(omega, 0, terms)
                if delta:
                    assert family_signature(n, omega) == (0 if delta > 0 else 2), (n, omega)
                    continue
                assert omega.m == 6 and n % 6 == 0, (n, omega)
                with pytest.raises(NearSingular) as exc:
                    family_signature(n, omega)
                assert exc.value.index == 2 * n + 1, (n, omega)


class TestFloatFirstSigns:
    """_sign_at decides in floats and tests for an exact zero only when it cannot."""

    def test_certify_takes_no_remainder(self, monkeypatch):
        def refuse(terms, m):
            raise RuntimeError(f"a sign took the exact zero test at order {m}")

        monkeypatch.setattr(circle, "_vanishes", refuse)
        for n in range(1, 201):
            for framing in (n, -n):
                cert = certify_complexity(framing, 2)
                assert cert.witness == UnitCirclePoint.root(*WITNESSES[n]), framing
        # the row "base-pattern signature vanishes": Delta_1 > 0 at the 360th roots
        verify._check_sigma_q_vanishes()

    def test_agrees_with_reduce_first(self):
        # Delta_n at every coprime k/m with m <= 96, omega = 1 included
        roots = [UnitCirclePoint.root(k, m) for m in range(1, 97)
                 for k in range(m) if math.gcd(k, m) == 1]
        zeros = 0
        for n in range(1, 61):
            terms = sorted(delta_n_closed(n).coeffs.items())
            for omega in roots:
                got = outcome(lambda: _sign_at(omega, 0, terms))
                assert got == outcome(lambda: reduce_first(omega, 0, terms)), (n, omega)
                zeros += got == 0
        # Delta_n vanishes only at the primitive sixth roots, for n = 0 mod 6
        assert zeros == 2 * 10


class TestInvariant:
    def test_half_lt_signature_values(self):
        for w in (UnitCirclePoint.root(1, 2), UnitCirclePoint.root(1, 3),
                  UnitCirclePoint.root(2, 7)):
            iota = a_family_profile(w)
            for k in range(5):
                assert 2 * iota(k) == lt_signature(an_family(1 + k), w), (w, k)

    def test_profile_values(self):
        iota = a_family_profile(UnitCirclePoint.root(1, 2))
        assert iota(0) == 0
        assert iota(1) == 1

    def test_profile_domain(self):
        iota = a_family_profile(UnitCirclePoint.root(1, 2))
        with pytest.raises(DomainError):
            iota(-1)

    def test_certificate_calls_the_profile_per_distinct_leaf(self, monkeypatch):
        calls = []
        real = complexity.a_family_profile

        def counting(omega):
            profile = real(omega)

            def counted(k):
                calls.append(k)
                return profile(k)

            return counted

        monkeypatch.setattr(complexity, "a_family_profile", counting)
        assert certify_complexity(4, 640).bound == 640
        assert sorted(calls) == [0, 0, 4, 4]

    def test_each_profile_value_is_computed_once(self, monkeypatch):
        # the witness is found beforehand, so every sign counted here is the profile's
        witness = find_witness_root(4)
        monkeypatch.setattr(complexity, "find_witness_root", lambda *args, **kwargs: witness)
        calls = []
        real = complexity._delta_sign

        def counting(n, k, m):
            calls.append(n)
            return real(n, k, m)

        monkeypatch.setattr(complexity, "_delta_sign", counting)
        assert certify_complexity(4, 640).bound == 640
        assert sorted(calls) == [1, 5]


class TestCertificates:
    def test_first_framing(self):
        cert = certify_complexity(1, 3)
        assert cert.n == 1
        assert cert.c == 3
        assert cert.witness == UnitCirclePoint.root(1, 2)
        assert (cert.i_q, cert.i_qn) == (0, 1)
        assert cert.bound == 3
        assert cert.term == "bar(Q*)_1^3 o Q^3"

    def test_term_parses_back(self):
        cert = certify_complexity(2, 4)
        parse_pattern(cert.term)
        assert cert.bound >= 4

    def test_bound_scales_with_count(self):
        base = certify_complexity(3, 1)
        for c in range(2, 6):
            assert certify_complexity(3, c).bound == c * base.bound

    def test_negative_framing_mirrors(self):
        cert = certify_complexity(-3, 2)
        assert cert.n == -3
        assert cert.witness == find_witness_root(3)
        assert cert.bound >= 2
        assert any("mirror" in a for a in cert.assumptions)

    def test_positive_framing_has_no_mirror_note(self):
        cert = certify_complexity(3, 2)
        assert not any("mirror" in a for a in cert.assumptions)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            certify_complexity(0, 2)
        with pytest.raises(DomainError):
            certify_complexity(1, 0)

    def test_deterministic(self):
        assert certify_complexity(2, 2) == certify_complexity(2, 2)

    def test_bool_count_is_refused(self):
        # True would be rendered into the term as bar(Q*)_2^True o Q^True
        with pytest.raises(ValueError, match="expected integer complexity target c, got True"):
            certify_complexity(2, True)

    def test_bool_framing_is_refused(self):
        # True would be written to the certificate JSON as "n": true
        with pytest.raises(ValueError, match="expected integer framing n, got True"):
            certify_complexity(True, 1)

    def test_float_order_bound_is_refused(self):
        with pytest.raises(ValueError, match="expected integer max_order, got 60.5"):
            find_witness_root(3, max_order=60.5)
        with pytest.raises(ValueError, match="expected integer max_order, got 60.0"):
            certify_complexity(3, 1, max_order=60.0)
        with pytest.raises(ValueError, match="expected integer framing n, got 3.0"):
            find_witness_root(3.0)

    @pytest.mark.parametrize("c", [10**6 + 1, 10**18, 10**400])
    def test_any_count_certifies_in_constant_space(self, c):
        small = certify_complexity(2, 10)
        tracemalloc.start()
        try:
            cert = certify_complexity(2, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert cert.bound == c * small.bound // 10
        assert cert.term == f"bar(Q*)_2^{c} o Q^{c}"

    def test_json_shape(self):
        doc = certify_complexity(1, 2).to_json()
        assert set(doc) == {
            "n",
            "c",
            "witness",
            "invariant",
            "i_Q",
            "i_Qn",
            "bound",
            "term",
            "assumptions",
        }
        assert doc["witness"] == {"k": 1, "m": 2}
        assert doc["invariant"] == "half-LT-signature"
        json.dumps(doc)  # must be serializable as-is

    @pytest.mark.parametrize("n", [26, 31, 45, 60])
    def test_large_framings_certify(self, n):
        cert = certify_complexity(n, 2)
        assert cert.bound >= 2
        assert is_prime(cert.witness.m) and cert.witness.m <= 60
        # i_Qn is half the signature numpy finds at the witness
        w = np.exp(1j * cert.witness.theta)
        M = np.array(an_family(1 + n), dtype=complex)
        eigs = np.linalg.eigvalsh((1 - w) * M + (1 - np.conj(w)) * M.T)
        assert float(np.min(np.abs(eigs))) > 1e-3
        assert 2 * cert.i_qn == int(np.sum(eigs > 0)) - int(np.sum(eigs < 0))

    def test_bound_for_full_grid(self):
        for n in range(1, 9):
            for c in range(1, 6):
                assert certify_complexity(n, c).bound >= c
