import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from shakekit import complexity, laurent, seifert
from shakekit.complexity import (
    WitnessNotFound,
    a_family_profile,
    certify_complexity,
    find_witness_root,
)
from shakekit.errors import DomainError
from shakekit.exactlinalg import NearSingular, _reduced, _sign_at
from shakekit.laurent import UnitCirclePoint
from shakekit.patterns import parse_pattern
from shakekit.seifert import an_family, delta_n_closed, lt_signature

# find_witness_root(n) for n = 1..60, frozen from the 720-sample float scan
# that the exact signs replaced
WITNESSES = {
    1: (1, 2), 2: (1, 3), 3: (1, 2), 4: (1, 5), 5: (1, 2), 6: (2, 7), 7: (1, 2),
    8: (1, 3), 9: (1, 2), 10: (2, 11), 11: (1, 2), 12: (5, 11), 13: (1, 2),
    14: (1, 3), 15: (1, 2), 16: (3, 13), 17: (1, 2), 18: (4, 11), 19: (1, 2),
    20: (1, 3), 21: (1, 2), 22: (4, 13), 23: (1, 2), 24: (1, 5), 25: (1, 2),
    26: (1, 3), 27: (1, 2), 28: (3, 11), 29: (1, 2), 30: (5, 11), 31: (1, 2),
    32: (1, 3), 33: (1, 2), 34: (1, 5), 35: (1, 2), 36: (6, 13), 37: (1, 2),
    38: (1, 3), 39: (1, 2), 40: (6, 13), 41: (1, 2), 42: (3, 13), 43: (1, 2),
    44: (1, 3), 45: (1, 2), 46: (4, 11), 47: (1, 2), 48: (2, 7), 49: (1, 2),
    50: (1, 3), 51: (1, 2), 52: (8, 17), 53: (1, 2), 54: (1, 5), 55: (1, 2),
    56: (1, 3), 57: (1, 2), 58: (9, 19), 59: (1, 2), 60: (5, 17),
}


def is_prime(m: int) -> bool:
    return m >= 2 and all(m % d for d in range(2, int(m**0.5) + 1))


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
        monkeypatch.setattr(seifert, "eval_symmetric_real", refuse)
        for n in range(1, 13):
            cert = certify_complexity(n, 2)
            assert cert.witness == UnitCirclePoint.root(*WITNESSES[n]), n

    def test_witness_table(self):
        for n, (k, m) in WITNESSES.items():
            assert find_witness_root(n) == UnitCirclePoint.root(k, m), n

    def test_grid_index_is_taken_in_floats(self):
        # theta / step for 1/3 is 239.99999999999997, so i0 = 239 and 1/3 is
        # read against grid points 239 and 240; aligning i0 to the integer
        # 240 would pick 1/3 at both framings
        assert find_witness_root(98) == UnitCirclePoint.root(3, 11)
        assert find_witness_root(104) == UnitCirclePoint.root(1, 5)

    def test_exact_zero_at_sixth_roots(self):
        # for n = 5 mod 6, Delta_{1+n} vanishes at the primitive sixth roots
        # (grid points 120 and 600), where a float sample reads about 2e-16
        for n in (5, 11):
            terms = sorted(delta_n_closed(1 + n).coeffs.items())
            for i in (120, 600):
                omega = UnitCirclePoint.root(i, complexity.WITNESS_GRID)
                assert omega.m == 6
                assert _sign_at(omega, 0, _reduced(terms, omega.m)) == 0, (n, i)

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
                    assert _sign_at(omega, 0, _reduced(terms, omega.m)) == want, (n, i)

    def test_exhausted_order_budget(self):
        with pytest.raises(WitnessNotFound) as exc:
            find_witness_root(1, max_order=1)
        assert (exc.value.n, exc.value.max_order, exc.value.tried, exc.value.refused) == (1, 1, 0, 0)
        assert "order <= 1 for n = 1" in str(exc.value)
        assert "retry" not in str(exc.value)

    def test_refusal_counts_the_signatures_taken(self, monkeypatch):
        # every candidate passing the grid rule has sigma != 0 for n < 120, so
        # the signature is stubbed: near-singular at -1, zero elsewhere
        def stub(A, omega):
            if omega == UnitCirclePoint.minus_one():
                raise NearSingular(omega, "stub", 1, 0.0, 0.0)
            return 0

        monkeypatch.setattr(complexity, "lt_signature", stub)
        with pytest.raises(WitnessNotFound) as exc:
            find_witness_root(9, max_order=7)
        assert (exc.value.tried, exc.value.refused) == (5, 1)
        assert f"taken at {exc.value.tried} roots: 1 near-singular, " \
               f"{exc.value.tried - 1} zero" in str(exc.value)

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


class TestInvariant:
    def test_half_lt_signature_values(self):
        for w in (UnitCirclePoint.minus_one(), UnitCirclePoint.root(1, 3),
                  UnitCirclePoint.root(2, 7)):
            iota = a_family_profile(w)
            for k in range(5):
                assert 2 * iota(k) == lt_signature(an_family(1 + k), w), (w, k)

    def test_scale_enforced(self, monkeypatch):
        monkeypatch.setattr(complexity, "lt_signature", lambda A, omega: 3)
        with pytest.raises(ArithmeticError, match="even"):
            a_family_profile(UnitCirclePoint.minus_one())(0)

    def test_profile_values(self):
        iota = a_family_profile(UnitCirclePoint.minus_one())
        assert iota(0) == 0
        assert iota(1) == 1

    def test_profile_domain(self):
        iota = a_family_profile(UnitCirclePoint.minus_one())
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
