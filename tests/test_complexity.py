import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from shakekit import complexity, seifert
from shakekit.complexity import (
    WitnessNotFound,
    a_family_profile,
    certify_complexity,
    find_witness_root,
)
from shakekit.errors import DomainError
from shakekit.laurent import UnitCirclePoint
from shakekit.patterns import parse_pattern
from shakekit.seifert import an_family, lt_signature


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

    def test_samples_the_grid_once(self, monkeypatch):
        xs = []
        real = seifert.eval_symmetric_real

        def counting(p, x):
            xs.append(x)
            return real(p, x)

        monkeypatch.setattr(seifert, "eval_symmetric_real", counting)
        monkeypatch.setattr(complexity, "eval_symmetric_real", counting)
        grid = 720
        step = math.tau / grid
        for n in (1, 2, 6, 10):
            xs.clear()
            w = find_witness_root(n, grid_size=grid)
            # the grid once, then one region test per root up to the witness
            order = [(p, k) for p in range(2, 61) if is_prime(p) for k in range(1, p)]
            assert xs[:grid] == [math.cos(i * step) for i in range(grid)]
            assert len(xs) == grid + order.index((w.m, w.k)) + 1, n

    def test_exhausted_order_budget(self):
        with pytest.raises(WitnessNotFound) as exc:
            find_witness_root(1, max_order=1)
        assert exc.value.max_order == 1
        assert "1" in str(exc.value)

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
        w = cert.witness.value
        M = np.array(an_family(1 + n), dtype=complex)
        eigs = np.linalg.eigvalsh((1 - w) * M + (1 - np.conj(w)) * M.T)
        assert float(np.min(np.abs(eigs))) > 1e-3
        assert 2 * cert.i_qn == int(np.sum(eigs > 0)) - int(np.sum(eigs < 0))

    def test_bound_for_full_grid(self):
        for n in range(1, 9):
            for c in range(1, 6):
                assert certify_complexity(n, c).bound >= c
