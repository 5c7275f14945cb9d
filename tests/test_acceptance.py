"""Acceptance suite: the ten headline checks, each pinned directly.

These mirror `shakekit verify` (the same check functions back both),
but every criterion is also re-asserted inline so a regression points
at the exact number that moved.
"""

import cmath
import math
import random
import re

import pytest

from oracles import det_cofactor, det_int, eval_naive, random_laurent_narrow
from shakekit import complexity, exactlinalg, laurent, seifert, verify
from shakekit.complexity import certify_complexity
from shakekit.exactlinalg import _pencil, det_laurent
from shakekit.goeritz import (
    GoeritzData,
    add_two_twists,
    classical_signature_goeritz,
    torus_band_presentation,
)
from shakekit.laurent import LaurentPoly, UnitCirclePoint, eval_symmetric_real
from shakekit.patterns import Atom, Compose, Star, normalize
from shakekit.seifert import (
    alexander,
    an_family,
    classical_signature_seifert,
    delta_n_closed,
)
from shakekit.verify import run_checks

EXPECTED_CHECKS = [
    "torus-knot signatures",
    "symmetrized-form signatures",
    "closed-form Alexander match",
    "delta_n(1) normalization",
    "root-of-unity identity",
    "base-pattern signature vanishes",
    "two-twist stability",
    "rewrite identity suite",
    "certificate pipeline",
    "determinant oracle",
]


@pytest.fixture(scope="module")
def report():
    results = run_checks()
    return {r.name: r for r in results}


def _passed(report, name):
    result = report[name]
    assert result.passed, result.detail


def test_report_covers_all_criteria(report):
    assert sorted(report) == sorted(EXPECTED_CHECKS)


def test_01_torus_knot_signatures(report):
    _passed(report, "torus-knot signatures")
    for n in range(1, 21):
        assert classical_signature_goeritz(torus_band_presentation(n)) == -2 * n


def test_02_symmetrized_form_signatures(report):
    _passed(report, "symmetrized-form signatures")
    assert classical_signature_seifert(an_family(1)) == 0
    assert classical_signature_seifert(an_family(2)) == 2


def test_03_closed_form_alexander(report):
    _passed(report, "closed-form Alexander match")
    for n in range(1, 13):
        assert alexander(an_family(n)) == delta_n_closed(n), f"n={n}"


def test_04_delta_value_at_one(report):
    _passed(report, "delta_n(1) normalization")
    for n in range(1, 13):
        assert sum(delta_n_closed(n).coeffs.values()) == 1, f"n={n}"


def test_05_root_of_unity_identity(report):
    _passed(report, "root-of-unity identity")
    for n in range(2, 13):
        d = delta_n_closed(n)
        for k in range(1, n):
            w = cmath.exp(1j * math.tau * k / n)
            expected = 2 * math.cos(math.tau * k / n) - 1
            assert abs(eval_naive(d, w) - expected) < 1e-9, (n, k)


def test_06_base_pattern_signature_vanishes(report):
    _passed(report, "base-pattern signature vanishes")
    d1 = delta_n_closed(1)
    for j in range(360):
        x = math.cos(math.tau * j / 360)
        value = eval_symmetric_real(d1, x)
        assert value > 0
        assert math.isclose(value, 4 * x * x - 6 * x + 3, rel_tol=1e-12)


def test_07_two_twist_stability(report):
    _passed(report, "two-twist stability")
    rng = random.Random(101)
    for _ in range(100):
        dim = rng.randint(0, 6)
        m = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                m[i][j] = m[j][i] = rng.randint(-4, 4)
        gd = GoeritzData(m)
        assert add_two_twists(gd, [rng.randint(-3, 3) for _ in range(dim)]).sigma == gd.sigma


def test_08_rewrite_identity_suite(report):
    _passed(report, "rewrite identity suite")
    p, q = Atom("P"), Atom("Q")
    assert normalize(Star(Star(p))) == normalize(p)
    assert normalize(Star(Compose(p, q))) == normalize(Compose(Star(q), Star(p)))


def test_09_certificate_pipeline(report):
    _passed(report, "certificate pipeline")
    for n in range(1, 9):
        for c in range(1, 6):
            cert = certify_complexity(n, c)
            assert cert.bound >= c
            m = cert.witness.m
            assert m <= 60
            assert m >= 2 and all(m % d for d in range(2, int(m**0.5) + 1))
            if n % 2:
                assert cert.witness == UnitCirclePoint.root(1, 2)
                assert cert.bound == c


def test_10_determinant_oracle(report):
    _passed(report, "determinant oracle")
    rng = random.Random(606)
    for _ in range(200):
        rows = [[random_laurent_narrow(rng) for _ in range(5)] for _ in range(5)]
        assert det_laurent(rows) == det_cofactor(rows)
    # the row's claim: the pencil's last minor is det(tA - A^T), of degree <= n
    for case in range(100):
        n = rng.randint(1, 6)
        A = [[rng.randint(-3, 3) if case % 3 or i != j else 0 for j in range(n)] for i in range(n)]
        minor = _pencil(tuple(map(tuple, A))).minor(n)
        assert min(minor.coeffs, default=0) >= 0 and max(minor.coeffs, default=0) <= n
        for t in range(-2, n + 3):
            got = sum(c * t ** e for e, c in minor.coeffs.items())
            assert got == det_int([[t * a - b for a, b in zip(r, c)] for r, c in zip(A, zip(*A))])


def test_off_by_one_pencil_read_back_fails_the_determinant_row(monkeypatch):
    # add 1 to the top pair of every pencil minor read back; the row's
    # detail names the case and the point t where it fails
    real = exactlinalg.Pivots._read

    def read(self, k):
        out = real(self, k)
        return out[:-1] + [(out[-1][0], out[-1][1] + 1)] if out else out

    monkeypatch.setattr(exactlinalg.Pivots, "_read", read)
    try:
        row = {r.name: r for r in run_checks()}["determinant oracle"]
    finally:
        _pencil.cache_clear()  # memoised pivots cache terms read with the mutation
    assert not row.passed
    assert re.fullmatch(r"AssertionError: case \d+: the pencil minor .* is -?\d+ at t = \d+, "
                        r"the cofactor expansion -?\d+", row.detail), row.detail


def test_the_determinant_row_takes_block_steps(monkeypatch):
    real, steps = exactlinalg._eliminate, []

    def spy(K, pivots, rest, taken):
        steps.append(len(pivots))
        return real(K, pivots, rest, taken)

    monkeypatch.setattr(exactlinalg, "_eliminate", spy)
    _pencil.cache_clear()
    verify._check_determinant_oracle()
    assert steps.count(2) >= 1 and steps.count(1) >= 1


def test_report_without_float_evaluation(monkeypatch):
    def refuse(p, x):
        raise RuntimeError("verify must not evaluate in floats")

    monkeypatch.setattr(laurent, "eval_symmetric_real", refuse)
    monkeypatch.setattr(verify, "eval_symmetric_real", refuse, raising=False)
    results = run_checks()
    assert [r.name for r in results if not r.passed] == []
    assert len(results) == 10


@pytest.mark.parametrize("perturbation", [
    {0: 1},
    # sum of t^j + t^-j over j = 0..5 is 0 at every 6th root but 1: a
    # check at the nontrivial roots alone cannot see it, the identity
    # modulo t^6 - 1 does
    {e: 1 + (e == 0) for e in range(-5, 6)},
])
def test_perturbed_delta_fails_the_identity_row(monkeypatch, perturbation):
    real = seifert.delta_n_closed

    def perturbed(n):
        coeffs = real(n).coeffs
        for e, c in perturbation.items() if n == 6 else ():
            coeffs[e] = coeffs.get(e, 0) + c
        return LaurentPoly(coeffs)

    monkeypatch.setattr(verify, "delta_n_closed", perturbed)
    row = {r.name: r for r in run_checks()}["root-of-unity identity"]
    assert not row.passed
    assert row.detail.startswith("AssertionError: n=6: delta_n folds to")


def test_wrong_closed_form_fails_the_certificate_row(monkeypatch):
    # a sign-flipped closed form still gives bounds >= c, so only the
    # kernel's recomputation of i_Q and i_Qn can catch it; the witness search
    # reads Delta's signs apart from the profile, so its witnesses stay right
    real = complexity.a_family_profile
    monkeypatch.setattr(complexity, "a_family_profile", lambda omega: lambda k: -real(omega)(k))
    row = {r.name: r for r in run_checks()}["certificate pipeline"]
    assert not row.passed
    assert row.detail.startswith("AssertionError: (n=1, c=1): the kernel gives sigma = (0, 2)")
