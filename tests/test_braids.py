"""Braid words as an oracle: Seifert's algorithm and the checkerboard surface of a closed braid.

oracles.seifert_from_braid and oracles.goeritz_from_braid build a Seifert
matrix and a Goeritz form from a braid word, by constructions that share
nothing with an_family, torus_seifert or the band presentations.  By
Markov's theorem (1936), two braids have isotopic closures exactly when
conjugation and stabilization relate them; their Seifert matrices are then
S-equivalent, so Delta and every sigma_omega agree (Trotter 1962).  A
mirror negates every letter and every signature.
"""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    braid_strands,
    burau_delta,
    cable_word,
    det_int,
    goeritz_from_braid,
    litherland_signature,
    random_braid_knot,
    seifert_from_braid,
    torus_delta,
    torus_seifert,
)
from shakekit.circle import NearSingular
from shakekit.exactlinalg import inertia_symmetric_exact
from shakekit.laurent import LaurentPoly, UnitCirclePoint
from shakekit.seifert import alexander, classical_signature_seifert, lt_signature

# T(2,3) ... T(5,6): (sigma_1 ... sigma_(p-1))^q on p strands
TORUS = [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (4, 5), (2, 9), (3, 7), (5, 6)]

# Table knots: a braid word, the Alexander polynomial and the signature.
TABLE = {
    "4_1": ("1 -2 1 -2", {-1: -1, 0: 3, 1: -1}, 0),
    "5_2": ("1 1 1 2 -1 2", {-1: 2, 0: -3, 1: 2}, -2),
    "6_1": ("1 1 2 -1 -3 2 -3", {-1: -2, 0: 5, 1: -2}, 0),
    "6_2": ("1 1 1 -2 1 -2", {-2: -1, -1: 3, 0: -3, 1: 3, 2: -1}, -2),
    "6_3": ("1 1 -2 1 -2 -2", {-2: 1, -1: -3, 0: 5, 1: -3, 2: 1}, 0),
}

ROOTS = [UnitCirclePoint.root(k, m) for m in range(2, 13) for k in range(1, m)
         if math.gcd(k, m) == 1]


def torus_word(p: int, q: int, sign: int = 1) -> list[int]:
    return [sign * i for i in range(1, p)] * q


def markov_moves(rng: random.Random, word: list[int]) -> list[list[int]]:
    """Four words whose closures are that of word, at a letter, sign and place rng draws."""
    n = braid_strands(word)
    i, e, at = rng.randint(1, n - 1), rng.choice((1, -1)), rng.randrange(len(word) + 1)
    return [word[at:] + word[:at],  # conjugation by a prefix
            [e * i, *word, -e * i],  # conjugation by a letter
            [*word, e * n],  # stabilization, onto strand n + 1
            [*word[:at], e * i, -e * i, *word[at:]]]  # sigma_i sigma_i^-1 inserted


def goeritz_signature(word: list[int], shade: int, deleted: int = 0) -> int:
    G, mu = goeritz_from_braid(word, shade, deleted)
    return inertia_symmetric_exact(G).signature - mu


def invariants(word: list[int]) -> tuple:
    """Delta, sigma(-1) and sigma at each root of ROOTS, None where the kernel refuses it."""
    A = seifert_from_braid(word)
    sigmas = []
    for omega in ROOTS:
        try:
            sigmas.append(lt_signature(A, omega))
        except NearSingular:
            sigmas.append(None)
    return alexander(A), classical_signature_seifert(A), sigmas


class TestSeifertFromBraid:
    def test_trefoil_is_the_torus_matrix(self):
        assert seifert_from_braid([1, 1, 1]) == torus_seifert(2, 3) == [[-1, 1], [0, -1]]
        assert len(seifert_from_braid(torus_word(3, 4))) == 6

    def test_refuses_words_whose_closure_is_not_a_knot(self):
        for word in ([1, 1], [2, 2, 2], [1, 0, 1], [1, -1, 2, 2]):
            with pytest.raises(ValueError):
                seifert_from_braid(word)
        assert braid_strands([]) == 1 and seifert_from_braid([]) == []

    @pytest.mark.parametrize("p, q", TORUS, ids=[f"T({p},{q})" for p, q in TORUS])
    def test_torus_knots_and_their_mirrors(self, p, q):
        # Delta, sigma(-1) and every sigma_omega of order <= 30 that the kernel answers are the
        # torus oracle's; a refusal is allowed, not at -1
        for sign in (1, -1):
            A = seifert_from_braid(torus_word(p, q, sign))
            assert len(A) == (p - 1) * (q - 1)
            assert alexander(A) == torus_delta(p, q)
            assert classical_signature_seifert(A) == sign * litherland_signature(p, q, 1, 2)
            answers = 0
            for m in range(2, 31):
                for k in range(1, m):
                    if math.gcd(k, m) != 1:
                        continue
                    try:
                        sigma = lt_signature(A, UnitCirclePoint.root(k, m))
                    except NearSingular:
                        assert m > 2, (p, q, sign)
                        continue
                    assert sigma == sign * litherland_signature(p, q, k, m), (p, q, sign, k, m)
                    answers += 1
            assert answers > 200, (p, q, sign)

    @pytest.mark.parametrize("name", TABLE)
    def test_table_knots(self, name):
        word, delta, sigma = TABLE[name]
        A = seifert_from_braid([int(x) for x in word.split()])
        assert alexander(A).coeffs == delta
        assert classical_signature_seifert(A) == sigma

    @given(st.integers(0, 2**32 - 1))
    def test_markov_moves_keep_every_invariant(self, seed):
        rng = random.Random(seed)
        word = random_braid_knot(rng)
        delta, sigma, sigmas = invariants(word)
        for moved in markov_moves(rng, word):
            delta2, sigma2, sigmas2 = invariants(moved)
            assert delta2 == delta, (word, moved)
            assert sigma2 == sigma, (word, moved)
            assert [goeritz_signature(moved, shade) for shade in (0, 1)] == [sigma] * 2, moved
            both = [(a, b) for a, b in zip(sigmas, sigmas2) if a is not None and b is not None]
            assert both and all(a == b for a, b in both), (word, moved)


class TestGoeritzFromBraid:
    def test_every_shading_and_deleted_region_gives_the_seifert_signature(self):
        rng = random.Random(1978)
        for _ in range(200):
            word = random_braid_knot(rng)
            A = seifert_from_braid(word)
            sigma = classical_signature_seifert(A)
            at_minus_one = abs(sum(c * (-1) ** e for e, c in alexander(A).coeffs.items()))
            for shade in (0, 1):
                white = len(goeritz_from_braid(word, shade)[0]) + 1
                for deleted in range(white):
                    G, mu = goeritz_from_braid(word, shade, deleted)
                    assert inertia_symmetric_exact(G).signature - mu == sigma, (word, shade)
                    assert abs(det_int(G)) == at_minus_one, (word, shade, deleted)

    @pytest.mark.parametrize("p, q", TORUS, ids=[f"T({p},{q})" for p, q in TORUS])
    def test_torus_knots_and_their_mirrors(self, p, q):
        want = litherland_signature(p, q, 1, 2)
        for shade in (0, 1):
            assert goeritz_signature(torus_word(p, q), shade) == want
            assert goeritz_signature(torus_word(p, q, -1), shade) == -want

    @pytest.mark.parametrize("name", TABLE)
    def test_table_knots(self, name):
        word, _, sigma = TABLE[name]
        for shade in (0, 1):
            assert goeritz_signature([int(x) for x in word.split()], shade) == sigma

    def test_torus_knot_13_17(self):
        # 12 columns of 17 letters: six white columns of 17 regions, one white end region, one
        # region deleted
        for shade in (0, 1):
            G, _ = goeritz_from_braid(torus_word(13, 17), shade)
            assert len(G) == 102
            assert goeritz_signature(torus_word(13, 17), shade) == -112
        assert litherland_signature(13, 17, 1, 2) == -112


# T(2,3) ... T(13,17): Burau's matrices have dimension p - 1, whatever q is
WIDE_TORUS = TORUS + [(7, 11), (11, 13), (13, 17)]


class TestBurau:
    """burau_delta, the reduced Burau route to Delta, which shares no code with the pencil."""

    @pytest.mark.parametrize("p, q", WIDE_TORUS, ids=[f"T({p},{q})" for p, q in WIDE_TORUS])
    def test_torus_knots_and_their_mirrors(self, p, q):
        for sign in (1, -1):
            assert burau_delta(torus_word(p, q, sign)) == torus_delta(p, q)

    def test_table_knots_and_the_unknot(self):
        for word, delta, _ in TABLE.values():
            assert burau_delta([int(x) for x in word.split()]).coeffs == delta
        unknot = LaurentPoly({0: 1})
        assert burau_delta([]) == burau_delta([1, 2]) == burau_delta([-1, 2, -3]) == unknot

    @given(st.integers(0, 2**32 - 1))
    def test_equals_the_seifert_route_under_markov_moves(self, seed):
        rng = random.Random(seed)
        word = random_braid_knot(rng, most=6)
        delta = burau_delta(word)
        assert delta == alexander(seifert_from_braid(word)), word
        for moved in markov_moves(rng, word):
            assert burau_delta(moved) == delta, (word, moved)


def substituted(delta: LaurentPoly, p: int) -> dict[int, int]:
    """Delta(t^p) as a coefficient dict."""
    return {p * e: c for e, c in delta.coeffs.items()}


def product(*factors: dict[int, int]) -> LaurentPoly:
    """The product of coefficient dicts, each a convolution."""
    out = {0: 1}
    for factor in factors:
        new: dict[int, int] = {}
        for e, c in out.items():
            for f, d in factor.items():
                new[e + f] = new.get(e + f, 0) + c * d
        out = new
    return LaurentPoly(out)


def torus_sigma(p: int, q: int, omega: UnitCirclePoint) -> int:
    """Litherland's count for T(p, q), or minus that of its mirror T(p, -q) where q < 0."""
    return (1 if q > 0 else -1) * litherland_signature(p, abs(q), omega.k, omega.m)


def power(omega: UnitCirclePoint, p: int) -> UnitCirclePoint:
    """omega^p, a root of unity of order dividing omega's."""
    return UnitCirclePoint.root(omega.k * p, omega.m)


# Companions as braid words, and (p, q) with gcd(p, q) = 1
COMPANIONS = {"3_1": [1, 1, 1], "3_1 mirror": [-1, -1, -1], "4_1": [1, -2, 1, -2],
              "5_1": [1] * 5, "5_2": [1, 1, 1, 2, -1, 2]}
CABLES = [(2, 1), (2, 3), (2, -1), (3, 1), (3, -2)]


class TestCables:
    """The (p, q) cable C of K, from cable_word, against Litherland's formulas (1979):
    sigma_omega(C) = sigma_(omega^p)(K) + sigma_omega(T(p, q)), sigma at omega^p = 1 read as
    0, and Delta_C(t) = Delta_K(t^p) * Delta_T(p,q)(t)."""

    def test_alexander_is_the_product(self):
        for word in COMPANIONS.values():
            delta = alexander(seifert_from_braid(word))
            for p, q in CABLES:
                cable = cable_word(word, p, q)
                want = product(substituted(delta, p), torus_delta(p, abs(q)).coeffs)
                assert alexander(seifert_from_braid(cable)) == burau_delta(cable) == want

    def test_signatures_at_every_root_of_order_at_most_12(self):
        answered = refused = 0
        for name, word in COMPANIONS.items():
            K = seifert_from_braid(word)
            for p, q in CABLES:
                C = seifert_from_braid(cable_word(word, p, q))
                for omega in ROOTS:
                    try:
                        got = lt_signature(C, omega)
                        inner = 0 if power(omega, p).is_one() else lt_signature(K, power(omega, p))
                    except NearSingular:
                        refused += 1
                        continue
                    assert got == inner + torus_sigma(p, q, omega), (name, p, q, omega)
                    answered += 1
        # 1,125 points; the refusals (a singular form, two zero minors in a row, or an uncertified
        # sign) are pinned, so a kernel that answers more of them changes this count openly
        assert (answered, refused) == (983, 142)

    def test_a_cable_of_a_cable(self):
        # the (2, 13) cable of the (2, 3) cable of the trefoil T(2, 3): an iterated torus knot,
        # whose every sigma and Delta follow from Litherland's and the torus formulas alone
        word = cable_word(cable_word([1, 1, 1], 2, 3), 2, 13)
        C = seifert_from_braid(word)
        want = product(substituted(torus_delta(2, 3), 4), substituted(torus_delta(2, 3), 2),
                       torus_delta(2, 13).coeffs)
        assert alexander(C) == burau_delta(word) == want
        answered = refused = 0
        for omega in ROOTS:
            try:
                got = lt_signature(C, omega)
            except NearSingular:
                refused += 1
                continue
            inner = sum(0 if power(omega, r).is_one() else torus_sigma(2, 3, power(omega, r))
                        for r in (2, 4))
            assert got == torus_sigma(2, 13, omega) + inner, omega
            answered += 1
        assert (answered, refused) == (27, 18)
