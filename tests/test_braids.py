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
from shakekit.laurent import UnitCirclePoint
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
        n = braid_strands(word)
        i, e, at = rng.randint(1, n - 1), rng.choice((1, -1)), rng.randrange(len(word) + 1)
        delta, sigma, sigmas = invariants(word)
        for moved in (word[at:] + word[:at],  # conjugation by a prefix
                      [e * i, *word, -e * i],  # conjugation by a letter
                      [*word, e * n],  # stabilization, onto strand n + 1
                      [*word[:at], e * i, -e * i, *word[at:]]):  # sigma_i sigma_i^-1 inserted
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
