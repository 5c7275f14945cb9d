"""Torus knots: an oracle independent of the kernel, with closed forms at every root.

T(p, q) has the dense Seifert matrix -V_p (x) V_q, the Alexander polynomial
(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)) and, by Litherland, a
Levine-Tristram signature counted from the sums i/p + j/q (tests/oracles.py).
"""

import math

import pytest

from oracles import litherland_signature, realified_inertia, torus_delta, torus_seifert
from shakekit import (
    NearSingular,
    UnitCirclePoint,
    alexander,
    classical_signature_goeritz,
    classical_signature_seifert,
    exactlinalg,
    inertia_hermitian_at_root,
    lt_signature,
    torus_band_presentation,
)

# Coprime pairs up to dimension (p - 1)(q - 1) = 60, five of them at 60.
PAIRS = [(2, 3), (2, 5), (3, 4), (3, 5), (2, 9), (4, 5), (3, 7), (5, 6), (7, 8),
         (2, 61), (3, 31), (4, 21), (5, 16), (7, 11)]

# T(2,3) ... T(7,8): eleven knots of dimension 2 to 42.
SMALL = [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (3, 7), (4, 5), (4, 7), (5, 6), (6, 7), (7, 8)]


def test_the_matrix_is_the_tensor_product():
    assert torus_seifert(2, 3) == [[-1, 1], [0, -1]]
    A = torus_seifert(3, 4)
    assert len(A) == 6 and A[0][:3] == [-1, 1, 0] and A[0][3:] == [1, -1, 0]


KNOTS = sorted({*SMALL, *PAIRS})


@pytest.mark.parametrize("p, q", KNOTS, ids=[f"T({p},{q})" for p, q in KNOTS])
def test_alexander_and_classical_signature(p, q):
    # sigma(-1) is one number: lt at 1/2 and the classical signature, from the form on a cold
    # memo and from the memoised pencil or the form once alexander has run
    A, half = torus_seifert(p, q), UnitCirclePoint.root(1, 2)
    want = litherland_signature(p, q, 1, 2)
    exactlinalg._pencil.cache_clear()
    assert lt_signature(A, half) == classical_signature_seifert(A) == want
    assert alexander(A) == torus_delta(p, q)
    assert lt_signature(A, half) == classical_signature_seifert(A) == want


def test_levine_tristram_at_every_primitive_root_of_order_up_to_30():
    """Every answer the kernel gives equals Litherland's count; a refusal is allowed, not at -1."""
    answers = refusals = 0
    for p, q in SMALL:
        A = torus_seifert(p, q)
        for m in range(2, 31):
            for k in range(1, m):
                if math.gcd(k, m) != 1:
                    continue
                try:
                    inertia = inertia_hermitian_at_root(A, UnitCirclePoint.root(k, m))
                except NearSingular:
                    assert m > 2, (p, q)
                    refusals += 1
                    continue
                assert inertia.signature == litherland_signature(p, q, k, m), (p, q, k, m)
                answers += 1
    assert (answers, refusals) == (2879, 168)


@pytest.mark.parametrize("n", range(21))
def test_goeritz_route_agrees_with_the_seifert_route(n):
    # torus_band_presentation(n) presents T(2, 2n + 1); T(2, 1) is the unknot
    expected = classical_signature_seifert(torus_seifert(2, 2 * n + 1))
    assert classical_signature_goeritz(torus_band_presentation(n)) == expected == -2 * n


class TestRealifiedInertia:
    """At orders 3, 4 and 6, sigma and n_zero from one integer form of dimension 2n (ROADMAP item 5).

    realified_inertia (tests/oracles.py) counts H(w) in the real basis
    {1, w}, so it answers where the kernel's minors cannot count.
    """

    # The points of order 3, 4 or 6 that the kernel refuses on SMALL, with their n_zero
    REFUSED = {(2, 3, 1, 6): 1, (2, 3, 5, 6): 1, (3, 4, 1, 6): 1, (3, 4, 5, 6): 1,
               (5, 6, 1, 6): 0, (5, 6, 5, 6): 0, (7, 8, 1, 4): 0, (7, 8, 3, 4): 0}

    def test_agrees_with_the_kernel_and_answers_its_refusals(self):
        answered, refused = 0, {}
        for p, q in SMALL:
            A = torus_seifert(p, q)
            for k, m in ((1, 3), (2, 3), (1, 4), (3, 4), (1, 6), (5, 6)):
                sigma, n_zero = realified_inertia(A, k, m)
                try:
                    inertia = inertia_hermitian_at_root(A, UnitCirclePoint.root(k, m))
                except NearSingular:
                    refused[p, q, k, m] = n_zero
                    assert sigma == litherland_signature(p, q, k, m), (p, q, k, m)
                    continue
                assert (sigma, n_zero) == (inertia.signature, inertia.n_zero), (p, q, k, m)
                answered += 1
        assert answered == 58 and refused == self.REFUSED

    def test_trefoil_at_a_sixth(self):
        assert realified_inertia(torus_seifert(2, 3), 1, 6) == (-1, 1)
