import json
import math
import random
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    congruence,
    decimal_sign,
    det_cofactor,
    det_cofactor_fraction,
    random_laurent_matrix,
    random_symmetric_matrix,
    random_unimodular,
    reduce_first,
)
from shakekit import exactlinalg, seifert
from shakekit.complexity import a_family_profile, certify_complexity
from shakekit.exactlinalg import (
    Inertia,
    InvalidRoot,
    NearSingular,
    det_laurent,
    inertia_hermitian_at_root,
    inertia_symmetric_exact,
    int_matrix_from_json,
    signature,
)
from shakekit.laurent import LaurentPoly, UnitCirclePoint, laurent_from_entry
from shakekit.seifert import alexander, an_family, delta_n_closed, lt_signature

A1 = [
    [1, 1, 1, 0],
    [0, 0, 1, -1],
    [1, 2, 0, 0],
    [0, 0, -1, 0],
]

# Seifert matrix of the trefoil: its Alexander polynomial t - 1 + t^-1
# vanishes at the sixth root of unity, so at 1/6 the form is singular.
TREFOIL = [[-1, 1], [0, -1]]


def t_matrix(A: list[list[int]]) -> list[list[LaurentPoly]]:
    """tA - A^T, the matrix whose determinant tests pin down."""
    n = len(A)
    return [
        [LaurentPoly({1: A[i][j], 0: -A[j][i]}) for j in range(n)] for i in range(n)
    ]


class TestDetLaurent:
    def test_empty_matrix(self):
        assert det_laurent([]) == LaurentPoly.one()

    def test_one_by_one(self):
        p = LaurentPoly({2: 3, -1: 1})
        assert det_laurent([[p]]) == p

    def test_monomial_diagonal(self):
        t = LaurentPoly.t()
        z = LaurentPoly.zero()
        assert det_laurent([[t, z], [z, t.inverse_variable()]]) == LaurentPoly.one()

    def test_antidiagonal_sign(self):
        t = LaurentPoly.t()
        z = LaurentPoly.zero()
        assert det_laurent([[z, t], [t, z]]) == LaurentPoly({2: -1})

    def test_family_matrix_determinant(self):
        # det(tA1 - A1^T), expanded by hand via cofactors and frozen here
        expected = LaurentPoly({4: 1, 3: -3, 2: 5, 1: -3, 0: 1})
        assert det_laurent(t_matrix(A1)) == expected
        assert det_cofactor(t_matrix(A1)) == expected

    def test_singular_matrix(self):
        t = LaurentPoly.t()
        rows = [[t, t], [t, t]]
        assert det_laurent(rows) == LaurentPoly.zero()

    def test_zero_row(self):
        z = LaurentPoly.zero()
        t = LaurentPoly.t()
        assert det_laurent([[z, z], [t, t]]) == LaurentPoly.zero()

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            det_laurent([[LaurentPoly.one()], []])

    def test_matches_cofactor_oracle(self):
        rng = random.Random(20260814)
        for trial in range(250):
            dim = rng.randint(0, 4)
            rows = random_laurent_matrix(rng, dim)
            assert det_laurent(rows) == det_cofactor(rows), f"trial {trial}: {rows!r}"

    def test_multiplicative_on_integer_matrices(self):
        rng = random.Random(7)
        for _ in range(50):
            a = [[LaurentPoly({0: rng.randint(-3, 3)}) for _ in range(3)] for _ in range(3)]
            b = [[LaurentPoly({0: rng.randint(-3, 3)}) for _ in range(3)] for _ in range(3)]
            prod = [
                [
                    sum((a[i][k] * b[k][j] for k in range(3)), LaurentPoly.zero())
                    for j in range(3)
                ]
                for i in range(3)
            ]
            assert det_laurent(prod) == det_laurent(a) * det_laurent(b)


def hadamard_bound(rows: list[list[LaurentPoly]]) -> int:
    """ceil(prod_i sqrt(sum_j ||a_ij||_1^2)), the coefficient bound of the kernel."""
    norm_sq = 1
    for row in rows:
        norm_sq *= sum(sum(abs(c) for c in e.coeffs.values()) ** 2 for e in row)
    return math.isqrt(norm_sq - 1) + 1


H2 = [[1, 1], [1, -1]]
H4 = [[a * b for a in ra for b in rb] for ra in H2 for rb in H2]


class TestDetKernel:
    """The Kronecker-substitution kernel against the cofactor oracle and its bound."""

    def test_huge_coefficients_and_exponents(self):
        rng = random.Random(20261017)
        for trial in range(60):
            dim = rng.randint(0, 5)
            rows = [
                [
                    LaurentPoly({rng.randint(-30, 30): rng.randint(-10**15, 10**15)
                                 for _ in range(rng.randint(0, 3))})
                    for _ in range(dim)
                ]
                for _ in range(dim)
            ]
            assert det_laurent(rows) == det_cofactor(rows), f"trial {trial}: {rows!r}"

    @pytest.mark.parametrize("scale", [1, 5, 2**60, 2**60 - 1, 10**15 + 37])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_coefficient_at_the_bound(self, scale, sign):
        # Rows of Hadamard matrices scaled by +-scale * t^e meet Hadamard's
        # inequality with equality, so the single coefficient equals the bound.
        for H in ([[1]], H2, H4):
            dim = len(H)
            rows = [
                [LaurentPoly({3 * i - 7: sign * scale * H[i][j]}) for j in range(dim)]
                for i in range(dim)
            ]
            det = det_laurent(rows)
            assert det == det_cofactor(rows)
            assert len(det.coeffs) == 1
            assert abs(det.coeff(det.max_exp())) == hadamard_bound(rows)
            mirrored = [[-e for e in rows[0]]] + rows[1:]
            assert det_laurent(mirrored) == -det

    def test_vanishing_leading_minor_forces_row_swap(self):
        t = LaurentPoly.t()
        one, z = LaurentPoly.one(), LaurentPoly.zero()
        # the leading 2x2 minor t*t - t^2*1 vanishes as a polynomial
        rows = [[t, t * t, one], [one, t, z], [z, one, t]]
        assert det_laurent(rows) == det_cofactor(rows) == LaurentPoly({0: 1})
        # the leading 1x1 minor is zero
        rows = [[z, t, one], [t, one, z], [one, z, t.inverse_variable()]]
        assert det_laurent(rows) == det_cofactor(rows)
        assert not det_laurent(rows).is_zero()

    def test_singular_without_zero_row(self):
        t = LaurentPoly.t()
        one = LaurentPoly.one()
        r1 = [one, t, t * t]
        r2 = [t, one - t, 3 * t.inverse_variable()]
        rows = [r1, r2, [a + 2 * t * b for a, b in zip(r1, r2)]]
        assert det_laurent(rows) == det_cofactor(rows) == LaurentPoly.zero()
        # a zero column: elimination finds no pivot at all
        z = LaurentPoly.zero()
        assert det_laurent([[z, t], [z, one]]) == LaurentPoly.zero()


class TestPencilMemo:
    def test_one_determinant_per_matrix(self, monkeypatch):
        calls = []
        real = exactlinalg.det_laurent

        def counting(rows, **kwargs):
            calls.append(tuple(map(tuple, rows)))
            return real(rows, **kwargs)

        monkeypatch.setattr(exactlinalg, "det_laurent", counting)
        for n in (26, 5):
            exactlinalg._pencil.cache_clear()
            calls.clear()
            for A in (an_family(1), an_family(n)):
                alexander(A)
                for k in range(1, 7):
                    lt_signature(A, UnitCirclePoint.root(k, 7))
                lt_signature(A, UnitCirclePoint.angle(2.0))
            assert len(calls) == len(set(calls)) == 2, n
        # certificates take the family's signature in closed form
        exactlinalg._pencil.cache_clear()
        calls.clear()
        certify_complexity(25, 3)
        assert calls == []

    def test_mutating_the_matrix_never_gives_a_stale_result(self):
        A = [[-1, 1], [0, -1]]
        assert alexander(A) == LaurentPoly({-1: 1, 0: -1, 1: 1})
        assert lt_signature(A, UnitCirclePoint.minus_one()) == -2
        assert lt_signature(A, UnitCirclePoint.root(1, 3)) == -2
        A[0][0] = 1  # the trefoil's matrix becomes the figure-eight's
        assert alexander(A) == LaurentPoly({-1: -1, 0: 3, 1: -1})
        assert lt_signature(A, UnitCirclePoint.minus_one()) == 0
        assert lt_signature(A, UnitCirclePoint.root(1, 3)) == 0


def symmetric_pivot_minors(rows: list[list[LaurentPoly]]) -> list[LaurentPoly]:
    """P_1..P_n of P M P^T for the order symmetric pivoting picks, all by cofactors.

    After k Bareiss steps entry (i, j) is the minor of M on the pivoted
    rows so far plus i and columns so far plus j, so the pivot choice is
    replayed from those minors: the first nonzero diagonal entry, else the
    first block (i, j) with both off-diagonal entries nonzero, else stop.
    """
    n = len(rows)
    order = list(range(n))

    def entry(k: int, i: int, j: int) -> LaurentPoly:
        done = order[:k]
        return det_cofactor([[rows[r][c] for c in done + [order[j]]] for r in done + [order[i]]])

    k = 0
    while k < n:
        i = next((i for i in range(k, n) if entry(k, i, i)), None)
        if i is not None:
            order[k], order[i] = order[i], order[k]
            k += 1
            continue
        pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                     if entry(k, i, j) and entry(k, j, i)), None)
        if pair is None:
            break
        order[k], order[pair[0]] = order[pair[0]], order[k]
        order[k + 1], order[pair[1]] = order[pair[1]], order[k + 1]
        k += 2
    return [det_cofactor([[rows[r][c] for c in order[:m]] for r in order[:m]])
            for m in range(1, n + 1)]


def as_laurent(S: list[list[int]]) -> list[list[LaurentPoly]]:
    return [[LaurentPoly({0: x}) for x in row] for row in S]


def sparse_symmetric(rng: random.Random, dim: int, density: float) -> list[list[int]]:
    S = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            if rng.random() < density:
                S[i][j] = S[j][i] = rng.choice((-3, -2, -1, 1, 2, 3))
    return S


class TestSparseKernel:
    """Rows left alone by Bareiss steps must come back at the right scale.

    A step only rescales a row whose pivot-column entry is zero, so the
    kernel keeps such a row as it is until a step reads it; these matrices
    leave rows untouched for several steps, across 2x2 block pivots too,
    and compare every pivot with its cofactor minor.
    """

    def check(self, S: list[list[int]]) -> None:
        pivots = det_laurent(S, pivots=True)
        assert [pivots.minor(k) for k in range(1, len(S) + 1)] == \
            symmetric_pivot_minors(as_laurent(S)), S
        rows = t_matrix(S)
        pivots = det_laurent(rows, pivots=True)
        assert [pivots.minor(k) for k in range(1, len(S) + 1)] == \
            symmetric_pivot_minors(rows), S

    def test_arrow(self):
        # every middle row is read first when it becomes the pivot row
        for n, head in ((6, 3), (10, -2), (12, 5)):
            S = [[0] * n for _ in range(n)]
            for i in range(n):
                S[i][i] = 2 + i % 3
                S[i][-1] = S[-1][i] = head + i
            self.check(S)

    def test_banded(self):
        rng = random.Random(5)
        for n, width in ((8, 1), (12, 1), (10, 2), (8, 3)):
            S = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, min(n, i + width + 1)):
                    S[i][j] = S[j][i] = rng.choice((-2, -1, 1, 2))
            S[2][2] = S[5][5] = 0
            self.check(S)

    def test_block_pivot_between_untouched_rows(self):
        # step 1 pivots on 3 and reads no other row; the diagonal left is
        # zero, so blocks {1, 2} and {3, 4} follow.  Row 5 waits through the
        # first block and is read by the second; row 6 waits through both
        # and is read when row 5 is the pivot row.
        S = [[0] * 7 for _ in range(7)]
        S[0][0] = 3
        for i, j, x in ((1, 2, 2), (3, 4, 3), (3, 5, 1), (4, 5, 1), (5, 6, 1)):
            S[i][j] = S[j][i] = x
        pivots = det_laurent(S, pivots=True)
        assert pivots.values[1] == pivots.values[3] == 0
        assert all(pivots.values[k] for k in (0, 2, 4, 5, 6))
        self.check(S)

    def test_zero_row(self):
        for S in ([[2, 0, 1], [0, 0, 0], [1, 0, 3]],
                  [[0, 0, 0, 0], [0, 1, 2, 0], [0, 2, 1, 1], [0, 0, 1, 0]]):
            self.check(S)
            assert det_laurent(S) == LaurentPoly.zero()
            assert det_laurent(S, pivots=True).values[-1] == 0

    def test_random_sparse_symmetric_and_pencils(self):
        rng = random.Random(20261018)
        for _ in range(60):
            dim = rng.randint(1, 12)
            density = rng.uniform(0.05, 0.3)
            self.check(sparse_symmetric(rng, dim, density))
            A = [[rng.choice((-2, -1, 1, 2)) if rng.random() < density else 0
                  for _ in range(dim)] for _ in range(dim)]
            rows = t_matrix(A)
            pivots = det_laurent(rows, pivots=True)
            assert [pivots.minor(k) for k in range(1, dim + 1)] == \
                symmetric_pivot_minors(rows), A

    @pytest.fixture
    def polys_built(self, monkeypatch) -> list:
        """Every LaurentPoly constructed from here on, by its coefficients."""
        built = []
        real = LaurentPoly.__init__

        def counting(self, coeffs=None):
            built.append(coeffs)
            real(self, coeffs)

        monkeypatch.setattr(LaurentPoly, "__init__", counting)
        return built

    def test_integer_matrix_builds_no_polynomial(self, polys_built):
        S = sparse_symmetric(random.Random(3), 20, 0.3)
        assert inertia_symmetric_exact(S).dim == 20
        assert polys_built == []

    def test_pencil_builds_one_polynomial_per_nonzero_entry(self, polys_built):
        A = an_family(26)
        nnz = sum(map(bool, (x for row in A for x in row)))
        pivots = exactlinalg._pencil.__wrapped__(tuple(map(tuple, A)))
        assert len(polys_built) <= 2 * nnz < len(A) ** 2 // 10
        assert pivots.minor(len(A)) == delta_n_closed(26).shift(len(A) // 2)


FIXTURES = Path(__file__).parent / "fixtures"


def dense_seifert(rng: random.Random, dim: int) -> list[list[int]]:
    """A Seifert matrix with every entry nonzero."""
    return [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(dim)] for _ in range(dim)]


def pencil_pivots(A: list[list[int]]) -> exactlinalg.Pivots:
    """The pencil's Pivots eliminated afresh, past the memo, under the thresholds in force."""
    return exactlinalg._pencil.__wrapped__(tuple(map(tuple, A)))


def pencil_minors(A: list[list[int]]) -> list[LaurentPoly]:
    pivots = pencil_pivots(A)
    return [pivots.minor(k) for k in range(1, len(A) + 1)]


class TestMirroredSteps:
    """Dense pencil steps that take the lower triangle by digit reversal.

    After p pivots, entry (j, i) of the pencil's Schur complement is
    (-1)^(p+1) t^(p+1) times entry (i, j) at 1/t, so a dense step of a
    large pencil computes the upper triangle and reverses the base-2^B
    digits of each entry for its mirror.  The always_mirrored fixture
    lowers both size thresholds to 0, so every dense step of a pencil
    with a quarter of its entries nonzero is mirrored, however small.
    """

    @pytest.fixture
    def reversals(self, monkeypatch) -> list[int]:
        """The digit count of every reversal taken from here on."""
        calls = []
        real = exactlinalg._reversed

        def spy(x, digits, size):
            calls.append(digits)
            return real(x, digits, size)

        monkeypatch.setattr(exactlinalg, "_reversed", spy)
        return calls

    @pytest.fixture
    def always_mirrored(self, monkeypatch, reversals) -> list[int]:
        monkeypatch.setattr(exactlinalg, "_MIRROR_ENTRY_BYTES", 0)
        monkeypatch.setattr(exactlinalg, "_MIRROR_PENCIL_BYTES", 0)
        return reversals

    @pytest.fixture
    def steps(self, monkeypatch) -> list[tuple[int, bool, bool]]:
        """(width, mirrored, reads a row left at an older scale) of every step from here on."""
        seen = []
        real = exactlinalg._eliminate

        def spy(M, scales, chain, width, update, mirrored):
            stale = any(s < len(chain) - 1 for s in scales[width:])
            seen.append((width, mirrored is not None, stale))
            return real(M, scales, chain, width, update, mirrored)

        monkeypatch.setattr(exactlinalg, "_eliminate", spy)
        return seen

    @staticmethod
    def unmirrored(A: list[list[int]], monkeypatch) -> list[LaurentPoly]:
        with monkeypatch.context() as m:
            m.setattr(exactlinalg, "_MIRROR_PENCIL_BYTES", 10**9)
            return pencil_minors(A)

    def test_reversal_of_balanced_digits(self):
        rng = random.Random(7)
        for size in (1, 2, 5, 17):
            half = 1 << (8 * size - 1)
            for digits in (1, 2, 3, 9):
                d = [rng.randrange(1 - half, half) for _ in range(digits)]
                d[rng.randrange(digits)] = rng.choice((1 - half, half - 1, 0))
                value = sum(x << (8 * size * e) for e, x in enumerate(d))
                want = sum(x << (8 * size * e) for e, x in enumerate(reversed(d)))
                assert exactlinalg._reversed(value, digits, size) == want, (d, size)

    def test_matches_cofactor_oracle(self, always_mirrored, steps):
        # zero diagonals force 2x2 block steps, a zero column of A a row
        # shift; every pivot against its cofactor minor
        rng = random.Random(20261018)
        mirrored = {"block": 0, "shift": 0, "plain": 0}
        for trial in range(240):
            dim = rng.randint(2, 6)
            A = dense_seifert(rng, dim)
            if trial % 3 == 1:
                for i in range(dim):
                    A[i][i] = 0
            if trial % 4 == 2:
                column = rng.randrange(dim)
                for row in A:
                    row[column] = 0
            steps.clear()
            minors = pencil_minors(A)
            assert minors == symmetric_pivot_minors(t_matrix(A)), A
            if any(m for _, m, _ in steps):
                lows = pencil_pivots(A).lows
                kind = ("block" if any(w == 2 and m for w, m, _ in steps) else
                        "shift" if any(lows) else "plain")
                mirrored[kind] += 1
        assert min(mirrored.values()) >= 20, mirrored
        assert always_mirrored

    def test_any_matrix_with_the_pencil_symmetry(self, always_mirrored):
        # M[j][i] = -t * M[i][j](1/t) with exponents from -2 to 3, so rows
        # are shifted by -2 to 1 and the windows vary entry by entry
        rng = random.Random(3)
        for _ in range(150):
            dim = rng.randint(2, 6)
            M = [[LaurentPoly()] * dim for _ in range(dim)]
            for i in range(dim):
                e, c = rng.randint(-2, 3), rng.choice((-2, -1, 1, 2))
                M[i][i] = LaurentPoly({e: c, 1 - e: -c})
                for j in range(i + 1, dim):
                    M[i][j] = LaurentPoly({rng.randint(-2, 3): rng.choice((-3, -1, 1, 2))
                                           for _ in range(rng.randint(1, 3))})
                    M[j][i] = LaurentPoly({1 - x: -c for x, c in M[i][j].coeffs.items()})
            pivots = det_laurent(M, pivots=True)
            assert [pivots.minor(k) for k in range(1, dim + 1)] == symmetric_pivot_minors(M), M
        assert len(always_mirrored) > 1000

    def test_matches_unmirrored_elimination(self, always_mirrored, monkeypatch):
        rng = random.Random(400)
        for trial in range(400):
            dim = rng.randint(2, 9)
            A = dense_seifert(rng, dim)
            for i in range(dim):
                if trial % 2 and rng.random() < 0.5:
                    A[i][i] = 0
            if trial % 5 == 0:
                column = rng.randrange(dim)
                for row in A:
                    row[column] = 0
            assert pencil_minors(A) == self.unmirrored(A, monkeypatch), A
        assert len(always_mirrored) > 4000

    def test_row_left_at_an_older_scale(self, always_mirrored, steps):
        # index 1 is 2 * index 0 where they meet index 4, so after the
        # first step entries (1, 4) and (4, 1) of the Schur complement
        # vanish: the second step is not mirrored and leaves row 4 at its
        # old scale, and the third, mirrored, step reads it
        A = dense_seifert(random.Random(11), 7)
        A[0][0], A[1][1], A[0][1], A[1][0] = 1, 3, 2, 2
        A[4][1], A[1][4] = 2 * A[4][0], 2 * A[0][4]
        assert pencil_minors(A) == symmetric_pivot_minors(t_matrix(A))
        assert [m for _, m, _ in steps[:3]] == [True, False, True]
        assert steps[2][2]

    def test_scrambled_family_matrices(self, reversals, monkeypatch):
        # P A_k P^T for unimodular P is dense, with the family's Alexander
        # polynomial; the default thresholds mirror these pencils
        rng = random.Random(2040)
        for dim in (20, 26, 32, 40):
            k = dim // 2 - 1
            A = congruence(random_unimodular(rng, dim, 10 * dim), an_family(k))
            assert 4 * sum(map(bool, (x for row in A for x in row))) > dim * dim
            reversals.clear()
            exactlinalg._pencil.cache_clear()
            assert alexander(A) == delta_n_closed(k)
            assert reversals, dim
            assert pencil_minors(A) == self.unmirrored(A, monkeypatch)

    def test_reversal_runs_on_dense_pencils_only(self, reversals, monkeypatch):
        doc = json.loads((FIXTURES / "dense_seifert_30.json").read_text())
        A = int_matrix_from_json(doc)
        assert pencil_minors(A)[-1] == delta_n_closed(14).shift(15)
        assert len(reversals) > 300
        reversals.clear()
        sparse = an_family(40)
        pivots = pencil_pivots(sparse)
        assert reversals == []
        with monkeypatch.context() as m:
            m.setattr(exactlinalg, "_MIRROR_PENCIL_BYTES", 10**9)
            assert pencil_pivots(sparse) == pivots

    def test_fixture_is_a_scrambled_family_matrix(self):
        doc = json.loads((FIXTURES / "dense_seifert_30.json").read_text())
        P = random_unimodular(random.Random(31), 30, 300)
        assert doc == {"dim": 30, "entries": congruence(P, an_family(14))}

    def test_symmetric_and_near_pencil_matrices_are_not_mirrored(self, always_mirrored):
        # a symmetric matrix, and a pencil with one entry off by t^2, keep
        # the unmirrored elimination
        rng = random.Random(5)
        for _ in range(40):
            dim = rng.randint(2, 7)
            S = random_symmetric_matrix(rng, dim)
            assert [det_laurent(S, pivots=True).minor(k) for k in range(1, dim + 1)] == \
                symmetric_pivot_minors(as_laurent(S)), S
            rows = t_matrix(dense_seifert(rng, dim))
            rows[0][-1] = rows[0][-1] + LaurentPoly({2: 1})
            pivots = det_laurent(rows, pivots=True)
            assert [pivots.minor(k) for k in range(1, dim + 1)] == symmetric_pivot_minors(rows)
        assert always_mirrored == []


class TestInertiaSymmetric:
    def test_examples(self):
        assert inertia_symmetric_exact([[3]]) == Inertia(1, 0, 0)
        assert inertia_symmetric_exact([[-2]]) == Inertia(0, 0, 1)
        assert inertia_symmetric_exact([[0]]) == Inertia(0, 1, 0)
        assert inertia_symmetric_exact([]) == Inertia(0, 0, 0)

    def test_symmetrized_family_matrix(self):
        s = [[A1[i][j] + A1[j][i] for j in range(4)] for i in range(4)]
        assert inertia_symmetric_exact(s) == Inertia(2, 0, 2)
        assert signature(s) == 0

    def test_hyperbolic_plane(self):
        assert inertia_symmetric_exact([[0, 1], [1, 0]]) == Inertia(1, 0, 1)

    def test_identity_and_zero(self):
        eye3 = [[int(i == j) for j in range(3)] for i in range(3)]
        assert inertia_symmetric_exact(eye3) == Inertia(3, 0, 0)
        assert inertia_symmetric_exact([[0] * 3 for _ in range(3)]) == Inertia(0, 3, 0)

    def test_rank_one(self):
        s = [[1, 2], [2, 4]]
        assert inertia_symmetric_exact(s) == Inertia(1, 1, 0)

    def test_inertia_properties(self):
        i = Inertia(2, 1, 3)
        assert i.dim == 6
        assert i.signature == -1
        with pytest.raises(ValueError):
            Inertia(-1, 0, 0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            inertia_symmetric_exact([[0, 1], [2, 0]])

    def test_sylvester_congruence_invariance(self):
        rng = random.Random(99)
        for trial in range(120):
            dim = rng.randint(1, 5)
            s = random_symmetric_matrix(rng, dim)
            e = random_unimodular(rng, dim)
            # E S E^T via exact integer products
            es = [
                [sum(e[i][k] * s[k][j] for k in range(dim)) for j in range(dim)]
                for i in range(dim)
            ]
            eset = [
                [sum(es[i][k] * e[j][k] for k in range(dim)) for j in range(dim)]
                for i in range(dim)
            ]
            assert inertia_symmetric_exact(eset) == inertia_symmetric_exact(s), (
                f"trial {trial}"
            )

    def test_block_pivot_then_zero_block(self):
        # a hyperbolic plane, then a zero Schur complement
        assert inertia_symmetric_exact([[0, 1, 0], [1, 0, 0], [0, 0, 0]]) == Inertia(1, 1, 1)

    def test_zero_diagonal_rank_two(self):
        # v w^T + w v^T with v = (1, 1, 0, 0), w = (0, 0, 1, 1)
        s = [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]]
        assert inertia_symmetric_exact(s) == Inertia(1, 2, 1)
        assert inertia_symmetric_exact([[0, 0, 3], [0, 0, 0], [3, 0, 0]]) == Inertia(1, 1, 1)

    def test_rejects_non_integer_entries(self):
        for s in ([[True]], [[1, 0], [0, False]], [[1.5]], [[0, 1], [True, 0]], [["1"]]):
            with pytest.raises(ValueError):
                inertia_symmetric_exact(s)

    def test_matches_numpy_eigvalsh(self):
        rng = random.Random(2718)
        compared = 0
        for trial in range(1500):
            dim = rng.randint(1, 8)
            density = rng.choice([0.3, 0.6, 1.0])
            s = [[0] * dim for _ in range(dim)]
            for i in range(dim):
                for j in range(i if trial % 3 else i + 1, dim):  # every third: zero diagonal
                    if rng.random() < density:
                        s[i][j] = s[j][i] = rng.randint(-5, 5)
            got = inertia_symmetric_exact(s)
            assert got.dim == dim
            if dim <= 6:  # cofactor expansion takes dim! terms
                det = det_cofactor_fraction([[Fraction(x) for x in row] for row in s])
                assert (got.n_zero == 0) == (det != 0), s
            eigs = np.linalg.eigvalsh(np.array(s, dtype=float))
            if float(np.min(np.abs(eigs))) > 1e-6:
                assert got == Inertia(int(np.sum(eigs > 0)), 0, int(np.sum(eigs < 0))), s
                compared += 1
        assert compared > 800

    def test_determinant_sign_with_huge_entries(self):
        # beyond the float range of eigvalsh: det has the sign (-1)^n_minus
        rng = random.Random(1618)
        for _ in range(200):
            dim = rng.randint(1, 6)
            s = random_symmetric_matrix(rng, dim, bound=10**12)
            for i in rng.sample(range(dim), rng.randint(0, dim)):
                s[i][i] = 0
            got = inertia_symmetric_exact(s)
            det = det_cofactor_fraction([[Fraction(x) for x in row] for row in s])
            assert (got.n_zero == 0) == (det != 0), s
            if det:
                assert (det > 0) == (got.n_minus % 2 == 0), s

    def test_diagonal_determinant_consistency(self):
        # n_zero == 0 exactly when the exact determinant is nonzero
        rng = random.Random(4242)
        for _ in range(100):
            dim = rng.randint(1, 4)
            s = random_symmetric_matrix(rng, dim)
            det = det_cofactor_fraction([[Fraction(x) for x in row] for row in s])
            inertia = inertia_symmetric_exact(s)
            assert (inertia.n_zero == 0) == (det != 0)
            sign_expected = 0 if det == 0 else (1 if det > 0 else -1)
            sign_got = (-1) ** inertia.n_minus if inertia.n_zero == 0 else 0
            assert sign_got == sign_expected or inertia.n_zero > 0


class TestHermitianInertia:
    def test_minus_one_matches_symmetrized(self):
        # H(-1) = 2(A + A^T), so signatures agree
        got = inertia_hermitian_at_root(A1, UnitCirclePoint.minus_one())
        assert got.signature == 0
        assert (got.n_plus, got.n_zero, got.n_minus) == (2, 0, 2)

    def test_trefoil_at_minus_one(self):
        got = inertia_hermitian_at_root(TREFOIL, UnitCirclePoint.minus_one())
        assert got.signature == -2

    def test_rejects_omega_one(self):
        with pytest.raises(InvalidRoot):
            inertia_hermitian_at_root(A1, UnitCirclePoint.root(0, 1))
        with pytest.raises(InvalidRoot):
            inertia_hermitian_at_root(A1, UnitCirclePoint.angle(0.0))

    def test_near_singular_guard(self):
        with pytest.raises(NearSingular) as exc:
            inertia_hermitian_at_root(TREFOIL, UnitCirclePoint.root(1, 6))
        assert "1/6" in str(exc.value)
        assert "D_2 = 0 exactly" in str(exc.value)
        assert (exc.value.index, exc.value.value, exc.value.bound) == (2, 0.0, 0.0)

    def test_singular_refusal_carries_no_advice(self):
        # a signature at another root answers another question, so none is suggested
        with pytest.raises(NearSingular) as exc:
            inertia_hermitian_at_root(TREFOIL, UnitCirclePoint.root(1, 6))
        assert str(exc.value) == "form is singular at 1/6: leading minor D_2 = 0 exactly"
        assert not hasattr(exc.value, "suggestion")

    def test_agrees_with_symmetrized_signature(self):
        rng = random.Random(31)
        checked = 0
        while checked < 60:
            dim = rng.randint(1, 5)
            a = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
            try:
                herm = inertia_hermitian_at_root(a, UnitCirclePoint.minus_one())
            except NearSingular:
                continue
            sym = [[a[i][j] + a[j][i] for j in range(dim)] for i in range(dim)]
            assert herm.signature == inertia_symmetric_exact(sym).signature
            assert herm.n_zero == 0
            assert herm.dim == dim
            checked += 1

    def test_even_dimension_even_signature(self):
        rng = random.Random(55)
        checked = 0
        while checked < 40:
            a = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
            w = UnitCirclePoint.root(rng.randint(1, 11), 12)
            if w.is_one():
                continue
            try:
                inertia = inertia_hermitian_at_root(a, w)
            except NearSingular:
                continue
            assert inertia.signature % 2 == 0
            checked += 1


def numpy_inertia(A: list[list[int]], omega: UnitCirclePoint) -> Inertia | None:
    """Inertia of H(omega) from numpy eigenvalues; None when one is near zero."""
    w = np.exp(1j * omega.theta)
    M = np.array(A, dtype=complex)
    eigs = np.linalg.eigvalsh((1 - w) * M + (1 - np.conj(w)) * M.T)
    if float(np.min(np.abs(eigs))) < 1e-6:
        return None
    return Inertia(int(np.sum(eigs > 0)), 0, int(np.sum(eigs < 0)))


class TestExactHermitianInertia:
    """Jacobi's rule on the pencil's pivots, cross-checked against numpy."""

    @staticmethod
    def random_matrix(rng: random.Random) -> list[list[int]]:
        dim = rng.randint(1, 7)
        density = rng.random()
        return [[rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(dim)]
                for _ in range(dim)]

    def test_matches_numpy_at_roots_of_order_up_to_13(self):
        rng = random.Random(20261018)
        answered = 0
        for _ in range(1500):
            A = self.random_matrix(rng)
            m = rng.randint(2, 13)
            omega = UnitCirclePoint.root(rng.randint(1, m - 1), m)
            want = numpy_inertia(A, omega)
            if want is None:
                continue
            try:
                got = inertia_hermitian_at_root(A, omega)
            except NearSingular as exc:
                # the one refusal of a nonsingular form: D_k = D_k+1 = 0
                assert "two in a row" in str(exc), (A, omega)
                assert "singular" not in str(exc), (A, omega)
                continue
            assert got == want, (A, omega)
            answered += 1
        assert answered > 500

    def test_matches_numpy_at_float_angles(self):
        rng = random.Random(18)
        answered = 0
        for _ in range(400):
            A = self.random_matrix(rng)
            omega = UnitCirclePoint.angle(rng.uniform(-20.0, 20.0))
            want = numpy_inertia(A, omega)
            if want is None:
                continue
            assert inertia_hermitian_at_root(A, omega) == want, (A, omega)
            answered += 1
        assert answered > 150

    def test_pivots_are_the_leading_minors(self):
        rows = t_matrix(A1)
        pivots = det_laurent(rows, pivots=True)
        assert len(pivots.values) == 4
        for k in range(5):
            assert pivots.minor(k) == det_cofactor([row[:k] for row in rows[:k]]), k

    def test_two_by_two_block_pivot(self):
        # t*A - A^T = [[0, t], [-1, 0]]: no nonzero diagonal entry to swap in
        A = [[0, 1], [0, 0]]
        pivots = det_laurent(t_matrix(A), pivots=True)
        assert [pivots.minor(k) for k in (1, 2)] == [LaurentPoly.zero(), LaurentPoly.t()]
        for m in (2, 3, 7):
            omega = UnitCirclePoint.root(1, m)
            assert inertia_hermitian_at_root(A, omega) == Inertia(1, 0, 1)
            assert numpy_inertia(A, omega) == Inertia(1, 0, 1)

    def test_two_block_pivots_in_a_row(self):
        # a zero diagonal twice over: blocks {0, 3} and then {1, 2}
        A = [[0, 0, 0, 1], [0, 0, -1, 1], [0, -1, 0, -1], [1, -1, -1, 0]]
        rows = t_matrix(A)
        pivots = det_laurent(rows, pivots=True)
        assert pivots.values[0] == pivots.values[2] == 0
        block = [[rows[i][j] for j in (0, 3)] for i in (0, 3)]
        assert pivots.minor(2) == det_cofactor(block)
        assert pivots.minor(4) == det_cofactor(rows) == det_laurent(rows)
        for k, m in ((1, 3), (1, 5), (2, 7), (1, 2)):
            omega = UnitCirclePoint.root(k, m)
            want = numpy_inertia(A, omega)
            if want is not None:
                assert inertia_hermitian_at_root(A, omega) == want

    def test_isolated_zero_minor_gundelfinger(self):
        # D_2 vanishes at i without vanishing identically; D_1 < 0 < D_3
        A = [[-1, -1, -1], [1, -1, 0], [1, -1, 0]]
        omega = UnitCirclePoint.root(1, 4)
        terms = exactlinalg._pencil(tuple(map(tuple, A))).terms
        assert [exactlinalg._sign_at(omega, k, t) for k, t in enumerate(terms, 1)] == [-1, 0, 1]
        assert det_laurent(t_matrix(A), pivots=True).values[1] != 0
        assert inertia_hermitian_at_root(A, omega) == Inertia(1, 0, 2)
        assert numpy_inertia(A, omega) == Inertia(1, 0, 2)

    def test_consecutive_zero_minors_are_refused(self):
        # D_2 = D_3 = 0 at 1/6 although the form itself is nonsingular
        A = [[-1, -1, 1, -1], [0, -1, 0, 0], [1, 1, 0, 1], [0, 0, 1, 1]]
        omega = UnitCirclePoint.root(1, 6)
        assert numpy_inertia(A, omega) == Inertia(2, 0, 2)
        with pytest.raises(NearSingular) as exc:
            inertia_hermitian_at_root(A, omega)
        assert str(exc.value) == ("Jacobi's rule cannot count the inertia at 1/6: leading "
                                  "minors D_2 = D_3 = 0 exactly, two in a row, and D_4 != 0")
        assert "singular" not in str(exc.value)
        assert (exc.value.index, exc.value.value, exc.value.bound) == (2, 0.0, 0.0)

    def test_zero_minor_refusals_say_singular_only_at_a_zero_determinant(self):
        omega = UnitCirclePoint.root(1, 6)
        head = "form is singular at 1/6: leading minor"
        assert {args: str(exactlinalg._zero_minors(omega, *args)) for args in (
            (4, 4, True), (3, 4, True), (1, 4, True), (1, 4, False))} == {
            (4, 4, True): f"{head} D_4 = 0 exactly",
            (3, 4, True): f"{head}s D_3 = D_4 = 0 exactly, two in a row",
            (1, 4, True): f"{head}s D_1 = D_2 = 0 exactly, two in a row, and D_4 = 0",
            (1, 4, False): "Jacobi's rule cannot count the inertia at 1/6: leading minors "
                           "D_1 = D_2 = 0 exactly, two in a row, and D_4 != 0",
        }
        refusal = exactlinalg._zero_minors(omega, 3, 4, True)
        assert (refusal.omega, refusal.index, refusal.value, refusal.bound) == (omega, 3, 0.0, 0.0)

    def test_uncertified_float_sign_is_refused(self):
        # at a float angle a vanishing D_2 cannot be told from a tiny one
        theta = UnitCirclePoint.root(1, 6).theta
        with pytest.raises(NearSingular) as exc:
            inertia_hermitian_at_root(TREFOIL, UnitCirclePoint.angle(theta))
        assert "not certified" in str(exc.value)
        assert exc.value.index == 2
        assert abs(exc.value.value) <= exc.value.bound
        assert (exc.value.value, exc.value.bound) == (-6.661338147750939e-16,
                                                      1.3448435834808408e-14)

    def test_refusals_keep_their_numbers(self):
        # the first refusals of the suite above, with the index, value and
        # bound they had when every sign was reduced modulo Phi_m first
        rng = random.Random(20261018)
        want = {2: (1, 0.0, 0.0), 3: (6, 0.0, 0.0), 6: (1, 0.0, 0.0), 7: (1, 0.0, 0.0),
                10: (3, 0.0, 0.0), 11: (2, 0.0, 0.0), 15: (5, 0.0, 0.0), 18: (5, 0.0, 0.0)}
        got = {}
        for case in range(19):
            A = self.random_matrix(rng)
            m = rng.randint(2, 13)
            omega = UnitCirclePoint.root(rng.randint(1, m - 1), m)
            try:
                inertia_hermitian_at_root(A, omega)
            except NearSingular as exc:
                got[case] = (exc.index, exc.value, exc.bound)
        assert got == want

    def test_invalid_root_at_one(self):
        for omega in (UnitCirclePoint.root(0, 1), UnitCirclePoint.root(5, 5),
                      UnitCirclePoint.angle(-math.tau)):
            with pytest.raises(InvalidRoot):
                inertia_hermitian_at_root([[0, 1], [0, 0]], omega)

    def test_large_family_members(self):
        # dimension 122, far past where a float determinant test gives out
        A = an_family(60)
        for k, p in ((1, 2), (1, 3), (5, 17)):
            omega = UnitCirclePoint.root(k, p)
            assert inertia_hermitian_at_root(A, omega) == numpy_inertia(A, omega)


def sign_outcome(fn):
    """fn()'s sign, or the index, value and bound of its NearSingular."""
    try:
        return fn()
    except NearSingular as exc:
        return exc.index, exc.value, exc.bound


class TestSignAt:
    """One exact sign routine: a certified float sign first, a remainder only when it fails."""

    @pytest.fixture
    def reductions(self, monkeypatch):
        calls = []

        def spy(terms, m):
            calls.append(m)
            return reduce_mod(terms, m)

        reduce_mod = exactlinalg._mod_cyclotomic
        monkeypatch.setattr(exactlinalg, "_mod_cyclotomic", spy)
        return calls

    def test_certified_float_sign_takes_no_remainder(self, reductions):
        # Delta_99 spans 201 exponents, so each of these roots would reduce it
        delta = sorted(delta_n_closed(99).coeffs.items())
        assert exactlinalg._sign_at(UnitCirclePoint.root(1, 3), 0, delta) == -1
        assert exactlinalg._sign_at(UnitCirclePoint.root(1, 2), 0, delta) == 1
        assert exactlinalg._sign_at(UnitCirclePoint.root(3, 11), 0, delta) == -1
        assert reductions == []

    def test_exact_zero_beyond_the_float_reach(self):
        # t^(6*10^15) - 1 vanishes at 1/6, and at 1/7 it is t^r - 1 with
        # r = 6*10^15 mod 7 != 0, whose real part is negative
        terms = [(0, -1), (6 * 10**15, 1)]
        assert exactlinalg._sign_at(UnitCirclePoint.root(1, 6), 0, terms) == 0
        assert exactlinalg._sign_at(UnitCirclePoint.root(1, 7), 0, terms) == -1

    def test_uncertified_remainder_is_refused_with_its_numbers(self, reductions):
        # a * 2cos(2pi/7) + b is a few units at most for these 17-digit a, b,
        # far inside the rounding-error bound: its sign is not certified
        # before or after the remainder, and the refusal carries the
        # remainder's value and bound
        a = 10**17
        b = -round(2 * a * math.cos(math.tau / 7))
        terms = [(-1, a), (0, b), (1, a)]
        omega = UnitCirclePoint.root(1, 7)
        with pytest.raises(NearSingular) as exc:
            exactlinalg._sign_at(omega, 0, terms)
        assert reductions == [7]
        assert "the sign of the polynomial is not certified" in str(exc.value)
        want = sign_outcome(lambda: reduce_first(omega, 0, terms))
        assert (exc.value.index, exc.value.value, exc.value.bound) == want

    def test_monomials_take_no_float_sum(self, monkeypatch):
        # P_2j = t^j for the family, so half its minors are monomials; their
        # signs come from c * (-1)^(k/2), and lt agrees with the closed form
        certified = exactlinalg._certified_sign

        def guarded(omega, k, terms):
            if len(terms) == 1 and 2 * terms[0][0] == k:
                raise AssertionError(f"float sum taken on the monomial {terms} for D_{k}")
            return certified(omega, k, terms)

        monkeypatch.setattr(exactlinalg, "_certified_sign", guarded)
        for omega in (UnitCirclePoint.root(1, 7), UnitCirclePoint.root(5, 11),
                      UnitCirclePoint.angle(2.5)):
            assert exactlinalg._sign_at(omega, 0, [(0, 5)]) == 1
            assert exactlinalg._sign_at(omega, 0, [(0, -3)]) == -1
            assert exactlinalg._sign_at(omega, 2, [(1, 7)]) == -1
            assert exactlinalg._sign_at(omega, 4, [(2, 7)]) == 1
            assert exactlinalg._sign_at(omega, 6, [(3, -2)]) == 1
        for n in (1, 2, 5, 12, 40):
            exactlinalg._pencil.cache_clear()
            A = an_family(n)
            terms = exactlinalg._pencil(tuple(map(tuple, A))).terms
            assert sum(len(t) == 1 for t in terms) >= n
            for m in (3, 5, 7, 13):
                for j in range(1, m):
                    omega = UnitCirclePoint.root(j, m)
                    got = sign_outcome(lambda: lt_signature(A, omega))
                    want = sign_outcome(lambda: seifert._family_signature(n, omega))
                    assert got == want, (n, omega)

    def test_exponents_beyond_the_float_range_fold_modulo_the_order(self):
        # omega^p = 1, so Delta_N and Delta_(N mod p + p) take one value at k/p
        primes = [p for p in range(2, 62) if all(p % d for d in range(2, p))]
        for r in range(3):
            n = 10**400 + r
            big = sorted(delta_n_closed(n).coeffs.items())
            for p in primes:
                small = sorted(delta_n_closed(n % p + p).coeffs.items())
                for k in range(1, p):
                    omega = UnitCirclePoint.root(k, p)
                    want = exactlinalg._sign_at(omega, 0, small)
                    assert exactlinalg._sign_at(omega, 0, big) == want, (r, omega)

    def test_exponents_beyond_the_float_range_are_refused_at_float_angles(self):
        big = sorted(delta_n_closed(10**400).coeffs.items())
        with pytest.raises(NearSingular, match="beyond the float range") as exc:
            exactlinalg._sign_at(UnitCirclePoint.angle(2.5), 0, big)
        assert math.isnan(exc.value.value) and exc.value.bound == math.inf
        # at the root 1/10^400, t^m = 1 folds Delta_(10^400) to t^-1 - 1 + t,
        # which is 2cos(2pi/10^400) - 1 > 0 there
        omega = UnitCirclePoint.root(1, 10**400)
        assert exactlinalg._folded(big, omega.m) == [(-1, 1), (0, -1), (1, 1)]
        assert exactlinalg._sign_at(omega, 0, big) == 1
        # 1 + t^(m/2) is exactly 0 there, which only a remainder modulo
        # Phi_m of order 10^400 could show: refused
        half = [(0, 1), (5 * 10**399, 1)]
        with pytest.raises(NearSingular):
            exactlinalg._sign_at(omega, 0, half)

    def test_fold_is_sparse_and_centred_on_k_half(self):
        rng = random.Random(14)
        for _ in range(2000):
            m, k = rng.randint(1, 40), rng.randint(0, 12)
            terms = sorted({rng.randint(-10**6, 10**6): rng.choice((-2, -1, 1, 3))
                            for _ in range(rng.randint(0, 6))}.items())
            folded = exactlinalg._folded(terms, m, k)
            assert all(c and -m <= 2 * e - k < m for e, c in folded), (terms, m, k)
            assert [e for e, _ in folded] == sorted({e for e, _ in folded})
            dense = [0] * m
            for e, c in terms:
                dense[e % m] += c
            assert {e % m: c for e, c in folded} == {e: c for e, c in enumerate(dense) if c}

    def test_a_root_of_large_order_allocates_in_the_terms_not_the_order(self):
        # Delta_(10^15 + 1) at 500001/1000003: each phase is reduced
        # exactly modulo the order, and the certified sum decides with no
        # remainder
        profile = a_family_profile(UnitCirclePoint.root(500001, 1000003))
        tracemalloc.start()
        try:
            assert profile(10**15) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20, peak

    @pytest.mark.parametrize("n, j, m, want", [
        (250000000000000, 500000000000001, 1000000000000037, 1),
        (25000000000000000000, 50000000000000000020, 100000000000000000039, 0),
        (1000000192922, 170171, 510510, 1),
    ])
    def test_huge_twists_at_roots_of_huge_order(self, n, j, m, want):
        # Delta_(1+n) is -0.657, +10.66 and -6.5e-6 there, and 1 - 2cos(theta)
        # is about 3, 3 and 2 (50-digit checks); the first two once asked
        # for a dense remainder of m coefficients, the third for Phi_510510
        profile = a_family_profile(UnitCirclePoint.root(j, m))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            assert profile(n) == want
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1 and peak < 32 << 20, (elapsed, peak)

    @pytest.mark.parametrize("j, m, terms", [
        (1, 15015, [(0, 1), (5005, 1), (10010, 1)]),
        (1, 30030, [(0, 1), (10010, 1), (20020, 1)]),
        (1, 510510, [(0, 1), (170170, 1), (340340, 1)]),
        (1, 10**400, [(0, 1), (5 * 10**399, 1)]),
        ((10**15 + 37) // 3, 10**15 + 37, sorted(delta_n_closed(799209645399107).coeffs.items())),
    ])
    def test_no_remainder_past_the_order_limit(self, reductions, j, m, terms):
        # exact zeros (1 + t^(m/3) + t^(2m/3), 1 + t^(m/2)) and a Delta_n of
        # about 1e-14: no certified sum decides them, and past the limit no
        # Phi_m is built, so each is refused at once
        start = time.perf_counter()
        with pytest.raises(NearSingular) as exc:
            exactlinalg._sign_at(UnitCirclePoint.root(j, m), 0, terms)
        assert time.perf_counter() - start < 1
        assert reductions == []
        assert str(exc.value).endswith(
            f"; no remainder modulo Phi_m at order {m} > {exactlinalg._MAX_REMAINDER_ORDER}")
        assert m > exactlinalg._MAX_REMAINDER_ORDER

    def test_agrees_with_decimal_phases(self):
        # every leading minor of random pencils at every root of its order,
        # and Delta_n with exponents up to 10^400, against exact rational
        # phases summed in 50-digit decimal
        rng = random.Random(15)
        signs = []
        for _ in range(150):
            A = TestExactHermitianInertia.random_matrix(rng)
            m = rng.randint(2, 40)
            minors = exactlinalg._pencil(tuple(map(tuple, A))).terms
            for j in range(1, m):
                if math.gcd(j, m) == 1:
                    omega = UnitCirclePoint.root(j, m)
                    for k, terms in enumerate(minors, 1):
                        got = exactlinalg._sign_at(omega, k, terms)
                        assert got == decimal_sign(omega, k, terms), (A, omega, k)
                        signs.append(got)
        roots = [UnitCirclePoint.root(j, m) for m in (2, 3, 5, 6, 7, 12, 30, 61, 1009)
                 for j in range(1, m) if math.gcd(j, m) == 1]
        for n in [*range(1, 13), 10**6 + 3, 10**18 + 7, 10**40 + 1, 10**400, 10**400 + 5]:
            terms = sorted(delta_n_closed(n).coeffs.items())
            for omega in roots:
                got = exactlinalg._sign_at(omega, 0, terms)
                assert got == decimal_sign(omega, 0, terms), (n, omega)
                signs.append(got)
        assert {signs.count(s) > 100 for s in (-1, 0, 1)} == {True}

    def test_a_shift_by_a_multiple_of_the_order_keeps_the_outcome(self):
        # omega^m = 1, so Delta_n and Delta_(n + 10^30 m) give the same sign,
        # or the same refusal with the same index, value and bound
        m = 10**15 + 37
        cases = [(n, UnitCirclePoint.root(j, q)) for n in (1, 6, 7, 40, 10**6)
                 for q in (6, 7, 60, 1009) for j in range(1, q) if math.gcd(j, q) == 1]
        cases.append((799209645399107, UnitCirclePoint.root(m // 3, m)))

        def outcome(n, omega):
            terms = sorted(delta_n_closed(n).coeffs.items())
            return sign_outcome(lambda: exactlinalg._sign_at(omega, 0, terms))
        outcomes = [outcome(n, omega) for n, omega in cases]
        assert [outcome(n + 10**30 * omega.m, omega) for n, omega in cases] == outcomes
        assert {0, 1, -1} < set(outcomes)  # each sign, and the refusal at m // 3 / m

    def test_angle_bound_counts_a_subnormal_theta_as_the_smallest_normal(self):
        terms = [(0, 1), (2**1020, 1)]
        tiny = exactlinalg._angle_error(2.0**-1040, 0, terms)
        assert tiny == exactlinalg._angle_error(2.0**-1022, 0, terms) == 8 * 2.0**-53 * 1.25
        # 2cos(2*pi/1024) - 2 at 1/2^1030, where theta is subnormal
        omega = UnitCirclePoint.root(1, 2**1030)
        assert exactlinalg._sign_at(omega, 0, [(-(2**1020), 1), (0, -2), (2**1020, 1)]) == -1
        assert exactlinalg._angle_error(0.5, 3, [(-2, 1), (4, 1)]) == 8 * 2.0**-53 * (0.5 * 3.5 + 4)

    def test_agrees_with_reduce_first_on_random_pencils(self):
        # every leading minor of the random pencils of
        # TestExactHermitianInertia, at its roots and at every other root
        # of the same order
        rng = random.Random(20261018)
        zeros = 0
        for _ in range(1500):
            A = TestExactHermitianInertia.random_matrix(rng)
            m = rng.randint(2, 13)
            rng.randint(1, m - 1)
            minors = exactlinalg._pencil(tuple(map(tuple, A))).terms
            for j in range(1, m):
                omega = UnitCirclePoint.root(j, m)
                for k, terms in enumerate(minors, 1):
                    got = sign_outcome(lambda: exactlinalg._sign_at(omega, k, terms))
                    assert got == sign_outcome(lambda: reduce_first(omega, k, terms)), (A, omega, k)
                    zeros += got == 0
        assert zeros > 1000


class TestJsonMatrices:
    def test_int_round_trip(self):
        text = json.dumps({"dim": 4, "entries": A1})
        assert int_matrix_from_json(json.loads(text)) == A1

    def test_laurent_entries(self):
        rows = [[laurent_from_entry(e) for e in row] for row in [["t - 1", 0], [2, "t^-1"]]]
        assert rows[0][0] == LaurentPoly({1: 1, 0: -1})
        assert rows[0][1] == LaurentPoly.zero()
        assert rows[1][1] == LaurentPoly({-1: 1})

    def test_dim_is_optional_when_consistent(self):
        assert int_matrix_from_json({"entries": [[7]]}) == [[7]]

    def test_rejects_bad_documents(self):
        for doc in [
            [],
            {"dim": 2, "entries": [[1, 0]]},
            {"dim": 1, "entries": [[1, 2]]},
            {"dim": 1, "entries": [[True]]},
            {"dim": 2, "entries": "nope"},
            {"dim": 1, "entries": [[1]], "transposed": True},
        ]:
            with pytest.raises(ValueError):
                int_matrix_from_json(doc)

    def test_int_matrix_rejects_laurent_strings(self):
        with pytest.raises(ValueError):
            int_matrix_from_json({"dim": 1, "entries": [["t"]]})


@given(
    st.lists(
        st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=3, max_size=3
    )
)
def test_det_laurent_on_constants_matches_fraction_det(entries):
    rows = [[LaurentPoly({0: x}) for x in row] for row in entries]
    expected = det_cofactor_fraction([[Fraction(x) for x in row] for row in entries])
    got = det_laurent(rows)
    assert got == LaurentPoly({0: int(expected)})
