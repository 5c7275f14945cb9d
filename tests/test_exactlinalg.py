import ast
import hashlib
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
    block_sum,
    congruence,
    cyclotomic,
    decimal_sign,
    dense_remainder,
    det_cofactor,
    det_cofactor_fraction,
    family_signature,
    is_pencil,
    leading_minors,
    random_laurent,
    random_laurent_matrix,
    random_symmetric_matrix,
    random_unimodular,
    realified_inertia,
    reduce_first,
    torus_seifert,
)
from shakekit import circle, exactlinalg, goeritz, seifert, verify
from shakekit.circle import InvalidRoot, NearSingular
from shakekit.cli import int_matrix_from_json
from shakekit.complexity import a_family_profile, certify_complexity
from shakekit.errors import clip
from shakekit.exactlinalg import (
    Inertia,
    det_laurent,
    inertia_hermitian_at_root,
    inertia_symmetric_exact,
)
from shakekit.laurent import LaurentPoly, UnitCirclePoint
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
        assert det_laurent([]) == LaurentPoly({0: 1})

    def test_one_by_one(self):
        p = LaurentPoly({2: 3, -1: 1})
        assert det_laurent([[p]]) == p

    def test_monomial_diagonal(self):
        t = LaurentPoly({1: 1})
        z = LaurentPoly()
        assert det_laurent([[t, z], [z, LaurentPoly({-1: 1})]]) == LaurentPoly({0: 1})

    def test_antidiagonal_sign(self):
        t = LaurentPoly({1: 1})
        z = LaurentPoly()
        assert det_laurent([[z, t], [t, z]]) == LaurentPoly({2: -1})

    def test_family_matrix_determinant(self):
        # det(tA1 - A1^T), expanded by hand via cofactors and frozen here
        expected = LaurentPoly({4: 1, 3: -3, 2: 5, 1: -3, 0: 1})
        assert det_laurent(t_matrix(A1)) == expected
        assert det_cofactor(t_matrix(A1)) == expected

    def test_singular_matrix(self):
        t = LaurentPoly({1: 1})
        rows = [[t, t], [t, t]]
        assert det_laurent(rows) == LaurentPoly()

    def test_zero_row(self):
        z = LaurentPoly()
        t = LaurentPoly({1: 1})
        assert det_laurent([[z, z], [t, t]]) == LaurentPoly()

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            det_laurent([[LaurentPoly({0: 1})], []])

    def test_refuses_entries_that_are_neither_ints_nor_polynomials(self):
        # JSON booleans, floats and textual polynomials are not coerced
        assert det_laurent([[3]]) == LaurentPoly({0: 3})
        assert det_laurent([[LaurentPoly({1: 1, 0: -1})]]) == LaurentPoly({1: 1, 0: -1})
        for bad in (True, 1.5, "t - 1"):
            with pytest.raises(ValueError, match=f"LaurentPoly, got {bad!r}$"):
                det_laurent([[bad]])
            with pytest.raises(ValueError, match=f"got {bad!r}$"):
                det_laurent([[LaurentPoly({1: 1}), 0], [2, bad]])

    def test_matches_cofactor_oracle(self):
        rng = random.Random(20260814)
        for trial in range(250):
            dim = rng.randint(0, 4)
            rows = random_laurent_matrix(rng, dim)
            assert det_laurent(rows) == det_cofactor(rows), f"trial {trial}: {rows!r}"

    def test_multiplicative_on_integer_matrices(self):
        rng = random.Random(7)
        for _ in range(50):
            a = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            b = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            prod = [[LaurentPoly({0: sum(a[i][k] * b[k][j] for k in range(3))}) for j in range(3)]
                    for i in range(3)]
            a, b = ([[LaurentPoly({0: x}) for x in row] for row in m] for m in (a, b))
            assert det_laurent(prod) == det_laurent(a) * det_laurent(b)


def norm_sq(rows: list[list[LaurentPoly]]) -> int:
    """prod_i max(1, sum_j ||a_ij||_1^2), the square of the kernel's Hadamard bound."""
    return math.prod(max(1, sum(sum(map(abs, e.coeffs.values())) ** 2 for e in row))
                     for row in rows)


def hadamard_bound(rows: list[list[LaurentPoly]]) -> int:
    """ceil(prod_i sqrt(sum_j ||a_ij||_1^2)), the coefficient bound of the kernel."""
    return math.isqrt(norm_sq(rows) - 1) + 1


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
            assert [abs(c) for c in det.coeffs.values()] == [hadamard_bound(rows)]
            mirrored = [[e * -1 for e in rows[0]]] + rows[1:]
            assert det_laurent(mirrored) == det * -1

    def test_coefficient_at_the_column_bound(self, monkeypatch):
        # H4 with its columns scaled by 1, 2**30, 3 and 2**61 + 1 meets the
        # column form of Hadamard's inequality with equality, well below
        # the row form: the width is the column bound's, and still holds
        # the determinant
        widths = []
        real = exactlinalg._width
        monkeypatch.setattr(exactlinalg, "_width", lambda sq: widths.append(sq) or real(sq))
        scales = (1, 2**30, 3, 2**61 + 1)
        rows = [[LaurentPoly({2 * i - j: x * s}) for j, (x, s) in enumerate(zip(row, scales))]
                for i, row in enumerate(H4)]
        columns = [list(column) for column in zip(*rows)]
        det = det_laurent(rows)
        assert det == det_cofactor(rows)
        assert [abs(c) for c in det.coeffs.values()] == [hadamard_bound(columns)]
        assert widths == [norm_sq(columns)] and norm_sq(columns) < norm_sq(rows)

    def test_vanishing_leading_minor_forces_row_swap(self):
        t = LaurentPoly({1: 1})
        one, z = LaurentPoly({0: 1}), LaurentPoly()
        # the leading 2x2 minor t*t - t^2*1 vanishes as a polynomial
        rows = [[t, t * t, one], [one, t, z], [z, one, t]]
        assert det_laurent(rows) == det_cofactor(rows) == LaurentPoly({0: 1})
        # the leading 1x1 minor is zero
        rows = [[z, t, one], [t, one, z], [one, z, LaurentPoly({-1: 1})]]
        assert det_laurent(rows) == det_cofactor(rows)
        assert det_laurent(rows)

    def test_singular_without_zero_row(self):
        t = LaurentPoly({1: 1})
        one = LaurentPoly({0: 1})
        r1 = [one, t, t * t]
        r2 = [t, LaurentPoly({0: 1, 1: -1}), LaurentPoly({-1: 3})]
        # the third row is r1 + 2t * r2
        r3 = [LaurentPoly({0: 1, 2: 2}), LaurentPoly({1: 3, 2: -2}), LaurentPoly({0: 6, 2: 1})]
        rows = [r1, r2, r3]
        assert det_laurent(rows) == det_cofactor(rows) == LaurentPoly()
        # a zero column: elimination finds no pivot at all
        z = LaurentPoly()
        assert det_laurent([[z, t], [z, one]]) == LaurentPoly()


class TestPencilMemo:
    def test_one_determinant_per_matrix(self, kernel_calls):
        for n in (26, 5):
            exactlinalg._pencil.cache_clear()
            kernel_calls.clear()
            for A in (an_family(1), an_family(n)):
                alexander(A)
                for k in range(1, 7):
                    lt_signature(A, UnitCirclePoint.root(k, 7))
                lt_signature(A, UnitCirclePoint.angle(2.0))
            calls = [repr(call.rows) for call in kernel_calls]
            assert len(calls) == len(set(calls)) == 2, n
        # certificates take the family's signature in closed form
        exactlinalg._pencil.cache_clear()
        kernel_calls.clear()
        certify_complexity(25, 3)
        assert kernel_calls == []

    def test_the_memo_holds_the_matrix_used_last(self, kernel_calls, monkeypatch):
        exactlinalg._pencil.cache_clear()
        k0, k1, k2 = (tuple(map(tuple, an_family(n))) for n in (2, 3, 4))
        exactlinalg._pencil.__wrapped__(k0)  # the raw elimination fills no memo
        assert exactlinalg._pencil.held == {}
        # an alternating pair is eliminated once each, and a hit moves its key to the newest place
        kernel_calls.clear()
        first, second = exactlinalg._pencil(k0), exactlinalg._pencil(k1)
        for _ in range(3):
            assert exactlinalg._pencil(k0) is first and exactlinalg._pencil(k1) is second
        assert len(kernel_calls) == 2 and exactlinalg._pencil.held == {k0: first, k1: second}
        assert exactlinalg._pencil(k0) is first and list(exactlinalg._pencil.held) == [k1, k0]
        # past the budget the oldest pencil goes first, and the newest always stays
        size = {k: sum(v.bit_length() + 64 for v in exactlinalg._pencil.__wrapped__(k).values)
                for k in (k0, k1, k2)}
        assert size[k0] < size[k1] < size[k2]
        exactlinalg._pencil.cache_clear()
        monkeypatch.setattr(exactlinalg, "_MEMO_BITS", size[k1] + size[k2])
        for k in (k0, k1, k2):
            exactlinalg._pencil(k)
        assert list(exactlinalg._pencil.held) == [k1, k2]
        exactlinalg._pencil(k1)  # k1 is now the newest, so k0's pencil evicts k2's
        exactlinalg._pencil(k0)
        assert list(exactlinalg._pencil.held) == [k1, k0]
        monkeypatch.setattr(exactlinalg, "_MEMO_BITS", size[k0] - 1)
        exactlinalg._pencil(k2)
        assert list(exactlinalg._pencil.held) == [k2]
        exactlinalg._pencil.cache_clear()
        assert exactlinalg._pencil.held == {}

    def test_alexander_leaves_one_pencil_for_the_classical_signature(self, kernel_calls):
        exactlinalg._pencil.cache_clear()
        keys = [tuple(map(tuple, an_family(n))) for n in (4, 9, 16)]
        for key in keys:
            alexander(key)
        assert list(exactlinalg._pencil.held) == keys
        kernel_calls.clear()
        assert seifert.classical_signature_seifert(an_family(16)) == family_signature(
            16, UnitCirclePoint.root(1, 2))
        assert kernel_calls == []

    def test_mutating_the_matrix_never_gives_a_stale_result(self):
        A = [[-1, 1], [0, -1]]
        assert alexander(A) == LaurentPoly({-1: 1, 0: -1, 1: 1})
        assert lt_signature(A, UnitCirclePoint.root(1, 2)) == -2
        assert lt_signature(A, UnitCirclePoint.root(1, 3)) == -2
        A[0][0] = 1  # the trefoil's matrix becomes the figure-eight's
        assert alexander(A) == LaurentPoly({-1: -1, 0: 3, 1: -1})
        assert lt_signature(A, UnitCirclePoint.root(1, 2)) == 0
        assert lt_signature(A, UnitCirclePoint.root(1, 3)) == 0


def unpacked_pencil(rows: list[dict[int, int]], lows: list[int], bits: int) -> list[dict]:
    """Rows packed as a pencil's, as coefficient dicts: entry (i, j) is x * T^lows[i] at T = 2^bits.

    For a pencil, entries (i, j) and (j, i) are a*T - b and b*T - a, so
    a = ((a*T - b)*T + b*T - a) / (T^2 - 1); this reads a that way and
    the constant term as the rest.
    """
    T = 1 << bits
    values = [{j: x << bits * low for j, x in row.items()} for row, low in zip(rows, lows)]
    entries = []
    for i, row in enumerate(values):
        entries.append({})
        for j, y in row.items():
            a = (y * T + values[j].get(i, 0)) // (T * T - 1)
            entries[i][j] = {x: c for x, c in ((1, a), (0, y - a * T)) if c}
    return entries


def is_form(rows: list[dict[int, int]]) -> bool:
    """Whether sparse integer rows are symmetric or skew: entry (j, i) is +-(i, j), never 0."""
    return all(rows[j].get(i) in (x, -x) for i, row in enumerate(rows) for j, x in row.items())


def test_symmetric_elimination_gets_integer_forms_or_pencils(kernel_calls):
    # _kernel runs every Seifert pencil at half the Hadamard width, which
    # only a pencil allows; every symmetric-mode call from the invariants,
    # the Goeritz route and the reproduction table passes an integer form,
    # unshifted, or a pencil
    exactlinalg._pencil.cache_clear()
    dense = congruence(random_unimodular(random.Random(5), 12, 60), an_family(5))
    for A in (dense, an_family(3), TREFOIL, [[0, 1], [0, 0]]):
        alexander(A)
        seifert.classical_signature_seifert(A)
        lt_signature(A, UnitCirclePoint.root(1, 2))
        lt_signature(A, UnitCirclePoint.angle(2.0))
    inertia_symmetric_exact([[2, 1, 0], [1, 0, 3], [0, 3, 0]])
    goeritz.classical_signature_goeritz(goeritz.torus_band_presentation(5))
    assert all(result.passed for result in verify.run_checks())
    calls = {"forms": 0, "pencils": 0}
    for call in filter(lambda call: call.pivots, kernel_calls):
        pencil = is_pencil(unpacked_pencil(call.rows, call.lows, call.bits))
        assert pencil or not any(call.lows) and is_form(call.rows), call.rows
        calls["pencils" if pencil else "forms"] += 1
    assert calls["forms"] >= 10 and calls["pencils"] >= 4, calls


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


def form_pivots(S: list[list[int]]) -> tuple[int, ...]:
    """The integer pivots of a form's symmetric elimination, as inertia_symmetric_exact runs it."""
    return exactlinalg._form_pivots([{j: x for j, x in enumerate(row) if x} for row in S])


def form_minors(S: list[list[int]]) -> list[LaurentPoly]:
    return [LaurentPoly({0: v}) for v in form_pivots(S)]


def pencil_pivots(A: list[list[int]]) -> exactlinalg.Pivots:
    """The pencil's Pivots eliminated afresh, past the memo."""
    return exactlinalg._pencil.__wrapped__(tuple(map(tuple, A)))


def all_minors(pivots: exactlinalg.Pivots) -> list[LaurentPoly]:
    return [pivots.minor(k) for k in range(1, len(pivots.lows) + 1)]


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
    kernel keeps such a row as it is until a step reads it; these integer
    forms leave rows untouched for several steps, across 2x2 block pivots
    too, and compare every pivot with its cofactor minor.
    """

    def check(self, S: list[list[int]]) -> None:
        assert form_minors(S) == symmetric_pivot_minors(as_laurent(S)), S

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
        pivots = form_pivots(S)
        assert pivots[1] == pivots[3] == 0
        assert all(pivots[k] for k in (0, 2, 4, 5, 6))
        self.check(S)

    def test_zero_row(self):
        for S in ([[2, 0, 1], [0, 0, 0], [1, 0, 3]],
                  [[0, 0, 0, 0], [0, 1, 2, 0], [0, 2, 1, 1], [0, 0, 1, 0]]):
            self.check(S)
            assert det_laurent(S) == LaurentPoly()
            assert form_pivots(S)[-1] == 0

    def test_random_sparse_symmetric_and_pencils(self):
        rng = random.Random(20261018)
        for _ in range(60):
            dim = rng.randint(1, 12)
            density = rng.uniform(0.05, 0.3)
            self.check(sparse_symmetric(rng, dim, density))
            A = [[rng.choice((-2, -1, 1, 2)) if rng.random() < density else 0
                  for _ in range(dim)] for _ in range(dim)]
            assert all_minors(pencil_pivots(A)) == symmetric_pivot_minors(t_matrix(A)), A

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

    def test_pencil_passes_coefficients_straight_into_the_kernel(self, polys_built):
        exactlinalg._pencil.__wrapped__(tuple(map(tuple, an_family(26))))
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


def pencil_minors(A: list[list[int]]) -> list[LaurentPoly]:
    return all_minors(pencil_pivots(A))


def pencil_at_points(A: list[list[int]], kernel_calls) -> exactlinalg.Pivots:
    """The pencil's Pivots, each checked against leading_minors of the pivoted pencil at points.

    The points are t = -3, 2 and 5, and one t above twice the Hadamard
    bound H of the pencil.  Every coefficient of a true minor is at most
    H, and so is every pivot's (asserted), so there the value fixes them.
    The pivot order is the path of the elimination whose Pivots _pencil
    returns, at a narrow point or at the one half-width point, as the
    kernel_calls fixture recorded it.
    """
    pivots = pencil_pivots(A)
    order = next([r for taken in call.steps for r in taken]
                 for call in reversed(kernel_calls) if call.result is pivots)
    order += [i for i in range(len(A)) if i not in order]  # a zero Schur complement's rows
    minors, bound = all_minors(pivots), hadamard_bound(t_matrix(A))
    assert all(abs(c) <= bound for m in minors for c in m.coeffs.values()), A
    for t in (-3, 2, 5, 2 * bound + 1):
        N = [[t * A[i][j] - A[j][i] for j in order] for i in order]
        assert [sum(c * t ** e for e, c in m.coeffs.items()) for m in minors] == \
            leading_minors(N), (A, t)
    return pivots


class TestMirroredSteps:
    """Pencils, whose Schur complements mirror, packed once at half the Hadamard width.

    After p pivots, entry (j, i) of a pencil's Schur complement is
    (-1)^(p+1) t^(p+1) times entry (i, j) at 1/t, and every principal
    minor is palindromic.  So the kernel packs a pencil once at half the
    bits of its Hadamard bound and reads each pivot from both ends.  These
    matrices compare every pivot with its cofactor minor, or with the
    leading minors of the pivoted pencil at integer points
    (pencil_at_points), which no width enters.
    """

    @pytest.fixture
    def steps(self, monkeypatch) -> list[tuple[int, bool]]:
        """(width, reads a row left at an older scale) of every step from here on."""
        seen = []
        real = exactlinalg._eliminate

        def spy(K, pivots, rest, taken):
            read = [r for r in rest if any(p in K.rows[r] for p in pivots)]
            seen.append((len(pivots), any(K.counts[r] < len(K.pivots) for r in read)))
            return real(K, pivots, rest, taken)

        monkeypatch.setattr(exactlinalg, "_eliminate", spy)
        return seen

    @staticmethod
    def _pairs(low, coeffs):
        """The nonzero (exponent, coefficient) pairs of t^low * sum(coeffs[e] t^e)."""
        return [(low + e, x) for e, x in enumerate(coeffs) if x]

    def test_two_ended_read_back(self):
        # palindromic coefficient lists, c_i = (-1)^k c_(d-i), with
        # coefficients up to the T^2/4 the width allows, read back from
        # their value at T; at odd degree a value off by one is refused
        rng = random.Random(7)
        for bits in (8, 16, 40):
            top = 1 << (2 * bits - 2)
            for k in range(1, 12):
                for low in range(0, (k + 1) // 2 + 1):
                    d, s = k - 2 * low, -1 if k % 2 else 1
                    c = [rng.choice((1 - top, top - 1, 0, rng.randrange(1 - top, top)))
                         for _ in range(d + 1)]
                    c = [c[i] if 2 * i <= d else s * c[d - i] for i in range(d + 1)]
                    value = sum(x << (bits * e) for e, x in enumerate(c))
                    lows = (0,) * (k - 1) + (low,)
                    pivots = exactlinalg.Pivots(bits, (0,) * (k - 1) + (value,), lows)
                    assert pivots._read(k) == self._pairs(low, c), (bits, k, low)
                    if d % 2:  # then Q(1) = 0, so T - 1 divides every true value
                        bad = exactlinalg.Pivots(bits, (0,) * (k - 1) + (value + 1,), lows)
                        with pytest.raises(ArithmeticError, match="not a palindromic minor"):
                            bad._read(k)

    @staticmethod
    def _pair_by_pair(bits, value, d, s):
        """The two-ended read taking every outer pair in turn, or None where it refuses."""
        half, mask, out = 1 << (bits - 1), (1 << bits) - 1, []
        while value and d > 0:
            low, top = value & mask, (value + (1 << bits * d - 1)) >> bits * d
            c = low - ((low - s * top + half) >> bits << bits)
            out.append(c)
            value, d = (value - c - (s * c << bits * d)) >> bits, d - 2
        if value and d < 0:
            return None
        return out + ([value] if d == 0 else [0] * max(d + 1, 0)) + [s * c for c in reversed(out)]

    def test_zero_pair_runs_at_their_bound(self):
        # values whose low j digits are 0, at |V| = T^e/2 and T^j either
        # side of it, for e around the bound T^(d-j+1)/2 under which the j
        # pairs are dropped at once; and minors whose outer coefficient
        # j-1 is +-T, whose low digit is 0 though the coefficient is not.
        # Each read equals the pair-by-pair one.
        rng = random.Random(36)
        for bits in (8, 16):
            T, top = 1 << bits, 1 << (2 * bits - 2)
            for k in range(1, 13):
                for low in range(0, (k + 1) // 2 + 1):
                    d, s = k - 2 * low, -1 if k % 2 else 1
                    lows = (0,) * (k - 1) + (low,)
                    for j in range(1, (d + 1) // 2 + 1):
                        values = [sign * (T ** e // 2) + step * T ** j
                                  for e in range(j + 1, d - j + 4) for sign in (1, -1)
                                  for step in (-1, 0, 1)]
                        for outer in (T, -T):
                            c = [0] * (j - 1) + [outer] + [rng.randrange(1 - top, top)
                                                           for _ in range(d + 1 - j)]
                            c = [c[i] if 2 * i <= d else s * c[d - i] for i in range(d + 1)]
                            values.append(sum(x << (bits * e) for e, x in enumerate(c)))
                            pivots = exactlinalg.Pivots(bits, (0,) * (k - 1) + (values[-1],),
                                                        lows)
                            assert pivots._read(k) == self._pairs(low, c), (bits, k, low, j,
                                                                            outer)
                        for value in values:
                            pivots = exactlinalg.Pivots(bits, (0,) * (k - 1) + (value,), lows)
                            want = self._pair_by_pair(bits, value, d, s)
                            if want is None:
                                with pytest.raises(ArithmeticError, match="not a palindromic"):
                                    pivots._read(k)
                            else:
                                want = self._pairs(low, want)
                                assert pivots._read(k) == want, (bits, k, low, j, value)
                                assert pivots.terms[-1] == want

    def test_matches_cofactor_oracle(self, steps):
        # zero diagonals force 2x2 block steps, a zero column of A a row
        # shift; every pivot against its cofactor minor
        rng = random.Random(20261018)
        kinds = {"block": 0, "shift": 0, "plain": 0}
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
            kind = ("block" if any(w == 2 for w, _ in steps) else
                    "shift" if any(pencil_pivots(A).lows) else "plain")
            kinds[kind] += 1
        assert min(kinds.values()) >= 20, kinds

    def test_matches_unmirrored_elimination(self, kernel_calls):
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
            pencil_at_points(A, kernel_calls)

    def test_row_left_at_an_older_scale(self, steps):
        # index 1 is 2 * index 0 where they meet index 4, so after the
        # first step entries (1, 4) and (4, 1) of the Schur complement
        # vanish: the second step leaves row 4 at its old scale, and the
        # third step reads it
        A = dense_seifert(random.Random(11), 7)
        A[0][0], A[1][1], A[0][1], A[1][0] = 1, 3, 2, 2
        A[4][1], A[1][4] = 2 * A[4][0], 2 * A[0][4]
        assert pencil_minors(A) == symmetric_pivot_minors(t_matrix(A))
        assert [stale for _, stale in steps[:3]] == [False, False, True]

    def test_scrambled_family_matrices(self, kernel_calls):
        # P A_k P^T for unimodular P is dense, with the family's Alexander
        # polynomial
        rng = random.Random(2040)
        for dim in (20, 26, 32, 40):
            k = dim // 2 - 1
            A = congruence(random_unimodular(rng, dim, 10 * dim), an_family(k))
            assert 4 * sum(map(bool, (x for row in A for x in row))) > dim * dim
            exactlinalg._pencil.cache_clear()
            assert alexander(A) == delta_n_closed(k)
            pivots = pencil_at_points(A, kernel_calls)
            assert 2 * pivots.bits <= exactlinalg._width(norm_sq(t_matrix(A))) + 3

    def test_half_width_on_dense_and_sparse_pencils(self, kernel_calls):
        # the dense fixture and a sparse family pencil both take half the
        # bits of the full Hadamard width, or fewer: the half width rounds
        # up by at most 3 bits over the two halves
        doc = json.loads((FIXTURES / "dense_seifert_30.json").read_text())
        for A, k in ((int_matrix_from_json(doc), 14), (an_family(40), 40)):
            pivots = pencil_at_points(A, kernel_calls)
            assert 2 * pivots.bits <= exactlinalg._width(norm_sq(t_matrix(A))) + 3
            assert all_minors(pivots)[-1] == delta_n_closed(k).shift(k + 1)

    def test_fixture_is_a_scrambled_family_matrix(self):
        doc = json.loads((FIXTURES / "dense_seifert_30.json").read_text())
        P = random_unimodular(random.Random(31), 30, 300)
        assert doc == {"dim": 30, "entries": congruence(P, an_family(14))}


def random_seifert(rng: random.Random, dim: int, dense: bool) -> list[list[int]]:
    """A Seifert matrix with entries up to +-3, +-30 or +-1000; dense ones have no zero entry."""
    bound = rng.choice((3, 30, 1000))
    density = 1.0 if dense else rng.uniform(0.15, 0.7)
    return [[rng.choice((-1, 1)) * rng.randint(1, bound) if rng.random() < density else 0
             for _ in range(dim)] for _ in range(dim)]


def test_pencil_pivots_match_elimination_at_integer_points(kernel_calls):
    # every pivot of random and dense pencils, dimension <= 22, against
    # the leading principal minors of the pivoted matrix at integer points
    # (pencil_at_points); at least 1,000 pivots have a coefficient of T/2
    # or more, so only the two-ended read gets them right
    rng = random.Random(20261019)
    two_ended = 0
    for trial in range(330):
        blocks = trial % 7 == 3  # a zero diagonal: 2x2 block steps
        dim = rng.randint(1, 22)
        A = random_seifert(rng, dim, trial % 2 == 1)
        for i in range(dim if blocks else 0):
            A[i][i] = 0
        pivots = pencil_at_points(A, kernel_calls)
        minors = all_minors(pivots)
        half = 1 << (pivots.bits - 1)
        two_ended += sum(any(abs(c) >= half for c in m.coeffs.values()) for m in minors)
    assert two_ended >= 1000, two_ended


def single_point(A: list[list[int]], monkeypatch) -> exactlinalg.Pivots:
    """The pencil's Pivots at its one half-width point, with no narrow points tried."""
    with monkeypatch.context() as patch:
        patch.setattr(exactlinalg, "_NARROW_BITS", 1 << 30)
        return pencil_pivots(A)


class TestNarrowPoints:
    """A pencil wider than _NARROW_BITS is eliminated at narrow points first.

    Their answer is kept only where every point took the same path and read
    the same pairs, and the pairs' squares sum to at most H^2; any other
    pencil, and one whose narrow point raises, falls back to the one
    half-width point.  Either way every minor is that point's.
    """

    @staticmethod
    def runs(kernel_calls) -> list[list]:
        """[bits, narrow, exception class or None] of every _kernel call recorded."""
        return [[call.bits, call.path is not None, call.error and type(call.error)]
                for call in kernel_calls]

    def test_split_reads_the_terms_of_the_single_point(self, monkeypatch, kernel_calls):
        # dense, sparse, scrambled family and torus Seifert matrices of
        # dimension <= 30: where the narrow points answer, they answer at
        # the first point's width, with the single point's lows and pairs
        rng = random.Random(46)
        cases = [random_seifert(rng, rng.randint(2, 30), trial % 2 == 0) for trial in range(40)]
        cases += [congruence(random_unimodular(rng, dim, 8 * dim), an_family(dim // 2 - 1))
                  for dim in (14, 18, 22, 26, 30) for _ in range(2)]
        cases += [torus_seifert(p, q) for p, q in ((2, 31), (3, 16), (4, 9), (5, 8), (6, 7))]
        outcomes = {"split": 0, "fell back": 0, "single": 0}
        for A in cases:
            kernel_calls.clear()
            pivots = pencil_pivots(A)
            narrow = [bits for bits, is_narrow, _ in self.runs(kernel_calls) if is_narrow]
            one = single_point(A, monkeypatch)
            assert (pivots.terms, pivots.lows) == (one.terms, one.lows), A
            if not narrow:
                outcome = "single"
                assert pivots == one
            elif pivots.bits < one.bits:
                outcome = "split"
                assert pivots.bits == narrow[0] and 2 * len(narrow) * pivots.bits >= one.bits
            else:
                outcome = "fell back"
                assert pivots == one
            outcomes[outcome] += 1
        assert min(outcomes.values()) >= 5, outcomes

    def test_minors_near_the_hadamard_bound_fall_back(self, monkeypatch, kernel_calls):
        # large diagonals make the determinant's coefficients nearly H, far
        # past what a narrow point reads: the points agree on the path but
        # misread, so the pairs differ and the single point answers
        rng = random.Random(47)
        for dim in (6, 8, 10):
            A = [[rng.choice((-1, 1)) << 20 if i == j else rng.randint(-2, 2) for j in range(dim)]
                 for i in range(dim)]
            kernel_calls.clear()
            pivots = pencil_at_points(A, kernel_calls)
            runs = self.runs(kernel_calls)
            assert [bits for bits, _, _ in runs] == [runs[0][0], runs[0][0] + 1, pivots.bits]
            assert pivots == single_point(A, monkeypatch)

    def test_a_narrow_point_that_raises_falls_back(self, kernel_calls):
        # a dense 4x4 block, then entry (4, 5) of t*A - A^T is T - 2^37,
        # zero at the first narrow point T = 2^37 while (5, 4) is not: that
        # point raises the symmetric-pattern ValueError once the block is
        # eliminated, and the half width answers
        A = [[1 << 17 if i == j else 1 for j in range(4)] + [0, 0] for i in range(4)]
        A += [[0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1 << 37, 0]]
        pivots = pencil_pivots(A)
        assert self.runs(kernel_calls) == [[37, True, ValueError], [pivots.bits, False, None]]
        assert pivots.bits > 56
        assert all_minors(pivots) == symmetric_pivot_minors(t_matrix(A))

    @pytest.mark.parametrize("forgery", ["path", "pairs"])
    def test_a_forged_agreement_is_not_kept(self, monkeypatch, forgery):
        # the second point's path is forged to differ while every value and
        # pair is true, or every point is forged to read the same P_1 with
        # a coefficient past H: only the path comparison, or only the bound
        # on sum c^2, refuses them
        A = int_matrix_from_json(json.loads((FIXTURES / "dense_seifert_30.json").read_text()))
        real = exactlinalg._kernel
        narrow = []

        def forged(rows, lows, bits, pivots, path=None):
            found = real(rows, lows, bits, pivots, path)
            if path is not None:
                narrow.append(bits)
                if forgery == "path" and len(narrow) == 2:
                    path[0], path[1] = path[1], path[0]
                if forgery == "pairs":
                    vars(found)["terms"] = [[(0, 1 << 1000)]] + found.terms[1:]
            return found

        monkeypatch.setattr(exactlinalg, "_kernel", forged)
        pivots = pencil_pivots(A)
        assert narrow and pivots.bits > max(narrow)
        monkeypatch.undo()
        assert pencil_pivots(A).bits == narrow[0]  # unforged, the narrow points answer
        assert pivots == single_point(A, monkeypatch)


def one_sided(rng: random.Random, dim: int, bound: int) -> list[list[int]]:
    """A random A with row i or column i zeroed for each index i, entries up to +-bound."""
    A = [[rng.randint(-bound, bound) for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        if rng.random() < 0.5:
            A[i] = [0] * dim
        else:
            for row in A:
                row[i] = 0
    return A


class TestOneSidedPencils:
    """Seifert matrices in which no row of t*A - A^T holds both powers of t.

    Row i of the pencil holds t alone where column i of A is zero, and
    constants alone where row i is.  M(t)^T = -t * M(1/t) holds for every
    A, so these are packed at the half width, as every pencil is, and read
    from both ends.
    """

    @staticmethod
    def cases() -> list[list[list[int]]]:
        rng = random.Random(49)
        B = rng.choice((-1, 1)) * rng.randint(2, 10 ** 6)
        cases = [[[0, 1], [0, 0]], [[0, B], [0, 0]]]
        cases += [one_sided(rng, rng.randint(1, 8), rng.choice((1, 3, 40))) for _ in range(60)]
        for A in cases:  # no row holds both powers of t
            assert not any(any(A[i]) and any(row[i] for row in A) for i in range(len(A))), A
        return cases

    def test_half_width_reads_every_minor(self):
        # the Hadamard factor of row i is its squared norm on the circle,
        # as no a_ij * a_ji is nonzero, so H^2 = norm_sq
        for A in self.cases():
            pivots = pencil_pivots(A)
            assert pivots.bits == exactlinalg._width(math.isqrt(norm_sq(t_matrix(A))) + 1), A
            assert all_minors(pivots) == symmetric_pivot_minors(t_matrix(A)), A

    def test_signatures_match_numpy_at_roots_of_order_up_to_12(self):
        # at every primitive root where numpy's eigenvalues count the form;
        # none of these is refused
        exactlinalg._pencil.cache_clear()
        answered = 0
        for A in self.cases():
            for m in range(2, 13):
                for k in filter(lambda k: math.gcd(k, m) == 1, range(1, m)):
                    omega = UnitCirclePoint.root(k, m)
                    want = numpy_inertia(A, omega)
                    if want is not None:
                        assert lt_signature(A, omega) == want.signature, (A, omega)
                        answered += 1
        assert answered >= 400, answered


def kernel_cases() -> list[list[list[int]]]:
    """Seeded Seifert matrices whose pencils and forms A + A^T the kernel digest pins.

    First [[0, 1], [0, 0]], where no row of the pencil holds both powers
    of t, packed at the half width as every pencil is; then sparse +-1
    congruences of the family, dense unimodular scrambles, and random
    matrices with zero diagonals (2x2 blocks, swaps, rows left at an older
    scale), zero columns (rows holding only t), zero rows (rows holding
    only constants) and empty rows.
    """
    rng = random.Random(20261019)
    cases = [[[0, 1], [0, 0]]]
    for n in range(1, 41):
        s = [rng.choice((1, -1)) for _ in range(2 * n + 2)]
        cases.append([[s[i] * s[j] * x for j, x in enumerate(row)]
                      for i, row in enumerate(an_family(n))])
    for dim in (4, 8, 10, 14, 18, 22):
        cases.append(congruence(random_unimodular(rng, dim, 6 * dim), an_family(dim // 2 - 1)))
    for trial in range(240):
        dim = rng.randint(1, 9)
        density = rng.uniform(0.2, 1.0)
        bound = rng.choice((1, 3, 40, 10 ** 6))
        A = [[rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(dim)]
             for _ in range(dim)]
        if trial % 2:
            for i in range(dim):
                A[i][i] = 0
        if trial % 3 == 0:
            c = rng.randrange(dim)
            for row in A:
                row[c] = 0
        if trial % 5 == 0:
            A[rng.randrange(dim)] = [0] * dim
        if trial % 7 == 0:
            e = rng.randrange(dim)
            A[e] = [0] * dim
            for row in A:
                row[e] = 0
        cases.append(A)
    return cases


def kernel_eliminations(kernel_calls) -> list[tuple]:
    """(A, its pencil's Pivots as _pencil keeps them, [the Pivots of the form A + A^T]) per case.

    The form is eliminated through the classical signature's route,
    inertia_hermitian_at_root at -1, which answers odd A too, and through
    inertia_symmetric_exact, with no pencil memoised by an earlier test.
    """
    exactlinalg._pencil.cache_clear()
    found = []
    for A in kernel_cases():
        pencil = exactlinalg._pencil.__wrapped__(tuple(map(tuple, A)))
        kernel_calls.clear()
        inertia_hermitian_at_root(A, UnitCirclePoint.root(1, 2))
        inertia_symmetric_exact([[a + b for a, b in zip(row, column)]
                                 for row, column in zip(A, zip(*A))])
        found.append((A, pencil, [call.result for call in kernel_calls]))
    return found


# SHA-256 of the Pivots of kernel_cases(), as the kernel gave them once
# every Seifert matrix's pencil took the half width and wide pencils split
# over narrow points; a change to any pivot value, width or low changes it
KERNEL_DIGEST = "6bd67a84f54184ea464e4f4989766308893d6b5261c493f85604b7114109a369"


def test_kernel_pivots_match_their_digest(kernel_calls):
    cases = kernel_eliminations(kernel_calls)
    found = [pivots for _, pencil, forms in cases for pivots in (pencil, *forms)]
    assert len(found) == 3 * len(cases)
    assert found[0] == exactlinalg.Pivots(3, (0, 1), (1, 1))  # [[0, 1], [0, 0]] at half width
    text = repr([(p.bits, [hex(v) for v in p.values], p.lows) for p in found])
    assert hashlib.sha256(text.encode()).hexdigest() == KERNEL_DIGEST


# SHA-256 of what no width enters, for every case of kernel_cases(): the
# pencil's terms and lows, the form A + A^T's integer pivots, and
# det_laurent(t*A - A^T); a change of width alone leaves it as it is
KERNEL_MINORS_DIGEST = "8c1563a62708c0b7b361eda797ff634bca744847f90fa7400b45d7e0ab28e308"


def test_kernel_minors_match_their_width_free_digest(kernel_calls):
    found = []
    for A, pencil, forms in kernel_eliminations(kernel_calls):
        forms = [list(form.values) for form in forms]
        assert len(forms) == 2 and forms[0] == forms[1], A
        det = det_laurent(t_matrix(A))
        assert det == pencil.minor(len(A)), A
        found.append((pencil.terms, pencil.lows, forms[0], sorted(det.coeffs.items())))
    text = repr(found)
    assert hashlib.sha256(text.encode()).hexdigest() == KERNEL_MINORS_DIGEST


class TestStepWidths:
    """Every elimination packs its matrix once, at one width in bits fixed before the first step.

    A pencil takes half the Hadamard width, or narrower points that split
    it, and any other matrix the full width, which no step changes.  A row
    that no step reads keeps the scale it was stored at; these pencils and
    integer forms make rows wait across steps and take 2x2 block steps,
    determinants swap rows, and every pivot is checked against its
    cofactor minor.
    """

    @pytest.fixture
    def log(self, monkeypatch) -> list[dict]:
        """Per step: its pivot count and the rows it reads at an older scale."""
        seen = []
        real = exactlinalg._eliminate

        def spy(K, pivots, rest, taken):
            read = [r for r in rest if any(p in K.rows[r] for p in pivots)]
            seen.append({"block": len(pivots),
                         "old": [r for r in read if K.counts[r] < len(K.pivots)]})
            return real(K, pivots, rest, taken)

        monkeypatch.setattr(exactlinalg, "_eliminate", spy)
        return seen

    @pytest.fixture
    def widths(self, monkeypatch) -> list[tuple[int, int]]:
        """(squared bound, bits) of every width taken from here on."""
        seen = []
        real = exactlinalg._width

        def spy(bound_sq):
            seen.append((bound_sq, real(bound_sq)))
            return seen[-1][1]

        monkeypatch.setattr(exactlinalg, "_width", spy)
        return seen

    def test_rows_read_at_an_older_scale(self, log):
        # a symmetric band of integers and a band pencil: each row is first
        # read when its neighbour is the pivot, after steps that left it as
        # stored
        for n, scale in ((6, 20), (8, 9), (9, 40)):
            S = [[0] * n for _ in range(n)]
            A = [[0] * n for _ in range(n)]
            for i in range(n):
                S[i][i], A[i][i] = scale + i, scale
                if i + 1 < n:
                    S[i][i + 1] = S[i + 1][i] = scale - i
                    A[i][i + 1], A[i + 1][i] = scale - i, scale + 1
            for eliminate, M, rows in ((form_minors, S, as_laurent(S)),
                                       (pencil_minors, A, t_matrix(A))):
                log.clear()
                assert eliminate(M) == symmetric_pivot_minors(rows), M
                assert all(step["block"] == 1 for step in log), log
                assert any(step["old"] for step in log), log

    def test_block_steps_on_pencils_and_integer_forms(self, log):
        # pencils and integer forms with entries 5..30; zero diagonals
        # force 2x2 block steps, and from trial 40 on half the entries are
        # zero, so some block steps read a row left at an older scale
        rng = random.Random(17)
        seen = set()
        for trial in range(100):
            dim = rng.randint(3, 6)
            A = [[0] * dim for _ in range(dim)]
            S = [[0] * dim for _ in range(dim)]
            for i in range(dim):
                for j in range(i if trial % 2 == 0 else i + 1, dim):
                    if trial < 40 or rng.random() < 0.5:
                        S[i][j] = S[j][i] = rng.choice((-1, 1)) * rng.randint(5, 30)
                        A[i][j], A[j][i] = (rng.choice((-1, 1)) * rng.randint(5, 30)
                                            for _ in range(2))
            for eliminate, M, rows in ((form_minors, S, as_laurent(S)),
                                       (pencil_minors, A, t_matrix(A))):
                log.clear()
                assert eliminate(M) == symmetric_pivot_minors(rows), M
                seen |= {(step["block"], bool(step["old"])) for step in log}
        assert seen >= {(1, True), (2, True), (2, False)}, seen

    def test_row_swaps_without_pivoting(self, log):
        # a zero leading entry forces a swap at the first step, and a
        # second row proportional to the first on the first two columns a
        # swap at the second
        rng = random.Random(23)
        nonzero = 0
        for trial in range(80):
            dim = rng.randint(3, 5)
            rows = [[LaurentPoly({rng.randint(-2, 2): rng.choice((-1, 1)) * rng.randint(1, 60)
                                  for _ in range(rng.randint(1, 2))}) for _ in range(dim)]
                    for _ in range(dim)]
            if trial % 2:
                rows[0][0] = LaurentPoly()
            else:
                f = LaurentPoly({rng.randint(-1, 1): rng.choice((-3, 2, 5))})
                rows[1][:2] = [f * e for e in rows[0][:2]]
            det = det_laurent(rows)
            assert det == det_cofactor(rows), rows
            nonzero += bool(det)
        assert nonzero > 60

    def test_non_pencils_take_the_full_hadamard_width(self, widths):
        # the rank-one v v^T has a zero Schur complement after one step, so
        # a width that followed the minors would stop below the bound's;
        # det_laurent's bound is the smaller of the row and column products
        v = [LaurentPoly({0: 1}), LaurentPoly({1: 1, 0: 5}), LaurentPoly({1: 1, 0: 7}),
             LaurentPoly({1: 3, 0: 9})]
        rank_one = [[a * b for b in v] for a in v]
        rng = random.Random(37)
        matrices = [rank_one] + [random_laurent_matrix(rng, rng.randint(1, 6)) for _ in range(40)]
        for rows in filter(lambda rows: all(map(any, rows)), matrices):  # a zero row packs nothing
            widths.clear()
            det_laurent(rows)
            columns = [list(column) for column in zip(*rows)]
            want = min(norm_sq(rows), norm_sq(columns))
            assert [bound_sq for bound_sq, _ in widths] == [want], rows
        det_laurent(rank_one)
        assert widths[-1][1] == 27  # H = 245^2 * 576 = 34,574,400 < 2^26, and a sign bit
        for _ in range(20):
            S = random_symmetric_matrix(rng, rng.randint(1, 8), 40)
            widths.clear()
            form_pivots(S)
            assert [bits for _, bits in widths] == [exactlinalg._width(norm_sq(as_laurent(S)))], S

    def test_bits_never_exceed_the_hadamard_width(self, widths):
        rng = random.Random(31)
        doc = json.loads((FIXTURES / "dense_seifert_30.json").read_text())
        cases = [(det_laurent, M, M) for M in
                 (random_laurent_matrix(rng, rng.randint(1, 6)) for _ in range(60))]
        cases += [(pencil_pivots, A, t_matrix(A)) for A in
                  (dense_seifert(rng, rng.randint(2, 12)) for _ in range(30))]
        cases += [(form_pivots, S, as_laurent(S)) for S in
                  (random_symmetric_matrix(rng, rng.randint(1, 8)) for _ in range(30))]
        A = int_matrix_from_json(doc)
        cases.append((pencil_pivots, A, t_matrix(A)))
        for eliminate, M, rows in cases:
            width = (math.isqrt(norm_sq(rows) - 1) + 1).bit_length() + 1
            widths.clear()
            eliminate(M)
            assert all(w <= width for _, w in widths), rows


class TestInertiaSymmetric:
    def test_examples(self):
        assert inertia_symmetric_exact([[3]]) == Inertia(1, 0, 0)
        assert inertia_symmetric_exact([[-2]]) == Inertia(0, 0, 1)
        assert inertia_symmetric_exact([[0]]) == Inertia(0, 1, 0)
        assert inertia_symmetric_exact([]) == Inertia(0, 0, 0)

    def test_symmetrized_family_matrix(self):
        s = [[A1[i][j] + A1[j][i] for j in range(4)] for i in range(4)]
        assert inertia_symmetric_exact(s) == Inertia(2, 0, 2)
        assert inertia_symmetric_exact(s).signature == 0

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

    def test_symmetric_pivoting_refuses_a_one_sided_pattern(self):
        # M[0][1] != 0 = M[1][0]: no diagonal entry and no 2x2 block can pivot
        with pytest.raises(ValueError, match="^symmetric pivoting needs M.i..j. != 0 exactly"):
            exactlinalg._kernel([{1: 1}, {}], [0, 0], 8, True)

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
        got = inertia_hermitian_at_root(A1, UnitCirclePoint.root(1, 2))
        assert got.signature == 0
        assert (got.n_plus, got.n_zero, got.n_minus) == (2, 0, 2)

    def test_trefoil_at_minus_one(self):
        got = inertia_hermitian_at_root(TREFOIL, UnitCirclePoint.root(1, 2))
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
        # at -1 the whole inertia is that of A + A^T, nullity included: a singular form answers
        rng = random.Random(31)
        singular = 0
        for _ in range(60):
            dim = rng.randint(1, 5)
            a = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
            herm = inertia_hermitian_at_root(a, UnitCirclePoint.root(1, 2))
            sym = [[a[i][j] + a[j][i] for j in range(dim)] for i in range(dim)]
            assert herm == inertia_symmetric_exact(sym), a
            singular += herm.n_zero > 0
        assert singular >= 3, singular

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

    def test_minus_one_takes_no_float_sign(self, monkeypatch):
        # at 1/2 the inertia comes from exact integers, the memoised pencil's D_k(-1), signed
        # by _sign_at, or the form A + A^T: no _certified_sign runs with a cold memo or a warm
        # one, no _sign_at with a cold one, nothing is refused, every answer is the form's
        # inertia, and the signs' count equals the answer wherever it counts
        half = UnitCirclePoint.root(1, 2)
        calls = {"_sign_at": [], "_certified_sign": []}
        for name, seen in calls.items():
            real = getattr(circle, name)
            monkeypatch.setattr(circle, name, lambda *args, real=real, seen=seen:
                                seen.append(args) or real(*args))
        rng = random.Random(46)
        counted = 0
        for trial in range(300):
            dim = rng.randint(1, 8)
            A = [[rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(dim)]
                 for _ in range(dim)]
            exactlinalg._pencil.cache_clear()
            cold = inertia_hermitian_at_root(A, half)
            assert calls["_sign_at"] == [], A
            pivots = exactlinalg._pencil(tuple(map(tuple, A)))
            warm = inertia_hermitian_at_root(A, half)
            assert len(calls["_sign_at"]) == dim and calls["_certified_sign"] == [], A
            form = inertia_symmetric_exact([[a + b for a, b in zip(row, col)]
                                            for row, col in zip(A, zip(*A))])
            assert cold == warm == form, A
            signs = [circle._sign_at(half, k, terms)
                     for k, terms in enumerate(pivots.terms, 1)]
            # D_k(-1) = (-2)^k P_k(-1)
            values = [sum(c * (-1) ** e for e, c in pivots.minor(k).coeffs.items())
                      for k in range(1, dim + 1)]
            exact = [(-1) ** k * ((v > 0) - (v < 0)) for k, v in enumerate(values, 1)]
            assert signs == exact and calls["_certified_sign"] == [], A
            if exactlinalg._blocked(signs) is None:
                assert exactlinalg._jacobi(signs) == form, A
                counted += 1
            for seen in calls.values():
                seen.clear()
        assert 30 <= counted <= 270, counted  # both routes run: 231 count, 69 take the form


def numpy_inertia(A: list[list[int]], omega: UnitCirclePoint) -> Inertia | None:
    """Inertia of H(omega) from numpy eigenvalues; None when one is near zero."""
    w = np.exp(1j * omega.theta)
    M = np.array(A, dtype=complex)
    eigs = np.linalg.eigvalsh((1 - w) * M + (1 - np.conj(w)) * M.T)
    if float(np.min(np.abs(eigs))) < 1e-6:
        return None
    return Inertia(int(np.sum(eigs > 0)), 0, int(np.sum(eigs < 0)))


def test_realified_inertia_matches_the_kernel_and_numpy():
    # random matrices of dimension <= 8, and scrambled sums of knots whose
    # forms are singular at 1/6 (T(2,3), its mirror, T(3,4)) or nowhere on
    # the circle (4_1, T(2,5) at these orders): sigma equals the kernel's
    # wherever it answers, and n_zero numpy's count of zero eigenvalues,
    # which fall below 1e-9 while the others stay above 1e-4
    rng = random.Random(54)
    knots = [TREFOIL, [[1, 0], [-1, 1]], [[1, 1], [0, -1]], torus_seifert(2, 5),
             torus_seifert(3, 4)]
    counts = {"answered": 0, "refused": 0, "singular": 0}
    for trial in range(100):
        if trial % 2:
            dim = rng.randint(1, 8)
            A = [[rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(dim)]
                 for _ in range(dim)]
        else:
            blocks = [rng.choice(knots)]
            while rng.random() < 0.6 and sum(map(len, blocks)) <= 2:
                blocks.append(rng.choice(knots))
            A = block_sum(blocks)
            A = congruence(random_unimodular(rng, len(A), 3 * len(A)), A)
        for k, m in ((1, 3), (2, 3), (1, 4), (3, 4), (1, 6), (5, 6)):
            sigma, n_zero = realified_inertia(A, k, m)
            w, M = np.exp(2j * np.pi * k / m), np.array(A, dtype=complex)
            eigs = np.abs(np.linalg.eigvalsh((1 - w) * M + (1 - np.conj(w)) * M.T))
            assert not np.any((eigs >= 1e-9) & (eigs < 1e-4)), (A, k, m)
            assert n_zero == int(np.sum(eigs < 1e-9)), (A, k, m)
            counts["singular"] += n_zero > 0
            try:
                inertia = inertia_hermitian_at_root(A, UnitCirclePoint.root(k, m))
            except NearSingular:
                counts["refused"] += 1
                continue
            assert (sigma, n_zero) == (inertia.signature, inertia.n_zero), (A, k, m)
            counts["answered"] += 1
    assert counts == {"answered": 478, "refused": 122, "singular": 120}, counts


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
        pivots = pencil_pivots(A1)
        assert len(pivots.values) == 4
        for k in range(5):
            assert pivots.minor(k) == det_cofactor([row[:k] for row in rows[:k]]), k

    def test_two_by_two_block_pivot(self):
        # t*A - A^T = [[0, t], [-1, 0]]: no nonzero diagonal entry to swap in
        A = [[0, 1], [0, 0]]
        pivots = pencil_pivots(A)
        assert [pivots.minor(k) for k in (1, 2)] == [LaurentPoly(), LaurentPoly({1: 1})]
        for m in (2, 3, 7):
            omega = UnitCirclePoint.root(1, m)
            assert inertia_hermitian_at_root(A, omega) == Inertia(1, 0, 1)
            assert numpy_inertia(A, omega) == Inertia(1, 0, 1)

    def test_two_block_pivots_in_a_row(self):
        # a zero diagonal twice over: blocks {0, 3} and then {1, 2}
        A = [[0, 0, 0, 1], [0, 0, -1, 1], [0, -1, 0, -1], [1, -1, -1, 0]]
        rows = t_matrix(A)
        pivots = pencil_pivots(A)
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
        assert [circle._sign_at(omega, k, t) for k, t in enumerate(terms, 1)] == [-1, 0, 1]
        assert pencil_pivots(A).values[1] != 0
        assert inertia_hermitian_at_root(A, omega) == Inertia(1, 0, 2)
        assert numpy_inertia(A, omega) == Inertia(1, 0, 2)

    def test_jacobi_refuses_signs_no_hermitian_form_has(self):
        # around an isolated zero minor a Hermitian form's neighbours have opposite signs
        with pytest.raises(ArithmeticError, match="^leading minors D_1 and D_3 around the zero "
                                                  "D_2 have the same sign, which no Hermitian"):
            exactlinalg._jacobi([1, 0, 1])

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
        assert {args: str(circle._zero_minors(omega, *args)) for args in (
            (4, 4, True), (3, 4, True), (1, 4, True), (1, 4, False))} == {
            (4, 4, True): f"{head} D_4 = 0 exactly",
            (3, 4, True): f"{head}s D_3 = D_4 = 0 exactly, two in a row",
            (1, 4, True): f"{head}s D_1 = D_2 = 0 exactly, two in a row, and D_4 = 0",
            (1, 4, False): "Jacobi's rule cannot count the inertia at 1/6: leading minors "
                           "D_1 = D_2 = 0 exactly, two in a row, and D_4 != 0",
        }
        refusal = circle._zero_minors(omega, 3, 4, True)
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
        # bound they had when every sign was reduced modulo Phi_m first;
        # cases 10, 15 and 18, at 1/2, answer with the singular form A + A^T's inertia
        rng = random.Random(20261018)
        want = {2: (1, 0.0, 0.0), 3: (6, 0.0, 0.0), 6: (1, 0.0, 0.0), 7: (1, 0.0, 0.0),
                11: (2, 0.0, 0.0)}
        got, halves = {}, {}
        for case in range(19):
            A = self.random_matrix(rng)
            m = rng.randint(2, 13)
            omega = UnitCirclePoint.root(rng.randint(1, m - 1), m)
            try:
                inertia = inertia_hermitian_at_root(A, omega)
            except NearSingular as exc:
                got[case] = (exc.index, exc.value, exc.bound)
                continue
            if omega.m == 2:
                halves[case] = inertia, inertia_symmetric_exact(
                    [[a + b for a, b in zip(row, col)] for row, col in zip(A, zip(*A))])
        assert got == want
        for case in (10, 15, 18):
            inertia, form = halves[case]
            assert inertia == form and inertia.n_zero >= 1, (case, inertia)

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
    """One exact sign routine: a certified float sign first, a zero test only when it fails."""

    @pytest.fixture
    def reductions(self, monkeypatch):
        calls = []

        def spy(terms, m):
            calls.append(m)
            return vanishes(terms, m)

        vanishes = circle._vanishes
        monkeypatch.setattr(circle, "_vanishes", spy)
        return calls

    def test_certified_float_sign_takes_no_remainder(self, reductions):
        # Delta_99 spans 201 exponents, so each of these roots would reduce it
        delta = sorted(delta_n_closed(99).coeffs.items())
        assert circle._sign_at(UnitCirclePoint.root(1, 3), 0, delta) == -1
        assert circle._sign_at(UnitCirclePoint.root(1, 2), 0, delta) == 1
        assert circle._sign_at(UnitCirclePoint.root(3, 11), 0, delta) == -1
        assert reductions == []

    def test_exact_zero_beyond_the_float_reach(self):
        # t^(6*10^15) - 1 vanishes at 1/6, and at 1/7 it is t^r - 1 with
        # r = 6*10^15 mod 7 != 0, whose real part is negative
        terms = [(0, -1), (6 * 10**15, 1)]
        assert circle._sign_at(UnitCirclePoint.root(1, 6), 0, terms) == 0
        assert circle._sign_at(UnitCirclePoint.root(1, 7), 0, terms) == -1

    def test_order_two_is_read_in_integers(self, monkeypatch):
        # at -1 the sign of (-2)^k P(-1) is read in integers, and it is the dense remainder's
        # modulo t + 1 wherever a float sum certifies that
        half = UnitCirclePoint.root(1, 2)
        rng = random.Random(53)
        for _ in range(300):
            k, terms = rng.randint(0, 6), sorted(random_laurent(rng, 6).coeffs.items())
            assert circle._sign_at(half, k, terms) == reduce_first(half, k, terms), (k, terms)
        # P = 10^20 + (10^20 + 1) t has P(-1) = -1, far inside a double sum's rounding error,
        # and exponents past the float range fold by parity; no float sum or zero test runs
        monkeypatch.setattr(circle, "_certified_sign", None)
        monkeypatch.setattr(circle, "_vanishes", None)
        terms = [(0, 10**20), (1, 10**20 + 1)]
        assert [circle._sign_at(half, k, terms) for k in range(3)] == [-1, 1, -1]
        big = [(-10**400, 3), (0, -1), (10**400 + 1, 2)]
        assert [circle._sign_at(half, k, big) for k in range(3)] == [0, 0, 0]
        assert [circle._sign_at(half, k, big[:2]) for k in range(3)] == [1, -1, 1]

    def test_uncertified_sum_is_refused_with_its_numbers(self, reductions):
        # a * 2cos(2pi/7) + b is a few units at most for these 17-digit a, b,
        # far inside the rounding-error bound: its sign is not certified,
        # the zero test finds no zero, and the refusal carries the sum's
        # own value and bound
        a = 10**17
        b = -round(2 * a * math.cos(math.tau / 7))
        terms = [(-1, a), (0, b), (1, a)]
        omega = UnitCirclePoint.root(1, 7)
        with pytest.raises(NearSingular) as exc:
            circle._sign_at(omega, 0, terms)
        assert reductions == [7]
        assert "the sign of the polynomial is not certified" in str(exc.value)
        assert "zero test" not in str(exc.value)
        want = sign_outcome(lambda: circle._certified_sign(omega, 0, terms))
        assert (exc.value.index, exc.value.value, exc.value.bound) == want
        assert sign_outcome(lambda: decimal_sign(omega, 0, terms)) != 0

    def test_monomials_take_no_float_sum(self, monkeypatch):
        # P_2j = t^j for the family, so half its minors are monomials; their
        # signs come from c * (-1)^(k/2), and lt agrees with the closed form
        certified = circle._certified_sign

        def guarded(omega, k, terms):
            if len(terms) == 1 and 2 * terms[0][0] == k:
                raise AssertionError(f"float sum taken on the monomial {terms} for D_{k}")
            return certified(omega, k, terms)

        monkeypatch.setattr(circle, "_certified_sign", guarded)
        for omega in (UnitCirclePoint.root(1, 7), UnitCirclePoint.root(5, 11),
                      UnitCirclePoint.angle(2.5)):
            assert circle._sign_at(omega, 0, [(0, 5)]) == 1
            assert circle._sign_at(omega, 0, [(0, -3)]) == -1
            assert circle._sign_at(omega, 2, [(1, 7)]) == -1
            assert circle._sign_at(omega, 4, [(2, 7)]) == 1
            assert circle._sign_at(omega, 6, [(3, -2)]) == 1
        for n in (1, 2, 5, 12, 40):
            exactlinalg._pencil.cache_clear()
            A = an_family(n)
            terms = exactlinalg._pencil(tuple(map(tuple, A))).terms
            assert sum(len(t) == 1 for t in terms) >= n
            for m in (3, 5, 7, 13):
                for j in range(1, m):
                    omega = UnitCirclePoint.root(j, m)
                    got = sign_outcome(lambda: lt_signature(A, omega))
                    want = sign_outcome(lambda: family_signature(n, omega))
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
                    want = circle._sign_at(omega, 0, small)
                    assert circle._sign_at(omega, 0, big) == want, (r, omega)

    def test_exponents_beyond_the_float_range_are_refused_at_float_angles(self):
        big = sorted(delta_n_closed(10**400).coeffs.items())
        with pytest.raises(NearSingular, match="beyond the float range") as exc:
            circle._sign_at(UnitCirclePoint.angle(2.5), 0, big)
        assert math.isnan(exc.value.value) and exc.value.bound == math.inf
        # at the root 1/10^400, t^m = 1 folds Delta_(10^400) to t^-1 - 1 + t,
        # which is 2cos(2pi/10^400) - 1 > 0 there
        omega = UnitCirclePoint.root(1, 10**400)
        assert circle._folded(big, omega.m) == [(-1, 1), (0, -1), (1, 1)]
        assert circle._sign_at(omega, 0, big) == 1
        # 1 + t^(m/2) is exactly 0 there, which only a zero test at order
        # 10^400 could show: refused
        half = [(0, 1), (5 * 10**399, 1)]
        with pytest.raises(NearSingular):
            circle._sign_at(omega, 0, half)

    def test_fold_is_sparse_and_centred_on_k_half(self):
        rng = random.Random(14)
        for _ in range(2000):
            m, k = rng.randint(1, 40), rng.randint(0, 12)
            terms = sorted({rng.randint(-10**6, 10**6): rng.choice((-2, -1, 1, 3))
                            for _ in range(rng.randint(0, 6))}.items())
            folded = circle._folded(terms, m, k)
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
        # Delta_(1+n) is -0.657, +10.66 and -6.5e-6 there (50-digit checks);
        # the first two once asked for a dense remainder of m coefficients,
        # the third for Phi_510510
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
        # zero test is taken, so each is refused at once with the sum's
        # numbers
        omega = UnitCirclePoint.root(j, m)
        start = time.perf_counter()
        with pytest.raises(NearSingular) as exc:
            circle._sign_at(omega, 0, terms)
        assert time.perf_counter() - start < 1
        assert reductions == []
        order = clip(str(m), 50)  # 10**400 is echoed clipped
        assert str(exc.value).endswith(
            f"; no exact zero test at order {order} > {circle._MAX_ZERO_TEST_ORDER}")
        assert m > circle._MAX_ZERO_TEST_ORDER
        want = sign_outcome(lambda: circle._certified_sign(omega, 0, terms))
        assert (exc.value.index, exc.value.value, exc.value.bound) == want

    def test_the_zero_test_stops_at_its_cap(self, reductions):
        # order 5,000 is the last one with a zero test: 1 + t^2500 vanishes at 1/5000, which no
        # certified sum decides, so _vanishes answers 0; at 1/5001, 1 + t^1667 + t^3334
        # vanishes too, but past the cap it is refused, and the refusal names the cap
        assert circle._MAX_ZERO_TEST_ORDER == 5000
        assert circle._sign_at(UnitCirclePoint.root(1, 5000), 0, [(0, 1), (2500, 1)]) == 0
        assert reductions == [5000]
        with pytest.raises(NearSingular) as exc:
            circle._sign_at(UnitCirclePoint.root(1, 5001), 0, [(0, 1), (1667, 1), (3334, 1)])
        assert str(exc.value).endswith("; no exact zero test at order 5001 > 5000")
        assert reductions == [5000]

    def test_zero_test_agrees_with_dense_division(self):
        # _vanishes says zero exactly where the remainder modulo Phi_m is
        # empty; every order below 400, twenty sums each, half of them
        # multiples of Phi_m
        rng = random.Random(4946)
        for m in range(1, 400):
            phi = cyclotomic(m)
            for trial in range(20):
                terms = {}
                if trial % 2:
                    for _ in range(rng.randint(1, 4)):
                        x, c = rng.randrange(-3 * m, 3 * m), rng.choice((-5, -1, 1, 2, 7))
                        for e, a in enumerate(phi):
                            terms[x + e] = terms.get(x + e, 0) + c * a
                else:
                    for _ in range(rng.randint(1, 30)):
                        terms[rng.randrange(-10**6, 10**6)] = rng.choice((-9, -2, 1, 3, 8))
                terms = sorted((e, c) for e, c in terms.items() if c)
                zero = circle._vanishes(terms, m)
                assert zero == (dense_remainder(terms, m) == []), (m, terms)
                assert not trial % 2 or zero

    @pytest.mark.parametrize("m", [6, 12, 30, 60, 210, 720, 2310, 4785])
    def test_zero_test_separates_the_divisors_of_the_order(self, m):
        # Phi_d * (a + b t^y) * t^x with |a| != |b|, a cofactor with no zero
        # on the circle, vanishes at a primitive m-th root only for d = m;
        # every prime of m takes its binomial, the largest one included
        rng = random.Random(m)
        for d in (d for d in range(1, m + 1) if m % d == 0):
            phi = cyclotomic(d)
            x, y = rng.randrange(-2 * m, 2 * m), rng.randrange(1, m)
            a, b = rng.choice(((1, 2), (-3, 1), (2, -5)))
            terms = {}
            for e, c in enumerate(phi):
                terms[x + e] = terms.get(x + e, 0) + a * c
                terms[x + e + y] = terms.get(x + e + y, 0) + b * c
            terms = sorted((e, c) for e, c in terms.items() if c)
            assert circle._vanishes(terms, m) == (d == m), (m, d)
        # the last divisor is m itself: the float sum cannot decide, the zero test does
        assert circle._sign_at(UnitCirclePoint.root(1, m), 0, terms) == 0

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
                        got = circle._sign_at(omega, k, terms)
                        assert got == decimal_sign(omega, k, terms), (A, omega, k)
                        signs.append(got)
        roots = [UnitCirclePoint.root(j, m) for m in (2, 3, 5, 6, 7, 12, 30, 61, 1009)
                 for j in range(1, m) if math.gcd(j, m) == 1]
        for n in [*range(1, 13), 10**6 + 3, 10**18 + 7, 10**40 + 1, 10**400, 10**400 + 5]:
            terms = sorted(delta_n_closed(n).coeffs.items())
            for omega in roots:
                got = circle._sign_at(omega, 0, terms)
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
            return sign_outcome(lambda: circle._sign_at(omega, 0, terms))
        outcomes = [outcome(n, omega) for n, omega in cases]
        assert [outcome(n + 10**30 * omega.m, omega) for n, omega in cases] == outcomes
        assert {0, 1, -1} < set(outcomes)  # each sign, and the refusal at m // 3 / m

    def test_angle_bound_counts_a_subnormal_theta_as_the_smallest_normal(self):
        terms = [(0, 1), (2**1020, 1)]
        tiny = circle._angle_error(2.0**-1040, 0, terms)
        assert tiny == circle._angle_error(2.0**-1022, 0, terms) == 8 * 2.0**-53 * 1.25
        # 2cos(2*pi/1024) - 2 at 1/2^1030, where theta is subnormal
        omega = UnitCirclePoint.root(1, 2**1030)
        assert circle._sign_at(omega, 0, [(-(2**1020), 1), (0, -2), (2**1020, 1)]) == -1
        assert circle._angle_error(0.5, 3, [(-2, 1), (4, 1)]) == 8 * 2.0**-53 * (0.5 * 3.5 + 4)

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
                    got = sign_outcome(lambda: circle._sign_at(omega, k, terms))
                    assert got == sign_outcome(lambda: reduce_first(omega, k, terms)), (A, omega, k)
                    zeros += got == 0
        assert zeros > 1000


class TestJsonMatrices:
    def test_int_round_trip(self):
        text = json.dumps({"dim": 4, "entries": A1})
        assert int_matrix_from_json(json.loads(text)) == A1

    def test_laurent_entries(self):
        # textual entries are refused; the polynomials they name are taken
        with pytest.raises(ValueError, match="got 't - 1'"):
            det_laurent([["t - 1", 0], [2, "t^-1"]])
        rows = [[LaurentPoly({1: 1, 0: -1}), 0], [2, LaurentPoly({-1: 1})]]
        assert det_laurent(rows) == LaurentPoly({0: 1, -1: -1})

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


def test_the_kernel_module_takes_no_float_step():
    # the elimination is exact: every float step of a sign on the circle lives in circle.py
    tree = ast.parse(Path(exactlinalg.__file__).read_text(encoding="utf-8"))
    names = {"cos", "sin", "fsum", "pi", "tau"}
    floats = [(node.lineno, ast.unparse(node)) for node in ast.walk(tree)
              if isinstance(node, ast.Name) and node.id in names | {"float"}
              or isinstance(node, ast.Attribute) and node.attr in names
              or isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
              or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)]
    assert floats == []
