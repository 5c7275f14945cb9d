"""Reference implementations the tests compare against.

Everything here is deliberately naive: cofactor expansion instead of
fraction-free elimination, dense complex evaluation instead of the
Chebyshev path.  Slow but independently checkable by eye.
"""

from __future__ import annotations

import cmath
import random
from fractions import Fraction

from shakekit import exactlinalg
from shakekit.laurent import LaurentPoly, UnitCirclePoint


def det_cofactor(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """First-row cofactor expansion over Laurent polynomials."""
    n = len(rows)
    if n == 0:
        return LaurentPoly.one()
    if n == 1:
        return rows[0][0]
    total = LaurentPoly.zero()
    for j in range(n):
        if not rows[0][j]:  # a zero term; skipping it keeps sparse minors cheap
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * det_cofactor(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def det_cofactor_fraction(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * det_cofactor_fraction(minor)
        total += term if j % 2 == 0 else -term
    return total


def reduce_first(omega: UnitCirclePoint, k: int, terms: list[tuple[int, int]]) -> int:
    """Sign of ((1 - omega)/omega)^k * P(omega) at a root of unity, remainder first.

    P is reduced modulo Phi_m before any float sum is taken, so an empty
    remainder is the exact zero; otherwise the remainder's certified sign.
    """
    rest = exactlinalg._mod_cyclotomic(terms, omega.m)
    return exactlinalg._certified_sign(omega, k, rest) if rest else 0


def eval_naive(p: LaurentPoly, z: complex) -> complex:
    """Direct power sum, no symmetry tricks."""
    return sum(c * z**e for e, c in p.coeffs.items())


def eval_at_angle(p: LaurentPoly, theta: float) -> complex:
    return eval_naive(p, cmath.exp(1j * theta))


def random_laurent(rng: random.Random, max_terms: int = 4) -> LaurentPoly:
    coeffs = {
        rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(rng.randint(0, max_terms))
    }
    return LaurentPoly(coeffs)


def random_laurent_narrow(rng: random.Random, span: int = 3, bound: int = 3) -> LaurentPoly:
    """Exponent span <= `span`, coefficients in [-bound, bound]."""
    low = rng.randint(-2, 1)
    coeffs = {
        rng.randint(low, low + span): rng.randint(-bound, bound)
        for _ in range(rng.randint(1, 4))
    }
    return LaurentPoly(coeffs)


def random_laurent_matrix(rng: random.Random, dim: int) -> list[list[LaurentPoly]]:
    return [[random_laurent(rng) for _ in range(dim)] for _ in range(dim)]


def random_int_matrix(rng: random.Random, dim: int, bound: int = 4) -> list[list[int]]:
    return [[rng.randint(-bound, bound) for _ in range(dim)] for _ in range(dim)]


def random_symmetric_matrix(
    rng: random.Random, dim: int, bound: int = 4
) -> list[list[int]]:
    m = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            m[i][j] = m[j][i] = rng.randint(-bound, bound)
    return m


def random_unimodular(rng: random.Random, dim: int, ops: int = 8) -> list[list[int]]:
    """Product of elementary integer row operations; determinant is +-1."""
    e = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(ops):
        kind = rng.randrange(3)
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        if kind == 0 and i != j:
            k = rng.choice([-2, -1, 1, 2])
            for col in range(dim):
                e[i][col] += k * e[j][col]
        elif kind == 1:
            e[i], e[j] = e[j], e[i]
        else:
            e[i] = [-x for x in e[i]]
    return e


def congruence(P: list[list[int]], A: list[list[int]]) -> list[list[int]]:
    """P A P^T with exact integer products."""
    n = len(A)
    PA = [[sum(P[i][k] * A[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(PA[i][k] * P[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
