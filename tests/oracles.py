"""Reference implementations the tests compare against.

Everything here is deliberately naive: cofactor expansion instead of
fraction-free elimination, dense complex evaluation instead of the
Chebyshev path, a pattern normalizer that maps every leaf again under
each operator.  Slow but independently checkable by eye.
"""

from __future__ import annotations

import cmath
import functools
import random
from itertools import groupby
from decimal import Decimal, localcontext
from fractions import Fraction

from shakekit import exactlinalg
from shakekit.laurent import LaurentPoly, UnitCirclePoint
from shakekit.patterns import (
    Atom,
    Bar,
    Compose,
    Inverse,
    Leaf,
    NormalForm,
    Pound,
    PoundLeaf,
    Power,
    Star,
    Twist,
)


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


def dense_remainder(terms: list[tuple[int, int]], m: int) -> list[tuple[int, int]]:
    """sum c t^e modulo Phi_m by long division of the folded sum, one top degree at a time."""
    folded = [0] * m
    for e, c in terms:
        folded[e % m] += c
    phi = exactlinalg._cyclotomic(m)
    d = len(phi) - 1
    terms_of_phi = [(e, a) for e, a in enumerate(phi) if a]
    for top in range(m - 1, d - 1, -1):
        c = folded[top]
        if c:
            for e, a in terms_of_phi:
                folded[top - d + e] -= c * a
    return [(e, c) for e, c in enumerate(folded[:d]) if c]


def decimal_sign(omega: UnitCirclePoint, k: int, terms: list[tuple[int, int]]) -> int:
    """Sign of ((1 - omega)/omega)^k * P(omega) at a root j/m other than 1, from exact phases.

    (1 - omega)/omega = 2 sin(pi j/m) e^(-i pi (1/2 + j/m)) with
    sin(pi j/m) > 0, so the term c t^e adds c (2 sin(pi j/m))^k cos(2 pi q)
    for q = j e/m - k j/(2m) - k/4 turns, a Fraction taken modulo 1.
    The cosines are summed in decimal at 50 digits, and a sum within
    10^-40 of 0 per unit of sum |c| is the exact zero.
    """
    j, m = omega.k, omega.m
    with localcontext() as ctx:
        ctx.prec = 60
        total = sum(c * _cos_turns(Fraction(j * e, m) - k * Fraction(j, 2 * m) - Fraction(k, 4))
                    for e, c in terms)
        if abs(total) <= Decimal(10) ** -40 * sum(abs(c) for _, c in terms):
            return 0
    return 1 if total > 0 else -1


@functools.lru_cache(maxsize=None)
def _cos_turns(q: Fraction) -> Decimal:
    """cos(2 pi q) to 50 digits: q reduced into [-1/2, 1/2), then the Taylor series."""
    with localcontext() as ctx:
        ctx.prec = 60
        q -= (q + Fraction(1, 2)) // 1
        x = 2 * _decimal_pi() * q.numerator / q.denominator
        total, term, i = Decimal(1), Decimal(1), 0
        while abs(term) > Decimal(10) ** -58:
            i += 2
            term *= -x * x / (i * (i - 1))
            total += term
    return total


@functools.lru_cache(maxsize=None)
def _decimal_pi() -> Decimal:
    """pi to 60 digits by Machin's formula, pi = 4 (4 arctan(1/5) - arctan(1/239)), in integers."""
    scale = 10**70

    def arctan_inverse(x: int) -> int:
        total, power, n, sign = 0, scale // x, 1, 1
        while power:
            total += sign * power // n
            power //= x * x
            n, sign = n + 2, -sign
        return total

    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(4 * (4 * arctan_inverse(5) - arctan_inverse(239))) / scale


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


def normalize_by_maps(t) -> NormalForm:
    """The normal form of a pattern term, built bottom-up.

    Each operator maps every leaf of its operand's chain: a star reverses
    the chain, flips the star flag and negates the twist; a bar flips the
    bar flag, negates the twist and bars inside pound leaves (sorting
    their runs again); a twist adds to the twist; Inverse is bar of star.
    Star and twist leave pound leaves alone.  No leaf limit.  The flat
    chain is grouped into runs of equal neighbours only at the end.
    """
    return _form(_sorted_pound_runs(_map_chain(t)))


def _form(leaves) -> NormalForm:
    """The normal form of a flat chain: each stretch of equal leaves is one run."""
    return NormalForm(tuple((leaf, len(list(same))) for leaf, same in groupby(leaves)))


def render_normal_form(nf: NormalForm) -> str:
    """The text of a normal form, written out leaf by leaf."""
    return " o ".join(_render_leaf(leaf) for leaf in nf.leaves)


def _render_leaf(leaf) -> str:
    if isinstance(leaf, PoundLeaf):
        inner = leaf.inner.leaves
        if len(inner) == 1 and isinstance(inner[0], Leaf):
            return f"{_render_leaf(inner[0])}#"
        return f"({render_normal_form(leaf.inner)})#"
    body = leaf.atom + ("*" if leaf.star else "")
    if leaf.bar:
        body = f"bar({body})"
    if leaf.twist:
        body += f"_{leaf.twist}"
    return body


def _sorted_pound_runs(leaves):
    out, run = [], []
    for leaf in leaves:
        if isinstance(leaf, PoundLeaf):
            run.append(leaf)
        else:
            out.extend(sorted(run, key=_render_leaf))
            run = []
            out.append(leaf)
    out.extend(sorted(run, key=_render_leaf))
    return tuple(out)


def _bar_leaf(leaf):
    if isinstance(leaf, PoundLeaf):
        inner = tuple(_bar_leaf(x) for x in leaf.inner.leaves)
        return PoundLeaf(_form(_sorted_pound_runs(inner)))
    return Leaf(leaf.atom, leaf.star, not leaf.bar, -leaf.twist)


def _map_chain(t) -> tuple:
    if isinstance(t, Atom):
        return (Leaf(t.name),)
    if isinstance(t, Compose):
        rights = []
        while isinstance(t, Compose):
            rights.append(t.right)
            t = t.left
        out = list(_map_chain(t))
        for right in reversed(rights):
            out.extend(_map_chain(right))
        return tuple(out)
    if isinstance(t, Power):
        return _map_chain(t.inner) * t.m
    if isinstance(t, Twist):
        return tuple(x if isinstance(x, PoundLeaf) else Leaf(x.atom, x.star, x.bar, x.twist + t.n)
                     for x in _map_chain(t.inner))
    if isinstance(t, Star):
        return tuple(x if isinstance(x, PoundLeaf) else Leaf(x.atom, not x.star, x.bar, -x.twist)
                     for x in reversed(_map_chain(t.inner)))
    if isinstance(t, Bar):
        return tuple(_bar_leaf(x) for x in _map_chain(t.inner))
    if isinstance(t, Inverse):
        return _map_chain(Bar(Star(t.inner)))
    if isinstance(t, Pound):
        inner = _sorted_pound_runs(_map_chain(t.inner))
        if all(isinstance(x, PoundLeaf) for x in inner):
            return inner
        return (PoundLeaf(_form(inner)),)
    raise TypeError(f"not a pattern term: {t!r}")
