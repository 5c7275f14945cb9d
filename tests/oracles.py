"""Reference implementations the tests compare against.

Everything here is deliberately naive: cofactor expansion, or dense
elimination at one integer point, instead of the packed sparse kernel,
dense complex evaluation instead of the Chebyshev path, a pattern
normalizer that maps every leaf again under each operator.  Slow but
independently checkable by eye.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from itertools import chain, groupby, repeat
from decimal import Decimal, localcontext
from fractions import Fraction

from shakekit import circle
from shakekit.complexity import a_family_profile
from shakekit.exactlinalg import det_laurent, inertia_symmetric_exact
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
from shakekit.seifert import an_family


def det_cofactor(rows: list[list[LaurentPoly | int]]) -> LaurentPoly:
    """First-row cofactor expansion over Laurent polynomials, on their coefficient dicts."""
    return LaurentPoly(_det_coeffs([[x.coeffs if isinstance(x, LaurentPoly) else {0: x}
                                     for x in row] for row in rows]))


def _det_coeffs(rows: list[list[dict[int, int]]]) -> dict[int, int]:
    """det of a matrix of coefficient dicts, each product a convolution of two dicts."""
    n = len(rows)
    if n == 0:
        return {0: 1}
    if n == 1:
        return rows[0][0]
    total: dict[int, int] = {}
    for j in range(n):
        if not any(rows[0][j].values()):  # a zero term; skipping it keeps sparse minors cheap
            continue
        minor = _det_coeffs([row[:j] + row[j + 1 :] for row in rows[1:]])
        sign = -1 if j % 2 else 1
        for e1, c1 in rows[0][j].items():
            for e2, c2 in minor.items():
                total[e1 + e2] = total.get(e1 + e2, 0) + sign * c1 * c2
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


def det_int(rows: list[list[int]]) -> int:
    """Determinant of a dense integer matrix by fraction-free elimination with row exchanges."""
    m = [list(row) for row in rows]
    sign, prev = 1, 1
    for k in range(len(m)):
        p = next((i for i in range(k, len(m)) if m[i][k]), None)
        if p is None:
            return 0
        if p != k:
            m[k], m[p], sign = m[p], m[k], -sign
        pivot, row = m[k][k], m[k]
        for i in range(k + 1, len(m)):
            f = m[i][k]
            m[i][k + 1:] = [(a * pivot - f * b) // prev for a, b in zip(m[i][k + 1:], row[k + 1:])]
        prev = pivot
    return sign * prev


def leading_minors(rows: list[list[int]]) -> list[int]:
    """det rows[:k][:k] for k = 1..n of a dense integer matrix.

    Fraction-free elimination without row exchanges makes pivot k the k-th
    leading minor (Bareiss); from the first zero pivot on, each remaining
    minor is taken afresh by det_int.
    """
    m = [list(row) for row in rows]
    out, prev = [], 1
    for k, row in enumerate(m):
        p = row[k]
        if not p:
            return out + [det_int([r[:j] for r in rows[:j]]) for j in range(k + 1, len(m) + 1)]
        out.append(p)
        for i in range(k + 1, len(m)):
            f = m[i][k]
            m[i][k + 1:] = [(a * p - f * b) // prev for a, b in zip(m[i][k + 1:], row[k + 1:])]
        prev = p
    return out


def _milnor_seifert(n: int) -> list[list[int]]:
    """V_n, the (n-1)x(n-1) matrix with -1 on the diagonal and +1 just above it."""
    return [[-1 if j == i else int(j == i + 1) for j in range(n - 1)] for i in range(n - 1)]


def torus_seifert(p: int, q: int) -> list[list[int]]:
    """A Seifert matrix of the torus knot T(p, q): -V_p (x) V_q, of dimension (p-1)(q-1).

    T(p, q) is the link of the singularity x^p + y^q = 0, so its Seifert
    form is minus the tensor product of those of x^p and y^q
    (Sebastiani-Thom).  Row (i, k) is i*(q-1) + k.
    """
    vp, vq = _milnor_seifert(p), _milnor_seifert(q)
    return [[-a * b for a in row_p for b in row_q] for row_p in vp for row_q in vq]


def torus_delta(p: int, q: int) -> LaurentPoly:
    """(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), shifted to be symmetric in t <-> 1/t."""
    coeffs = [0] * (p * q + 2)  # (t^pq - 1)(t - 1), lowest degree first
    coeffs[p * q + 1], coeffs[p * q], coeffs[1], coeffs[0] = 1, -1, -1, 1
    for d in (p, q):  # exact long division by the monic t^d - 1
        quotient = [0] * (len(coeffs) - d)
        for e in reversed(range(len(quotient))):
            quotient[e] = coeffs[e + d]
            coeffs[e] += quotient[e]
        if any(coeffs[:d]):
            raise ArithmeticError(f"t^{d} - 1 leaves a remainder")
        coeffs = quotient
    shift = (p - 1) * (q - 1) // 2
    return LaurentPoly({e - shift: c for e, c in enumerate(coeffs) if c})


def litherland_signature(p: int, q: int, k: int, m: int) -> int:
    """The Levine-Tristram signature of T(p, q) at e^(2 pi i x), x = k/m in (0, 1).

    Litherland (1979): the form is diagonal over the pairs 1 <= i < p,
    1 <= j < q.  A pair is negative where x < i/p + j/q < x + 1, positive
    where i/p + j/q lies outside [x, x + 1], and null at either end, where
    Delta(e^(2 pi i x)) = 0.  Compared in integers, times p*q*m.
    """
    lo, hi = k * p * q, (k + m) * p * q
    sums = [(i * q + j * p) * m for i in range(1, p) for j in range(1, q)]
    return sum(s < lo or s > hi for s in sums) - sum(lo < s < hi for s in sums)


def family_signature(n: int, omega: UnitCirclePoint) -> int:
    """sigma(an_family(n), omega) from the family's profile, which reads I(Q_(n-1)) = sigma / 2."""
    return 2 * a_family_profile(omega)(n - 1)


def realified_inertia(A: list[list[int]], k: int, m: int) -> tuple[int, int]:
    """(sigma, n_zero) of H(w) = (1 - w)A + (1 - conj(w))A^T at w = e^(2 pi i k/m), m = 3, 4 or 6.

    There phi(m) = 2 and c_j = 2cos(2 pi jk/m) are integers.  In the real
    basis {1, w}, z = u + w*v with u, v real, 2 Re(z* H z) is the integer
    form B = [[R, W], [W^T, R]] of dimension 2n, with R = (2 - c_1)(A + A^T)
    = 2 Re H and W = (c_1 - c_2)A + (c_1 - 2)A^T = 2 Re(w H).  Each complex
    dimension of H is two real ones of B, so sigma = sig(B)/2 and n_zero =
    nullity(B)/2, both from inertia_symmetric_exact: no minor of H and no
    sign at w enters, and the floats c_j are rounded to those integers.
    """
    if m not in (3, 4, 6) or math.gcd(k, m) != 1:
        raise ValueError(f"{k}/{m} is not a primitive root of order 3, 4 or 6")
    c1, c2 = (round(2 * math.cos(2 * math.pi * j * k / m)) for j in (1, 2))
    n = len(A)
    R = [[(2 - c1) * (A[i][j] + A[j][i]) for j in range(n)] for i in range(n)]
    W = [[(c1 - c2) * A[i][j] + (c1 - 2) * A[j][i] for j in range(n)] for i in range(n)]
    B = [r + w for r, w in zip(R, W)] + [[W[j][i] for j in range(n)] + R[i] for i in range(n)]
    inertia = inertia_symmetric_exact(B)
    if inertia.signature % 2 or inertia.n_zero % 2:
        raise ArithmeticError(f"the realified form has odd inertia {inertia}")
    return inertia.signature // 2, inertia.n_zero // 2


def is_pencil(entries: list[dict]) -> bool:
    """Whether sparse rows M, column -> int or coefficient dict, have M(t)^T = -t * M(1/t).

    An int entry makes no pencil.
    """
    return all(e.__class__ is not int and entries[j].get(i) == {1 - x: -c for x, c in e.items()}
               for i, row in enumerate(entries) for j, e in row.items())


@functools.lru_cache(maxsize=None)
def cyclotomic(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, lowest degree first.

    Phi_m = prod over d | m of (t^d - 1)^mu(m/d): multiply by the factors
    with mu = +1, then divide exactly by those with mu = -1.
    """
    primes = [p for p in range(2, m + 1) if m % p == 0 and all(p % q for q in range(2, p))]
    factors = sorted(
        (bin(mask).count("1") % 2, m // math.prod(q for i, q in enumerate(primes) if mask >> i & 1))
        for mask in range(1 << len(primes))
    )
    poly = [1]
    for divide, d in factors:
        if divide:  # q * (t^d - 1) = poly, solved from the lowest degree up
            q = poly[: len(poly) - d]
            for i in range(len(q)):
                q[i] = (q[i - d] if i >= d else 0) - poly[i]
            poly = q
        else:
            out = [-c for c in poly] + [0] * d
            for i, c in enumerate(poly):
                out[i + d] += c
            poly = out
    return tuple(poly)


def reduce_first(omega: UnitCirclePoint, k: int, terms: list[tuple[int, int]]) -> int:
    """Sign of ((1 - omega)/omega)^k * P(omega) at a root of unity, remainder first.

    P is reduced modulo Phi_m before any float sum is taken, so an empty
    remainder is the exact zero; otherwise the remainder's certified sign.
    """
    rest = dense_remainder(terms, omega.m)
    return circle._certified_sign(omega, k, rest) if rest else 0


def dense_remainder(terms: list[tuple[int, int]], m: int) -> list[tuple[int, int]]:
    """sum c t^e modulo Phi_m by long division of the folded sum, one top degree at a time."""
    folded = [0] * m
    for e, c in terms:
        folded[e % m] += c
    phi = cyclotomic(m)
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


def float_grid_points(k: int, p: int, grid: int = 720) -> tuple[int, ...]:
    """The grid points the witness search read the root k/p against in floats.

    i0 = int(theta / step) for step = 2*pi / grid, and i0 + 1 as well unless
    theta is within 1e-12 of i0 * step.  This was the package's rule before
    it read the grid in integers; 1/3 gives 239 and 240, as theta / step is
    239.99999999999997.
    """
    theta = UnitCirclePoint.root(k, p).theta % math.tau
    step = math.tau / grid
    i0 = int(theta / step) % grid
    return (i0,) if abs(theta - i0 * step) < 1e-12 else (i0, (i0 + 1) % grid)


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


def numpy_signature(S: list[list[int]]) -> int:
    """Signature of a small symmetric integer matrix from numpy's eigenvalues, |x| <= 1e-9 as 0.

    numpy is imported here, so the oracles load without it.
    """
    import numpy as np

    values = np.linalg.eigvalsh(np.array(S, dtype=float))
    return int((values > 1e-9).sum()) - int((values < -1e-9).sum())


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


def expand(nf: NormalForm) -> tuple:
    """The chain of a normal form written out leaf by leaf: each run's leaf, count times."""
    return tuple(chain.from_iterable(repeat(leaf, count) for leaf, count in nf.runs))


def render_normal_form(nf: NormalForm) -> str:
    """The text of a normal form, written out leaf by leaf."""
    return " o ".join(_render_leaf(leaf) for leaf in expand(nf))


def _render_leaf(leaf) -> str:
    if isinstance(leaf, PoundLeaf):
        inner = expand(leaf.inner)
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
        inner = tuple(_bar_leaf(x) for x in expand(leaf.inner))
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


def satellite_leaves(nf: NormalForm) -> list[tuple[int, bool]]:
    """(j, bar) for each leaf of a normal form, in chain order, repeated by multiplicity.

    Every atom stands for the family's Q, and a leaf names Q_j or, with its
    bar flag, bar(Q_j).  The star and the bar flag each reflect the twist, as
    (P*)_n = (P_(-n))*, whose value is P_(-n)'s, and bar(P)_n = bar(P_(-n)).
    A pound leaf adds the leaves of its inner chain: a pattern of winding
    number one adds its knot's Seifert form.
    """
    out: list[tuple[int, bool]] = []
    for leaf, count in nf.runs:
        if isinstance(leaf, PoundLeaf):
            out.extend(satellite_leaves(leaf.inner) * count)
        else:
            j = -leaf.twist if leaf.star else leaf.twist
            out.extend([(-j if leaf.bar else j, leaf.bar)] * count)
    return out


def satellite_seifert(nf: NormalForm) -> list[list[int]]:
    """The block-diagonal Seifert matrix of a normal form's leaves, every atom the family's Q.

    For patterns of winding number one the Seifert form of P(K) is that of
    P(U) plus that of K (Seifert 1950; Litherland 1979), so a composition
    chain takes one block per leaf: Q_j takes an_family(1 + j), and bar(Q_j),
    its concordance inverse, takes -A^T.  an_family raises DomainError for
    j < 0, where the family declares no member.
    """
    blocks = []
    for j, bar in satellite_leaves(nf):
        A = an_family(1 + j)
        blocks.append([[-x for x in column] for column in zip(*A)] if bar else A)
    return block_sum(blocks)


def block_sum(blocks: list[list[list[int]]]) -> list[list[int]]:
    """The block-diagonal matrix of square integer blocks, in order."""
    dim, at = sum(map(len, blocks)), 0
    out = [[0] * dim for _ in range(dim)]
    for B in blocks:
        for i, row in enumerate(B):
            out[at + i][at:at + len(B)] = row
        at += len(B)
    return out


def braid_strands(word: list[int]) -> int:
    """The strand count of a braid word whose closure is a knot, its letters +-i on n strands.

    The word runs on n = max |letter| + 1 strands, and its closure has one
    component exactly when its permutation is one n-cycle; that also makes
    every column 1..n - 1 hold a letter.  Anything else is refused.
    """
    n = max(map(abs, word), default=0) + 1
    if 0 in word:
        raise ValueError("a braid letter is a nonzero integer")
    perm = list(range(n))
    for letter in word:
        i = abs(letter)
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    length, x = 1, perm[0]
    while x:
        length, x = length + 1, perm[x]
    if length != n:
        raise ValueError(f"the closure of {word} is not a knot")
    return n


def seifert_from_braid(word: list[int]) -> list[list[int]]:
    """A Seifert matrix of the closure of a braid word, by Seifert's algorithm.

    Each of the n strands bounds a disk, and each letter sigma_i^e (the
    letter +-i) is a band with a half twist of sign e between disks i and
    i + 1.  The k letters give k - n + 1 generators: one loop a through each
    two consecutive bands of a column, in the word's order, with interval
    (a1, a2), the positions of its two bands.  Then
    - V(a, a) = -(e1 + e2)/2, for bands of signs e1 and e2;
    - for consecutive loops a, b of one column, sharing a band of sign e,
      V(a, b) = (e + 1)/2 and V(b, a) = (e - 1)/2;
    - for a in column i and b in column i + 1 whose intervals interleave,
      V(a, b) = -1 if a1 < b1 < a2 < b2, +1 if b1 < a1 < b2 < a2, and
      V(b, a) = 0;
    - every other entry is 0.
    The positive torus knots then have sigma < 0, as torus_seifert does.
    """
    braid_strands(word)
    columns: dict[int, list[tuple[int, int]]] = {}
    for at, letter in enumerate(word):
        columns.setdefault(abs(letter), []).append((at, 1 if letter > 0 else -1))
    loops = [(i, *band[j:j + 2]) for i, band in sorted(columns.items())
             for j in range(len(band) - 1)]
    V = [[0] * len(loops) for _ in loops]
    for a, (i, (a1, e1), (a2, e2)) in enumerate(loops):
        V[a][a] = -(e1 + e2) // 2
        for b, (ib, (b1, _), (b2, _)) in enumerate(loops):
            if ib == i and b1 == a2:
                V[a][b], V[b][a] = (e2 + 1) // 2, (e2 - 1) // 2
            elif ib == i + 1 and a1 < b1 < a2 < b2:
                V[a][b] = -1
            elif ib == i + 1 and b1 < a1 < b2 < a2:
                V[a][b] = 1
    return V


def burau_delta(word: list[int]) -> LaurentPoly:
    """The Alexander polynomial of the closure of a braid word, from its reduced Burau matrix.

    For a braid on n strands, det(I - B) = (1 + t + ... + t^(n-1)) * Delta
    up to a unit +-t^j, where B is the product of the letters' reduced
    Burau matrices (Burau 1935; Kassel and Turaev, "Braid Groups", 2008,
    ch. 3).  The (n-1)x(n-1) matrix of sigma_i is the identity but for its
    column i - 1 (from 0), which holds t, -t, 1 in rows i - 2, i - 1, i,
    where they exist; that of sigma_i^-1 holds 1, -1/t, 1/t.  So a letter
    is a column operation on the product, of coefficient dicts.  det_laurent
    takes det(I - B), which is multiplied by 1 - t and divided exactly by
    1 - t^n, then shifted to be symmetric and signed to give Delta(1) = 1.
    """
    n = braid_strands(word)
    B = [[{0: 1} if i == j else {} for j in range(n - 1)] for i in range(n - 1)]
    for letter in word:
        c = abs(letter) - 1
        parts = ((c - 1, {1: 1}), (c, {1: -1}), (c + 1, {0: 1})) if letter > 0 else (
            (c - 1, {0: 1}), (c, {-1: -1}), (c + 1, {-1: 1}))
        for row in B:
            new: dict[int, int] = {}
            for col, factor in parts:
                if 0 <= col < n - 1:
                    for e, x in row[col].items():
                        for f, y in factor.items():
                            new[e + f] = new.get(e + f, 0) + x * y
            row[c] = {e: x for e, x in new.items() if x}
    det = det_laurent([[LaurentPoly({e: int(i == j and e == 0) - row[j].get(e, 0)
                                     for e in {0, *row[j]}}) for j in range(n - 1)]
                       for i, row in enumerate(B)]).coeffs
    times = {}
    for e, x in det.items():  # det * (1 - t)
        times[e] = times.get(e, 0) + x
        times[e + 1] = times.get(e + 1, 0) - x
    low, high = min(times), max(times)
    quotient = {}
    for e in range(low, high - n + 1):  # exact division by 1 - t^n, lowest degree first
        quotient[e] = times.get(e, 0) + quotient.get(e - n, 0)
    if any(times.get(e, 0) + quotient.get(e - n, 0) for e in range(high - n + 1, high + 1)):
        raise ArithmeticError(f"1 - t^{n} does not divide det(I - B) * (1 - t)")
    quotient = {e: x for e, x in quotient.items() if x}
    shift, sign = (min(quotient) + max(quotient)) // 2, sum(quotient.values())
    return LaurentPoly({e - shift: sign * x for e, x in quotient.items()})


def cable_word(word: list[int], p: int, q: int) -> list[int]:
    """A braid word of the (p, q) cable of the closure of word, for gcd(p, q) = 1 and p >= 2.

    The blackboard p-parallel of the closure turns each letter sigma_i^e
    into the p^2 letters e*((i - 1)p + p - a + b), for a, then b, in
    0..p - 1.  Its strands follow the blackboard framing, the writhe w of
    word, so they turn w full twists, (sigma_1 ... sigma_(p-1))^(p*w), about
    each other.  The cable appends (sigma_1 ... sigma_(p-1))^(q - p*w) on
    the first p strands, with inverse letters in reverse order for a
    negative exponent.
    """
    if p < 2 or math.gcd(p, q) != 1:
        raise ValueError(f"a (p, q) cable needs p >= 2 and gcd(p, q) = 1, got ({p}, {q})")
    braid_strands(word)
    parallel = [(1 if letter > 0 else -1) * ((abs(letter) - 1) * p + p - a + b)
                for letter in word for a in range(p) for b in range(p)]
    twist = q - p * sum(1 if letter > 0 else -1 for letter in word)
    turn = list(range(1, p)) if twist > 0 else [-i for i in range(p - 1, 0, -1)]
    return parallel + turn * abs(twist)


def goeritz_from_braid(word: list[int], shade: int,
                       deleted: int = 0) -> tuple[list[list[int]], int]:
    """(G, mu) of a checkerboard surface of the closure of a braid word: sigma = sign(G) - mu.

    The closure is drawn bottom to top on n strands.  Column 0 (outside
    strand 1) and column n (inside strand n) are one region each; column i,
    for 0 < i < n, has one region per letter +-i, the segment above it up to
    the next such letter, cyclically through the closure.  The columns of
    parity shade are shaded, and the white regions, in order of column and
    then of segment, index G'.  A letter sigma_i^e in a white column (type I)
    joins the segments below and above it, with eta = -e; in a shaded
    column (type II) it joins the regions of columns i - 1 and i + 1 at its
    height, with eta = e, and adds eta to mu.  G' holds -(the sum of eta)
    off the diagonal and has zero row sums, and G is G' without the white
    region deleted.  Then sigma = sign(G) - mu and |det G| = |Delta(-1)|
    (Gordon and Litherland, "On the signature of a link", 1978).
    """
    n = braid_strands(word)
    at = {i: [h for h, letter in enumerate(word) if abs(letter) == i] for i in range(1, n)}

    def region(i: int, h: int) -> tuple[int, int]:
        """The region of column i at height h - 1/2, just below the letter at h."""
        if i in (0, n):
            return i, 0
        return i, (sum(p < h for p in at[i]) - 1) % len(at[i])

    white = [(i, j) for i in range(n + 1) if i % 2 != shade
             for j in range(len(at[i]) if 0 < i < n else 1)]
    index = {r: x for x, r in enumerate(white)}
    G = [[0] * len(white) for _ in white]
    mu = 0
    for h, letter in enumerate(word):
        i, e = abs(letter), 1 if letter > 0 else -1
        if i % 2 != shade:
            r, s, eta = region(i, h), region(i, h + 1), -e
        else:
            r, s, eta = region(i - 1, h), region(i + 1, h), e
            mu += eta
        x, y = index[r], index[s]
        if x != y:
            G[x][y] -= eta
            G[y][x] -= eta
            G[x][x] += eta
            G[y][y] += eta
    return [row[:deleted] + row[deleted + 1:] for x, row in enumerate(G) if x != deleted], mu


def random_braid_knot(rng: random.Random, most: int = 5) -> list[int]:
    """A braid word on n = 2..most strands, of n + 1 to 12 letters, whose closure is a knot.

    At least n + 1 letters make its Seifert matrix nonempty.
    """
    while True:
        n = rng.randint(2, most)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1)
                for _ in range(rng.randint(n + 1, 12))]
        try:
            if braid_strands(word) == n:
                return word
        except ValueError:
            continue
