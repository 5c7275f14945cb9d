"""Exact determinants of Laurent-polynomial matrices and inertia of forms.

Determinants have one integer kernel: Kronecker substitution t = 2^B,
with B from a Hadamard bound on the coefficients, fraction-free (Bareiss)
elimination over the integers, and a balanced base-2^B read-back.  The
elimination works in proportion to the nonzero entries it touches: a
row that a step does not read keeps its stored entries and the index s
of the last prev it was scaled to, its true entries being
stored * prev // chain[s] over the chain of prevs, and is rescaled only
when a step reads it.  The Seifert pencil M = t*A - A^T is eliminated
once per matrix A and memoised; with symmetric pivoting its Bareiss
pivots are its leading principal minors, which give both the
determinant and, by Jacobi's sign rule, the exact inertia of the
Hermitian form H(omega) at every unit-circle point.  M(t)^T is
-t * M(1/t), so in a dense step of a large pencil the lower triangle of
the Schur complement is the upper one with its base-2^B digits reversed
and a sign: with B rounded up to whole bytes, a to_bytes, the byte
chunks in reverse order and a from_bytes, so only the upper triangle is
eliminated (det_laurent gives the rule for when).
Every sign on the circle, a minor's or an Alexander polynomial's, is
taken by _sign_at: exact for a monomial minor, else a float sum that
counts only when it clears a rounding-error bound, and else, at a root
of unity of order <= _MAX_REMAINDER_ORDER, the remainder modulo the
cyclotomic polynomial, which is empty exactly at a zero.  Classical
inertia of a symmetric integer matrix comes from the same elimination:
its pivots are the matrix's exact integer leading minors.
"""

from __future__ import annotations

import functools
import math
import struct
from typing import Callable, Iterable, Sequence

from ._record import Record
from .errors import strict_int, strict_keys
from .laurent import LaurentPoly, UnitCirclePoint, laurent_from_entry


class InvalidRoot(ValueError):
    """The Hermitian form vanishes identically at omega = 1."""


class NearSingular(ArithmeticError):
    """No exact inertia at omega: a zero leading minor stops Jacobi's rule, or a sign is uncertain.

    index is the leading minor D_index that triggered the refusal (0 for a
    polynomial's own sign), value the computed float whose sign is that of
    D_index (0.0 when D_index vanishes exactly) and bound the
    rounding-error bound it had to clear.  It suggests no other root, as
    that would answer another question; _zero_minors words exact zeros.
    """

    def __init__(self, omega: UnitCirclePoint, message: str, index: int, value: float,
                 bound: float):
        self.omega = omega
        self.index = index
        self.value = value
        self.bound = bound
        super().__init__(message)


def _zero_minors(omega: UnitCirclePoint, index: int, dim: int, singular: bool) -> NearSingular:
    """The refusal where D_index(omega) = 0 exactly, and index = dim or D_(index+1) = 0 too.

    It says "form is singular" only when singular, i.e. D_dim(omega) = 0.
    """
    zeros = (f"leading minor D_{dim} = 0 exactly" if index == dim else
             f"leading minors D_{index} = D_{index + 1} = 0 exactly, two in a row")
    if index + 1 < dim:
        zeros += f", and D_{dim} {'=' if singular else '!='} 0"
    head = "form is singular" if singular else "Jacobi's rule cannot count the inertia"
    return NearSingular(omega, f"{head} at {omega}: {zeros}", index, 0.0, 0.0)


class Inertia(Record):
    n_plus: int
    n_zero: int
    n_minus: int

    def _validate(self):
        if min(self.n_plus, self.n_zero, self.n_minus) < 0:
            raise ValueError("inertia counts must be nonnegative")

    @property
    def dim(self) -> int:
        return self.n_plus + self.n_zero + self.n_minus

    @property
    def signature(self) -> int:
        return self.n_plus - self.n_minus


LaurentMatrix = Sequence[Sequence[LaurentPoly]]


def _check_square(rows: Sequence[Sequence]) -> int:
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError(f"matrix must be square, got a row of length {len(row)} in dim {n}")
    return n


class Pivots(Record):
    """Bareiss pivots at t = 2^bits, each one a leading minor of the pivoted matrix.

    values[k-1] is the k-th pivot, the polynomial P_k / t^lows[k-1]
    evaluated at 2^bits, whose coefficients lie strictly inside
    +-2^(bits-1).  bits is rounded up to whole bytes for a pencil whose
    dense steps are mirrored (det_laurent), so bits and values depend on
    that route and minor(k) does not.
    """

    bits: int
    values: tuple[int, ...]
    lows: tuple[int, ...]

    @functools.cached_property
    def terms(self) -> list[list[tuple[int, int]]]:
        """P_k as (exponent, nonzero coefficient) pairs, lowest first, k = 1..n."""
        return [[(low + i, d) for i, d in enumerate(self.digits(k)) if d]
                for k, low in enumerate(self.lows, 1)]

    def digits(self, k: int) -> list[int]:
        """Coefficients of P_k / t^lows[k-1], lowest degree first."""
        value, bits = self.values[k - 1], self.bits
        half, mask = 1 << (bits - 1), (1 << bits) - 1
        out: list[int] = []
        while value:
            digit = ((value + half) & mask) - half
            out.append(digit)
            value = (value - digit) >> bits
        return out

    def minor(self, k: int) -> LaurentPoly:
        """P_k as a Laurent polynomial; P_0 = 1."""
        if k == 0:
            return LaurentPoly.one()
        low = self.lows[k - 1]
        return LaurentPoly({low + i: d for i, d in enumerate(self.digits(k))})


def _swap(M: list[list[int]], scales: list[int], lows: list[int], i: int, j: int) -> None:
    """Exchange index i with j in rows and columns alike: a congruence."""
    M[i], M[j] = M[j], M[i]
    for row in M:
        row[i], row[j] = row[j], row[i]
    scales[i], scales[j] = scales[j], scales[i]
    lows[i], lows[j] = lows[j], lows[i]


# Measured crossovers of the mirrored pencil steps; det_laurent gives the rule.
_MIRROR_ENTRY_BYTES = 48
_MIRROR_PENCIL_BYTES = 256


def _rescaled(row: list[int], scale: int, chain: list[int]) -> list[int]:
    """The true entries of a row stored at chain[scale]: stored * chain[-1] / chain[scale]."""
    if scale == len(chain) - 1:
        return row
    num, den = chain[-1], chain[scale]
    return [x * num // den if x else 0 for x in row]


def _eliminate(M: list[list[int]], scales: list[int], chain: list[int], width: int,
               update: Callable[[list[int], int], list[int]],
               mirrored: Callable[[int, int, int], int] | None
               ) -> tuple[list[list[int]], list[int]]:
    """Rows and columns after a Bareiss step on the first width pivots.

    A row with a nonzero entry in a pivot column is brought up to date and
    update(row, i) gives its new entries from column i on, at the scale of
    the step's prev; any other row only loses the pivot columns and keeps
    its scale.  When mirrored is given, every row is brought up to date,
    row i gets its entries from column i on by update, and those left of
    the diagonal are mirrored(x, i, j): entry (i, j) from entry x at (j, i).
    """
    if mirrored:
        rest: list[list[int]] = []
        for i, (row, scale) in enumerate(zip(M[width:], scales[width:])):
            rest.append([mirrored(above[i], i, j) if above[i] else 0
                         for j, above in enumerate(rest)]
                        + update(_rescaled(row, scale, chain), i))
        return rest, [len(chain)] * len(rest)
    rest, rest_scales = [], []
    for row, scale in zip(M[width:], scales[width:]):
        if any(row[:width]):
            rest.append(update(_rescaled(row, scale, chain), 0))
            rest_scales.append(len(chain))
        else:
            rest.append(row[width:])
            rest_scales.append(scale)
    return rest, rest_scales


def _is_pencil(polys: list[list[int | dict[int, int]]]) -> bool:
    """Whether M(t)^T = -t * M(1/t): every M[j][i] is -t * M[i][j](1/t).

    Entries are ints or coefficient dicts; a nonzero int entry is taken as
    no pencil, which only forgoes the mirrored steps.
    """
    for i, row in enumerate(polys):
        for j in range(i, len(row)):
            e, f = row[j], polys[j][i]
            if not e:
                if f:
                    return False
            elif e.__class__ is int or f != {1 - x: -c for x, c in e.items()}:
                return False
    return True


@functools.lru_cache(maxsize=256)
def _reversal(digits: int, size: int) -> tuple[int, Callable[[bytes], tuple[bytes, ...]]]:
    """Half of 2^(8*size) in each of digits digits, and the unpacker of their bytes."""
    base = 1 << 8 * size
    offset = base // 2 * ((base ** digits - 1) // (base - 1))
    return offset, struct.Struct(f"{size}s" * digits).unpack


def _reversed(x: int, digits: int, size: int) -> int:
    """x with its balanced base-2^(8*size) digits d_0..d_(digits-1) in reverse order.

    Adding half the base to every digit makes each one a plain unsigned
    size-byte chunk of x's bytes, so the reversal is to_bytes, the chunks
    in reverse order, from_bytes, and the same offset taken off again.
    """
    offset, unpack = _reversal(digits, size)
    chunks = unpack((x + offset).to_bytes(digits * size, "little"))
    return int.from_bytes(b"".join(chunks[::-1]), "little") - offset


def det_laurent(rows: LaurentMatrix, *, pivots: bool = False) -> LaurentPoly | Pivots:
    """Exact determinant of a square matrix of Laurent polynomials.

    Kronecker substitution: each row is shifted by a power of t so its
    entries are polynomials.  On the unit circle Hadamard's inequality
    gives |det| <= C = ceil(prod_i sqrt(sum_j ||a_ij||_1^2)), so C bounds
    every coefficient of the determinant (Parseval), and of every minor
    too, since no row factor is below 1.  The entries are evaluated at
    t = 2^B with B = C.bit_length() + 1, integer Bareiss elimination with
    row swaps takes the exact determinant there, and its balanced
    base-2^B digits are the coefficients.  The 0x0 determinant is 1
    (empty product).  Entries may be ints, LaurentPolys or their textual
    form; an int goes straight into the Kronecker matrix.

    The elimination costs in proportion to the nonzero entries it
    touches.  A Bareiss step only multiplies a row whose pivot-column
    entry is zero by pivot/prev, so such a row is stored as it is,
    together with the index s of the last prev it was scaled to in the
    chain of prev values; its true entries are stored * chain[-1] //
    chain[s], an exact division because the true entries are minors.  A
    row is brought up to date only when a step reads it: as the pivot row,
    or when its pivot-column entry is nonzero.  Zero tests read the stored
    entries, which vanish exactly when the true ones do.

    With pivots=True the same elimination pivots symmetrically and
    returns its Pivots instead.  A zero pivot is exchanged, row and column
    together, for the first nonzero diagonal entry after it; when every
    remaining diagonal entry is zero, a 2x2 block [[0, b], [c, 0]] with
    b, c != 0 takes two Bareiss steps at once (the 3x3 Sylvester
    determinants divided by prev^2).  The pivoted matrix is P M P^T, so
    pivot k is its k-th leading principal minor; once the rest of the
    matrix is zero, the remaining minors are 0.  Symmetric matrices and
    Seifert pencils t*A - A^T have M[i][j] != 0 exactly when
    M[j][i] != 0, so a block always exists while the rest is nonzero.

    A pencil M = t*A - A^T has M(t)^T = -t * M(1/t), so after p pivots
    the Schur-complement entry (j, i), the minor on the pivot rows and j
    and the pivot columns and i, is (-1)^(p+1) t^(p+1) times entry (i, j)
    at 1/t.  In the Kronecker matrix, with row r shifted by t^-low_r and
    L the pivots' shifts summed, entry (j, i) is entry (i, j) with its
    W + 1 balanced base-2^B digits reversed and the sign (-1)^(p+1),
    W = p + 1 - 2L - low_i - low_j; a 2x2 block step counts p after both
    of its pivots.  A mirrored step computes the upper triangle with the
    usual update and takes the lower one from it by _reversed.  With B
    rounded up to whole bytes a reversal is to_bytes, the byte chunks in
    reverse order and from_bytes, and any B at or above the Hadamard
    bound reads back the same coefficients: Pivots.minor(k) is the same
    either way, while Pivots.bits and Pivots.values may differ.  The rule
    comes from timings on a 2-core x86-64 host under CPython 3.11:
      - B is rounded, and the matrix mirrored, only when more than a
        quarter of its entries are nonzero, its n-digit determinant spans
        n*B >= 8*_MIRROR_PENCIL_BYTES (256 bytes) and the O(n^2) test
        _is_pencil, run on such matrices only, passes.  Below that, the
        rounding and the test cost what the mirrored steps saved (dense
        pencils of dimension 18, n*B near 1,500 bits, changed by -6% to
        +3%); from dimension 22 up (n*B near 2,400 bits) a pencil took
        20-35% less time.
      - A step is mirrored only when it brings every later row up to date
        (no zero entry in its pivot rows, as a pencil's Schur complement
        is zero at (i, j) exactly when at (j, i)) and its unshifted
        entries span (W + 1) * B/8 >= _MIRROR_ENTRY_BYTES = 48 bytes.  At
        42-60 bytes a reversal and the update it replaces each took
        0.4-0.5 us, for every B from 48 to 160 bits; at 600 bytes the
        update took 42 us and the reversal 1.6 us.
    """
    n = _check_square(rows)
    lows: list[int] = []
    norm_sq, nonzeros = 1, 0
    polys: list[list[int | dict[int, int]]] = []
    for row in rows:
        entries = [e if e.__class__ is int else laurent_from_entry(e)._coeffs for e in row]
        nonzero = [e for e in entries if e]
        if nonzero:
            low = min(0 if e.__class__ is int else min(e) for e in nonzero)
        elif not pivots:
            return LaurentPoly.zero()
        else:
            low = 0
        lows.append(low)
        polys.append(entries)
        nonzeros += len(nonzero)
        norm_sq *= max(1, sum((e * e if e.__class__ is int else sum(map(abs, e.values())) ** 2)
                              for e in nonzero))
    bits = (math.isqrt(norm_sq - 1) + 1).bit_length() + 1
    mirror = (pivots and 4 * nonzeros > n * n and n * bits >= 8 * _MIRROR_PENCIL_BYTES
              and _is_pencil(polys))
    if mirror:
        bits += -bits % 8
    size = bits // 8  # bytes per digit, used only when mirror
    M = [[(e << (bits * -low) if e.__class__ is int else
           sum(c << (bits * (x - low)) for x, c in e.items())) if e else 0 for e in row]
         for row, low in zip(polys, lows)]
    scales = [0] * n
    chain = [1]  # prev of every Bareiss step so far; prev is chain[-1]
    sign, offset = 1, 0
    values: list[int] = []
    offsets: list[int] = []

    def mirror_map(width: int, covered: Iterable[object]) -> Callable[[int, int, int], int] | None:
        """The mirror map of a step on the first width rows, or None if it is not mirrored.

        covered holds, for each later column, whether a pivot row is
        nonzero there; in a pencil that is whether the step reads the row.
        """
        done = len(values) + width  # p, the pivots taken once the step is done
        digits = done + 2 - 2 * (offset + sum(lows[:width]))  # W + 1 for unshifted i, j
        if digits * size < _MIRROR_ENTRY_BYTES or not all(covered):
            return None
        rest, negate = lows[width:], not done % 2

        def entry(x: int, i: int, j: int) -> int:
            y = _reversed(x, digits - rest[i] - rest[j], size)
            return -y if negate else y
        return entry

    while M:
        if not M[0][0] and not pivots:
            k = next((i for i, row in enumerate(M) if row[0]), None)
            if k is None:
                return LaurentPoly.zero()
            M[0], M[k] = M[k], M[0]
            scales[0], scales[k] = scales[k], scales[0]
            sign = -sign
        elif not M[0][0]:
            k = next((i for i in range(len(M)) if M[i][i]), None)
            if k is not None:
                _swap(M, scales, lows, 0, k)
            else:
                r = len(M)
                pair = next(((i, j) for i in range(r) for j in range(i + 1, r)
                             if M[i][j] and M[j][i]), None)
                if pair is None:
                    if any(map(any, M)):
                        raise ValueError("symmetric pivoting needs M[i][j] != 0 "
                                         "exactly when M[j][i] != 0")
                    values += [0] * r
                    offsets += [offset] * r
                    break
                _swap(M, scales, lows, 0, pair[0])
                _swap(M, scales, lows, 1, pair[1])
                prev = chain[-1]
                top0, top1 = (_rescaled(M[i], scales[i], chain) for i in (0, 1))
                b, c = top0[1], top1[0]
                p2 = prev * prev
                M, scales = _eliminate(M, scales, chain, 2, lambda row, i: [
                    (b * (row[0] * y - c * w) + c * row[1] * x) // p2 if x or y or w else 0
                    for x, y, w in zip(top0[2 + i:], top1[2 + i:], row[2 + i:])],
                    mirror_map(2, (x or y for x, y in zip(top0[2:], top1[2:])))
                    if mirror else None)
                chain.append(-b * c // prev)
                values += [0, chain[-1]]
                offsets += [offset + lows[0], offset + lows[0] + lows[1]]
                offset = offsets[-1]
                del lows[:2]
                continue
        prev = chain[-1]
        top = _rescaled(M[0], scales[0], chain)
        pivot = top[0]
        M, scales = _eliminate(M, scales, chain, 1, lambda row, i: [
            (a * pivot - row[0] * b) // prev if a or b else 0
            for a, b in zip(row[1 + i:], top[1 + i:])],
            mirror_map(1, top[1:]) if mirror else None)
        chain.append(pivot)
        values.append(pivot)
        offset += lows.pop(0)
        offsets.append(offset)
    found = Pivots(bits, tuple(values), tuple(offsets))
    if pivots:
        return found
    det = found.minor(len(values))
    return det if sign > 0 else -det


@functools.lru_cache(maxsize=64)
def _pencil(A: tuple[tuple[int, ...], ...]) -> Pivots:
    """The Pivots of the pencil t*A - A^T, eliminated once per matrix and memoised.

    Callers pass the immutable copy tuple(map(tuple, A)), so a matrix they
    mutate later is never answered from the memo.
    """
    n = _check_square(A)
    return det_laurent([[LaurentPoly({1: A[i][j], 0: -A[j][i]}) if A[i][j] or A[j][i] else 0
                         for j in range(n)] for i in range(n)], pivots=True)


def inertia_symmetric_exact(S: Sequence[Sequence[int]]) -> Inertia:
    """Exact inertia of a symmetric integer matrix.

    The symmetrically pivoted elimination of det_laurent gives the exact
    leading principal minors of P S P^T, a congruence of S.  It stops
    once the rest of the matrix is zero, so a trailing run of zero minors
    is that zero Schur complement and counts as n_zero; Jacobi's rule
    counts the minors before it.
    """
    n = _check_square(S)
    for i, row in enumerate(S):
        for j in range(i, n):
            if strict_int(row[j], "matrix entry") != S[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i},{j})")
    signs = [(v > 0) - (v < 0) for v in det_laurent(S, pivots=True).values]
    rank = n
    while rank and not signs[rank - 1]:
        rank -= 1
    n_plus, n_minus = _jacobi(signs[:rank])
    return Inertia(n_plus, n - rank, n_minus)


def signature(S: Sequence[Sequence[int]]) -> int:
    return inertia_symmetric_exact(S).signature


@functools.lru_cache(maxsize=128)
def _cyclotomic(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, lowest degree first.

    Phi_m = prod over d | m of (t^d - 1)^mu(m/d): multiply by the factors
    with mu = +1, then divide exactly by those with mu = -1.
    """
    primes, rest, p = [], m, 2
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        primes.append(rest)
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


def _folded(terms: Iterable[tuple[int, int]], m: int, k: int = 0) -> list[tuple[int, int]]:
    """sum c t^e over the (e, c) terms in Z[t]/(t^m - 1), as (exponent, nonzero c) pairs.

    Sparse: each exponent is taken modulo m into the window of m
    exponents e with -m <= 2e - k < m, within m/2 of k/2, and the pairs
    come lowest first.  Equal residues in Z[t]/(t^m - 1) fold to equal lists.
    """
    low = (k - m + 1) // 2
    folded: dict[int, int] = {}
    for e, c in terms:
        e = (e - low) % m + low
        folded[e] = folded.get(e, 0) + c
    return sorted((e, c) for e, c in folded.items() if c)


def _mod_cyclotomic(terms: list[tuple[int, int]], m: int) -> list[tuple[int, int]]:
    """sum c t^e over the (e, c) terms modulo Phi_m, as (exponent, nonzero c) pairs.

    Exponents fold into a dense array (t^m = 1 at an m-th root), then the
    remainder by the monic Phi_m is taken with exact integers.
    """
    folded = [0] * m
    for e, c in terms:
        folded[e % m] += c
    phi = _cyclotomic(m)
    d = len(phi) - 1
    lower = [(e, c) for e, c in enumerate(phi[:d]) if c]
    for top in range(m - 1, d - 1, -1):
        c = folded[top]
        if c:
            for e, a in lower:
                folded[top - d + e] -= c * a
    return [(e, c) for e, c in enumerate(folded[:d]) if c]


_U = 2.0 ** -53  # unit roundoff of a double

# The largest order at which _sign_at reduces modulo Phi_m: at most 0.2 s for
# any m <= 5000 (2-core x86-64, CPython 3.11); README "Refusals" gives the rest.
_MAX_REMAINDER_ORDER = 5000


def _angle_error(theta: float, k: int, terms: list[tuple[int, int]]) -> float:
    """Error bound of each computed angle theta*(e - k/2) - pi*k/2 at a float angle theta.

    A product below the normal range is off by up to 2^-1074, so a subnormal
    theta counts as 2^-1022.  Exponents past the float range give inf.
    """
    try:
        reach = max(abs(terms[0][0] - k / 2), abs(terms[-1][0] - k / 2))
    except OverflowError:
        return math.inf
    return 8 * _U * (max(abs(theta), 2.0 ** -1022) * reach + k + 1)


def _certified_sign(omega: UnitCirclePoint, k: int, terms: list[tuple[int, int]]) -> int:
    """Sign of ((1 - omega)/omega)^k * P(omega), or NearSingular.

    P is sum p_e t^e over the nonempty (e, p_e) terms, lowest first.  With
    omega = e^(i*theta), ((1 - omega)/omega)^k = (2 sin(theta/2))^k *
    e^(-i*k*(theta + pi)/2), so the real value has the sign of
    sin(theta/2)^k * sum_e p_e cos(phi_e), phi_e = theta*(e - k/2) - pi*k/2.
    At a float angle, _angle_error bounds the error err of each phi_e.  At
    a root j/m, sin(theta/2) >= 0, the terms are summed in Z[t]/(t^m - 1)
    first (_folded; empty means 0), and phi_e = pi * (N / (2m)) with
    N = 2j(2e - k) - km reduced modulo 4m into (-2m, 2m].  N / (2m) rounds
    correctly at any size, so phi_e is off by under 3.01u*|phi_e| + 2^-1072
    (the quotient may underflow); err = 8u(max|phi_e| + 1) is over twice that.
    A coefficient's conversion, the cosine (1-Lipschitz) and the product
    each round once, so a term is off by at most |p_e| * (err + 4u), and
    fsum rounds once more.  Integers past the float range are first divided
    by a power of two.  The sign counts, and proves the value nonzero, only
    when |sum| clears the bound.
    """
    if omega.is_rational:
        m, j, h = omega.m, omega.k, 2 * omega.m - 1
        pairs = [(c, math.pi * (((2 * j * (2 * e - k) - k * m + h) % (4 * m) - h) / (2 * m)))
                 for e, c in _folded(terms, m, k)]
        if not pairs:
            return 0
        err = 8 * _U * (max(abs(a) for _, a in pairs) + 1)
    else:
        theta = omega.theta
        err = _angle_error(theta, k, terms)
        pairs = [(c, theta * (e - k / 2) - math.pi / 2 * k if err < math.inf else math.nan)
                 for e, c in terms]
    scale = 1 << max(0, max(abs(c) for c, _ in pairs).bit_length() - 1000)
    scaled = [(c / scale, a) for c, a in pairs]
    value = math.fsum(c * math.cos(a) for c, a in scaled)
    bound = (err + 8 * _U) * math.fsum(abs(c) for c, _ in scaled)
    if not abs(value) > bound:
        why = ("an exponent is beyond the float range" if err == math.inf
               else f"|{value:.3g}| <= rounding-error bound {bound:.3g}")
        raise NearSingular(
            omega,
            f"form is near-singular at {omega}: the sign of "
            f"{f'leading minor D_{k}' if k else 'the polynomial'} is not certified ({why})",
            k, value, bound,
        )
    sign = 1 if value > 0 else -1
    return -sign if k % 2 and not omega.is_rational and math.sin(theta / 2) < 0 else sign


def _sign_at(omega: UnitCirclePoint, k: int, terms: list[tuple[int, int]]) -> int:
    """Exact sign (+1, -1, or 0 when P(omega) = 0) of ((1 - omega)/omega)^k * P(omega).

    P is sum p_e t^e over the (e, p_e) terms, lowest first.  k >= 1 gives
    the Hermitian minor D_k from the pencil's P_k; k = 0 the value of a P
    that is real on the circle, such as an Alexander polynomial.  One
    term c*t^e with 2e = k is decided with no float sum: its value is
    c*(-1)^(k/2)*(2 sin(theta/2))^k.  Every monomial leading minor of a
    pencil is one, because P_k(t) = (-1)^k t^k P_k(1/t); k = 0 covers
    constants.  Any other sign is the certified sum's.  Only where that
    does not clear, at a root of order m <= _MAX_REMAINDER_ORDER, are the
    terms reduced modulo Phi_m, a remainder empty exactly at 0.  Raises
    NearSingular when a nonzero sign is not certified, and always at a
    float angle when an exponent is beyond the float range.

    >>> _sign_at(UnitCirclePoint.root(1, 6), 0, [(-1, -1), (0, 1), (1, -1)])
    0
    """
    if not terms:
        return 0
    if len(terms) == 1 and 2 * terms[0][0] == k:
        return (1 if terms[0][1] > 0 else -1) * (-1 if k % 4 else 1)
    try:
        return _certified_sign(omega, k, terms)
    except NearSingular as exc:
        if not omega.is_rational:
            raise
        if omega.m > _MAX_REMAINDER_ORDER:
            why = f"{exc}; no remainder modulo Phi_m at order {omega.m} > {_MAX_REMAINDER_ORDER}"
            raise NearSingular(omega, why, k, exc.value, exc.bound) from None
    return _certified_sign(omega, k, _mod_cyclotomic(terms, omega.m))


def _jacobi(signs: Sequence[int]) -> tuple[int, int]:
    """(n_plus, n_minus) of a nonsingular form from the signs of D_1, ..., D_r.

    D_r != 0 and no two consecutive minors vanish.  By Jacobi's rule
    n_minus counts the sign changes in 1, D_1, ..., D_r; an isolated zero
    D_k, whose neighbours a Hermitian form forces to opposite signs, adds
    one to n_plus and one to n_minus (Gundelfinger).
    """
    n_plus = n_minus = k = 0
    last = 1
    while k < len(signs):
        if signs[k]:
            if signs[k] == last:
                n_plus += 1
            else:
                n_minus += 1
            last, k = signs[k], k + 1
            continue
        if signs[k + 1] == last:
            raise ArithmeticError(
                f"leading minors D_{k} and D_{k + 2} around the zero D_{k + 1} "
                "have the same sign, which no Hermitian form allows"
            )
        n_plus, n_minus, last, k = n_plus + 1, n_minus + 1, signs[k + 1], k + 2
    return n_plus, n_minus


def inertia_hermitian_at_root(A: Sequence[Sequence[int]], omega: UnitCirclePoint) -> Inertia:
    """Exact inertia of H(omega) = (1 - omega) A + (1 - conj(omega)) A^T.

    H(t) = ((1 - t)/t) (t*A - A^T), so the leading principal minors of H
    are D_k = ((1 - t)/t)^k P_k with P_k those of the pencil, read from its
    symmetrically pivoted elimination (a congruence, which keeps the
    inertia), and Jacobi's rule counts their signs.  Raises NearSingular
    (_zero_minors) when D_n(omega) = 0, where the form is singular, or
    when two consecutive minors vanish, and NearSingular when a sign is
    not certified; InvalidRoot at omega = 1 where H vanishes.
    """
    n = _check_square(A)
    if omega.is_one():
        raise InvalidRoot("the form vanishes identically at omega = 1")
    signs = [_sign_at(omega, k, terms)
             for k, terms in enumerate(_pencil(tuple(map(tuple, A))).terms, 1)]
    k = next((k for k in range(n) if not signs[k] and (k == n - 1 or not signs[k + 1])), None)
    if k is not None:
        raise _zero_minors(omega, k + 1, n, not signs[-1])
    n_plus, n_minus = _jacobi(signs)
    return Inertia(n_plus, 0, n_minus)


def int_matrix_from_json(doc: object) -> list[list[int]]:
    """Decode {"dim": n, "entries": [[...]]} with integer entries; any other key is refused."""
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ValueError('matrix JSON must be an object with "dim" and "entries"')
    strict_keys(doc, ("dim", "entries"), "the matrix")
    entries = doc["entries"]
    if not isinstance(entries, list) or any(not isinstance(r, list) for r in entries):
        raise ValueError('"entries" must be a list of rows')
    dim = strict_int(doc.get("dim", len(entries)), '"dim"')
    if dim != len(entries) or any(len(r) != dim for r in entries):
        raise ValueError(f'"entries" must be {dim}x{dim} to match "dim"')
    return [[strict_int(entry, "matrix entry") for entry in row] for row in entries]
