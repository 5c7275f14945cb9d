"""Exact determinants of Laurent-polynomial matrices and inertia of forms.

Determinants have one integer kernel, _kernel: Kronecker substitution
t = 2^b and fraction-free (Bareiss) elimination over the integers on
sparse rows, each caller's checked input packed once at a width of b bits
fixed before the first step.  det_laurent's coefficient dicts take the
Hadamard width, and _kernel reads the determinant from the last pivot's
balanced base-2^b digits; an integer form's pivots, at the same width, are
its exact leading minors; a Seifert pencil takes half.  A row that a
step does not read keeps the scale (pivot s, for the s pivots taken then)
it was stored at, and is rescaled, stored * prev // pivot s, when a step
reads it.  A pivot that carries a power of t, t^v times a cofactor, is
u * 2^s at t = 2^b, s = bv.  A step whose pivot or prev carries one writes
x * pivot as (x * u) << s and an exact N // prev as (N >> s) // u:
N = prev * q is a multiple of 2^s, so the shift drops only zero bits and
leaves u * q.  Both are integer identities, so every value is the plain
formula's, and the shifts take time linear in the size.  The Seifert
pencil M = t*A - A^T is eliminated once and memoised for the matrices A
used last within a budget (_pencil.held, queried without computing); with
symmetric pivoting its Bareiss pivots are its leading principal minors,
which give both the determinant and, by Jacobi's sign rule, the exact
inertia of the Hermitian form H(omega) at every unit-circle point, -1
included, where inertia_hermitian_at_root gives the classical signature
sigma(A + A^T): there it reads a pencil only if the memo holds it, and
else eliminates the form A + A^T.  For every A the pencil's principal
minors are palindromic, P(t) = +-t^d P(1/t), so every pencil is
packed at half the Hadamard width and its Pivots are read back from both
ends.  A pencil wider than _NARROW_BITS whose A holds more than two
nonzero entries per row is first eliminated at two or more narrow points
that spend the same Hadamard budget, as its arithmetic grows faster than
the width; their answer is kept only where every point took the same path
and read the same minors, and else the one half-width point answers
(_pencil gives the tests and the proofs).  Signs at other points of the
circle are circle's.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from itertools import compress

from . import circle, laurent
from ._record import Record
from .errors import even_dimension, strict_matrix, unit_determinant


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


class Pivots(Record):
    """A symmetric elimination's Bareiss pivots at t = 2^bits, each a leading minor of P M P^T.

    values[k-1] is the k-th pivot, the polynomial P_k / t^lows[k-1]
    evaluated at 2^bits, and bits is the elimination's one width.  For a
    Seifert pencil (_pencil) that is half its Hadamard width, the
    coefficients lie below 2^(2*bits-2), and terms and minor(k) read them
    from both ends; or, for a pencil split over narrow points, the first
    point's narrower width, with terms already read and checked against
    every point.  bits and values depend on the width, minor(k) and terms
    do not.  An integer form's values are its exact leading minors
    themselves, and _form_pivots returns only them.
    """

    bits: int
    values: tuple[int, ...]
    lows: tuple[int, ...]

    @functools.cached_property
    def terms(self) -> list[list[tuple[int, int]]]:
        """P_k as (exponent, nonzero coefficient) pairs, lowest first, k = 1..n."""
        return [self._read(k) for k in range(1, len(self.lows) + 1)]

    def _read(self, k: int) -> list[tuple[int, int]]:
        """A pencil's P_k as (exponent, nonzero coefficient) pairs, lowest first.

        Q = P_k / t^lows[k-1] has degree d = k - 2*lows[k-1] and
        coefficients c_i = s*c_(d-i), s = (-1)^k, so exponent e of P_k
        mirrors to k - e, and Q is read from both ends.  Q's value V at
        T = 2^bits gives the outer coefficient c_0 modulo T, and
        s*round(V / T^d) within T/4 + 1 of it, as |c_i| < T^2/4; the two
        fix it.  Then
        (V - c_0*(1 + s*T^d)) / T is the value of the inner coefficients.

        A run of zero outer pairs is dropped with one shift.  If the low j
        digits of V != 0 are 0 and |V| < T^(d-j+1)/2, then T^j <= |V| gives
        2j <= d, and at each step i < j the value is V_i = V / T^i, its low
        digit is 0, and |V_i| < T^(d-j+1-i)/2 <= T^(d-2i)/2, so its top
        rounds to 0: the step reads c_i = 0 and leaves V_i / T.  The j steps
        thus leave V / T^j and d - 2j >= 0, and read only zeros.
        """
        value, bits, i = self.values[k - 1], self.bits, self.lows[k - 1]
        half, mask = 1 << (bits - 1), (1 << bits) - 1
        out: list[tuple[int, int]] = []
        start, d, s = i, k - 2 * i, -1 if k % 2 else 1
        while value and d > 0:
            low = value & mask
            if not low:
                j = ((value & -value).bit_length() - 1) // bits
                if abs(value).bit_length() < bits * (d - j + 1):  # |V| < T^(d-j+1)/2
                    value >>= bits * j
                    i, d = i + j, d - 2 * j
                    continue
            top = (value + (1 << bits * d - 1)) >> bits * d
            c = low - ((low - s * top + half) >> bits << bits)
            if c:
                out.append((i, c))
            value = (value - c - (s * c << bits * d)) >> bits
            i, d = i + 1, d - 2
        if value and d < 0:
            raise ArithmeticError(f"pivot {k} is not a palindromic minor at width {bits}: "
                                  f"{value} is left after {i - start} outer coefficients")
        inner = [(i, value)] if d == 0 and value else []
        return out + inner + [(k - e, s * c) for e, c in reversed(out)]

    def minor(self, k: int) -> laurent.LaurentPoly:
        """P_k as a Laurent polynomial; P_0 = 1."""
        return laurent.LaurentPoly(dict(self._read(k))) if k else laurent.LaurentPoly({0: 1})


def _width(bound_sq: int) -> int:
    """The bits b whose balanced digits, inside +-2^(b-1), hold coefficients to sqrt(bound_sq)."""
    return (math.isqrt(bound_sq - 1) + 1).bit_length() + 1


class _Rows:
    """Sparse rows, column -> nonzero entry, packed at the elimination's one width, and the pivots.

    splits[k] is the k-th pivot (1 for k = 0) as u << s, s = v*bits for the
    largest v with 2^s | pivot, the t^v it carries ((0, 0) for a zero
    pivot).  Row r was stored once counts[r] pivots were taken, scaled to
    the last of them.
    """

    def __init__(self, rows: list[dict[int, int]], bits: int):
        self.rows = rows
        self.bits = bits
        self.pivots: list[int] = []
        self.splits: list[tuple[int, int]] = [(1, 0)]
        self.counts = [0] * len(rows)


def _rescaled(row: dict[int, int], split: tuple[int, int], v: int, z: int) -> dict[int, int]:
    """A row stored at the pivot u << s, split = (u, s), rescaled to prev = v << z."""
    u, s = split
    return ({j: ((x * v << z) >> s) // u for j, x in row.items()} if z or s else
            {j: x * v // u for j, x in row.items()})


def _eliminate(K: _Rows, columns: tuple[int, ...], rest: list[int], taken: list[int]) -> None:
    """One Bareiss step on the pivot columns of the rows taken; it stores its pivots and rows.

    A row of rest holding a pivot column is read, rescaled from the pivot
    it was stored at to prev if it is older (_rescaled, the one call a
    row can cost), and rewritten; any other is left as stored.  A step
    whose pivot or prev carries a power of t (_Rows.splits) applies it as
    a shift and the cofactor u, any other the plain formula: with s = 0
    the shift formula gives the same values but pays two no-op shifts per
    entry, about 5 % of a dense pencil's alexander and signature.
    """
    rows, counts, pivots, splits, bits = K.rows, K.counts, K.pivots, K.splits, K.bits
    n, done = len(pivots), len(pivots) + len(taken)
    prev, (v, z) = pivots[-1] if n else 1, splits[n]
    tops = []
    for r in taken:
        tops.append(rows[r] if counts[r] == n else _rescaled(rows[r], splits[counts[r]], v, z))
        rows[r], counts[r] = {}, done
    if len(taken) == 1:
        (pc,), (top,) = columns, tops
        pivot, hit = top[pc], [r for r in rest if pc in rows[r]]
        line = [(j, x) for j, x in top.items() if j != pc]
    else:  # a 2x2 block [[0, x], [y, 0]]: the 3x3 Sylvester determinants over prev^2
        (a, b), (top0, top1) = columns, tops
        x, y = top0[b], top1[a]
        pivot, v2, z2 = (-x * y >> z) // v, v * v, 2 * z
        hit = [r for r in rest if a in rows[r] or b in rows[r]]
    s = ((pivot & -pivot).bit_length() - 1) // bits * bits
    u = pivot >> s
    for r in hit:
        row = rows[r] if counts[r] == n else _rescaled(rows[r], splits[counts[r]], v, z)
        if len(taken) == 2:
            ra, rb = row.get(a, 0), row.get(b, 0)
            new = {j: w for j in (row.keys() | top0.keys() | top1.keys()) - {a, b}
                   if (w := ((x * (ra * top1.get(j, 0) - y * row.get(j, 0))
                              + y * rb * top0.get(j, 0)) >> z2) // v2)}
        elif s or z:  # loops, not comprehensions: a row holds a few entries
            c, get, new = row[pc], row.get, {}
            for j, y in row.items():
                if j not in top:
                    new[j] = ((y * u << s) >> z) // v
            for j, x in line:
                if y := (((get(j, 0) * u << s) - c * x) >> z) // v:
                    new[j] = y
        else:
            c, get, new = row[pc], row.get, {}
            for j, y in row.items():
                if j not in top:
                    new[j] = y * pivot // prev
            for j, x in line:
                if y := (get(j, 0) * pivot - c * x) // prev:
                    new[j] = y
        rows[r], counts[r] = new, done
    pivots += [0, pivot] if len(taken) == 2 else [pivot]
    splits += [(0, 0), (u, s)] if len(taken) == 2 else [(u, s)]


def _kernel(rows: list[dict[int, int]], lows: list[int], bits: int, pivots: bool,
            path: list[list[int]] | None = None) -> laurent.LaurentPoly | Pivots:
    """Bareiss on rows packed at t = 2^bits: row i maps column j to t^-lows[i] * a_ij at 2^bits.

    Each caller packs its own checked input at a width that holds what the
    read-back and the zero tests, which read stored entries, need.  With
    pivots=False it swaps rows and returns the determinant, read from the
    last pivot's balanced base-2^bits digits and shifted by the summed
    lows.  With pivots=True it pivots symmetrically and returns its
    Pivots: a zero pivot is
    exchanged, row and column together, for the first nonzero diagonal
    entry after it, else a 2x2 block [[0, b], [c, 0]] with b, c != 0 takes
    two steps at once (the 3x3 Sylvester determinants over prev^2).  Pivot
    k is the k-th leading principal minor of P M P^T; once the rest is
    zero, the remaining minors are 0.  Symmetric matrices and Seifert
    pencils have M[i][j] != 0 exactly when M[j][i] != 0, so a block exists
    while the rest is nonzero; a ValueError reports a matrix without that
    symmetry.  A list given as path receives the rows each step takes, in
    order.
    """
    K = _Rows(rows, bits)
    order = list(range(len(rows)))  # rows left, in pivoting order; column = row label
    sign, offset, offsets = 1, 0, []  # offsets: the pivots' shifts summed

    while order:
        first = order[0]
        if not pivots and len(K.pivots) not in K.rows[first]:
            k = next((i for i, r in enumerate(order) if len(K.pivots) in K.rows[r]), None)
            if k is None:
                return laurent.LaurentPoly()
            order[0], order[k], sign = order[k], first, -sign
        elif pivots and first not in K.rows[first]:  # a nonzero diagonal, else a 2x2 block
            r = len(order)
            swaps = next(((i,) for i, s in enumerate(order) if s in K.rows[s]), None) or next(
                ((i, j) for i in range(r) for j in range(i + 1, r)
                 if order[j] in K.rows[order[i]] and order[i] in K.rows[order[j]]), None)
            if swaps is None:
                if any(K.rows[i] for i in order):
                    raise ValueError("symmetric pivoting needs M[i][j] != 0 "
                                     "exactly when M[j][i] != 0")
                K.pivots += [0] * r
                K.splits += [(0, 0)] * r
                offsets += [offset] * r
                break
            for i, j in enumerate(swaps):
                order[i], order[j] = order[j], order[i]
        taken = order[:2] if pivots and order[0] not in K.rows[order[0]] else order[:1]
        rest = order[len(taken):]
        if path is not None:
            path.append(taken)
        _eliminate(K, tuple(taken) if pivots else (len(K.pivots),), rest, taken)
        for r in taken:
            offset += lows[r]
            offsets.append(offset)
        order = rest
    if pivots:
        return Pivots(bits, tuple(K.pivots), tuple(offsets))
    value, half, mask, coeffs = K.pivots[-1] if K.pivots else 1, 1 << bits - 1, (1 << bits) - 1, {}
    while value:  # LaurentPoly drops the zero digits
        coeffs[offset] = sign * (digit := ((value + half) & mask) - half)
        value, offset = (value - digit) >> bits, offset + 1
    return laurent.LaurentPoly(coeffs)


def _bareiss(entries: list[dict]) -> laurent.LaurentPoly:
    """det_laurent's determinant of sparse rows of ints and coefficient dicts, packed for _kernel.

    Every entry the elimination writes is a minor of the row-shifted
    matrix, so by Hadamard, by rows or by columns, at most H, the smaller
    of the product of the row norms sqrt(sum_j ||a_ij||_1^2) and that of
    the nonzero column norms sqrt(sum_i ||a_ij||_1^2) (|a_ij| <= ||a_ij||_1
    on the unit circle, and a shift keeps |a_ij|), as are its coefficients
    (Parseval).  Each row is shifted by its lowest exponent and packed at
    the least width in bits whose balanced digits hold H, which _kernel
    reads back from the last pivot.
    """
    lows, rows_sq, cols = [], 1, {}
    for row in entries:
        if not row:
            return laurent.LaurentPoly()
        lows.append(min(x for e in row.values() for x in ((0,) if e.__class__ is int else e)))
        norm = 0
        for j, e in row.items():
            x = e * e if e.__class__ is int else sum(map(abs, e.values())) ** 2
            norm += x
            cols[j] = cols.get(j, 0) + x
        rows_sq *= norm
    bits = _width(min(rows_sq, math.prod(cols.values())))
    return _kernel([{j: e << bits * -low if e.__class__ is int else
                     sum(c << bits * (x - low) for x, c in e.items()) for j, e in row.items()}
                    for row, low in zip(entries, lows)], lows, bits, False)


def det_laurent(rows: Sequence[Sequence[laurent.LaurentPoly | int]]) -> laurent.LaurentPoly:
    """Exact determinant of a square matrix of ints and LaurentPolys; the 0x0 one is 1.

    Bareiss elimination with row swaps on sparse rows at one Kronecker
    width (_bareiss).  An entry that is neither an int (a bool is not one)
    nor a LaurentPoly is refused with a ValueError that names it.
    """
    if bad := [len(row) for row in rows if len(row) != len(rows)]:
        raise ValueError(f"matrix must be square, got a row of length {bad[0]} in dim {len(rows)}")
    return _bareiss([{j: c for j, e in enumerate(row) if (c := _entry(e))} for row in rows])


def _entry(e: object) -> dict[int, int] | int:
    """A det_laurent entry as _bareiss reads it: an int, or a LaurentPoly's coefficients."""
    if isinstance(e, laurent.LaurentPoly):
        return e._coeffs
    if e.__class__ is int:
        return e
    raise ValueError(f"a matrix entry must be an int or a LaurentPoly, got {e!r}")


# The most bits the pencil memo holds, unless its newest pencil alone is larger: a pencil counts
# the bit lengths of its values plus 64 bits for each value (_memoised)
_MEMO_BITS = 2**23


def _memoised(eliminate):
    """eliminate, memoised for the keys used last, while their pencils fit _MEMO_BITS.

    The memo is the dict .held, oldest first, so a caller can look a key
    up (.held.get) without computing anything.  A key's size, the bit
    lengths of its Pivots' values plus 64 bits per value, is recorded once,
    when it is eliminated; a hit moves its key to the newest place.  After
    each call the oldest keys are dropped while the held sizes sum past
    _MEMO_BITS, but the newest key is always kept, so a caller alternating
    two matrices whose pencils fit together eliminates each once.
    .cache_clear empties the memo, and .__wrapped__ is eliminate itself,
    which fills no memo.
    """
    held, sizes, total = {}, {}, 0

    @functools.wraps(eliminate)
    def memo(key):
        nonlocal total
        if (found := held.pop(key, None)) is None:
            found = eliminate(key)
            sizes[key] = sum(value.bit_length() + 64 for value in found.values)
            total += sizes[key]
        held[key] = found
        while total > _MEMO_BITS and len(held) > 1:
            oldest = next(iter(held))
            del held[oldest]
            total -= sizes.pop(oldest)
        return found

    def cache_clear():
        nonlocal total
        held.clear()
        sizes.clear()
        total = 0

    memo.held, memo.cache_clear = held, cache_clear
    return memo


# The widest half width, in bits, at which a pencil is eliminated at one point; a wider one is
# first split over narrow points (_pencil)
_NARROW_BITS = 56


@_memoised
def _pencil(A: tuple[tuple[int, ...], ...]) -> Pivots:
    """The Pivots of the pencil t*A - A^T, memoised for the matrices used last (_memoised).

    Callers pass the immutable key strict_matrix(A, "matrix"), so a matrix
    they mutate later is never answered from the memo, and a caller may
    look the key up in _pencil.held to use the pivots only if they are
    held, as inertia_hermitian_at_root does at -1.  No LaurentPoly is
    built: one pass over A gives each row i its support, Hadamard factor
    alpha_i + 2|sum_j a_ij*a_ji| with alpha_i = sum_j (a_ij^2 + a_ji^2), and
    low (1 if column i of A is zero and row i is not), and entry (i, j) is
    packed as ((a_ij << bits) - a_ji) >> bits*low.  On the unit circle
    |a_ij*w - a_ji|^2 = a_ij^2 + a_ji^2 - 2*a_ij*a_ji*cos(theta), so the
    factor bounds row i's squared norm there, and H^2, the product of the
    factors, bounds every minor R's |R(w)|^2 (Hadamard), and so ||R||_2^2
    (Parseval).

    Half width.  M = t*A - A^T satisfies M(t)^T = -t * M(1/t) for every A,
    so every pencil is packed at b = _width(isqrt(H^2) + 1) bits, with
    T = 2^b > 2 sqrt(H), about half the bits of H.  A principal minor R of
    M satisfies R(t) = +-t^d R(1/t), and so does each row-shifted one.  If
    such an integer polynomial R != 0 had R(T) = 0, then R(1/T) = 0 too, so
    (t - T)(T*t - 1) would divide R (Gauss's lemma), and
    ||R||_2 >= M(R) >= T^2 (Landau's inequality, Mahler's measure) would
    exceed H >= ||R||_2.  So at T:
      - a diagonal Schur entry, a principal minor, is zero only if it is
        zero as a polynomial, and so is a pivot;
      - where the diagonal is zero, Schur entry (i, j) != 0 forces
        (j, i) != 0, as their 2x2 block's minor is principal and nonzero
        (the symmetry makes (j, i) t^(p+1) times (i, j) at 1/t, up to
        sign);
    and the pivots taken are those of the polynomials.  Off-diagonal
    entries are exact values at T but never read back.  Pivots._read
    reads pivot k from both ends: its coefficients are palindromic up to
    the sign (-1)^k and below H < T^2/4, so the value modulo T and the
    rounded top digits fix each outer pair.

    Narrow points.  Where the Schur complements fill in, the arithmetic
    grows faster than linearly in the width.  So where b > _NARROW_BITS and
    A holds more than two nonzero entries per row on average, the pencil
    is first eliminated at j = ceil(b / _NARROW_BITS) narrow points
    T_i = 2^(b_i), j consecutive b_i from ceil(floor((L + 5)/4) / j) up, L
    the bit length of H^2: they sum to at least (L + 2)/4, so
    prod T_i^4 > 4H^2, i.e. prod T_i^2 > 2H.  A sparser A, such as
    an_family's, fills in little: its steps cost about linearly in the
    width, and j points would only repeat their per-step work.  The narrow
    answer, the first point's Pivots with its terms, is kept only if every
    point took the same rows at each step (and so left the same trailing
    zeros), read the same (exponent, coefficient) pairs for every P_k and
    raised nothing, and if sum c^2 <= H^2 over the first point's pairs of
    every P_k, which is checked before the next point runs.  Then with Q_k
    the minor and R_k its pairs, Q_k - R_k is palindromic and vanishes at
    every T_i, as a read is exact (R_k(T_i) is the value), so at every
    1/T_i too, and prod (t - T_i)(T_i*t - 1) divides it:
    ||Q_k - R_k||_2 >= prod T_i^2 > 2H >= ||Q_k||_2 + ||R_k||_2 unless
    Q_k = R_k.  Each zero test the path made is a principal minor S that
    vanished at every T_i: a skipped diagonal, a 2x2 block's
    -E_ab*E_ba/prev, or, at the trailing zeros, those of the rest.  As
    ||S||_2 <= H, S = 0 by the same argument, so the path is that of the
    polynomials.  Any disagreement, and a ValueError or
    ArithmeticError at a narrow point, breaks out to the one point at b.
    Each point packs fresh rows (_packed), as _kernel rewrites them.
    """
    every = range(len(A))
    ts = [[*compress(every, row)] for row in A]  # row i's t side: the j with a_ij != 0
    cs = [{} for _ in every]  # row i's constant side, j -> -a_ji
    alphas, cross = [0] * len(A), [0] * len(A)
    for i, (row, js) in enumerate(zip(A, ts)):
        for j in js:
            cs[j][i] = -(a := row[j])
            alphas[i] += a * a
            alphas[j] += a * a
            cross[i] += a * A[j][i]
    bound = math.prod(alpha + 2 * abs(x) or 1 for alpha, x in zip(alphas, cross))
    lows = [0 if c or not js else 1 for js, c in zip(ts, cs)]
    if (bits := _width(math.isqrt(bound) + 1)) > _NARROW_BITS and sum(map(len, ts)) > 2 * len(A):
        count = -(-bits // _NARROW_BITS)
        base = -(-((bound.bit_length() + 5) // 4) // count)
        first = path = None
        for width in range(base, base + count):
            taken: list[list[int]] = []
            try:
                found = _kernel(_packed(A, ts, cs, lows, width), lows, width, True, taken)
                terms = found.terms
            except (ValueError, ArithmeticError):
                break
            if first is None:
                if any(sum(c * c for _, c in pairs) > bound for pairs in terms):
                    break
                first, path = found, taken
            elif taken != path or terms != first.terms:
                break
        else:
            return first
    return _kernel(_packed(A, ts, cs, lows, bits), lows, bits, True)


def _packed(A: tuple[tuple[int, ...], ...], ts: list[list[int]], cs: list[dict[int, int]],
            lows: list[int], bits: int) -> list[dict[int, int]]:
    """Fresh copies of the constant sides cs, with entry (i, j) packed at t = 2^bits.

    Entry (i, j) becomes ((a_ij << bits) - a_ji) >> bits*lows[i], for the
    j in row i's t side ts[i]; the others keep -a_ji.
    """
    rows = [c.copy() for c in cs]
    for row, js, c, packed, low in zip(A, ts, cs, rows, lows):
        for j in js:
            packed[j] = (row[j] << bits - bits * low) + c.get(j, 0)
    return rows


def knot_rule(A: Sequence[Sequence[int]]) -> None:
    """Refuse a checked matrix A that is no knot's Seifert matrix, before any pencil is built.

    A knot's Seifert matrix has an even dimension (even_dimension) and
    det(A - A^T) = 1 (unit_determinant).  A - A^T is skew, so its sparse
    rows have a symmetric pattern, and their last _form_pivots pivot is
    det(A - A^T) exactly: a trailing zero pivot, where the rest is zero,
    is a zero determinant.  The CLI's Seifert commands call this; the
    library's alexander checks Delta(1) = det(A - A^T) after its pencil.
    """
    even_dimension(len(A))
    rows = [{j: x for j, (a, b) in enumerate(zip(row, col)) if (x := a - b)}
            for row, col in zip(A, zip(*A))]
    unit_determinant(_form_pivots(rows)[-1] if rows else 1)


def inertia_symmetric_exact(S: Sequence[Sequence[int]]) -> Inertia:
    """Exact inertia of a symmetric integer matrix (_form_inertia)."""
    S = strict_matrix(S, "matrix", symmetric=True)
    return _form_inertia([{j: x for j, x in enumerate(row) if x} for row in S])


def _form_pivots(rows: list[dict[int, int]]) -> tuple[int, ...]:
    """The integer pivots of a form's checked sparse rows, its exact leading minors (_kernel).

    No width enters them; at the full Hadamard width no pivot carries a
    power of 2^bits, so every step takes the plain formula.
    """
    bits = _width(math.prod(max(1, sum(x * x for x in row.values())) for row in rows))
    return _kernel(rows, [0] * len(rows), bits, True).values


def _form_inertia(rows: list[dict[int, int]]) -> Inertia:
    """Exact inertia of a symmetric integer form given as checked sparse rows, column -> entry.

    _form_pivots gives the exact leading principal minors of P S P^T, a
    congruence of S, as its integer pivots, and stops once the rest is
    zero, so a trailing run of zero minors is that zero Schur complement
    and counts as n_zero; Jacobi's rule counts the minors before it.
    """
    signs = [(v > 0) - (v < 0) for v in _form_pivots(rows)]
    n = rank = len(rows)
    while rank and not signs[rank - 1]:
        rank -= 1
    return _jacobi(signs[:rank], n - rank)


def _blocked(signs: Sequence[int]) -> int | None:
    """The first k where Jacobi's rule cannot count: D_k = 0, and k is last or D_(k+1) = 0."""
    n = len(signs)
    return next((k for k in range(1, n + 1) if not signs[k - 1] and (k == n or not signs[k])), None)


def _jacobi(signs: Sequence[int], n_zero: int = 0) -> Inertia:
    """The Inertia of a form from the signs of D_1, ..., D_r and the nullity n_zero it adds.

    D_r != 0 and no two consecutive minors vanish (_blocked).  By Jacobi's rule
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
    return Inertia(n_plus, n_zero, n_minus)


def inertia_hermitian_at_root(A: Sequence[Sequence[int]],
                              omega: laurent.UnitCirclePoint) -> Inertia:
    """Exact inertia of H(omega) = (1 - omega) A + (1 - conj(omega)) A^T.

    H(t) = ((1 - t)/t) (t*A - A^T), so the leading principal minors of H
    are D_k = ((1 - t)/t)^k P_k with P_k those of the pencil, read from its
    symmetrically pivoted elimination (a congruence, which keeps the
    inertia), and Jacobi's rule counts their circle._sign_at signs.  At
    omega = -1, H = 2(A + A^T): a pencil the memo does not hold is not
    built, as it costs about three times the form, and where none is held
    or its signs cannot count (_blocked), the form A + A^T is eliminated,
    n_zero included.  Elsewhere raises NearSingular (circle._zero_minors)
    when D_n(omega) = 0, where the form is singular, or when two
    consecutive minors vanish, and NearSingular when a sign is not
    certified; InvalidRoot at omega = 1 where H vanishes.
    """
    key = strict_matrix(A, "matrix")
    if omega.is_one():
        raise circle.InvalidRoot()
    minus_one = omega.is_rational and omega.m == 2
    pivots = _pencil.held.get(key) if minus_one else _pencil(key)
    if pivots is not None:
        signs = [circle._sign_at(omega, k, terms) for k, terms in enumerate(pivots.terms, 1)]
        if (k := _blocked(signs)) is None:
            return _jacobi(signs)
        if not minus_one:
            raise circle._zero_minors(omega, k, len(key), not signs[-1])
    every = range(len(key))
    return _form_inertia([{j: x for j in {*compress(every, row), *compress(every, col)}
                           if (x := row[j] + col[j])} for row, col in zip(key, zip(*key))])
