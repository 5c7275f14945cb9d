"""Complexity-lower-bound certificates for retraced satellite knots.

A certificate for framing n and target complexity c records the knot
term (bar(Q*)_n)^c o Q^c built from the base pattern Q of the twisted
family, a witness root of unity where the half-Levine-Tristram
signature separates Q from Q_n, and the resulting bound
c * |I(Q) - I(Q_n)| >= c.

The signature of the twisted family is one sign, 2 where Delta_n < 0 and
0 where Delta_n > 0 (a_family_profile proves it).  At a root k/m that
sign is one float value with a certified error bound (_delta_sign), which
circle._sign_at decides only inside that bound.  So certify builds no
matrix, and its cost does not grow with n.

The witness search tries prime-order roots in increasing (p, k) order,
one closed-form value each: there sigma != 0 exactly where Delta_(1+n) < 0.
The first such root where Delta_(1+n) is also negative at its neighbours on
a 720-point grid is the witness; when no root passes that grid rule, the
first such root is.  Every sign is exact, so results are deterministic and
replayable.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

from . import circle, seifert
from ._record import Record
from .errors import DomainError, brief, strict_int
from .laurent import UnitCirclePoint
from .patterns import Atom, Profile, eval_invariant, render_term, retrace_term

DEFAULT_MAX_ORDER = 60
WITNESS_GRID = 720
INVARIANT_NAME = "half-LT-signature"


class WitnessNotFound(DomainError, LookupError):
    """No prime-order root of order <= max_order has sigma(Q_n, omega) != 0."""

    def __init__(self, n: int, max_order: int, tried: int):
        self.n, self.max_order, self.tried = n, max_order, tried
        super().__init__(
            f"no prime-order witness root of order <= {max_order} for n = {brief(n, 50)}: "
            f"Delta_{brief(1 + n, 50)} "
            f"is positive, so the LT signature is 0, at all {tried} prime-order roots tried"
        )


def a_family_profile(omega: UnitCirclePoint) -> Profile:
    """Invariant profile iota(k) = I(Q_k) for the base pattern Q: [Delta_(1+k)(omega) < 0].

    I is the half-Levine-Tristram signature sigma(., omega)/2, which bounds
    the 4-genus directly.  Q_k is the (1+k)-th family member, so the
    profile is declared on k >= 0 only; anything else raises DomainError.
    sigma(Q_k, omega) is 2 where Delta_(1+k)(omega) < 0 and 0 where it is
    positive, so no matrix is built, and at a root k/m iota(k) reads one
    certified value (_delta_sign) and costs the same for every k.  Each
    value is computed once per profile and kept.

    Proof sketch, for n = 1 + k and A = seifert.an_family(n): past the 4x4
    corner the pencil t*A - A^T is tridiagonal with a zero diagonal, so its
    leading minors are P_1 = t - 1, P_2j = t^j,
    P_2j+1 = t^(j-1)(1 - 2t + 2t^2 - t^3) below dim = 2n+2, and
    P_dim = t^(n+1) * Delta_n.  The Hermitian minors
    D_k = ((1 - omega)/omega)^k P_k(omega) then have the signs D_1 > 0,
    (-1)^j for D_2j, (-1)^j * s for D_2j+1 with s = sign(1 - 2cos(theta)),
    and (-1)^(n+1) * sign(Delta_n) for D_dim.  Since
    Delta_n = (t + 1/t - 1) + (2 - t - 1/t)(2 - t^n - 1/t^n), on the circle
    Delta_n(omega) = 2cos(theta) - 1 + |1 - omega|^2 |1 - omega^n|^2,
    which is >= 2cos(theta) - 1.  So where Delta_n < 0, s = +1 and Jacobi's
    rule counts n sign changes: sigma = 2.  Where Delta_n > 0 and s = +1 it
    counts n + 1: sigma = 0.  Where s = -1, on the arc |theta| < pi/3,
    Delta_n > 0 keeps the form nonsingular but at omega = 1, so sigma keeps
    its value next to 1, which is 0 for every knot.  s = 0 only at the
    primitive sixth roots, where Delta_n = |1 - omega^n|^2 >= 0: sigma = 0
    by Gundelfinger's rule, or D_(dim-1) = D_dim = 0 when 6 | n.  At a root
    of unity these are Delta_n's only zeros (the conjugate argument in
    README "Refusals"), and at a float angle circle._sign_at certifies its
    sign or refuses.  So where Delta_n(omega) = 0 this raises circle's
    NearSingular at D_(dim-1) (_zero_minors), as the general kernel does,
    and InvalidRoot at omega = 1.
    """
    values: dict[int, int] = {}

    def profile(k: int) -> int:
        if k not in values:
            if k < 0:
                raise DomainError(f"the twisted family declares iota on k >= 0, got {k}")
            if omega.is_one():
                raise circle.InvalidRoot()
            n = 1 + k
            if omega.is_rational:
                delta = _delta_sign(n, omega.k, omega.m)
            else:
                delta = circle._sign_at(omega, 0, sorted(seifert.delta_n_closed(n).coeffs.items()))
            if delta == 0:
                raise circle._zero_minors(omega, 2 * n + 1, 2 * n + 2, True)
            values[k] = 0 if delta > 0 else 1
        return values[k]

    return profile


# The least |value| whose sign _delta_sign counts: twice the error bound its docstring derives,
# in units of u = 2^-53, the unit roundoff of a double
_DELTA_BOUND = 640 * 2.0**-53


def _delta_sign(n: int, k: int, m: int) -> int:
    """Exact sign (+1, -1, or 0) of Delta_n at the root e^(2*pi*i*k/m), m >= 1.

    Delta_n(e^(i*theta)) = 4(x - 1)cos(n*theta) + 3 - 2x with x = cos(theta),
    since t^(n+1) + t^(n-1) + their inverses give 4x*cos(n*theta).  Both
    phases are reduced in integers first, theta to 2*pi*r/m with r = k mod m
    and n*theta to 2*pi*(n*k mod m)/m, so either is a phase q in [0, 1)
    turns.  As in circle._certified_sign, q = r/m rounds correctly at any
    size (an underflow is off by under 2^-1075) and tau*q rounds twice more,
    so the angle is off by under 3.01u * 2*pi + 2^-1072 < 18.95u, u = 2^-53; the
    cosine is 1-Lipschitz and rounds once, so x and c = cos(n*theta) are each
    off by under 20u.  |dv/dx| = |4cos(n*theta) - 2| <= 6 and |dv/dc| = 4|x - 1|
    <= 8, so those errors move v by under 280u (their product term is under
    1600u^2).  Evaluating v rounds four times, each by at most u times the
    size of its result: x - 1 (<= 2, and times 4|c| <= 4 after), the product
    (<= 8), + 3 (<= 11) and - 2x (<= 13), under 40u more.  So v is within
    320u of Delta_n, and _DELTA_BOUND is twice that, which also covers a libm
    cosine off by a full ulp.  Only a value past that bound counts; any other
    goes to circle._sign_at on delta_n_closed(n), which decides an exact zero.
    At a root of unity Delta_n vanishes only at the primitive sixth roots
    (the conjugate argument in README "Refusals"), where x = 1/2 and
    Delta_n = 2 - 2cos(n*pi/3), so when 6 | n.
    """
    x = math.cos(math.tau * (k % m / m))
    v = 4 * (x - 1) * math.cos(math.tau * (n * k % m / m)) + 3 - 2 * x
    if v > _DELTA_BOUND:
        return 1
    if v < -_DELTA_BOUND:
        return -1
    return circle._sign_at(UnitCirclePoint.root(k, m), 0,
                           sorted(seifert.delta_n_closed(n).coeffs.items()))


def _primes() -> Iterator[int]:
    """2, 3, 5, 7, ... with no upper bound, by trial division, in O(1) memory."""
    yield 2
    for c in itertools.count(3, 2):
        if all(c % d for d in range(3, math.isqrt(c) + 1, 2)):
            yield c


def _grid_points(k: int, p: int) -> tuple[int, ...]:
    """Grid points k/p is read against: j = ceil(720k/p), and j - 1 (mod 720) unless p is
    2 or 5.  The third roots keep j - 1: the float reading gave 1/3 points 239 and 240."""
    j = -(-WITNESS_GRID * k // p)
    return (j,) if p in (2, 5) else (j - 1, j % WITNESS_GRID)


def find_witness_root(n: int, max_order: int = DEFAULT_MAX_ORDER) -> UnitCirclePoint:
    """First prime-order root of unity where sigma(Q_n, omega) != 0 by the witness rule.

    Roots k/p are tried for primes p <= max_order (any int >= 2) in increasing
    (p, k) order.  The grid rule picks the first root with Delta = Delta_{1+n}
    negative at omega and at _grid_points(k, p) on the WITNESS_GRID-point grid,
    each one exact sign from the closed form (_delta_sign: one certified
    value, and circle._sign_at only inside its error bound).  Roots are
    passed as (k, p) and (i, WITNESS_GRID) int pairs, and only the witness
    becomes a UnitCirclePoint.  When no root passes it, the exact rule takes
    the first root with Delta(omega) < 0.  Odd twisting always
    yields omega = -1 first.

    Once an exact-rule root is held after as many roots as the grid has
    points (at most doubling the cost; by then p > 5, so each later root
    reads two adjacent grid points), the grid signs are taken once; if no
    two adjacent ones are negative, no later root can pass and the search
    stops.  Raises DomainError for n < 1 or max_order < 2, ValueError for an n
    or max_order that is not an int (bools and floats too), and WitnessNotFound
    if no root qualifies.
    """
    strict_int(n, "framing n")
    strict_int(max_order, "max_order")
    if n < 1:
        raise DomainError(f"witness search is defined for n >= 1, got {n}")
    if max_order < 2:
        raise DomainError(f"max_order {brief(max_order)} is under the lower bound of 2, "
                          "the least prime order, so no root would be tried")
    N = 1 + n

    def negative(k: int, m: int) -> bool:
        return _delta_sign(N, k, m) < 0

    tried, exact, stop = 0, None, None
    for p in itertools.takewhile(lambda p: p <= max_order, _primes()):
        if exact is not None and tried >= WITNESS_GRID and stop is None:
            grid = [negative(i, WITNESS_GRID) for i in range(WITNESS_GRID)]
            stop = not any(a and b for a, b in zip(grid, grid[1:] + grid[:1]))
        if stop:
            break
        for k in range(1, p):
            tried += 1
            # Delta(omega) != 0 at a root of prime order p, since Phi_p would
            # divide t^(n+1) * Delta and Phi_p(1) = p cannot divide Delta(1) = 1,
            # so sigma != 0 exactly where Delta(omega) < 0 (a_family_profile).
            if not negative(k, p):
                continue
            if all(negative(i, WITNESS_GRID) for i in _grid_points(k, p)):
                return UnitCirclePoint.root(k, p)
            if exact is None:
                exact = (k, p)
    if exact is None:
        raise WitnessNotFound(n, max_order, tried)
    return UnitCirclePoint.root(*exact)


class ComplexityCertificate(Record):
    n: int
    c: int
    witness: UnitCirclePoint
    invariant_name: str
    i_q: int
    i_qn: int
    bound: int
    term: str
    assumptions: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "c": self.c,
            "witness": {"k": self.witness.k, "m": self.witness.m},
            "invariant": self.invariant_name,
            "i_Q": self.i_q,
            "i_Qn": self.i_qn,
            "bound": self.bound,
            "term": self.term,
            "assumptions": list(self.assumptions),
        }


def certify_complexity(
    n: int,
    c: int,
    max_order: int = DEFAULT_MAX_ORDER,
) -> ComplexityCertificate:
    """Certificate that the framing-n, complexity-c knot has complexity >= c.

    I is the half-LT signature at the witness root: I(Q) from the base
    family member, I(Q_n) from the (1+|n|)-th.  The bound is
    cross-checked against an independent evaluation of the retrace term
    through the pattern calculus.  The profile computes each value once,
    so the cross-check reuses I(Q) and I(Q_n), and the retrace term
    normalizes to two runs of multiplicity c: the cross-check costs O(1)
    in c, and c may be any int >= 1.  n, c and max_order must be ints,
    never a bool or a float (ValueError; find_witness_root checks max_order).
    """
    strict_int(n, "framing n")
    strict_int(c, "complexity target c")
    if n == 0:
        raise DomainError("framing n must be nonzero")
    if c < 1:
        raise DomainError(f"complexity target must be >= 1, got {brief(c)}")
    a = abs(n)
    omega = find_witness_root(a, max_order=max_order)
    profile = a_family_profile(omega)
    i_q, i_qn = profile(0), profile(a)
    bound = c * abs(i_q - i_qn)
    term = retrace_term(Atom("Q"), a, c)
    cross = eval_invariant(term, {"Q": profile})
    if bound != abs(cross):
        raise ArithmeticError(f"pattern-calculus evaluation gives {cross}, not the bound {bound}")
    if bound < c:
        raise ArithmeticError(f"bound {bound} < c = {c}: a certificate needs |I(Q) - I(Q_n)| >= 1")
    assumptions = [
        "smooth shake-sliceness of the retraced knot comes from the trace "
        "diffeomorphism and is recorded, not verified",
        "Levine-Tristram 4-genus bounds are invoked at prime-order roots only",
    ]
    if n < 0:
        assumptions.append(
            f"framing {n} is certified through the mirrored construction at framing {a}"
        )
    return ComplexityCertificate(
        n=n,
        c=c,
        witness=omega,
        invariant_name=INVARIANT_NAME,
        i_q=i_q,
        i_qn=i_qn,
        bound=bound,
        term=render_term(term),
        assumptions=tuple(assumptions),
    )

