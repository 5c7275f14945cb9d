"""Complexity-lower-bound certificates for retraced satellite knots.

A certificate for framing n and target complexity c records the knot
term (bar(Q*)_n)^c o Q^c built from the base pattern Q of the twisted
family, a witness root of unity where the half-Levine-Tristram
signature separates Q from Q_n, and the resulting bound
c * |I(Q) - I(Q_n)| >= c.

The signature of the twisted family has a closed form: for its n-th
member A_n and omega = e^(i*theta) != 1, sigma(A_n, omega) = 0 where
Delta_n(omega) > 0 and 2 * sign(1 - 2cos(theta)) where Delta_n(omega) < 0;
where Delta_n(omega) = 0 the form is singular (NearSingular).  It follows
from the pencil's leading minors P_1 = t - 1, P_2j = t^j,
P_2j+1 = t^(j-1)(1 - 2t + 2t^2 - t^3) and P_(2n+2) = t^(n+1) * Delta_n by
Jacobi's rule (seifert._family_signature has the sketch).  So a
signature costs two exact signs, of Delta_n and of 1 - 2cos(theta), and
certify builds no matrix: its cost does not grow with n.

The witness search tries prime-order roots in increasing (p, k) order,
one exact sign each: there sigma != 0 exactly where Delta_(1+n) < 0.  The
first such root where Delta_(1+n) is also negative at its neighbours on a
720-point grid is the witness; when no root passes that grid rule, the
first such root is.  Every sign is exact, so results are deterministic and
replayable.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

from ._record import Record
from .errors import DomainError, strict_int
from .exactlinalg import _sign_at
from .laurent import UnitCirclePoint
from .patterns import Atom, Profile, eval_invariant, render_term, retrace_term
from .seifert import _family_signature, delta_n_closed

DEFAULT_MAX_ORDER = 60
MAX_ORDER = 10**9  # largest max_order the grid rule's 1e-12 test allows
WITNESS_GRID = 720
INVARIANT_NAME = "half-LT-signature"


class WitnessNotFound(LookupError):
    """No prime-order root of order <= max_order has sigma(Q_n, omega) != 0."""

    def __init__(self, n: int, max_order: int, tried: int):
        self.n, self.max_order, self.tried = n, max_order, tried
        super().__init__(
            f"no prime-order witness root of order <= {max_order} for n = {n}: Delta_{1 + n} "
            f"is positive, so the LT signature is 0, at all {tried} prime-order roots tried"
        )


def a_family_profile(omega: UnitCirclePoint) -> Profile:
    """Invariant profile iota(k) = I(Q_k) for the base pattern Q.

    I is the half-Levine-Tristram signature sigma(., omega)/2, which bounds
    the 4-genus directly.  Q_k is the (1+k)-th family member, so the
    profile is declared on k >= 0 only; anything else raises DomainError.
    sigma comes from the closed form: 0 where Delta_(1+k)(omega) > 0 and
    2 * sign(1 - 2cos(theta)) where Delta_(1+k)(omega) < 0, read off the
    pencil's leading minors by Jacobi's rule, so iota(k) costs the same
    for every k.  Where Delta_(1+k)(omega) = 0 it raises NearSingular, and
    InvalidRoot at omega = 1, as the general kernel does.  Each value is
    computed once per profile and kept.
    """
    values: dict[int, int] = {}

    def profile(k: int) -> int:
        if k not in values:
            if k < 0:
                raise DomainError(f"the twisted family declares iota on k >= 0, got {k}")
            sigma = _family_signature(1 + k, omega)
            if sigma % 2:
                raise ArithmeticError(f"{INVARIANT_NAME} needs an even signature, got {sigma}")
            values[k] = sigma // 2
        return values[k]

    return profile


def _primes() -> Iterator[int]:
    """2, 3, 5, 7, ... with no upper bound, by trial division, in O(1) memory."""
    yield 2
    for c in itertools.count(3, 2):
        if all(c % d for d in range(3, math.isqrt(c) + 1, 2)):
            yield c


def find_witness_root(n: int, max_order: int = DEFAULT_MAX_ORDER) -> UnitCirclePoint:
    """First prime-order root of unity where sigma(Q_n, omega) != 0 by the witness rule.

    Roots k/p are tried for primes p <= max_order in increasing (p, k)
    order.  The grid rule picks the first root with Delta = Delta_{1+n}
    negative at omega (one exact sign, exactlinalg._sign_at), at grid point
    i0 = int(theta / step) of the WITNESS_GRID-point grid, and at i0 + 1
    unless theta is within 1e-12 of i0 * step; i0 and that test are
    floating point and part of the rule.  When no root up to max_order
    passes it, the exact rule takes the first root with Delta(omega) < 0.
    Odd twisting always yields omega = -1 (k/m = 1/2) first.

    A root of prime order p > 5 is off the grid and, for p <= MAX_ORDER,
    more than 2*pi / (720 * p) > 1e-12 from it, so it is read against two
    adjacent grid points.  Once an exact-rule root is held at p > 5 and as
    many roots were tried as the grid has points (so this at most doubles
    the cost), the grid signs are taken once; if no two adjacent ones are
    negative, no later root can pass and the search stops.  Raises
    DomainError for max_order below 2 or past MAX_ORDER, ValueError for an
    n or max_order that is not an int (a bool or a float included), and
    WitnessNotFound when no root qualifies.
    """
    strict_int(n, "framing n")
    strict_int(max_order, "max_order")
    if n < 1:
        raise DomainError(f"witness search is defined for n >= 1, got {n}")
    if max_order < 2:
        raise DomainError(f"max_order {max_order} is under the lower bound of 2, "
                          "the least prime order, so no root would be tried")
    if max_order > MAX_ORDER:
        raise DomainError(f"max_order {max_order} is over the limit of {MAX_ORDER}, "
                          "past which the grid rule's 1e-12 test can fire off the grid")
    terms = sorted(delta_n_closed(1 + n).coeffs.items())
    step = math.tau / WITNESS_GRID

    def negative(omega: UnitCirclePoint) -> bool:
        return _sign_at(omega, 0, terms) < 0

    def on_grid(theta: float) -> bool:
        i0 = int(theta / step) % WITNESS_GRID
        grid = (i0,) if abs(theta - i0 * step) < 1e-12 else (i0, (i0 + 1) % WITNESS_GRID)
        return all(negative(UnitCirclePoint.root(i, WITNESS_GRID)) for i in grid)

    tried, exact, stop = 0, None, None
    for p in itertools.takewhile(lambda p: p <= max_order, _primes()):
        if exact is not None and p > 5 and tried >= WITNESS_GRID and stop is None:
            grid = [negative(UnitCirclePoint.root(i, WITNESS_GRID)) for i in range(WITNESS_GRID)]
            stop = not any(a and b for a, b in zip(grid, grid[1:] + grid[:1]))
        if stop:
            return exact
        for k in range(1, p):
            omega = UnitCirclePoint.root(k, p)
            tried += 1
            # Delta(omega) != 0 at a root of prime order p, since Phi_p would
            # divide t^(n+1) * Delta and Phi_p(1) = p cannot divide Delta(1) = 1;
            # 1 - 2cos(theta) vanishes only at the primitive sixth roots.  So
            # sigma(Q_n, omega) != 0 exactly where Delta(omega) < 0.
            if not negative(omega):
                continue
            if on_grid(omega.theta % math.tau):
                return omega
            if exact is None:
                exact = omega
    if exact is None:
        raise WitnessNotFound(n, max_order, tried)
    return exact


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
        raise DomainError(f"complexity target must be >= 1, got {c}")
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

