"""Complexity-lower-bound certificates for retraced satellite knots.

A certificate for framing n and target complexity c records the knot
term (bar(Q*)_n)^c o Q^c built from the base pattern Q of the twisted
family, a witness root of unity where the half-Levine-Tristram
signature separates Q from Q_n, and the resulting bound
c * |I(Q) - I(Q_n)| >= c.

The signature of the twisted family has a closed form: for its n-th
member A_n and omega = e^(i*theta) != 1, sigma(A_n, omega) = 0 where
Delta_n(omega) > 0 and 2 * sign(1 - 2cos(theta)) where Delta_n(omega) < 0;
where Delta_n(omega) = 0 the form is singular and refused.  It follows
from the pencil's leading minors P_1 = t - 1, P_2j = t^j,
P_2j+1 = t^(j-1)(1 - 2t + 2t^2 - t^3) and P_(2n+2) = t^(n+1) * Delta_n by
Jacobi's rule (seifert._family_signature has the sketch).  So a
signature costs two exact signs, of Delta_n and of 1 - 2cos(theta), and
certify builds no matrix: its cost does not grow with n.

The witness search tries prime-order roots in increasing (p, k) order.
The first root where Delta_(1+n) is negative at the root and at its
neighbours on a 720-point grid is the witness; when no root passes that
grid rule, the first prime-order root with Delta_(1+n) < 0, where sigma
is 2 * sign(1 - 2cos(theta)) != 0, is.  Every sign is exact, so results
are deterministic and replayable: a float sum whose sign clears its
rounding-error bound, and a remainder modulo Phi_m only where it does not,
as at the sixth roots where Delta_(1+n) vanishes for n = 5 mod 6.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .errors import DomainError
from .exactlinalg import NearSingular, _sign_at
from .laurent import UnitCirclePoint
from .patterns import Atom, Profile, eval_invariant, render_term, retrace_term
from .seifert import _family_signature, delta_n_closed

DEFAULT_MAX_ORDER = 60
WITNESS_GRID = 720
INVARIANT_NAME = "half-LT-signature"


class WitnessNotFound(LookupError):
    """No prime-order root of order <= max_order has sigma(Q_n, omega) != 0.

    The LT signature was taken at all tried prime-order roots up to the
    bound; refused of them were near-singular and the rest had signature 0.
    """

    def __init__(self, n: int, max_order: int, tried: int, refused: int):
        self.n, self.max_order, self.tried, self.refused = n, max_order, tried, refused
        super().__init__(
            f"no prime-order witness root of order <= {max_order} for n = {n}: the LT "
            f"signature was taken at {tried} prime-order roots: {refused} near-singular, "
            f"{tried - refused} zero"
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
    InvalidRoot at omega = 1, as the general kernel does.
    """

    def profile(k: int) -> int:
        if k < 0:
            raise DomainError(f"the twisted family declares iota on k >= 0, got {k}")
        sigma = _family_signature(1 + k, omega)
        if sigma % 2:
            raise ArithmeticError(f"{INVARIANT_NAME} needs an even signature, got {sigma}")
        return sigma // 2

    return profile


def _primes() -> Iterator[int]:
    """2, 3, 5, 7, ... with no upper bound, in O(sqrt(p)) memory.

    An incremental sieve of Eratosthenes: each odd composite c is met as
    the next multiple of one of its prime factors, and a prime p enters
    the sieve only when the candidates reach p*p, with the primes up to
    sqrt(c) drawn from a second, lazily advanced copy of the generator.
    """
    yield from (2, 3, 5, 7)
    multiples: dict[int, int] = {}
    base = _primes()
    next(base)
    p = next(base)
    for c in itertools.count(9, 2):
        if c in multiples:
            step = multiples.pop(c)
        elif c < p * p:
            yield c
            continue
        else:
            step, p = 2 * p, next(base)
        nxt = c + step
        while nxt in multiples:
            nxt += step
        multiples[nxt] = step


def find_witness_root(n: int, max_order: int = DEFAULT_MAX_ORDER) -> UnitCirclePoint:
    """First prime-order root of unity where sigma(Q_n, omega) != 0 by the witness rule.

    Roots k/p are tried for primes p <= max_order in increasing (p, k)
    order, and sigma is taken at each from the closed form: 0 where
    Delta = Delta_{1+n} is positive at omega, 2 * sign(1 - 2cos(theta))
    where it is negative.  The grid rule picks the first root with
    sigma != 0 where Delta is also negative at grid point
    i0 = int(theta / step) of the WITNESS_GRID-point grid, and at i0 + 1
    unless theta is within 1e-12 of i0 * step; i0 and that test are
    floating point and part of the rule.  When no root up to max_order
    passes it, the exact rule takes the first root with sigma != 0, that
    is with Delta(omega) < 0.  Each sign is exact (exactlinalg._sign_at: a
    certified float sign, and the remainder modulo Phi_m of the point's own
    order m only where that cannot decide), and an exact zero counts as not
    negative.  Odd twisting always yields omega = -1 (k/m = 1/2) first.
    Raises NearSingular should a sign not be certified, and
    WitnessNotFound when sigma = 0 at every root tried.
    """
    if n < 1:
        raise DomainError(f"witness search is defined for n >= 1, got {n}")
    terms = sorted(delta_n_closed(1 + n).coeffs.items())
    step = math.tau / WITNESS_GRID

    def on_grid(theta: float) -> bool:
        i0 = int(theta / step) % WITNESS_GRID
        grid = (i0,) if abs(theta - i0 * step) < 1e-12 else (i0, (i0 + 1) % WITNESS_GRID)
        return all(_sign_at(UnitCirclePoint.root(i, WITNESS_GRID), 0, terms) < 0 for i in grid)

    tried = refused = 0
    exact = None
    for p in itertools.takewhile(lambda p: p <= max_order, _primes()):
        for k in range(1, p):
            omega = UnitCirclePoint.root(k, p)
            delta = _sign_at(omega, 0, terms)
            tried += 1
            try:
                if not _family_signature(1 + n, omega, delta):
                    continue
            except NearSingular:
                refused += 1
                continue
            if on_grid(omega.theta % math.tau):
                return omega
            if exact is None:
                exact = omega
    if exact is None:
        raise WitnessNotFound(n, max_order, tried, refused)
    return exact


@dataclass(frozen=True)
class ComplexityCertificate:
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
    through the pattern calculus.
    """
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

