"""Certified signs on the unit circle, and the refusals they raise.

_sign_at takes the exact sign of a polynomial or a Hermitian minor at a
point of the circle: in integers at -1 and for a monomial minor, else a
float sum that counts only past its rounding-error bound (_certified_sign),
and else, at a root of order <= _MAX_ZERO_TEST_ORDER, the test _vanishes.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from . import laurent
from .errors import DomainError, brief


class InvalidRoot(DomainError):
    """The Hermitian form vanishes identically at omega = 1."""

    def __init__(self, message: str = "the form vanishes identically at omega = 1"):
        super().__init__(message)


class NearSingular(DomainError, ArithmeticError):
    """No exact inertia at omega: a zero leading minor stops Jacobi's rule, or a sign is uncertain.

    index is the leading minor D_index that triggered the refusal (0 for a
    polynomial's own sign), value the computed float whose sign is that of
    D_index (0.0 when D_index vanishes exactly) and bound the
    rounding-error bound it had to clear.  It suggests no other root, as
    that would answer another question; _zero_minors words exact zeros.
    """

    def __init__(self, omega: laurent.UnitCirclePoint, message: str, index: int, value: float,
                 bound: float):
        self.omega = omega
        self.index = index
        self.value = value
        self.bound = bound
        super().__init__(message)


def _zero_minors(omega: laurent.UnitCirclePoint, index: int, dim: int,
                 singular: bool) -> NearSingular:
    """The refusal where D_index(omega) = 0 exactly, and index = dim or D_(index+1) = 0 too.

    It says "form is singular" only when singular, i.e. D_dim(omega) = 0.
    """
    zeros = (f"leading minor D_{brief(dim)} = 0 exactly" if index == dim else
             f"leading minors D_{brief(index)} = D_{brief(index + 1)} = 0 exactly, two in a row")
    if index + 1 < dim:
        zeros += f", and D_{brief(dim)} {'=' if singular else '!='} 0"
    head = "form is singular" if singular else "Jacobi's rule cannot count the inertia"
    return NearSingular(omega, f"{head} at {brief(omega, text=str)}: {zeros}", index, 0.0, 0.0)


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


def _vanishes(terms: Iterable[tuple[int, int]], m: int) -> bool:
    """Whether F = sum c t^e over the (e, c) terms is 0 at a primitive m-th root of unity.

    F's values at the primitive m-th roots are Galois conjugates.  G, the
    product of 1 - t^(m/q) over the primes q | m, vanishes at every other
    m-th root and at no primitive one.  So F(omega) = 0 exactly when F*G
    is 0 at every m-th root: when it folds to nothing modulo t^m - 1.
    """
    folded, rest, q = {e % m: c for e, c in _folded(terms, m)}, m, 2
    while folded and rest > 1:
        if q * q > rest:
            q = rest
        if rest % q == 0:
            s, product = m // q, folded.copy()
            for e, c in folded.items():
                e = (e + s) % m
                product[e] = product.get(e, 0) - c
            folded = {e: c for e, c in product.items() if c}
            while rest % q == 0:
                rest //= q
        q += 1
    return not folded


_U = 2.0 ** -53  # unit roundoff of a double

# The largest order at which _sign_at tests for an exact zero, as _vanishes
# factors m by trial division; README "Refusals" says how to lift it.
_MAX_ZERO_TEST_ORDER = 5000


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


def _certified_sign(omega: laurent.UnitCirclePoint, k: int, terms: list[tuple[int, int]]) -> int:
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
            f"form is near-singular at {brief(omega, 50, str)}: the sign of "
            f"{f'leading minor D_{k}' if k else 'the polynomial'} is not certified ({why})",
            k, value, bound,
        )
    sign = 1 if value > 0 else -1
    return -sign if k % 2 and not omega.is_rational and math.sin(theta / 2) < 0 else sign


def _sign_at(omega: laurent.UnitCirclePoint, k: int, terms: list[tuple[int, int]]) -> int:
    """Exact sign (+1, -1, or 0 when P(omega) = 0) of ((1 - omega)/omega)^k * P(omega).

    P is sum p_e t^e over the (e, p_e) terms, lowest first.  k >= 1 gives
    the Hermitian minor D_k from the pencil's P_k; k = 0 the value of a P
    that is real on the circle, such as an Alexander polynomial.  At -1
    the value (-2)^k * P(-1) is read in integers.  One term c*t^e with
    2e = k takes no float sum either: its value is
    c*(-1)^(k/2)*(2 sin(theta/2))^k.  Every monomial leading minor of a
    pencil is one, because P_k(t) = (-1)^k t^k P_k(1/t); k = 0 covers
    constants.  Any other sign is the certified sum's; where that does
    not clear at a root of order m <= _MAX_ZERO_TEST_ORDER, _vanishes
    decides a zero.  Otherwise the sum's NearSingular is raised with its
    own value and bound, and past that order its message names the cap.

    >>> _sign_at(laurent.UnitCirclePoint.root(1, 6), 0, [(-1, -1), (0, 1), (1, -1)])
    0
    """
    if not terms:
        return 0
    if omega.is_rational and omega.m == 2:
        value = sum(-c if e % 2 else c for e, c in terms)
        return ((value > 0) - (value < 0)) * (-1 if k % 2 else 1)
    if len(terms) == 1 and 2 * terms[0][0] == k:
        return (1 if terms[0][1] > 0 else -1) * (-1 if k % 4 else 1)
    try:
        return _certified_sign(omega, k, terms)
    except NearSingular as exc:
        if omega.is_rational and omega.m > _MAX_ZERO_TEST_ORDER:
            why = (f"{exc}; no exact zero test at order {brief(omega.m, 50)} "
                   f"> {_MAX_ZERO_TEST_ORDER}")
            raise NearSingular(omega, why, k, exc.value, exc.bound) from None
        if not omega.is_rational or not _vanishes(terms, omega.m):
            raise
    return 0
