"""Exact integer Laurent polynomials in one variable t, and unit-circle points.

A LaurentPoly is an output: the package builds it only from a
coefficient dict (a pencil minor, a closed form; LaurentPoly() is zero),
then reads, compares, shifts, tests for symmetry and formats it; no
polynomial is read from text.  Its only ring operation is *, which no
code in the package calls; a sum or a sign is built from coefficient dicts.
Coefficients are arbitrary-precision integers keyed by exponent; zero
coefficients are never stored, so equality of canonical forms is plain
structural equality.  Points on the unit circle are either exact
rational rotations k/m (the root of unity e^{2*pi*i*k/m}) or a
floating angle theta; they carry no float value of their own.
Signs on the circle are taken exactly elsewhere (circle._sign_at).
The one float evaluator left is eval_symmetric_real, a real-only
Chebyshev recursion for polynomials invariant under t -> 1/t.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from math import gcd
from sys import float_info

from ._record import Record
from .errors import brief, int_text, strict_int


class LaurentPoly:
    """A Laurent polynomial sum(a_k * t^k) with integer coefficients.

    >>> p, q = LaurentPoly({1: 1, 0: -1}), LaurentPoly({-1: 1, 0: -1})
    >>> p * q
    LaurentPoly({-1: -1, 0: 2, 1: -1})
    >>> print(p * q)
    -t^-1 + 2 - t
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        clean: dict[int, int] = {}
        if coeffs:
            for exp, coeff in coeffs.items():
                # operator.index keeps this exact: floats are rejected
                # instead of silently truncated.
                exp, coeff = operator.index(exp), operator.index(coeff)
                if coeff:
                    clean[exp] = coeff
        self._coeffs = clean

    @property
    def coeffs(self) -> dict[int, int]:
        return dict(self._coeffs)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly({e + k: c for e, c in self._coeffs.items()})

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        coeffs = self._coeffs
        if not coeffs or (len(coeffs) == 1 and 0 in coeffs):
            return hash(coeffs.get(0, 0))  # a constant equals, so hashes as, its int
        return hash(frozenset(coeffs.items()))

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                exp = e1 + e2
                out[exp] = out.get(exp, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        items = ", ".join(f"{e}: {c}" for e, c in sorted(self._coeffs.items()))
        return f"LaurentPoly({{{items}}})"

    def __str__(self) -> str:
        """Ascending exponent order: "t^-2 - 3*t^-1 + 5 - 3*t + t^2"."""
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for exp, coeff in sorted(self._coeffs.items()):
            mag = abs(coeff)
            if exp == 0:
                body = int_text(mag)
            else:
                t_part = "t" if exp == 1 else f"t^{exp}"
                body = t_part if mag == 1 else f"{int_text(mag)}*{t_part}"
            if not parts:
                parts.append(f"-{body}" if coeff < 0 else body)
            else:
                parts.append(f"- {body}" if coeff < 0 else f"+ {body}")
        return " ".join(parts)


def lp_is_symmetric(p: LaurentPoly) -> bool:
    """True iff the coefficient of t^k equals the coefficient of t^-k."""
    coeffs = p._coeffs
    return all(coeffs.get(-e) == c for e, c in coeffs.items())


class UnitCirclePoint(Record):
    """A point on the unit circle: exact rotation k/m or a float angle.

    Rational points are stored in lowest terms with 0 <= k < m, so the
    same root of unity always has the same representation.  A root never
    equals a float angle, so == and hash agree.  Points are immutable.
    """

    k: int | None
    m: int | None
    _theta: float | None

    def __init__(self, k: int | None = None, m: int | None = None,
                 theta: float | None = None):
        if theta is None:
            if k is None or m is None or strict_int(m, "root order m") < 1:
                raise ValueError("need k/m with m >= 1, or a float theta")
            k = strict_int(k, "root index k") % m
            g = gcd(k, m)
            self._assign(k // g, m // g, None)
        else:
            if k is not None or m is not None:
                raise ValueError("give either k/m or theta, not both")
            if theta.__class__ is not float and (theta.__class__ is not int
                                                 or abs(theta) > float_info.max):
                raise ValueError(f"theta must be a float, or an int within the float range "
                                 f"+-{float_info.max!r}; got {brief(theta)}")
            theta = float(theta)
            if not math.isfinite(theta):
                raise ValueError(f"theta must be a finite angle, got {theta!r}")
            self._assign(None, None, theta)

    @classmethod
    def root(cls, k: int, m: int) -> "UnitCirclePoint":
        """The root of unity e^{2*pi*i*k/m}."""
        return cls(k=k, m=m)

    @classmethod
    def angle(cls, theta: float) -> "UnitCirclePoint":
        return cls(theta=theta)

    @property
    def is_rational(self) -> bool:
        return self._theta is None

    def is_one(self) -> bool:
        if self.is_rational:
            return self.k == 0
        return self._theta % math.tau == 0.0

    @property
    def theta(self) -> float:
        """The angle in radians; past the float range, tau * (k/m) with k/m correctly rounded."""
        if not self.is_rational:
            return self._theta
        try:
            theta = math.tau * self.k / self.m
        except OverflowError:
            theta = math.inf
        return theta if theta < math.inf else math.tau * (self.k / self.m)

    def __repr__(self) -> str:
        if self.is_rational:
            return f"UnitCirclePoint({self.k}/{self.m})"
        return f"UnitCirclePoint(theta={self._theta!r})"

    def __str__(self) -> str:
        if self.is_rational:
            return f"{self.k}/{self.m}"
        return f"theta={self._theta!r}"


def eval_symmetric_real(p: LaurentPoly, x: float) -> float:
    """Evaluate a symmetric p at any z on the circle with Re(z) = x.

    Uses c_k = Re(z^k) via the recursion c_k = 2x*c_{k-1} - c_{k-2}, so
    the result is a real number computed without complex arithmetic:
    p(z) = a_0 + sum_{k>0} 2 a_k c_k.
    """
    if not lp_is_symmetric(p):
        raise ValueError("real-path evaluation requires a symmetric polynomial")
    coeffs = p._coeffs
    if not coeffs:
        return 0.0
    value = float(coeffs.get(0, 0))
    c_prev, c_cur = 1.0, x
    for k in range(1, max(coeffs) + 1):
        a = coeffs.get(k)
        if a:
            value += 2.0 * a * c_cur
        c_prev, c_cur = c_cur, 2.0 * x * c_cur - c_prev
    return value
