"""Exact integer Laurent polynomials in one variable t.

Coefficients are arbitrary-precision integers keyed by exponent; zero
coefficients are never stored, so equality of canonical forms is plain
structural equality.  Points on the unit circle are either exact
rational rotations k/m (the root of unity e^{2*pi*i*k/m}) or a floating
angle theta; they carry no float value of their own.  Signs on the
circle are taken exactly elsewhere (exactlinalg._sign_at).  The one
float evaluator left is eval_symmetric_real, a real-only Chebyshev
recursion for polynomials invariant under t -> 1/t.
"""

from __future__ import annotations

import math
import operator
import re
from math import gcd
from typing import Mapping


class LaurentPoly:
    """A Laurent polynomial sum(a_k * t^k) with integer coefficients.

    >>> t = LaurentPoly({1: 1})
    >>> (t - 1) * (t.inverse_variable() - 1)
    LaurentPoly({-1: -1, 0: 2, 1: -1})
    >>> print((t - 1) * (t.inverse_variable() - 1))
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

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def t(cls, exp: int = 1, coeff: int = 1) -> "LaurentPoly":
        """The monomial coeff * t^exp."""
        return cls({exp: coeff})

    @property
    def coeffs(self) -> dict[int, int]:
        return dict(self._coeffs)

    def coeff(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def min_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self._coeffs)

    def max_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return max(self._coeffs)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly({e + k: c for e, c in self._coeffs.items()})

    def inverse_variable(self) -> "LaurentPoly":
        """Substitute t -> 1/t."""
        return LaurentPoly({-e: c for e, c in self._coeffs.items()})

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

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        merged = dict(self._coeffs)
        for exp, coeff in other._coeffs.items():
            merged[exp] = merged.get(exp, 0) + coeff
        return LaurentPoly(merged)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        return self + (-other)

    def __rsub__(self, other: int) -> "LaurentPoly":
        return LaurentPoly({0: other}) - self

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

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers of a general polynomial are not defined")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __repr__(self) -> str:
        items = ", ".join(f"{e}: {c}" for e, c in sorted(self._coeffs.items()))
        return f"LaurentPoly({{{items}}})"

    def __str__(self) -> str:
        return format_laurent(self)


def lp_is_symmetric(p: LaurentPoly) -> bool:
    """True iff the coefficient of t^k equals the coefficient of t^-k."""
    coeffs = p._coeffs
    return all(coeffs.get(-e) == c for e, c in coeffs.items())


class UnitCirclePoint:
    """A point on the unit circle: exact rotation k/m or a float angle.

    Rational points are stored in lowest terms with 0 <= k < m, so the
    same root of unity always has the same representation.  A root never
    equals a float angle, so == and hash agree.
    """

    __slots__ = ("k", "m", "_theta")

    def __init__(self, k: int | None = None, m: int | None = None,
                 theta: float | None = None):
        if theta is None:
            if k is None or m is None or m < 1:
                raise ValueError("need k/m with m >= 1, or a float theta")
            k %= m
            g = gcd(k, m)
            self.k = k // g
            self.m = m // g
            self._theta = None
        else:
            if k is not None or m is not None:
                raise ValueError("give either k/m or theta, not both")
            theta = float(theta)
            if not math.isfinite(theta):
                raise ValueError(f"theta must be a finite angle, got {theta!r}")
            self.k = None
            self.m = None
            self._theta = theta

    @classmethod
    def root(cls, k: int, m: int) -> "UnitCirclePoint":
        """The root of unity e^{2*pi*i*k/m}."""
        return cls(k=k, m=m)

    @classmethod
    def angle(cls, theta: float) -> "UnitCirclePoint":
        return cls(theta=theta)

    @classmethod
    def minus_one(cls) -> "UnitCirclePoint":
        return cls(k=1, m=2)

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnitCirclePoint):
            return NotImplemented
        return (self.k, self.m, self._theta) == (other.k, other.m, other._theta)

    def __hash__(self) -> int:
        return hash((self.k, self.m, self._theta))

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


_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
            (?P<coeff>[0-9]+)\s*(?:\*\s*t(?:\^(?P<exp1>-?[0-9]+))?)?
          | t(?:\^(?P<exp2>-?[0-9]+))?
        )\s*""",
    re.VERBOSE,
)


def parse_laurent(text: str) -> LaurentPoly:
    """Parse the textual form, e.g. "t^-2 - 3*t^-1 + 5 - 3*t + t^2".

    >>> parse_laurent("t^-2 - 3*t^-1 + 5").coeffs == {-2: 1, -1: -3, 0: 5}
    True
    """
    out: dict[int, int] = {}
    pos = 0
    first = True
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty Laurent polynomial text")
    if stripped == "0":
        return LaurentPoly.zero()
    while pos < len(stripped):
        match = _TERM_RE.match(stripped, pos)
        if not match or match.end() == pos:
            raise ValueError(f"bad Laurent term at position {pos}: {stripped[pos:]!r}")
        sign_txt = match.group("sign")
        if sign_txt is None and not first:
            raise ValueError(f"missing +/- before position {pos} in {stripped!r}")
        sign = -1 if sign_txt == "-" else 1
        if match.group("coeff") is not None:
            coeff = sign * int(match.group("coeff"))
            has_t = "t" in match.group(0)
            exp_txt = match.group("exp1")
            exp = int(exp_txt) if exp_txt is not None else (1 if has_t else 0)
        else:
            coeff = sign
            exp_txt = match.group("exp2")
            exp = int(exp_txt) if exp_txt is not None else 1
        out[exp] = out.get(exp, 0) + coeff
        pos = match.end()
        first = False
    return LaurentPoly(out)


def format_laurent(p: LaurentPoly) -> str:
    """Render in ascending exponent order: "t^-2 - 3*t^-1 + 5 - 3*t + t^2"."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for exp in sorted(p.coeffs):
        coeff = p.coeff(exp)
        mag = abs(coeff)
        if exp == 0:
            body = str(mag)
        else:
            t_part = "t" if exp == 1 else f"t^{exp}"
            body = t_part if mag == 1 else f"{mag}*{t_part}"
        if not parts:
            parts.append(f"-{body}" if coeff < 0 else body)
        else:
            parts.append(f"- {body}" if coeff < 0 else f"+ {body}")
    return " ".join(parts)


def laurent_from_entry(entry: "int | str | LaurentPoly") -> LaurentPoly:
    """Coerce a JSON matrix entry (int or textual form) to a LaurentPoly."""
    if isinstance(entry, LaurentPoly):
        return entry
    if isinstance(entry, bool):
        raise ValueError("matrix entries must be integers or Laurent strings")
    if isinstance(entry, int):
        return LaurentPoly({0: entry})
    if isinstance(entry, str):
        return parse_laurent(entry)
    raise ValueError(f"matrix entries must be integers or Laurent strings, got {entry!r}")
