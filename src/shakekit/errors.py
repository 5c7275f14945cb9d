"""Shared exception types and the strict input checks: an integer is exactly an int,
and a knot's Seifert matrix A has even dimension (else OddDimension) and
det(A - A^T) = 1."""

import math
import sys
from collections.abc import Sequence
from itertools import chain


class DomainError(ValueError):
    """A refusal: an argument is outside the domain an operation is defined on.

    The CLI exits 1 exactly on a DomainError, and 2 on any other ValueError.
    Its subclasses are OddDimension, circle.InvalidRoot, circle.NearSingular (also
    an ArithmeticError), WitnessNotFound and UnassignedAtom (also LookupErrors).
    """


class OddDimension(DomainError):
    """Alexander normalization t^(-dim/2) needs an even-dimensional matrix."""


def even_dimension(n: int) -> None:
    """Refuse an odd dimension n: the t^(-dim/2) normalization needs it even."""
    if n % 2:
        raise OddDimension(f"dimension {n} is odd; the t^(-dim/2) normalization needs it even")


def unit_determinant(value: int) -> None:
    """Refuse det(A - A^T) = value unless it is 1, as it is for a knot's Seifert matrix A."""
    if value != 1:
        raise DomainError("not a knot Seifert matrix: det(A - A^T) must be 1, "
                          f"got Alexander value {brief(value)} at t = 1")


def brief(value: object, limit: int = 100, text=repr) -> str:
    """text(value), repr by default, for a message, clipped past limit characters.

    An int past the digit limit of int-to-str conversion is never
    converted: it is described by its count of digits.
    """
    if isinstance(value, int) and (most := sys.get_int_max_str_digits()) and abs(value) >= 10**most:
        size = abs(value)
        digits = int(math.log10(size)) + 1  # the float log may be one off either way
        digits += (size >= 10**digits) - (size < 10 ** (digits - 1))
        return f"<{'a negative' if value < 0 else 'an'} int of {digits} digits>"
    return clip(text(value), limit)


def int_text(n: int) -> str:
    """str(n) for an output, or a DomainError where n is past the digit limit of conversion."""
    try:
        return str(n)
    except ValueError:
        raise DomainError(f"output integer {brief(n)} is past the limit of "
                          f"{sys.get_int_max_str_digits()} digits for integer string conversion"
                          ) from None


def clip(text: str, limit: int = 100) -> str:
    """text for a message: as is up to limit characters, else clipped, naming its length."""
    return text if len(text) <= limit else f"{text[:limit - 20]}... ({len(text)} characters in all)"


def strict_int(value: object, what: str) -> int:
    """value itself if it is exactly an int, never a bool, float, string or int subclass."""
    if value.__class__ is not int:
        raise ValueError(f"expected integer {what}, got {brief(value)}")
    return value


def strict_matrix(rows: Sequence[Sequence[int]], what: str,
                  symmetric: bool = False) -> tuple[tuple[int, ...], ...]:
    """rows as a square tuple of int tuples, symmetric if asked, else a ValueError.

    A row that is not a list or a tuple is refused, never split into items.
    Acceptance is decided in C, from the sets of row lengths and entry types
    and the transpose; only a refusal walks the entries, to name the first
    (i,j) missing, extra or not an int, or else the first asymmetric pair.
    """
    if {*map(type, rows)} - {list, tuple}:
        i, row = next((i, row) for i, row in enumerate(rows) if type(row) not in (list, tuple))
        raise ValueError(f"{what} row {i} must be a list or a tuple, got {brief(row)}")
    key = tuple(map(tuple, rows))
    n = len(key)
    if ({*map(len, key)} - {n} or {*map(type, chain.from_iterable(key))} - {int}
            or symmetric and [*zip(*key)] != [*key]):
        for i, row in enumerate(key):
            if len(row) != n:
                got = "no entry" if len(row) < n else "an entry"
                raise ValueError(f"{what} must be {n}x{n}, got {got} at ({i},{min(len(row), n)})")
            for j, x in enumerate(row):
                if x.__class__ is not int:
                    raise ValueError(f"expected integer {what} entry at ({i},{j}), got {brief(x)}")
        i, j = next((i, j) for i in range(n) for j in range(i + 1, n) if key[i][j] != key[j][i])
        raise ValueError(f"{what} must be symmetric, differs at ({i},{j})")
    return key


def strict_keys(doc: dict, allowed: tuple[str, ...], what: str) -> None:
    """Refuse a key of doc outside allowed, so a misspelt key is never ignored."""
    unknown = [key for key in doc if key not in allowed]
    if unknown:
        raise ValueError(f"unknown key {brief(unknown[0])} in {what}; allowed keys: "
                         + ", ".join(map(repr, allowed)))


def strict_bool(value: object, what: str) -> bool:
    """value itself if it is a bool, never a string or number coerced to one."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false for {what}, got {brief(value)}")
    return value
