"""Exact determinants of Laurent-polynomial matrices and inertia of forms.

Determinants have one integer kernel: Kronecker substitution t = 2^B,
with B from a Hadamard bound on the coefficients, fraction-free (Bareiss)
elimination over the integers, and a balanced base-2^B read-back.  The
determinant of the pencil t*A - A^T is taken once per Seifert matrix A
and memoised.  Classical inertia runs over exact rationals.  Hermitian
inertia at a unit-circle point is the one numeric computation here, and
it is accepted only when the exactly-known determinant of the form
clears a singularity guard.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .laurent import LaurentPoly, UnitCirclePoint, laurent_from_entry, lp_eval_unit

DEFAULT_TOL = 1e-9


def guard_tolerance() -> float:
    """Default relative tolerance for the singularity guard.

    SHAKEKIT_TOL in the environment overrides the built-in 1e-9.
    """
    raw = os.environ.get("SHAKEKIT_TOL")
    return float(raw) if raw else DEFAULT_TOL


class InvalidRoot(ValueError):
    """The Hermitian form vanishes identically at omega = 1."""


class NearSingular(ArithmeticError):
    """The form at omega is too close to singular to trust float inertia."""

    def __init__(self, omega: UnitCirclePoint, suggestion: str):
        self.omega = omega
        self.suggestion = suggestion
        super().__init__(f"form is near-singular at {omega}; {suggestion}")


@dataclass(frozen=True)
class Inertia:
    n_plus: int
    n_zero: int
    n_minus: int

    def __post_init__(self):
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


def det_laurent(rows: LaurentMatrix) -> LaurentPoly:
    """Exact determinant of a square matrix of Laurent polynomials.

    Kronecker substitution: each row is shifted by a power of t so its
    entries are polynomials.  On the unit circle Hadamard's inequality
    gives |det| <= C = ceil(prod_i sqrt(sum_j ||a_ij||_1^2)), so C bounds
    every coefficient of the determinant (Parseval).  The entries are
    evaluated at t = 2^B with B = C.bit_length() + 1, integer Bareiss
    elimination with row swaps takes the exact determinant there, and its
    balanced base-2^B digits are the coefficients.  The 0x0 determinant
    is 1 (empty product).
    """
    _check_square(rows)
    shift = 0
    norm_sq = 1
    polys: list[list[dict[int, int]]] = []
    for row in rows:
        entries = [laurent_from_entry(e).coeffs for e in row]
        low = min((e for coeffs in entries for e in coeffs), default=None)
        if low is None:
            return LaurentPoly.zero()
        shift += low
        polys.append([{e - low: c for e, c in coeffs.items()} for coeffs in entries])
        norm_sq *= sum(sum(map(abs, coeffs.values())) ** 2 for coeffs in entries)
    bits = (math.isqrt(norm_sq - 1) + 1).bit_length() + 1
    M = [[sum(c << (bits * e) for e, c in p.items()) for p in row] for row in polys]
    sign, prev = 1, 1
    while len(M) > 1:
        k = next((i for i, row in enumerate(M) if row[0]), None)
        if k is None:
            return LaurentPoly.zero()
        if k:
            M[0], M[k] = M[k], M[0]
            sign = -sign
        top, pivot = M[0], M[0][0]
        M = [[(a * pivot - row[0] * b) // prev for a, b in zip(row[1:], top[1:])]
             for row in M[1:]]
        prev = pivot
    value = sign * M[0][0] if M else 1
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    out: dict[int, int] = {}
    while value:
        digit = ((value + half) & mask) - half
        out[shift] = digit
        value = (value - digit) >> bits
        shift += 1
    return LaurentPoly(out)


@functools.lru_cache(maxsize=64)
def _pencil_det(A: tuple[tuple[int, ...], ...]) -> LaurentPoly:
    """det(t*A - A^T), taken once per matrix.

    Callers pass the immutable copy tuple(map(tuple, A)), so a matrix they
    mutate later is never answered from the memo.
    """
    n = _check_square(A)
    return det_laurent([[LaurentPoly({1: A[i][j], 0: -A[j][i]}) for j in range(n)]
                        for i in range(n)])


def inertia_symmetric_exact(S: Sequence[Sequence[int]]) -> Inertia:
    """Inertia of a symmetric integer matrix, exactly over the rationals.

    Symmetric elimination with pivot exchange; when every remaining
    diagonal entry vanishes, a nonzero off-diagonal pair is a hyperbolic
    plane and contributes (1, 0, 1).
    """
    n = _check_square(S)
    for i in range(n):
        for j in range(i + 1, n):
            if S[i][j] != S[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i},{j})")
    M = [[Fraction(x) for x in row] for row in S]
    idx = list(range(n))
    n_plus = n_zero = n_minus = 0
    while idx:
        piv = next((i for i in idx if M[i][i] != 0), None)
        if piv is not None:
            d = M[piv][piv]
            if d > 0:
                n_plus += 1
            else:
                n_minus += 1
            idx.remove(piv)
            for a in idx:
                ra = M[a][piv] / d
                if ra:
                    for b in idx:
                        M[a][b] -= ra * M[piv][b]
            continue
        pair = next(
            ((i, j) for i in idx for j in idx if i < j and M[i][j] != 0), None
        )
        if pair is None:
            n_zero += len(idx)
            break
        i, j = pair
        b = M[i][j]
        n_plus += 1
        n_minus += 1
        idx.remove(i)
        idx.remove(j)
        for a in idx:
            ca, cb = M[a][i], M[a][j]
            if ca or cb:
                for k in idx:
                    M[a][k] -= (ca * M[j][k] + cb * M[i][k]) / b
    return Inertia(n_plus, n_zero, n_minus)


def signature(S: Sequence[Sequence[int]]) -> int:
    return inertia_symmetric_exact(S).signature


def _perturbation_hint(omega: UnitCirclePoint) -> str:
    if omega.is_rational:
        return f"perturb the root, e.g. use {8 * omega.k + 1}/{8 * omega.m}"
    return f"perturb the angle, e.g. use theta={omega.theta + 1e-3!r}"


def hermitian_form(A: Sequence[Sequence[int]], omega: UnitCirclePoint) -> np.ndarray:
    """H(omega) = (1 - omega) A + (1 - conj(omega)) A^T."""
    w = omega.value
    mat = np.array(A, dtype=complex)
    return (1 - w) * mat + (1 - w.conjugate()) * mat.T


def form_determinant_magnitude(A: Sequence[Sequence[int]], omega: UnitCirclePoint) -> float:
    """|det H(omega)| from the exact determinant of t*A - A^T.

    H(omega) = ((1 - omega)/omega) * (omega*A - A^T), so
    |det H| = |1 - omega|^dim * |det(t*A - A^T) at t=omega|.
    """
    value = lp_eval_unit(_pencil_det(tuple(map(tuple, A))), omega)
    return abs(1 - omega.value) ** len(A) * abs(value)


def inertia_hermitian_at_root(
    A: Sequence[Sequence[int]],
    omega: UnitCirclePoint,
    tol: float | None = None,
) -> Inertia:
    """Inertia of the Hermitian form H(omega), guarded against singularity.

    The guard compares the exactly-computed |det H(omega)| to
    tol * (product of row norms of H); Hadamard's bound makes that ratio
    a scale-free nearness-to-singular measure.  Raises NearSingular when
    the guard fails and InvalidRoot at omega = 1 where H vanishes.
    """
    n = _check_square(A)
    if omega.is_one():
        raise InvalidRoot("the form vanishes identically at omega = 1")
    if tol is None:
        tol = guard_tolerance()
    if n == 0:
        return Inertia(0, 0, 0)
    H = hermitian_form(A, omega)
    det_mag = form_determinant_magnitude(A, omega)
    scale = max(1.0, float(np.prod(np.linalg.norm(H, axis=1))))
    if det_mag <= tol * scale:
        raise NearSingular(omega, _perturbation_hint(omega))
    eigs = np.linalg.eigvalsh(H)
    top = max(1.0, float(np.max(np.abs(eigs))))
    floor = det_mag / top ** (n - 1)
    if float(np.min(np.abs(eigs))) < 0.5 * floor:
        raise NearSingular(omega, _perturbation_hint(omega))
    n_plus = int(np.sum(eigs > 0))
    n_minus = int(np.sum(eigs < 0))
    inertia = Inertia(n_plus, n - n_plus - n_minus, n_minus)
    if inertia.n_zero or (n % 2 == 0 and inertia.signature % 2):
        raise ArithmeticError(
            f"guarded inertia {inertia} at {omega} has a zero eigenvalue or, "
            "in even dimension, an odd signature"
        )
    return inertia


def int_matrix_from_json(doc: object) -> list[list[int]]:
    """Decode {"dim": n, "entries": [[...]]} with integer entries."""
    rows = _json_entries(doc)
    out: list[list[int]] = []
    for row in rows:
        ints: list[int] = []
        for entry in row:
            if isinstance(entry, bool) or not isinstance(entry, int):
                raise ValueError(f"expected integer matrix entry, got {entry!r}")
            ints.append(entry)
        out.append(ints)
    return out


def laurent_matrix_from_json(doc: object) -> list[list[LaurentPoly]]:
    """Decode {"dim": n, "entries": [[...]]} with int or Laurent-string entries."""
    return [[laurent_from_entry(e) for e in row] for row in _json_entries(doc)]


def _json_entries(doc: object) -> list[list]:
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ValueError('matrix JSON must be an object with "dim" and "entries"')
    entries = doc["entries"]
    if not isinstance(entries, list) or any(not isinstance(r, list) for r in entries):
        raise ValueError('"entries" must be a list of rows')
    dim = doc.get("dim", len(entries))
    if dim != len(entries) or any(len(r) != dim for r in entries):
        raise ValueError(f'"entries" must be {dim}x{dim} to match "dim"')
    return entries


def int_matrix_to_json(A: Sequence[Sequence[int]]) -> dict:
    n = _check_square(A)
    return {"dim": n, "entries": [list(map(int, row)) for row in A]}
