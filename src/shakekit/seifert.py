"""Seifert-matrix invariants and the twisted family A_n.

alexander(A) is the symmetrized polynomial t^(-dim/2) * det(t*A - A^T);
it is always symmetric in t <-> 1/t and takes the value 1 at t = 1, and
both facts are checked on every computation.  an_family(n) builds the
(2n+2)x(2n+2) Seifert matrix of the n-th twisted satellite in the
family this package certifies complexity bounds with; its Alexander
polynomial has the nine-term closed form delta_n_closed(n), and its
Levine-Tristram signature one that needs only the signs of Delta_n and
of 1 - 2cos(theta) (_family_signature).
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import DomainError
from .exactlinalg import (
    InvalidRoot,
    _check_square,
    _pencil,
    _sign_at,
    _zero_minors,
    inertia_hermitian_at_root,
    signature,
)
from .laurent import LaurentPoly, UnitCirclePoint, eval_symmetric_real, lp_is_symmetric


class OddDimension(ValueError):
    """Alexander normalization t^(-dim/2) needs an even-dimensional matrix."""


def alexander(A: Sequence[Sequence[int]]) -> LaurentPoly:
    """Symmetrized Alexander polynomial t^(-dim/2) * det(t*A - A^T)."""
    n = _check_square(A)
    if n % 2:
        raise OddDimension(f"dimension {n} is odd; the t^(-dim/2) normalization needs it even")
    delta = _pencil(tuple(map(tuple, A))).minor(n).shift(-n // 2)
    if not lp_is_symmetric(delta):
        raise ArithmeticError(f"Alexander polynomial {delta} is not symmetric in t <-> 1/t")
    if sum(delta.coeffs.values()) != 1:
        raise ValueError(
            "not a knot Seifert matrix: det(A - A^T) must be 1, "
            f"got Alexander value {sum(delta.coeffs.values())} at t = 1"
        )
    return delta


def classical_signature_seifert(A: Sequence[Sequence[int]]) -> int:
    """Signature of the symmetrized form A + A^T."""
    n = _check_square(A)
    sym = [[A[i][j] + A[j][i] for j in range(n)] for i in range(n)]
    return signature(sym)


def lt_signature(A: Sequence[Sequence[int]], omega: UnitCirclePoint) -> int:
    """Levine-Tristram signature sigma(K, omega), an even integer.

    Raises NearSingular where the form is singular or a sign is not
    certified, and InvalidRoot at omega=1.
    """
    return inertia_hermitian_at_root(A, omega).signature


def an_family(n: int) -> list[list[int]]:
    """Seifert matrix of the n-th member of the twisted family, n >= 1.

    The matrix is (2n+2)x(2n+2): a fixed 4x4 corner block, an extra -1
    in the top-right, and a run of ones just below the diagonal from
    row 5 to the bottom.  For n = 1 the run is empty and the matrix is
    the 4x4 corner with the -1 landing in column 4.
    """
    if n < 1:
        raise DomainError(f"the family is defined for n >= 1, got {n}")
    dim = 2 * n + 2
    A = [[0] * dim for _ in range(dim)]
    corner = [
        [1, 1, 1, 0],
        [0, 0, 1, 0],
        [1, 2, 0, 0],
        [0, 0, -1, 0],
    ]
    for i in range(4):
        for j in range(4):
            A[i][j] = corner[i][j]
    A[1][dim - 1] = -1
    for i in range(4, dim):
        A[i][i - 1] = 1
    return A


def delta_n_closed(n: int) -> LaurentPoly:
    """Closed form of the family's Alexander polynomial.

    1/t^(n+1) - 2/t^n + 1/t^(n-1) - 1/t + 3 - t + t^(n-1) - 2t^n + t^(n+1),
    with terms merging for small n.
    """
    if n < 1:
        raise DomainError(f"the closed form is defined for n >= 1, got {n}")
    terms = [
        (-(n + 1), 1), (-n, -2), (-(n - 1), 1),
        (-1, -1), (0, 3), (1, -1),
        (n - 1, 1), (n, -2), (n + 1, 1),
    ]
    out: dict[int, int] = {}
    for exp, coeff in terms:
        out[exp] = out.get(exp, 0) + coeff
    return LaurentPoly(out)


# 1 - t - 1/t, which is 1 - 2cos(theta) at t = e^(i*theta)
_ONE_MINUS_TWICE_COS = [(-1, -1), (0, 1), (1, -1)]


def _family_signature(n: int, omega: UnitCirclePoint) -> int:
    """sigma(an_family(n), omega) in closed form, with no matrix built.

    sigma is 0 where Delta_n(omega) > 0 and 2 * sign(1 - 2cos(theta))
    where Delta_n(omega) < 0.  Proof sketch: past the 4x4 corner the
    pencil t*A - A^T is tridiagonal with a zero diagonal, so its leading
    minors are P_1 = t - 1, P_2j = t^j, P_2j+1 = t^(j-1)(1 - 2t + 2t^2 - t^3)
    below dim = 2n+2, and P_dim = t^(n+1) * Delta_n.  The Hermitian minors
    D_k = ((1 - omega)/omega)^k P_k(omega) then have the signs D_1 > 0,
    (-1)^j for D_2j, (-1)^j * s for D_2j+1 with s = sign(1 - 2cos(theta)),
    and (-1)^(n+1) * sign(Delta_n) for D_dim, and Jacobi's rule counts
    n + [Delta_n > 0] sign changes when s = +1 and n + 1 + [Delta_n < 0]
    when s = -1.  s = 0 only at the primitive sixth roots, where
    Delta_n = 2 - 2cos(n*pi/3) >= 0, so sigma = 0 by Gundelfinger's rule
    or the form is singular.  Where Delta_n(omega) = 0 this raises the
    NearSingular the general kernel raises, and InvalidRoot at omega = 1.
    """
    if omega.is_one():
        raise InvalidRoot("the form vanishes identically at omega = 1")
    delta = _sign_at(omega, 0, sorted(delta_n_closed(n).coeffs.items()))
    if delta > 0:
        return 0
    s = _sign_at(omega, 0, _ONE_MINUS_TWICE_COS)
    if delta == 0:  # D_dim = 0, and D_(dim-1) = 0 too where s = 0
        dim = 2 * n + 2
        raise _zero_minors(omega, dim if s else dim - 1, dim, True)
    return 2 * s


def delta_sign_scan(p: LaurentPoly, grid_size: int) -> list[tuple[float, float]]:
    """Arcs (theta_i, theta_{i+1}) where p changes strict sign on the circle.

    Samples the real value of the symmetric p at grid_size equispaced
    angles and reports each adjacent pair with opposite strict signs.
    """
    if not lp_is_symmetric(p):
        raise ValueError("sign scan is defined for symmetric polynomials")
    if grid_size < 2:
        raise ValueError("need at least two grid points")
    step = math.tau / grid_size
    values = [eval_symmetric_real(p, math.cos(i * step)) for i in range(grid_size)]
    arcs: list[tuple[float, float]] = []
    for i, a in enumerate(values):
        b = values[(i + 1) % grid_size]
        if (a > 0 and b < 0) or (a < 0 and b > 0):
            arcs.append((i * step, (i + 1) * step))
    return arcs
