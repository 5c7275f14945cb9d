"""Seifert-matrix invariants and the twisted family A_n.

alexander(A) is the symmetrized polynomial t^(-dim/2) * det(t*A - A^T);
it is always symmetric in t <-> 1/t and takes the value 1 at t = 1, and
both facts are checked on every computation.  an_family(n) builds the
(2n+2)x(2n+2) Seifert matrix of the n-th twisted satellite in the
family this package certifies complexity bounds with; its Alexander
polynomial has the nine-term closed form delta_n_closed(n), and its
Levine-Tristram signature a closed form, with its proof sketch, in
_family_signature.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from . import circle, exactlinalg, laurent
from .errors import DomainError, even_dimension, strict_int, strict_matrix, unit_determinant


def alexander(A: Sequence[Sequence[int]]) -> laurent.LaurentPoly:
    """Symmetrized Alexander polynomial t^(-dim/2) * det(t*A - A^T)."""
    key = strict_matrix(A, "matrix")
    n = len(key)
    even_dimension(n)
    delta = exactlinalg._pencil(key).minor(n).shift(-n // 2)
    if not laurent.lp_is_symmetric(delta):
        raise ArithmeticError(f"Alexander polynomial {delta} is not symmetric in t <-> 1/t")
    unit_determinant(sum(delta.coeffs.values()))
    return delta


def classical_signature_seifert(A: Sequence[Sequence[int]]) -> int:
    """Signature of the symmetrized form A + A^T, the Levine-Tristram signature at -1.

    exactlinalg._minus_one_inertia decides it, as it does lt_signature's
    at -1: from the memoised pencil's exact signs where they count, else
    from the form A + A^T, with no pencil built.
    """
    return exactlinalg._minus_one_inertia(strict_matrix(A, "matrix")).signature


def lt_signature(A: Sequence[Sequence[int]], omega: laurent.UnitCirclePoint) -> int:
    """Levine-Tristram signature sigma(K, omega), an even integer.

    Raises NearSingular where the form is singular, other than at -1, or
    where a sign is not certified, and InvalidRoot at omega=1.
    """
    return exactlinalg.inertia_hermitian_at_root(A, omega).signature


def an_family(n: int) -> list[list[int]]:
    """Seifert matrix of the n-th member of the twisted family, n >= 1.

    The matrix is (2n+2)x(2n+2): a fixed 4x4 corner block, an extra -1
    in the top-right, and a run of ones just below the diagonal from
    row 5 to the bottom.  For n = 1 the run is empty and the matrix is
    the 4x4 corner with the -1 landing in column 4.
    """
    if strict_int(n, "family index n") < 1:
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


def delta_n_closed(n: int) -> laurent.LaurentPoly:
    """Closed form of the family's Alexander polynomial.

    1/t^(n+1) - 2/t^n + 1/t^(n-1) - 1/t + 3 - t + t^(n-1) - 2t^n + t^(n+1),
    with terms merging for small n.
    """
    if strict_int(n, "family index n") < 1:
        raise DomainError(f"the closed form is defined for n >= 1, got {n}")
    terms = [
        (-(n + 1), 1), (-n, -2), (-(n - 1), 1),
        (-1, -1), (0, 3), (1, -1),
        (n - 1, 1), (n, -2), (n + 1, 1),
    ]
    out: dict[int, int] = {}
    for exp, coeff in terms:
        out[exp] = out.get(exp, 0) + coeff
    return laurent.LaurentPoly(out)


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
    return circle._sign_at(laurent.UnitCirclePoint.root(k, m), 0,
                           sorted(delta_n_closed(n).coeffs.items()))


def _family_signature(n: int, omega: laurent.UnitCirclePoint) -> int:
    """sigma(an_family(n), omega) in closed form, with no matrix built: 0 or 2.

    sigma is 0 where Delta_n(omega) > 0 and 2 where Delta_n(omega) < 0.
    Proof sketch: past the 4x4 corner the pencil t*A - A^T is tridiagonal
    with a zero diagonal, so its leading minors are P_1 = t - 1, P_2j = t^j,
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
    and InvalidRoot at omega = 1.  The sign of Delta_n is _delta_sign's at
    a root k/m and circle._sign_at's at a float angle.
    """
    if omega.is_one():
        raise circle.InvalidRoot()
    if omega.is_rational:
        delta = _delta_sign(n, omega.k, omega.m)
    else:
        delta = circle._sign_at(omega, 0, sorted(delta_n_closed(n).coeffs.items()))
    if delta == 0:
        dim = 2 * n + 2
        raise circle._zero_minors(omega, dim - 1, dim, True)
    return 0 if delta > 0 else 2


def delta_sign_scan(p: laurent.LaurentPoly, grid_size: int) -> list[tuple[float, float]]:
    """Arcs (theta_i, theta_{i+1}) where p changes strict sign on the circle.

    Samples the real value of the symmetric p at grid_size equispaced
    angles and reports each adjacent pair with opposite strict signs.
    """
    if not laurent.lp_is_symmetric(p):
        raise ValueError("sign scan is defined for symmetric polynomials")
    if grid_size < 2:
        raise ValueError("need at least two grid points")
    step = math.tau / grid_size
    values = [laurent.eval_symmetric_real(p, math.cos(i * step)) for i in range(grid_size)]
    arcs: list[tuple[float, float]] = []
    for i, a in enumerate(values):
        b = values[(i + 1) % grid_size]
        if (a > 0 and b < 0) or (a < 0 and b > 0):
            arcs.append((i * step, (i + 1) * step))
    return arcs
