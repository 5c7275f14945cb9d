"""Seifert-matrix invariants and the twisted family A_n.

alexander(A) is the symmetrized polynomial t^(-dim/2) * det(t*A - A^T);
it is symmetric in t <-> 1/t by construction, since the pencil's
read-back (exactlinalg.Pivots._read) mirrors each coefficient of an
even-order minor from exponent e to dim - e, and its value 1 at t = 1 is
checked on every computation.  an_family(n) builds the (2n+2)x(2n+2)
Seifert matrix of the n-th twisted satellite in the family this package
certifies complexity bounds with; its Alexander polynomial has the
nine-term closed form delta_n_closed(n), and its Levine-Tristram
signature a closed form, read as one sign of Delta_n, with its proof
sketch, in complexity.a_family_profile.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from . import exactlinalg, laurent
from .errors import DomainError, even_dimension, strict_int, strict_matrix, unit_determinant

_MINUS_ONE = laurent.UnitCirclePoint.root(1, 2)  # sigma_omega there is the classical signature


def alexander(A: Sequence[Sequence[int]]) -> laurent.LaurentPoly:
    """Symmetrized Alexander polynomial t^(-dim/2) * det(t*A - A^T)."""
    key = strict_matrix(A, "matrix")
    n = len(key)
    even_dimension(n)
    delta = exactlinalg._pencil(key).minor(n).shift(-n // 2)
    unit_determinant(sum(delta.coeffs.values()))
    return delta


def _even(A: Sequence[Sequence[int]]) -> None:
    """Refuse an odd-dimensional A with OddDimension, once the strict input check passes.

    A knot's Seifert matrix has even dimension, as alexander checks; an
    even-length A is checked by inertia_hermitian_at_root, which accepts
    any square matrix.
    """
    if len(A) % 2:
        even_dimension(len(strict_matrix(A, "matrix")))


def classical_signature_seifert(A: Sequence[Sequence[int]]) -> int:
    """Signature of the symmetrized form A + A^T, the Levine-Tristram signature at -1.

    exactlinalg.inertia_hermitian_at_root decides it, as it does every
    lt_signature: from the memoised pencil's exact signs where they count,
    else from the form A + A^T, with no pencil built.  Raises OddDimension
    for an odd-dimensional A.
    """
    _even(A)
    return exactlinalg.inertia_hermitian_at_root(A, _MINUS_ONE).signature


def lt_signature(A: Sequence[Sequence[int]], omega: laurent.UnitCirclePoint) -> int:
    """Levine-Tristram signature sigma(K, omega), an even integer.

    Raises OddDimension for an odd-dimensional A, NearSingular where the
    form is singular, other than at -1, or where a sign is not certified,
    and InvalidRoot at omega=1.
    """
    _even(A)
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
