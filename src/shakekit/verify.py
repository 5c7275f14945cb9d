"""The reproduction suite behind `shakekit verify`.

Each check recomputes one of the package's headline numeric claims from
scratch and reports a pass/fail row with a short detail string.  All
randomized checks are seeded, so the whole table is deterministic and
two runs produce byte-identical reports.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable

from ._record import Record
from .complexity import _primes, certify_complexity
from .errors import strict_matrix
from .circle import _folded, _sign_at
from .exactlinalg import _pencil
from .goeritz import (
    GoeritzData,
    add_two_twists,
    classical_signature_goeritz,
    torus_band_presentation,
)
from .laurent import UnitCirclePoint
from .patterns import (
    Atom,
    Bar,
    Compose,
    Inverse,
    PatternTerm,
    Pound,
    Power,
    Star,
    Twist,
    eval_invariant,
    normalize,
    parse_pattern,
    table_profile,
)
from .seifert import (
    alexander,
    an_family,
    classical_signature_seifert,
    delta_n_closed,
    lt_signature,
)

_SEED = 1789

# The six-by-six member of the twisted family, kept as a frozen fixture
# so the signature check does not depend on the family constructor.
SIX_BY_SIX_FAMILY_MATRIX = [
    [1, 1, 1, 0, 0, 0],
    [0, 0, 1, 0, 0, -1],
    [1, 2, 0, 0, 0, 0],
    [0, 0, -1, 0, 0, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 1, 0],
]


class CheckResult(Record):
    name: str
    passed: bool
    detail: str


def _check_torus_signatures() -> str:
    for n in range(1, 21):
        got = classical_signature_goeritz(torus_band_presentation(n))
        if got != -2 * n:
            raise AssertionError(f"[2n+1] presentation with n={n}: got {got}, want {-2 * n}")
    return "sign([2n+1]) - (2n+1) = -2n for n = 1..20"


def _check_symmetrized_signatures() -> str:
    sig4 = classical_signature_seifert(an_family(1))
    if sig4 != 0:
        raise AssertionError(f"4x4 family matrix: signature {sig4}, want 0")
    sig6 = classical_signature_seifert(SIX_BY_SIX_FAMILY_MATRIX)
    if sig6 != 2:
        raise AssertionError(f"6x6 family matrix: signature {sig6}, want 2")
    return "sigma(A+A^T) = 0 (4x4) and 2 (6x6)"


def _check_closed_form_alexander() -> str:
    for n in range(1, 13):
        got = alexander(an_family(n))
        want = delta_n_closed(n)
        if got != want:
            raise AssertionError(f"n={n}: alexander gives {got}, closed form {want}")
    return "alexander(A_n) matches the nine-term closed form for n = 1..12"


def _check_delta_at_one() -> str:
    for n in range(1, 13):
        value = sum(delta_n_closed(n).coeffs.values())
        if value != 1:
            raise AssertionError(f"delta_{n}(1) = {value}, want 1")
    return "delta_n(1) = 1 exactly for n = 1..12"


def _check_roots_of_unity_identity() -> str:
    # An identity modulo t^n - 1 holds exactly at every n-th root of unity.
    target = [(-1, 1), (0, -1), (1, 1)]  # t^-1 - 1 + t, which is 2Re(t) - 1 on the circle
    for n in range(2, 13):
        got, want = _folded(delta_n_closed(n).coeffs.items(), n), _folded(target, n)
        if got != want:
            raise AssertionError(f"n={n}: delta_n folds to {got} mod t^n - 1, "
                                 f"t + t^-1 - 1 to {want}")
    return "delta_n = 2Re(t) - 1 at n-th roots, n = 2..12"


def _check_sigma_q_vanishes() -> str:
    terms = sorted(delta_n_closed(1).coeffs.items())
    for j in range(360):
        if _sign_at(UnitCirclePoint.root(j, 360), 0, terms) <= 0:
            raise AssertionError(f"delta_1 not positive at the root {j}/360")
    # the pencil's minors t - 1, t, (1 - t)(1 - t + t^2) and t^2 * Delta_1
    # vanish at no root of prime order, so every signature is answered
    a1, checked = an_family(1), 0
    for p in itertools.takewhile(lambda p: p <= 50, _primes()):
        for k in range(1, p):
            sig = lt_signature(a1, UnitCirclePoint.root(k, p))
            checked += 1
            if sig != 0:
                raise AssertionError(f"sigma(Q, {k}/{p}) = {sig}, want 0")
    return f"delta_1 > 0 on the 360-grid; sigma(Q, omega) = 0 at {checked} prime-order roots"


def _random_symmetric(rng: random.Random, dim: int, lo: int, hi: int) -> list[list[int]]:
    M = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            M[i][j] = M[j][i] = rng.randint(lo, hi)
    return M


def _check_two_twist_stability() -> str:
    rng = random.Random(_SEED)
    for case in range(100):
        dim = rng.randint(1, 6)
        gd = GoeritzData(_random_symmetric(rng, dim, -4, 4))
        l = [rng.randint(-3, 3) for _ in range(dim)]
        gd2 = add_two_twists(gd, l)
        if gd2.sign_G != gd.sign_G + 1:
            raise AssertionError(f"case {case}: sign(G2) != sign(G) + 1 for G={gd.G}, l={l}")
        if gd2.sigma != gd.sigma:
            raise AssertionError(f"case {case}: sigma changed for G={gd.G}, l={l}")
    return "sign(G2) = sign(G) + 1 and sigma stable on 100 random cases"


def random_pattern_term(rng: random.Random, depth: int) -> PatternTerm:
    """A random term over atoms P, Q, R and the wrapping-one pattern W# (Pound(Atom("W")))."""
    if depth <= 0 or rng.random() < 0.25:
        name = rng.choice(["P", "Q", "R", "W"])
        return Pound(Atom(name)) if name == "W" else Atom(name)
    kind = rng.randrange(7)
    if kind == 0:
        return Star(random_pattern_term(rng, depth - 1))
    if kind == 1:
        return Bar(random_pattern_term(rng, depth - 1))
    if kind == 2:
        return Twist(random_pattern_term(rng, depth - 1), rng.randint(-3, 3))
    if kind == 3:
        return Compose(random_pattern_term(rng, depth - 1), random_pattern_term(rng, depth - 1))
    if kind == 4:
        return Power(random_pattern_term(rng, depth - 1), rng.randint(1, 3))
    if kind == 5:
        return Pound(random_pattern_term(rng, depth - 1))
    return Inverse(random_pattern_term(rng, depth - 1))


def _check_rewrite_identities() -> str:
    P, Q = Atom("P"), Atom("Q")
    K, J = Pound(Atom("K")), Pound(Atom("J"))
    W = Pound(Atom("W"))
    pairs: list[tuple[PatternTerm, PatternTerm]] = [
        # (i): pound patterns connected-sum commute; pound is idempotent
        (Compose(K, J), Compose(J, K)),
        (Pound(Pound(Atom("K"))), Pound(Atom("K"))),
        # (ii): involutions, twist addition, zero twist
        (Star(Star(P)), P),
        (Twist(Twist(P, 2), 3), Twist(P, 5)),
        (Twist(P, 0), P),
        (Bar(Bar(P)), P),
        # (iii): star and bar move through twisting with a sign
        (Twist(Star(P), 3), Star(Twist(P, -3))),
        (Bar(Twist(P, 3)), Twist(Bar(P), -3)),
        # (iv): the inverse is bar-star in either order
        (Inverse(P), Bar(Star(P))),
        (Inverse(P), Star(Bar(P))),
        # (vi): star reverses composition
        (Star(Compose(P, Q)), Compose(Star(Q), Star(P))),
        # (vii): twisting distributes over composition
        (Twist(Compose(P, Q), 2), Compose(Twist(P, 2), Twist(Q, 2))),
        # (viii): wrapping-one collapses
        (Star(W), W),
        (Inverse(W), Bar(W)),
        (Twist(W, 5), W),
        (Pound(W), W),
        (Compose(W, K), Compose(K, W)),
    ]
    for lhs, rhs in pairs:
        if normalize(lhs) != normalize(rhs):
            raise AssertionError(
                f"normal forms differ: {normalize(lhs)} vs {normalize(rhs)}"
            )
    # (v) is a statement about concordance classes, not terms: the
    # composite with the inverse evaluates to zero for any profile.
    profile = table_profile({0: 7})
    if eval_invariant(Compose(P, Inverse(P)), {"P": profile}) != 0:
        raise AssertionError("P o P^-1 must evaluate to 0")
    if eval_invariant(Compose(Inverse(P), P), {"P": profile}) != 0:
        raise AssertionError("P^-1 o P must evaluate to 0")
    rng = random.Random(_SEED)
    for case in range(500):
        term = random_pattern_term(rng, 6)
        once = normalize(term)
        if normalize(parse_pattern(str(once))) != once:
            raise AssertionError(f"normalize not idempotent on case {case}: {term!r}")
    return "all eight identity groups hold; normalize idempotent on 500 random terms"


def _check_certificates() -> str:
    # the certificates take sigma from the closed form; the general kernel
    # on the family matrices is the independent cross-check
    primes = set(itertools.takewhile(lambda p: p <= 60, _primes()))
    base = an_family(1)
    for n in range(1, 9):
        family = an_family(1 + n)
        for c in range(1, 6):
            cert = certify_complexity(n, c)
            kernel = (lt_signature(base, cert.witness), lt_signature(family, cert.witness))
            if kernel != (2 * cert.i_q, 2 * cert.i_qn):
                raise AssertionError(f"(n={n}, c={c}): the kernel gives sigma = {kernel} at "
                                     f"{cert.witness}, the certificate 2 * ({cert.i_q}, {cert.i_qn})")
            if cert.bound < c:
                raise AssertionError(f"(n={n}, c={c}): bound {cert.bound} < c")
            if cert.witness.m not in primes:
                raise AssertionError(f"(n={n}, c={c}): witness order {cert.witness.m} not prime")
            if n % 2 == 1:
                if (cert.witness.k, cert.witness.m) != (1, 2):
                    raise AssertionError(f"(n={n}, c={c}): odd n should witness at -1")
                if cert.bound != c:
                    raise AssertionError(f"(n={n}, c={c}): odd n should give bound exactly c")
    return "bounds >= c with prime witnesses <= 60 for n = 1..8, c = 1..5; odd n pins -1"


def _det(M: list[list[int]]) -> int:
    """An integer determinant by cofactor expansion along the first row."""
    return sum((-1) ** j * x * _det([r[:j] + r[j + 1:] for r in M[1:]])
               for j, x in enumerate(M[0])) if M else 1


def _check_determinant_oracle() -> str:
    # P_n = det(tA - A^T) has exponents 0..n, so agreeing at t = 0..n proves the
    # identity; every fourth A has a zero diagonal, so 2x2 block steps run
    rng = random.Random(_SEED)
    for case in range(200):
        n = rng.randint(1, 5)
        A = [[rng.randint(-3, 3) if case % 4 or i != j else 0 for j in range(n)] for i in range(n)]
        minor = _pencil(strict_matrix(A, "matrix")).minor(n)
        for t in range(n + 1):
            got = sum(c * t ** e for e, c in minor.coeffs.items())
            want = _det([[t * A[i][j] - A[j][i] for j in range(n)] for i in range(n)])
            if got != want:
                raise AssertionError(f"case {case}: the pencil minor {minor} of A = {A} is {got} "
                                     f"at t = {t}, the cofactor expansion {want}")
    return "pencil P_n = cofactor det(tA - A^T) at t = 0..n for 200 random A, n = 1..5"


def run_checks() -> list[CheckResult]:
    """Run the whole reproduction table."""
    checks: list[tuple[str, Callable[[], str]]] = [
        ("torus-knot signatures", _check_torus_signatures),
        ("symmetrized-form signatures", _check_symmetrized_signatures),
        ("closed-form Alexander match", _check_closed_form_alexander),
        ("delta_n(1) normalization", _check_delta_at_one),
        ("root-of-unity identity", _check_roots_of_unity_identity),
        ("base-pattern signature vanishes", _check_sigma_q_vanishes),
        ("two-twist stability", _check_two_twist_stability),
        ("rewrite identity suite", _check_rewrite_identities),
        ("certificate pipeline", _check_certificates),
        ("determinant oracle", _check_determinant_oracle),
    ]
    results = []
    for name, fn in checks:
        try:
            results.append(CheckResult(name, True, fn()))
        except Exception as exc:
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
