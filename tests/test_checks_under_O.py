"""The checks on the determinant, inertia and certificate paths, on
integer-matrix rows and entries and on angles, are explicit exceptions, not
asserts, so they hold under ``python -O`` too."""

import os
import subprocess
import sys
from pathlib import Path

import shakekit

SCRIPT = r"""
import enum

from shakekit import circle, complexity, exactlinalg, goeritz, seifert
from shakekit.laurent import UnitCirclePoint

if __debug__:
    raise SystemExit("expected to run under python -O")


def outcome(label, fn):
    try:
        fn()
    except (ArithmeticError, ValueError) as exc:
        print(label, type(exc).__name__, exc)
    else:
        print(label, "no error")


# a pencil's pivot of odd degree whose value T - 1 does not divide
outcome("read-back", lambda: exactlinalg.Pivots(8, (1,), (0,)).minor(1))

# an isolated zero minor between two minors of the same sign, at 1/3, where the signs are
# _sign_at's (at 1/2 on a cold memo none are: the form A + A^T answers)
real_sign_at = circle._sign_at
circle._sign_at = lambda omega, k, terms: [-1, 0, -1][k - 1]
outcome("inertia", lambda: exactlinalg.inertia_hermitian_at_root(
    [[-1, 1, 0], [0, -1, 1], [0, 0, -1]], UnitCirclePoint.root(1, 3)))
circle._sign_at = real_sign_at

complexity.eval_invariant = lambda term, assignment: 0
outcome("cross-check", lambda: complexity.certify_complexity(1, 1))

complexity.find_witness_root = lambda *args, **kwargs: UnitCirclePoint.root(1, 3)
complexity._delta_sign = lambda *args, **kwargs: 1
outcome("bound", lambda: complexity.certify_complexity(2, 1))

# a float entry, before and after the memo holds the pencil of an equal key
exactlinalg._pencil.cache_clear()
outcome("float-cold", lambda: seifert.alexander([[1.0, 1], [0, 1]]))
seifert.alexander([[1, 1], [0, 1]])
outcome("float-warm", lambda: seifert.alexander([[1.0, 1], [0, 1]]))
outcome("classical-float-warm", lambda: seifert.classical_signature_seifert([[1.0, 1], [0, 1]]))


class Flag(enum.IntEnum):
    ONE = 1


# the refusals of the symmetric integer forms
for form in (goeritz.GoeritzData, exactlinalg.inertia_symmetric_exact):
    outcome(f"{form.__name__}-asymmetric", lambda: form([[0, 1], [2, 0]]))
    outcome(f"{form.__name__}-enum", lambda: form([[0, 1], [Flag.ONE, 0]]))

# a row that is not a list, and an angle that is not a float or an int in the float range
from shakekit.errors import strict_matrix
outcome("strict_matrix-row", lambda: strict_matrix(["12", "34"], "matrix"))
outcome("theta-str", lambda: UnitCirclePoint(theta="0.5"))
outcome("theta-bool", lambda: UnitCirclePoint(theta=True))
outcome("theta-huge", lambda: UnitCirclePoint(theta=10**400))
"""


def test_checks_raise_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(shakekit.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["read-back", "ArithmeticError"],
        ["inertia", "ArithmeticError"],
        ["cross-check", "ArithmeticError"],
        ["bound", "ArithmeticError"],
        ["float-cold", "ValueError"],
        ["float-warm", "ValueError"],
        ["classical-float-warm", "ValueError"],
        ["GoeritzData-asymmetric", "ValueError"],
        ["GoeritzData-enum", "ValueError"],
        ["inertia_symmetric_exact-asymmetric", "ValueError"],
        ["inertia_symmetric_exact-enum", "ValueError"],
        ["strict_matrix-row", "ValueError"],
        ["theta-str", "ValueError"],
        ["theta-bool", "ValueError"],
        ["theta-huge", "ValueError"],
    ], proc.stdout
    assert "not a palindromic minor" in lines[0]
    assert "D_1 and D_3 around the zero D_2" in lines[1]
    assert "pattern-calculus" in lines[2]
    assert "bound 0 < c = 1" in lines[3]
    assert {line.split(None, 1)[1] for line in lines[4:7]} \
        == {"ValueError expected integer matrix entry at (0,0), got 1.0"}
    assert [line.split(None, 2)[2] for line in lines[7:]] == [
        "G must be symmetric, differs at (0,1)",
        "expected integer G entry at (1,0), got <Flag.ONE: 1>",
        "matrix must be symmetric, differs at (0,1)",
        "expected integer matrix entry at (1,0), got <Flag.ONE: 1>",
        "matrix row 0 must be a list or a tuple, got '12'",
        "theta must be a float, or an int within the float range +-1.7976931348623157e+308; "
        "got '0.5'",
        "theta must be a float, or an int within the float range +-1.7976931348623157e+308; "
        "got True",
        "theta must be a float, or an int within the float range +-1.7976931348623157e+308; "
        "got " + "1" + "0" * 79 + "... (401 characters in all)",
    ]
