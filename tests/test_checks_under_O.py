"""The checks on the determinant, inertia and certificate paths are explicit
exceptions, not asserts, so they hold under ``python -O`` too."""

import os
import subprocess
import sys
from pathlib import Path

import shakekit

SCRIPT = r"""
from shakekit import complexity, exactlinalg, seifert
from shakekit.laurent import UnitCirclePoint

if __debug__:
    raise SystemExit("expected to run under python -O")


def outcome(label, fn):
    try:
        fn()
    except ArithmeticError as exc:
        print(label, type(exc).__name__, exc)
    else:
        print(label, "no error")


real_det = exactlinalg.det_laurent
# pivots whose last one, 1 + 2t, is not symmetric after the t^-1 shift
exactlinalg.det_laurent = lambda rows, pivots: exactlinalg.Pivots(4, (1, 1 + 2 * 16), (0, 0))
outcome("alexander", lambda: seifert.alexander([[-1, 1], [0, -1]]))
exactlinalg.det_laurent = real_det
exactlinalg._pencil.cache_clear()

# an isolated zero minor between two minors of the same sign
real_sign_at = exactlinalg._sign_at
exactlinalg._sign_at = lambda omega, k, terms: [-1, 0, -1][k - 1]
outcome("inertia", lambda: exactlinalg.inertia_hermitian_at_root(
    [[-1, 1, 0], [0, -1, 1], [0, 0, -1]], UnitCirclePoint.minus_one()))
exactlinalg._sign_at = real_sign_at

complexity.eval_invariant = lambda term, assignment: 0
outcome("cross-check", lambda: complexity.certify_complexity(1, 1))

complexity.find_witness_root = lambda *args, **kwargs: UnitCirclePoint.root(1, 3)
complexity._family_signature = lambda *args, **kwargs: 0
outcome("bound", lambda: complexity.certify_complexity(2, 1))
"""


def test_checks_raise_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(shakekit.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["alexander", "ArithmeticError"],
        ["inertia", "ArithmeticError"],
        ["cross-check", "ArithmeticError"],
        ["bound", "ArithmeticError"],
    ], proc.stdout
    assert "not symmetric" in lines[0]
    assert "D_1 and D_3 around the zero D_2" in lines[1]
    assert "pattern-calculus" in lines[2]
    assert "bound 0 < c = 1" in lines[3]
