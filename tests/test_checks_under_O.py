"""The checks on the determinant, inertia and certificate paths are explicit
exceptions, not asserts, so they hold under ``python -O`` too."""

import os
import subprocess
import sys
from pathlib import Path

import shakekit

SCRIPT = r"""
import numpy as np

from shakekit import complexity, exactlinalg, seifert
from shakekit.laurent import LaurentPoly, UnitCirclePoint

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
exactlinalg.det_laurent = lambda rows: LaurentPoly({0: 1, 1: 2})
outcome("alexander", lambda: seifert.alexander([[-1, 1], [0, -1]]))
exactlinalg.det_laurent = real_det
exactlinalg._pencil_det.cache_clear()

real_eigvalsh = np.linalg.eigvalsh
np.linalg.eigvalsh = lambda H: np.array([np.nan, 1.0])
outcome("inertia", lambda: exactlinalg.inertia_hermitian_at_root(
    [[-1, 1], [0, -1]], UnitCirclePoint.minus_one()))
np.linalg.eigvalsh = real_eigvalsh

complexity.eval_invariant = lambda term, assignment: 0
outcome("cross-check", lambda: complexity.certify_complexity(1, 1))

complexity.find_witness_root = lambda *args, **kwargs: UnitCirclePoint.root(1, 3)
complexity.lt_signature = lambda *args, **kwargs: 0
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
    assert "zero eigenvalue" in lines[1]
    assert "pattern-calculus" in lines[2]
    assert "bound 0 < c = 1" in lines[3]
