"""Seeded faults that named tests must catch: a declared list of mutants.

Each entry of MUTANTS is (file, old text, new text, tests): file is a module
under src/shakekit, old text occurs in it exactly once, and the tests are
pytest node ids that must fail once old text is replaced by new text.  For
each entry the script copies src/ into a temporary directory, applies the
mutant there, and runs only the named tests against the copy, one pytest
process at a time.  It fails if any mutant survives, if an old text is
missing or not unique (so a refactor must update the list), or if the named
tests do not all pass on the unmutated copy first.

    python tests/mutants.py        # every mutant, in order

A mutant is killed only when pytest reports failed tests (exit 1) and
each named test, or a test inside each named class or file, is among them;
an import error, a missing test or an interrupted run counts as a survivor.
The tests named here import the copy through PYTHONPATH: in-process,
or, in tests/test_startup.py, in processes started on the directory the
package was found in; a test that starts its own process on ROOT/src
would not.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FLOAT_BOUNDS = "tests/test_float_bounds.py"
EXACT = "tests/test_exactlinalg.py"
COMPLEXITY = "tests/test_complexity.py"
SATELLITE = ("tests/test_patterns.py::TestSatelliteSeifert"
             "::test_values_match_the_block_seifert_matrix")

MUTANTS = [
    # 1. the sign at -1 read in integers without the (-1)^k of D_k = (-2)^k P_k(-1)
    ("circle.py",
     "return ((value > 0) - (value < 0)) * (-1 if k % 2 else 1)",
     "return (value > 0) - (value < 0)",
     [f"{EXACT}::TestHermitianInertia::test_minus_one_takes_no_float_sign",
      "tests/test_seifert.py::TestSignatures::test_classical_after_the_pencil_is_memoised"]),
    # 2. the zero test multiplies by 1 + t^s in place of 1 - t^s
    ("circle.py",
     "product[e] = product.get(e, 0) - c",
     "product[e] = product.get(e, 0) + c",
     [f"{EXACT}::TestSignAt::test_zero_test_agrees_with_dense_division",
      f"{EXACT}::TestSignAt::test_zero_test_separates_the_divisors_of_the_order"]),
    # 3. the exact zero test stops at order 50, not 5,000
    ("circle.py",
     "_MAX_ZERO_TEST_ORDER = 5000",
     "_MAX_ZERO_TEST_ORDER = 50",
     [f"{EXACT}::TestSignAt::test_zero_test_separates_the_divisors_of_the_order"]),
    # 4. the grid rule reads order 5 like the other primes
    ("complexity.py",
     "return (j,) if p in (2, 5) else (j - 1, j % WITNESS_GRID)",
     "return (j,) if p in (2,) else (j - 1, j % WITNESS_GRID)",
     [f"{COMPLEXITY}::TestWitnessSearch::test_witness_table",
      f"{COMPLEXITY}::TestWitnessSearch::test_third_roots_keep_two_grid_points"]),
    # 5. Gundelfinger's isolated zero minor counted as +2/0, not +1/+1
    ("exactlinalg.py",
     "n_plus, n_minus, last, k = n_plus + 1, n_minus + 1, signs[k + 1], k + 2",
     "n_plus, n_minus, last, k = n_plus + 2, n_minus, signs[k + 1], k + 2",
     [f"{EXACT}::TestExactHermitianInertia::test_isolated_zero_minor_gundelfinger"]),
    # 6. the family's half signature -1, not 1, where Delta_n < 0
    ("complexity.py",
     "values[k] = 0 if delta > 0 else 1",
     "values[k] = 0 if delta > 0 else -1",
     [f"{COMPLEXITY}::TestClosedFormSigns::test_delta_is_the_only_sign_of_the_signature",
      f"{COMPLEXITY}::TestClosedForm::test_matches_the_kernel_at_every_root"]),
    # 7. no sign flip for an odd minor at a float angle where sin(theta/2) < 0
    ("circle.py",
     "return -sign if k % 2 and not omega.is_rational and math.sin(theta / 2) < 0 else sign",
     "return sign",
     [f"{EXACT}::TestExactHermitianInertia::test_matches_numpy_at_float_angles",
      f"{COMPLEXITY}::TestClosedForm::test_matches_the_kernel_at_angles"]),
    # 8. the pencil packed at a quarter of its Hadamard bits, not half
    ("exactlinalg.py",
     "if (bits := _width(math.isqrt(bound) + 1)) > _NARROW_BITS",
     "if (bits := _width(math.isqrt(math.isqrt(bound)) + 1)) > _NARROW_BITS",
     ["tests/test_acceptance.py::test_10_determinant_oracle"]),
    # 9. the certified sum's bound 100 times too small
    ("circle.py",
     "bound = (err + 8 * _U) * math.fsum(abs(c) for c, _ in scaled)",
     "bound = (err + 8 * _U) * math.fsum(abs(c) for c, _ in scaled) / 100",
     [f"{FLOAT_BOUNDS}::TestSumBound::test_exact_zeros_give_zero_or_a_refusal"]),
    # 10. _DELTA_BOUND 100 times too small: 6.4u
    ("complexity.py",
     "_DELTA_BOUND = 640 * 2.0**-53",
     "_DELTA_BOUND = 6.4 * 2.0**-53",
     [f"{FLOAT_BOUNDS}::TestDeltaBound::test_exact_zeros_give_zero_or_a_refusal"]),
    # 11. the root phase's error 8u(max|phi| + 1) taken as 0.08u(max|phi| + 1)
    ("circle.py",
     "err = 8 * _U * (max(abs(a) for _, a in pairs) + 1)",
     "err = 0.08 * _U * (max(abs(a) for _, a in pairs) + 1)",
     [f"{FLOAT_BOUNDS}::TestSumBound::test_exact_zeros_give_zero_or_a_refusal"]),
    # 12. _angle_error, the error of a float angle's phases, taken as 0.08u in place of 8u
    ("circle.py",
     "return 8 * _U * (max(abs(theta), 2.0 ** -1022) * reach + k + 1)",
     "return 0.08 * _U * (max(abs(theta), 2.0 ** -1022) * reach + k + 1)",
     [f"{FLOAT_BOUNDS}::TestSumBound::test_a_float_angle_near_a_zero_is_refused"]),
    # 13. the determinant read back without the sign of its row swaps
    ("exactlinalg.py",
     "coeffs[offset] = sign * (digit := ((value + half) & mask) - half)",
     "coeffs[offset] = (digit := ((value + half) & mask) - half)",
     [f"{EXACT}::TestDetKernel", "tests/test_acceptance.py::test_10_determinant_oracle"]),
    # 14. a pencil row holding t alone packed unshifted, so the half-width read of a Seifert
    # matrix whose rows hold one power of t each misplaces its minors
    ("exactlinalg.py",
     "packed[j] = (row[j] << bits - bits * low) + c.get(j, 0)",
     "packed[j] = (row[j] << bits) + c.get(j, 0)",
     [f"{EXACT}::TestOneSidedPencils::test_half_width_reads_every_minor"]),
    # 15. the family's singular form refused at D_dim, not at D_(dim-1) with it
    ("complexity.py",
     "raise circle._zero_minors(omega, 2 * n + 1, 2 * n + 2, True)",
     "raise circle._zero_minors(omega, 2 * n + 2, 2 * n + 2, True)",
     [f"{COMPLEXITY}::TestClosedFormSigns::test_delta_is_the_only_sign_of_the_signature",
      f"{COMPLEXITY}::TestClosedForm::test_singular_form_is_refused_as_the_kernel_does"]),
    # 16. a bar leaf valued as its atom's value, not its negation; certify's cross-check
    # compares |I(Q) - I(Q_n)| and misses it
    ("patterns.py",
     "return -value if leaf.bar else value",
     "return value",
     [SATELLITE]),
    # 17. the twist reflected when star == bar, and kept otherwise
    ("patterns.py",
     "arg = leaf.twist if leaf.star == leaf.bar else -leaf.twist",
     "arg = -leaf.twist if leaf.star == leaf.bar else leaf.twist",
     [SATELLITE]),
    # 18. the Goeritz signature sign(G) + eta, not sign(G) - eta
    ("goeritz.py",
     "return self.sign_G - self.eta",
     "return self.sign_G + self.eta",
     ["tests/test_goeritz.py::TestTorusSignature::test_signature_family",
      "tests/test_acceptance.py::test_01_torus_knot_signatures"]),
    # 19. the goeritz command's sign_G printed as sigma
    ("cli.py",
     '"sign_G": gd.sign_G',
     '"sign_G": gd.sigma',
     ["tests/test_cli.py::TestGoeritz::test_payload"]),
    # 20. no integer branch at -1: its signs go to the float sum and the zero test
    ("circle.py",
     "if omega.is_rational and omega.m == 2:",
     "if False:",
     [f"{EXACT}::TestHermitianInertia::test_minus_one_takes_no_float_sign",
      f"{EXACT}::TestSignAt::test_order_two_is_read_in_integers"]),
    # 21. the pencil built at -1 on a cold memo, not only read where the memo holds it
    ("exactlinalg.py",
     "_pencil.held.get(key) if minus_one",
     "_pencil(key) if minus_one",
     ["tests/test_seifert.py::TestClassicalSignatureRoutes::test_a_cold_call_builds_no_pencil"]),
    # 22. the memo keeps every key, not only the ones used last within its budget
    ("exactlinalg.py",
     "while total > _MEMO_BITS and len(held) > 1:",
     "while False:",
     [f"{EXACT}::TestPencilMemo::test_the_memo_holds_the_matrix_used_last"]),
    # 23. narrow points kept where they took the same path, whatever pairs they read
    ("exactlinalg.py",
     "elif taken != path or terms != first.terms:",
     "elif taken != path:",
     [f"{EXACT}::TestNarrowPoints::test_minors_near_the_hadamard_bound_fall_back",
      f"{EXACT}::test_kernel_pivots_match_their_digest",
      f"{EXACT}::test_kernel_minors_match_their_width_free_digest"]),
    # 24. verify left out of the package's registry, so cli's import executes it on every command
    ("__init__.py",
     '"patterns", "complexity", "verify"):',
     '"patterns", "complexity"):',
     ["tests/test_startup.py::test_each_command_executes_only_its_modules"]),
    # 25. the certificate row takes c = 1's witness for every c without checking it
    ("verify.py",
     "if cert.witness != witness:",
     "if False:",
     ["tests/test_acceptance.py::"
      "test_a_certificate_off_the_shared_witness_fails_the_certificate_row"]),
    # 26. past its budget the memo evicts the newest pencil first, not the oldest
    ("exactlinalg.py",
     "oldest = next(iter(held))",
     "oldest = next(reversed(held))",
     [f"{EXACT}::TestPencilMemo::test_the_memo_holds_the_matrix_used_last"]),
    # 27. the zero test refused at order 5,000 itself, not only past it
    ("circle.py",
     "omega.m > _MAX_ZERO_TEST_ORDER",
     "omega.m >= _MAX_ZERO_TEST_ORDER",
     [f"{EXACT}::TestSignAt::test_the_zero_test_stops_at_its_cap"]),
]


def _pytest(src: Path, tests: list[str]) -> tuple[int, list[str]]:
    """pytest's exit code for the tests, with the package imported from src, and the failed ids."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                           *tests], cwd=ROOT, env=env, capture_output=True, text=True)
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    return proc.returncode, failed


def _survivors(tests: list[str], failed: list[str]) -> list[str]:
    """The named tests under which no test failed: a class or file names every test in it."""
    return [test for test in tests
            if not any(f == test or f.startswith((test + "::", test + "[")) for f in failed)]


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        named = sorted({test for *_, tests in MUTANTS for test in tests})
        code, failed = _pytest(src, named)
        if code:
            print(f"the named tests fail on the unmutated tree (pytest exit {code}): {failed}")
            return 1
        for i, (file, old, new, tests) in enumerate(MUTANTS, 1):
            path = src / "shakekit" / file
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                failures.append(i)
                print(f"mutant {i}: {file} holds its old text {text.count(old)} times, not once")
                continue
            start = time.perf_counter()
            path.write_text(text.replace(old, new), encoding="utf-8")
            try:
                code, failed = _pytest(src, tests)
            finally:
                path.write_text(text, encoding="utf-8")
            survived = _survivors(tests, failed) if code == 1 else tests
            verdict = f"SURVIVED {survived} (pytest exit {code})" if survived else "killed"
            print(f"mutant {i}: {file}: {verdict} in {time.perf_counter() - start:.1f} s")
            if survived:
                failures.append(i)
    print(f"{len(MUTANTS) - len(failures)}/{len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
