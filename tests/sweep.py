"""Generated mutants: each comparison of a module flipped, one at a time, against its tests.

A flip turns one comparison operator of src/shakekit/MODULE.py into its
neighbour: < into <=, <= into <, > into >=, >= into >, == into != and !=
into ==.  The flips are found with the stdlib ast, and each is written
into the source text at its operator, so comments and line numbers stay;
the mutated text must parse to the original tree with that one operator
changed.  For each flip the script copies src/ into a temporary directory,
applies it there, and runs the module's test files (TESTS) with -x against
the copy, one pytest process at a time, under a timeout of TIMEOUT s.

    python tests/sweep.py circle    # every flip of circle.py
    python tests/sweep.py           # a seeded sample of the flips of SWEPT

A mutant is killed when pytest reports a failed test (exit 1), when the
tests cannot be collected (exit 2, as for a flip that breaks an import; the
unmutated copy is collected first), or when it runs past the timeout, as a
flipped loop bound can hang; a timed-out mutant is named as such.  A mutant that survives passes only if
tests/equivalent_mutants.txt lists it, with the reason no test can tell it
from the source.  A listed mutant that is killed, a listing that names no
mutant of a swept module, any other pytest exit, and test files that fail
on the unmutated copy all fail the run.

SWEPT names the modules whose every flip is killed or listed; the sample
is drawn from their unlisted flips.  A change to a module runs its whole
sweep, and a module joins SWEPT once that sweep is resolved.
"""

import ast
import copy
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EQUIVALENT = ROOT / "tests" / "equivalent_mutants.txt"
TIMEOUT = 150
SEED, SAMPLE = 56, 4
SWEPT = ("circle", "complexity")

# Each module's test files, fastest first, as -x stops at the first failure
TESTS = {
    "__init__": ["tests/test_startup.py", "tests/test_imports.py"],
    "_record": ["tests/test_records.py"],
    "circle": ["tests/test_float_bounds.py", "tests/test_exactlinalg.py"],
    "cli": ["tests/test_cli.py"],
    "complexity": ["tests/test_float_bounds.py", "tests/test_complexity.py"],
    "errors": ["tests/test_strict_input.py", "tests/test_cli.py"],
    "exactlinalg": ["tests/test_exactlinalg.py"],
    "goeritz": ["tests/test_goeritz.py"],
    "laurent": ["tests/test_laurent.py"],
    "patterns": ["tests/test_patterns.py"],
    "seifert": ["tests/test_seifert.py"],
    "verify": ["tests/test_acceptance.py"],
}

FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
TEXT = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!="}
OPERATOR = re.compile(rb"<=|>=|==|!=|<|>")


def _functions(tree: ast.Module) -> dict[ast.AST, str]:
    """Each node of tree mapped to the dotted name of the function or class around it."""
    names = {}

    def visit(node: ast.AST, name: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if name == "<module>" else f"{name}.{child.name}"
            names[child] = inner
            visit(child, inner)

    visit(tree, "<module>")
    return names


def mutants(module: str) -> list[dict]:
    """Every flip of module's comparisons, in source order, each with its name and text."""
    file = f"{module}.py"
    source = (ROOT / "src" / "shakekit" / file).read_bytes()
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    tree = ast.parse(source)
    names = _functions(tree)
    found, seen = [], {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        for i, op in enumerate(node.ops):
            if type(op) not in FLIPS:
                continue
            left = node.left if i == 0 else node.comparators[i - 1]
            right = node.comparators[i]
            lo = starts[left.end_lineno - 1] + left.end_col_offset
            hi = starts[right.lineno - 1] + right.col_offset
            match = next(m for m in OPERATOR.finditer(source, lo, hi)
                         if m.group() == TEXT[type(op)].encode())
            new_op = TEXT[FLIPS[type(op)]].encode()
            text = source[:match.start()] + new_op + source[match.end():]
            want, got = copy.deepcopy(tree), ast.parse(text)
            at = (node.lineno, node.col_offset)
            target = next(n for n in ast.walk(want)
                          if isinstance(n, ast.Compare) and (n.lineno, n.col_offset) == at)
            target.ops[i] = FLIPS[type(op)]()
            if ast.dump(got) != ast.dump(want):
                raise SystemExit(f"{file}: the flip at byte {match.start()} changes more "
                                 "than its operator")
            mutated = next(n for n in ast.walk(got)
                           if isinstance(n, ast.Compare) and (n.lineno, n.col_offset) == at)
            old, new = (" ".join(ast.get_source_segment(s.decode(), n).split())
                        for s, n in ((source, node), (text, mutated)))
            lineno = source.count(b"\n", 0, match.start()) + 1
            name = f"{file}::{names[node]}: {old} -> {new}"
            seen[name] = seen.get(name, 0) + 1
            if seen[name] > 1:
                name += f" #{seen[name]}"
            found.append({"module": module, "name": name, "line": lineno, "text": text})
    found.sort(key=lambda m: m["line"])
    return found


def equivalents() -> dict[str, str]:
    """The listed mutants, each name mapped to its reason."""
    listed = {}
    for line in EQUIVALENT.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, reason = line.partition(" | ")
            listed[name.strip()] = reason.strip()
    return listed


def _pytest(src: Path, tests: list[str]) -> tuple[int | None, str]:
    """pytest's exit code for the tests with -x, the package imported from src, and its last
    line; None for the code when it runs past TIMEOUT, after its process group is ended."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                             *tests], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"past the {TIMEOUT} s timeout"
    lines = out.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def main(argv: list[str]) -> int:
    if len(argv) > 1 or argv and argv[0] not in TESTS:
        print(f"usage: python tests/sweep.py [MODULE], MODULE one of {', '.join(TESTS)}")
        return 2
    listed = equivalents()
    every = [m for module in (argv or SWEPT) for m in mutants(module)]
    stale = {name for name in listed if name.split("::")[0][:-3] in (argv or SWEPT)}
    stale -= {m["name"] for m in every}
    if stale:
        print(f"listed as equivalent, but no such mutant: {sorted(stale)}")
        return 1
    chosen = every if argv else random.Random(SEED).sample(
        [m for m in every if m["name"] not in listed], SAMPLE)
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        for module in sorted({m["module"] for m in chosen}):
            code, last = _pytest(src, TESTS[module])
            if code != 0:
                print(f"{module}'s tests fail on the unmutated tree (pytest exit {code}): {last}")
                return 1
        for m in chosen:
            path = src / "shakekit" / f"{m['module']}.py"
            text = path.read_bytes()
            start = time.perf_counter()
            path.write_bytes(m["text"])
            try:
                code, last = _pytest(src, TESTS[m["module"]])
            finally:
                path.write_bytes(text)
            if code == 0:
                ok = m["name"] in listed
                verdict = "equivalent" if ok else "SURVIVED"
            elif code in (None, 1, 2):
                ok = m["name"] not in listed
                verdict = {None: "killed: timed out", 1: "killed",
                           2: "killed: the tests could not be collected"}[code] + (
                    "" if ok else ", though LISTED as equivalent")
            else:
                ok, verdict = False, f"ERROR (pytest exit {code}: {last})"
            if not ok:
                failures.append(m["name"])
            took = time.perf_counter() - start
            print(f"line {m['line']}: {m['name']}: {verdict} in {took:.1f} s", flush=True)
    print(f"{len(chosen) - len(failures)}/{len(chosen)} mutants killed or listed as equivalent")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
