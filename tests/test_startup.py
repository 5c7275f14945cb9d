"""What a fresh process executes: `import shakekit` runs no module, each CLI
command runs only the modules it uses, and none imports typing.

A registered module that has not run is still a lazy module; reading its
type, unlike reading an attribute, does not make it run.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# the directory the package is found in, so that tests/mutants.py's copy is the one run
SRC = Path(importlib.util.find_spec("shakekit").origin).parents[1]


def fresh(code: str, *args: str, site: bool = False):
    """The JSON that code prints last, run in a fresh process with SRC on its path.

    code runs after `import json, sys, types`; argv[2:] are args.  The
    process runs with `python -S` unless site is true.
    """
    prelude = "import json, sys, types; sys.path.insert(0, sys.argv[1])\n"
    flags = [] if site else ["-S"]
    proc = subprocess.run([sys.executable, *flags, "-c", prelude + code, str(SRC), *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# The shakekit modules that have executed, and whether random and typing are imported.
EXECUTED = ("[sorted(name for name, module in sys.modules.items()\n"
            "        if name.startswith('shakekit') and type(module) is types.ModuleType),\n"
            " 'random' in sys.modules, 'typing' in sys.modules]")


def test_import_executes_no_module():
    assert fresh(f"import shakekit; print(json.dumps({EXECUTED}))") == [["shakekit"], False, False]


def test_dir_lists_the_public_names_and_the_registered_modules():
    names = fresh("import shakekit; print(json.dumps([dir(shakekit), shakekit.__all__]))")
    modules = ["_record", "circle", "complexity", "errors", "exactlinalg", "goeritz", "laurent",
               "patterns", "seifert", "verify"]
    dunders = ["__all__", "__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
               "__name__", "__package__", "__path__", "__spec__", "__version__"]
    assert names == [sorted(names[1] + modules + dunders), sorted(names[1])]


CORE = ["shakekit", "shakekit._record", "shakekit.cli", "shakekit.errors"]
LINALG = sorted([*CORE, "shakekit.exactlinalg", "shakekit.laurent"])
# lt at a root other than 1/2 takes the minors' signs on the circle
SIGNS = sorted([*LINALG, "shakekit.circle"])
SEIFERT = sorted([*LINALG, "shakekit.seifert"])
# the classical signature is lt at the point -1, a laurent value; with a cold memo it reads the
# form A + A^T's integer pivots alone, so no sign is taken on the circle
SIGNATURE = sorted([*CORE, "shakekit.exactlinalg", "shakekit.laurent", "shakekit.seifert"])
KNOT_RULE = sorted([*CORE, "shakekit.exactlinalg"])
GOERITZ = sorted([*CORE, "shakekit.exactlinalg", "shakekit.goeritz"])
PATTERNS = sorted([*CORE, "shakekit.patterns"])
# the family's closed-form signs run no kernel, and no seifert unless a sign needs the exact
# fallback
CERTIFY = sorted([*CORE, "shakekit.complexity", "shakekit.laurent", "shakekit.patterns"])


@pytest.mark.parametrize("argv, code, executed", [
    pytest.param(["pattern", "normalize", "(P o Q)*"], 0, PATTERNS, id="normalize"),
    pytest.param(["pattern", "normalize", "P o"], 2, PATTERNS, id="normalize-refused"),
    pytest.param(["pattern", "eval", "P_1", "--assignment", "TABLE"], 0, PATTERNS, id="eval-table"),
    pytest.param(["pattern", "eval", "Q_1", "--assignment", "FAMILY"], 0, CERTIFY,
                 id="eval-family"),
    # Delta_6 vanishes at 1/6, so its sign takes the exact fallback, which refuses; the
    # fallback is the sign layer and delta_n_closed alone, with no kernel
    pytest.param(["pattern", "eval", "Q_5", "--assignment", "SIXTH"], 1,
                 sorted([*CERTIFY, "shakekit.circle", "shakekit.seifert"]),
                 id="eval-family-singular"),
    pytest.param(["alexander", "TREFOIL"], 0, SEIFERT, id="alexander"),
    pytest.param(["signature", "--seifert", "TREFOIL"], 0, SIGNATURE, id="signature-seifert"),
    pytest.param(["lt", "TREFOIL", "--root", "1/3"], 0, SIGNS, id="lt"),
    pytest.param(["lt", "TREFOIL", "--root", "1/6"], 1, SIGNS, id="lt-singular"),
    # refused by the parity check alexander uses, without executing seifert
    pytest.param(["lt", "ODD", "--root", "1/3"], 1, LINALG, id="lt-odd"),
    # det(A - A^T) = 0: refused by the knot rule, which executes no seifert
    pytest.param(["alexander", "NOT_A_KNOT"], 1, KNOT_RULE, id="alexander-not-a-knot"),
    pytest.param(["signature", "--seifert", "NOT_A_KNOT"], 1, KNOT_RULE,
                 id="signature-not-a-knot"),
    pytest.param(["lt", "NOT_A_KNOT", "--root", "1/3"], 1, LINALG, id="lt-not-a-knot"),
    pytest.param(["goeritz", "BANDS"], 0, GOERITZ, id="goeritz"),
    pytest.param(["signature", "--goeritz", "BANDS"], 0, GOERITZ, id="signature-goeritz"),
    pytest.param(["certify", "--framing", "5", "--complexity", "2"], 0, CERTIFY, id="certify"),
    pytest.param(["certify", "--framing", "0", "--complexity", "2"], 1, CERTIFY,
                 id="certify-refused"),
])
def test_each_command_executes_only_its_modules(tmp_path, argv, code, executed):
    files = {
        "TABLE": {"P": {"table": {"1": 3}}},
        "FAMILY": {"Q": {"family": {"root": "1/3"}}},
        "SIXTH": {"Q": {"family": {"root": "1/6"}}},
        "TREFOIL": {"dim": 2, "entries": [[-1, 1], [0, -1]]},
        "ODD": {"dim": 1, "entries": [[1]]},
        "NOT_A_KNOT": {"dim": 2, "entries": [[1, 0], [0, 1]]},
        "BANDS": {"bands": [{"orientable": False, "half_twists": 3}], "crossings": [[0]]},
    }
    for i, arg in enumerate(argv):
        if arg in files:
            argv[i] = str(tmp_path / f"{arg}.json")
            Path(argv[i]).write_text(json.dumps(files[arg]), encoding="utf-8")
    run = ("import contextlib, io; from shakekit.cli import main\n"
           "out, err = io.StringIO(), io.StringIO()\n"
           "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
           "    code = main(sys.argv[2:])\n"
           f"print(json.dumps([code, *{EXECUTED}]))")
    assert fresh(run, *argv) == [code, executed, False, False]


def test_only_verify_executes_verify():
    run = ("import contextlib, io; from shakekit.cli import main\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n"
           "    code = main(['verify', '--json'])\n"
           f"print(json.dumps([code, *{EXECUTED}]))")
    everything = sorted([*CERTIFY, "shakekit.circle", "shakekit.exactlinalg", "shakekit.goeritz",
                         "shakekit.seifert", "shakekit.verify"])
    assert fresh(run) == [0, everything, True, False]


def test_bench_tracer_installs_after_the_cli_import_alone():
    pytest.importorskip("numpy")
    code = ("import importlib.util\n"
            "import shakekit.cli\n"
            "spec = importlib.util.spec_from_file_location('tracing', sys.argv[2])\n"
            "tracing = importlib.util.module_from_spec(spec); spec.loader.exec_module(tracing)\n"
            "tracer = tracing.Tracer(); tracer.install()\n"
            "wrapped = hasattr(sys.modules['shakekit.verify'].run_checks, '__wrapped__')\n"
            "tracer.uninstall()\n"
            "print(json.dumps([wrapped, hasattr(sys.modules['shakekit.verify'].run_checks, "
            "'__wrapped__')]))")
    assert fresh(code, str(ROOT / "bench" / "tracing.py"), site=True) == [True, False]


def test_an_import_statement_reaches_a_registered_module():
    code = ("import shakekit, shakekit.seifert\n"
            "delta = shakekit.seifert.alexander([[-1, 1], [0, -1]])\n"
            "print(json.dumps([str(delta), shakekit.alexander is shakekit.seifert.alexander]))")
    assert fresh(code) == ["t^-1 - 1 + t", True]
