"""What `import shakekit` offers, name by name, and what `import shakekit.cli`
loads: no dataclasses machinery, every traced module."""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The public API; a name joins or leaves it only by an edit here.
PUBLIC_API = [
    "Atom", "Band", "BandPresentation", "Bar", "ComplexityCertificate", "Compose",
    "DomainError", "GoeritzData", "Inertia", "InvalidRoot", "Inverse", "LaurentPoly",
    "NearSingular", "NormalForm", "OddDimension", "PatternSyntaxError", "Pound", "Power",
    "Star", "Twist", "UnassignedAtom", "UnitCirclePoint", "WitnessNotFound",
    "add_two_twists", "alexander", "an_family", "certify_complexity",
    "classical_signature_goeritz", "classical_signature_seifert", "delta_n_closed",
    "delta_sign_scan", "det_laurent", "eval_invariant", "find_witness_root",
    "goeritz_form", "inertia_hermitian_at_root",
    "inertia_symmetric_exact", "lp_is_symmetric", "lt_signature", "normalize",
    "parse_pattern", "render_term", "retrace_term", "table_profile",
    "torus_band_presentation",
]


def test_public_api_is_pinned():
    import shakekit

    names = shakekit.__all__
    assert names == sorted(set(names)), "__all__ is sorted, without duplicates"
    assert [name for name in names if not hasattr(shakekit, name)] == []
    assert names == PUBLIC_API


def test_the_sign_refusals_have_one_home():
    import shakekit

    assert shakekit.NearSingular is shakekit.circle.NearSingular
    assert shakekit.InvalidRoot is shakekit.circle.InvalidRoot
    assert [name for name in ("NearSingular", "InvalidRoot", "_sign_at", "_certified_sign")
            if hasattr(shakekit.exactlinalg, name)] == []


# The public members of the value classes, fields included; each value has
# one spelling, so an alias joins a class only by an edit here.
VALUE_MEMBERS = {
    "LaurentPoly": ["coeffs", "shift"],
    "UnitCirclePoint": ["angle", "is_one", "is_rational", "k", "m", "root", "theta"],
    "Inertia": ["dim", "n_minus", "n_plus", "n_zero", "signature"],
    "BandPresentation": ["bands", "crossings"],
    "GoeritzData": ["G", "eta", "nonorientable", "sigma", "sign_G", "to_json"],
}


def test_value_class_members_are_pinned():
    import shakekit

    members = {}
    for name in VALUE_MEMBERS:
        cls = getattr(shakekit, name)
        members[name] = sorted(m for m in {*dir(cls), *getattr(cls, "_fields", ())}
                               if not m.startswith("_"))
    assert members == VALUE_MEMBERS


def test_cli_import_loads_no_dataclasses_and_every_traced_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = {module for module, _, _ in tracing.SPANS + tracing.LEAVES}

    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import shakekit.cli; "
            "print(json.dumps(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = set(json.loads(proc.stdout))
    assert not loaded & {"dataclasses", "inspect", "ast", "dis"}
    assert traced <= loaded


def test_every_module_level_import_is_read():
    # a name that a module imports at module level and never reads is
    # dead weight at start-up and a false lead for a reader
    unread = []
    for path in sorted((ROOT / "src" / "shakekit").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]: node.lineno
                    for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read]
    assert unread == []
