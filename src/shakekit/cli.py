"""Command-line surface for the invariant engine.

Subcommands: alexander, signature, lt, goeritz, pattern, certify,
verify.  Inputs are JSON files; outputs are deterministic JSON payloads
on stdout (verify prints a table unless --json is given).  Exit codes:
0 success, 1 domain error (odd dimension, a form that is singular or whose
signs are not certified at the root, missing witness, ...), 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .complexity import DEFAULT_MAX_ORDER, WitnessNotFound, a_family_profile, certify_complexity
from .errors import DomainError, strict_keys
from .exactlinalg import (
    InvalidRoot,
    NearSingular,
    inertia_hermitian_at_root,
    int_matrix_from_json,
    signature,
)
from .goeritz import band_presentation_from_json, classical_signature_goeritz, goeritz_form
from .laurent import UnitCirclePoint, format_laurent
from .patterns import (
    PatternSyntaxError,
    UnassignedAtom,
    eval_invariant,
    normalize,
    parse_pattern,
    table_profile,
)
from .seifert import OddDimension, alexander, classical_signature_seifert
from .verify import run_checks

_DOMAIN_ERRORS = (
    DomainError,
    OddDimension,
    NearSingular,
    InvalidRoot,
    WitnessNotFound,
    UnassignedAtom,
)

_ROOT_RE = re.compile(r"^([0-9]+)/([0-9]+)$")
_INT_RE = re.compile(r"[+-]?[0-9]+")
_FLOAT_RE = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|inf|infinity|nan)",
                       re.ASCII | re.IGNORECASE)


def _ascii_int(text: str) -> int:
    """An option's integer in ASCII decimal digits: no other digits, no '_', no spaces."""
    if not _INT_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected an integer in ASCII digits, got {text!r}")
    return int(text)


def _ascii_float(text: str) -> float:
    """An option's float in ASCII float syntax: no other digits, no '_', no spaces."""
    if not _FLOAT_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected a number in ASCII float syntax, got {text!r}")
    return float(text)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object whose keys are all distinct; a repeated key is refused, never collapsed."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r} in a JSON object")
        doc[key] = value
    return doc


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=_unique_keys)


def _payload(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


def _parse_root(text: str) -> UnitCirclePoint:
    match = _ROOT_RE.match(text.strip())
    if not match:
        raise ValueError(f"roots are written k/m, e.g. 1/2 for -1; got {text!r}")
    k, m = int(match.group(1)), int(match.group(2))
    if m < 1:
        raise ValueError("the root denominator must be >= 1")
    return UnitCirclePoint.root(k, m)


def _root_from_args(args) -> UnitCirclePoint:
    if args.root is not None:
        return _parse_root(args.root)
    return UnitCirclePoint.angle(args.theta)


def cmd_alexander(args) -> tuple[str, int]:
    matrix = int_matrix_from_json(_load_json(args.matrix))
    delta = alexander(matrix)
    doc = {
        "alexander": format_laurent(delta),
        "coeffs": {str(e): c for e, c in sorted(delta.coeffs.items())},
        "dim": len(matrix),
    }
    return _payload(doc), 0


def cmd_signature(args) -> tuple[str, int]:
    if args.goeritz:
        bp = band_presentation_from_json(_load_json(args.goeritz))
        return _payload({"method": "goeritz", "signature": classical_signature_goeritz(bp)}), 0
    matrix = int_matrix_from_json(_load_json(args.seifert))
    return _payload({"method": "seifert", "signature": classical_signature_seifert(matrix)}), 0


def cmd_lt(args) -> tuple[str, int]:
    matrix = int_matrix_from_json(_load_json(args.matrix))
    omega = _root_from_args(args)
    inertia = inertia_hermitian_at_root(matrix, omega)
    doc = {
        "root": str(omega),
        "signature": inertia.signature,
        "inertia": {
            "n_plus": inertia.n_plus,
            "n_zero": inertia.n_zero,
            "n_minus": inertia.n_minus,
        },
    }
    return _payload(doc), 0


def cmd_goeritz(args) -> tuple[str, int]:
    bp = band_presentation_from_json(_load_json(args.bands))
    gd = goeritz_form(bp)
    sign_g = signature(gd.G)
    doc = gd.to_json()
    doc.update({"eta": gd.eta, "sign_G": sign_g, "sigma": sign_g - gd.eta})
    return _payload(doc), 0


def _profiles_from_json(doc: object) -> dict:
    if not isinstance(doc, dict):
        raise ValueError("assignment JSON must map atom names to profiles")
    profiles = {}
    for name, spec in doc.items():
        if not isinstance(spec, dict):
            raise ValueError(f"profile for {name!r} must be an object")
        strict_keys(spec, ("table", "family"), f"the profile for {name!r}")
        if len(spec) > 1:
            raise ValueError(f'profile for {name!r} gives both a "table" and a "family"')
        if isinstance(spec.get("table"), dict):
            profiles[name] = table_profile(spec["table"])
        elif isinstance(spec.get("family"), dict) and isinstance(spec["family"].get("root"), str):
            strict_keys(spec["family"], ("root",), f"the family profile for {name!r}")
            profiles[name] = a_family_profile(_parse_root(spec["family"]["root"]))
        else:
            raise ValueError(f'profile for {name!r} needs a "table" object or a '
                             '"family" object with a "root" string')
    return profiles


def cmd_pattern(args) -> tuple[str, int]:
    term = parse_pattern(args.expression)
    nf = normalize(term)
    if args.action == "normalize":
        return _payload({"normal_form": str(nf)}), 0
    profiles = _profiles_from_json(_load_json(args.assignment)) if args.assignment else {}
    value = eval_invariant(nf, profiles)
    return _payload({"normal_form": str(nf), "value": value}), 0


def cmd_certify(args) -> tuple[str, int]:
    cert = certify_complexity(args.framing, args.complexity, max_order=args.max_order)
    return _payload(cert.to_json()), 0


def cmd_verify(args) -> tuple[str, int]:
    results = run_checks()
    ok = all(r.passed for r in results)
    if args.json:
        doc = {
            "passed": ok,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
            ],
        }
        return _payload(doc), 0 if ok else 1
    width = max(len(r.name) for r in results)
    lines = [
        f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}" for r in results
    ]
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return "\n".join(lines), 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shakekit",
        description="Exact knot invariants: Alexander polynomials, signatures, "
        "pattern calculus, and complexity certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alexander", help="symmetrized Alexander polynomial of a Seifert matrix")
    p.add_argument("matrix", help="JSON file {'dim': n, 'entries': [[...]]}")
    p.set_defaults(handler=cmd_alexander)

    p = sub.add_parser("signature", help="classical knot signature")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--goeritz", metavar="FILE", help="band-presentation JSON")
    src.add_argument("--seifert", metavar="FILE", help="Seifert-matrix JSON")
    p.set_defaults(handler=cmd_signature)

    p = sub.add_parser("lt", help="Levine-Tristram signature at a unit-circle point")
    p.add_argument("matrix", help="Seifert-matrix JSON file")
    root = p.add_mutually_exclusive_group(required=True)
    root.add_argument("--root", help="root of unity k/m, i.e. e^{2*pi*i*k/m}")
    root.add_argument("--theta", type=_ascii_float,
                      help="finite angle in radians (signs certified by a rounding-error bound)")
    p.set_defaults(handler=cmd_lt)

    p = sub.add_parser("goeritz", help="Goeritz form and correction term of a band presentation")
    p.add_argument("bands", help="band-presentation JSON file")
    p.set_defaults(handler=cmd_goeritz)

    p = sub.add_parser("pattern", help="normalize or evaluate a pattern expression")
    p.add_argument("action", choices=["normalize", "eval"])
    p.add_argument("expression", help="e.g. '(PoQ)*' or 'bar(Q*)_2^3 o Q^3'")
    p.add_argument("--assignment", metavar="FILE",
                   help="JSON map atom -> {'table': {...}} or {'family': {'root': 'k/m'}}")
    p.set_defaults(handler=cmd_pattern)

    p = sub.add_parser("certify", help="complexity-lower-bound certificate")
    p.add_argument("--framing", type=_ascii_int, required=True, help="nonzero framing n")
    p.add_argument("--complexity", type=_ascii_int, required=True,
                   help="target complexity c >= 1")
    p.add_argument("--max-order", type=_ascii_int, default=DEFAULT_MAX_ORDER,
                   help="largest witness order to try")
    p.set_defaults(handler=cmd_certify)

    p = sub.add_parser("verify", help="recompute the package's reproduction table")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(handler=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, code = args.handler(args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
