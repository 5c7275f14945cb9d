"""Command-line surface for the invariant engine.

Subcommands: alexander, signature, lt, goeritz, pattern, certify,
verify.  Inputs are JSON files; outputs are deterministic JSON payloads
on stdout (verify prints a table unless --json is given).  Exit codes:
0 success, 1 a refusal, which is exactly a shakekit.DomainError (odd
dimension or det(A - A^T) != 1, both checked before any elimination, a form
that is singular or whose signs are not certified at the root, missing
witness, ...), 2 any other ValueError or OSError: malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import complexity, errors, exactlinalg, goeritz, laurent, patterns, seifert, verify

_ROOT_RE = re.compile(r"^([0-9]+)/([0-9]+)$")
_INT_RE = re.compile(r"[+-]?[0-9]+")
_FLOAT_RE = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|inf|infinity|nan)",
                       re.ASCII | re.IGNORECASE)


def _ascii_int(text: str) -> int:
    """An option's integer in ASCII decimal digits: no other digits, no '_', no spaces."""
    if not _INT_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected an integer in ASCII digits, "
                                         f"got {errors.brief(text)}")
    try:
        return int(text)
    except ValueError:  # past the digit limit of str-to-int conversion
        raise argparse.ArgumentTypeError(f"expected at most {sys.get_int_max_str_digits()} digits, "
                                         f"got {errors.brief(text)}") from None


def _ascii_float(text: str) -> float:
    """An option's float in ASCII float syntax: no other digits, no '_', no spaces."""
    if not _FLOAT_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected a number in ASCII float syntax, "
                                         f"got {errors.brief(text)}")
    return float(text)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object whose keys are all distinct; a repeated key is refused, never collapsed."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {errors.brief(key)} in a JSON object")
        doc[key] = value
    return doc


def _load_json(path: str):
    def parse_int(text: str) -> int:
        try:
            return int(text)
        except ValueError:  # past the digit limit of str-to-int conversion
            raise ValueError(f"{path}: expected at most {sys.get_int_max_str_digits()} digits "
                             f"in an integer, got {len(text.lstrip('-'))}") from None

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys, parse_int=parse_int)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to decode") from None


def int_matrix_from_json(doc: object) -> list[list[int]]:
    """Decode {"dim": n, "entries": [[...]]} with integer entries; any other key is refused."""
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ValueError('matrix JSON must be an object with "dim" and "entries"')
    errors.strict_keys(doc, ("dim", "entries"), "the matrix")
    entries = doc["entries"]
    if not isinstance(entries, list) or any(not isinstance(r, list) for r in entries):
        raise ValueError('"entries" must be a list of rows')
    dim = errors.strict_int(doc.get("dim", len(entries)), '"dim"')
    if dim != len(entries):
        raise ValueError(f'"entries" must be {dim}x{dim} to match "dim"')
    return [list(row) for row in errors.strict_matrix(entries, "matrix")]


def band_presentation_from_json(doc: object) -> goeritz.BandPresentation:
    if not isinstance(doc, dict) or not isinstance(doc.get("bands"), list):
        raise ValueError('band JSON must be an object with a "bands" list and "crossings"')
    errors.strict_keys(doc, ("bands", "crossings"), "the band presentation")
    bands = []
    for i, raw in enumerate(doc["bands"]):
        if not isinstance(raw, dict) or "orientable" not in raw:
            raise ValueError('each band needs at least an "orientable" flag')
        errors.strict_keys(raw, ("orientable", "half_twists", "self_writhe"), f"band {i}")
        bands.append(goeritz.Band(orientable=raw["orientable"],
                                  half_twists=raw.get("half_twists", 0),
                                  self_writhe=raw.get("self_writhe", 0)))
    crossings = doc.get("crossings")
    if crossings is not None:
        if not isinstance(crossings, list) or any(not isinstance(r, list) for r in crossings):
            raise ValueError('"crossings" must be a list of rows')
    return goeritz.BandPresentation(bands, crossings)


def _payload(doc: dict) -> str:
    try:
        return json.dumps(doc, sort_keys=True)
    except ValueError:  # an int past the digit limit, the one ValueError these documents raise
        raise errors.DomainError(f"an output integer is past the limit of "
                                 f"{sys.get_int_max_str_digits()} digits for integer string "
                                 "conversion") from None


def _parse_root(text: str) -> laurent.UnitCirclePoint:
    match = _ROOT_RE.match(text.strip())
    if not match:
        raise ValueError(f"roots are written k/m, e.g. 1/2 for -1; got {errors.brief(text)}")
    try:
        k, m = int(match.group(1)), int(match.group(2))
    except ValueError:  # past the digit limit of str-to-int conversion
        raise ValueError(f"root {errors.brief(text)}: expected at most "
                         f"{sys.get_int_max_str_digits()} digits in k and in m") from None
    if m < 1:
        raise ValueError("the root denominator must be >= 1")
    return laurent.UnitCirclePoint.root(k, m)


def cmd_alexander(args) -> tuple[str, int]:
    matrix = int_matrix_from_json(_load_json(args.matrix))
    exactlinalg.knot_rule(matrix)
    delta = seifert.alexander(matrix)
    doc = {
        "alexander": str(delta),
        "coeffs": {str(e): c for e, c in sorted(delta.coeffs.items())},
        "dim": len(matrix),
    }
    return _payload(doc), 0


def cmd_signature(args) -> tuple[str, int]:
    if args.goeritz:
        bp = band_presentation_from_json(_load_json(args.goeritz))
        signature = goeritz.classical_signature_goeritz(bp)
        return _payload({"method": "goeritz", "signature": signature}), 0
    matrix = int_matrix_from_json(_load_json(args.seifert))
    exactlinalg.knot_rule(matrix)
    signature = seifert.classical_signature_seifert(matrix)
    return _payload({"method": "seifert", "signature": signature}), 0


def cmd_lt(args) -> tuple[str, int]:
    matrix = int_matrix_from_json(_load_json(args.matrix))
    omega = (_parse_root(args.root) if args.root is not None
             else laurent.UnitCirclePoint.angle(args.theta))
    exactlinalg.knot_rule(matrix)
    inertia = exactlinalg.inertia_hermitian_at_root(matrix, omega)
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
    gd = goeritz.goeritz_form(bp)
    doc = gd.to_json()
    doc.update({"eta": gd.eta, "sign_G": gd.sign_G, "sigma": gd.sigma})
    return _payload(doc), 0


def _profiles_from_json(doc: object) -> dict:
    if not isinstance(doc, dict):
        raise ValueError("assignment JSON must map atom names to profiles")
    profiles = {}
    for name, spec in doc.items():
        label = errors.brief(name)
        if not isinstance(spec, dict):
            raise ValueError(f"profile for {label} must be an object")
        errors.strict_keys(spec, ("table", "family"), f"the profile for {label}")
        if len(spec) > 1:
            raise ValueError(f'profile for {label} gives both a "table" and a "family"')
        if isinstance(spec.get("table"), dict):
            profiles[name] = patterns.table_profile(spec["table"])
        elif isinstance(spec.get("family"), dict) and isinstance(spec["family"].get("root"), str):
            errors.strict_keys(spec["family"], ("root",), f"the family profile for {label}")
            profiles[name] = complexity.a_family_profile(_parse_root(spec["family"]["root"]))
        else:
            raise ValueError(f'profile for {label} needs a "table" object or a '
                             '"family" object with a "root" string')
    return profiles


def cmd_pattern(args) -> tuple[str, int]:
    term = patterns.parse_pattern(args.expression)
    nf = patterns.normalize(term)
    if args.action == "normalize":
        return _payload({"normal_form": str(nf)}), 0
    profiles = _profiles_from_json(_load_json(args.assignment)) if args.assignment else {}
    value = patterns.eval_invariant(nf, profiles)
    return _payload({"normal_form": str(nf), "value": value}), 0


def cmd_certify(args) -> tuple[str, int]:
    max_order = complexity.DEFAULT_MAX_ORDER if args.max_order is None else args.max_order
    cert = complexity.certify_complexity(args.framing, args.complexity, max_order=max_order)
    return _payload(cert.to_json()), 0


def cmd_verify(args) -> tuple[str, int]:
    results = verify.run_checks()
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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose refusals, such as an invalid choice, are clipped.

    The limit keeps every refusal of a short argument whole, the list of
    choices included; only an argument hundreds of characters long is cut.
    """

    def error(self, message: str):
        super().error(errors.clip(message, 400))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--max-order", type=_ascii_int,
                   help="largest witness order to try, any int >= 2")
    p.set_defaults(handler=cmd_certify)

    p = sub.add_parser("verify", help="recompute the package's reproduction table")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(handler=cmd_verify)
    return parser


# One parser per process: a parse leaves no state on it.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        text, code = args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, errors.DomainError) else 2
    try:
        print(text, flush=True)
    except BrokenPipeError:  # stdout closed early, as by `shakekit verify | head -1`
        # the interpreter flushes stdout again on exit, so give it somewhere to go
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
