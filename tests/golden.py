"""Golden outputs: CLI commands hashed in chunks against digests kept in tests/golden/.

Each group generates its commands from its own seeds, runs each one through
shakekit.cli.main in this process, and hashes its text, stdout, stderr and
exit code into one SHA-256 digest per chunk of CHUNK commands.  A group's
file tests/golden/<group>.sha256 holds one line per chunk: the digest and
the chunk's first command.  A mismatch names the first chunk that differs
and that chunk's first command.

    PYTHONPATH=src python tests/golden.py           # check every group in full
    PYTHONPATH=src python tests/golden.py --write   # regenerate the digests

The groups:
- certify: `certify --framing n --complexity c` for n = +-1..+-1000 and
  c in (1, 2, 7), ordered by |n|;
- family: `pattern eval` on seeded terms over the atom Q, with
  {"Q": {"family": {"root": "k/m"}}} at every k/m in lowest terms with
  0 <= k < m <= 13 (0/1 included), which runs the family's closed-form
  signature;
- seifert: `alexander`, `signature --seifert` and `lt` at the 57 primitive
  roots k/m of order 2 <= m <= 13 on tests/fixtures/dense_seifert_30.json,
  then `lt` at those roots on an_family(n) for a few n;
- refusals: inputs each command refuses inside shakekit.cli.main, exit 1 or
  2 with one error line: malformed matrix and band files, bad roots,
  singular forms, certify out of its domain or past its witness budget,
  pattern syntax, nesting and leaf limits, unassigned atoms and undeclared
  twists, and a missing file.  argparse's own refusals leave main through
  SystemExit, and a refusal that names its input file would hash the
  temporary path, so both are tested in tests/test_cli.py instead;
- goeritz: `goeritz` and `signature --goeritz` on seeded band presentations;
- verify: `verify` and `verify --json`.

A command's input file holds its JSON document, or its text as it is when
the document is a str (a duplicate key cannot be written from a dict).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import sys
import tempfile
from pathlib import Path

from shakekit.cli import main
from shakekit.seifert import an_family

CHUNK = 50
DIGESTS = Path(__file__).resolve().parent / "golden"


def certify_commands() -> list[tuple[str, list[str], None]]:
    return [(f"certify --framing {framing} --complexity {c}",
             ["certify", "--framing", str(framing), "--complexity", str(c)], None)
            for n in range(1, 1001) for framing in (n, -n) for c in (1, 2, 7)]


def _family_leaf(rng: random.Random) -> str:
    """A leaf whose profile argument is k >= 0, written in one of four equivalent ways."""
    k = rng.randrange(40) if rng.random() < 0.9 else 10**18 + rng.randrange(12)
    return rng.choice((f"Q_{k}", f"bar(Q*)_{k}", f"Q*_{-k}", f"bar(Q)_{-k}"))


def _family_term(rng: random.Random, leaves: int) -> str:
    """A composition of leaves, each possibly raised to a power or pounded."""
    factors = []
    for _ in range(leaves):
        leaf = _family_leaf(rng)
        form = rng.randrange(4)
        factors.append(f"({leaf})^{rng.randint(2, 5)}" if form == 0 else
                       f"({leaf})#" if form == 1 else leaf)
    return " o ".join(factors)


def family_commands() -> list[tuple[str, list[str], dict]]:
    rng = random.Random(20261019)
    terms = [_family_term(rng, leaves) for leaves in (1, 1, 2, 3, 4, 5, 6, 8)]
    roots = [f"{k}/{m}" for m in range(1, 14) for k in range(m) if math.gcd(k, m) == 1]
    return [(f"pattern eval {term} --assignment {json.dumps(doc)}",
             ["pattern", "eval", term, "--assignment"], doc)
            for doc in ({"Q": {"family": {"root": root}}} for root in roots) for term in terms]


def seifert_commands() -> list[tuple[str, list[str], dict]]:
    fixture = Path(__file__).resolve().parent / "fixtures" / "dense_seifert_30.json"
    dense = json.loads(fixture.read_text(encoding="utf-8"))
    roots = [f"{k}/{m}" for m in range(2, 14) for k in range(1, m) if math.gcd(k, m) == 1]
    commands = [(f"alexander {fixture.name}", ["alexander"], dense),
                (f"signature --seifert {fixture.name}", ["signature", "--seifert"], dense)]
    commands += [(f"lt --root {root} {fixture.name}", ["lt", "--root", root], dense)
                 for root in roots]
    for n in (1, 2, 5, 12, 40):
        doc = {"dim": 2 * n + 2, "entries": an_family(n)}
        commands += [(f"lt --root {root} an_family({n})", ["lt", "--root", root], doc)
                     for root in roots]
    return commands


TREFOIL = {"dim": 2, "entries": [[-1, 1], [0, -1]]}
BANDS = {"bands": [{"orientable": False}, {"orientable": False}], "crossings": [[0, 1], [1, 0]]}
MATRIX_READERS = (["alexander"], ["signature", "--seifert"], ["lt", "--root", "1/3"])
BAND_READERS = (["goeritz"], ["signature", "--goeritz"])
PRIMES_TO_59 = math.prod(p for p in range(2, 60) if all(p % d for d in range(2, p)))


def refusal_commands() -> list[tuple[str, list[str], object]]:
    rows = {"non-square": [[-1, 1], [0]], "float entry": [[-1, 1], [0.0, -1]],
            "bool entry": [[-1, True], [0, -1]], "string row": ["-1 1", [0, -1]]}
    matrices = {name: {"dim": 2, "entries": r} for name, r in rows.items()}
    matrices.update({
        "extra key": {**TREFOIL, "transposed": True},
        "duplicate key": '{"dim": 2, "entries": [[-1, 1], [0, -1]], "entries": [[1, 0], [0, 1]]}',
        "dim mismatch": {**TREFOIL, "dim": 3},
        "dim a float": {**TREFOIL, "dim": 2.0},
        "not an object": [[-1, 1], [0, -1]],
        "bad JSON": '{"dim": 2, "entries": [[-1, 1], [0, -1]]',
    })
    bands = {name: {**BANDS, "crossings": r} for name, r in rows.items()}
    bands.update({
        "asymmetric crossings": {**BANDS, "crossings": [[0, 1], [0, 0]]},
        "nonzero diagonal": {**BANDS, "crossings": [[1, 1], [1, 0]]},
        "extra key": {**BANDS, "framing": 0},
        "extra band key": {**BANDS, "bands": [{"orientable": False, "twists": 1}] * 2},
        "duplicate key": '{"bands": [{"orientable": false}], "bands": []}',
        "crossings too small": {**BANDS, "crossings": [[0]]},
        "orientable a string": {**BANDS, "bands": [{"orientable": "false"}] * 2},
        "odd orientable twists": {"bands": [{"orientable": True, "half_twists": 1}]},
        "odd self-writhe": {"bands": [{"orientable": True, "self_writhe": 1}]},
    })
    commands = [(f"{' '.join(argv)} <{name}>", argv, doc)
                for name, doc in matrices.items() for argv in MATRIX_READERS]
    commands += [(f"{' '.join(argv)} <{name}>", argv, doc)
                 for name, doc in bands.items() for argv in BAND_READERS]
    for root in ("1/0", "0/1", "a/b", "\u0661/\u0662", "1/-2", "2/0"):
        commands.append((f"lt --root {root} <trefoil>", ["lt", "--root", root], TREFOIL))
        commands.append((f"pattern eval Q_1 <family root {root}>",
                         ["pattern", "eval", "Q_1", "--assignment"],
                         {"Q": {"family": {"root": root}}}))
    commands += [
        ("lt --root 1/6 <trefoil>", ["lt", "--root", "1/6"], TREFOIL),
        ("lt --theta 1e-310 <trefoil>", ["lt", "--theta", "1e-310"], TREFOIL),
        ("lt --theta 0 <trefoil>", ["lt", "--theta", "0"], TREFOIL),
        ("alexander <odd dimension>", ["alexander"], {"dim": 3, "entries": [[0] * 3] * 3}),
        ("alexander <not a knot>", ["alexander"], {"dim": 2, "entries": [[1, 0], [0, 1]]}),
        ("alexander no/such/dir/input.json", ["alexander", "no/such/dir/input.json"], None),
    ]
    for framing, c, order in ((0, 1, None), (3, 0, None), (3, 1, 1), (3, 1, -5), (2, 2, 2),
                              (PRIMES_TO_59, 1, None), (-PRIMES_TO_59, 2, None)):
        argv = ["certify", "--framing", str(framing), "--complexity", str(c)]
        argv += [] if order is None else ["--max-order", str(order)]
        commands.append((" ".join(argv), argv, None))
    for expression in ("P o", "(P", "P)", "P^0", "P^-2", "P_", "P_x", "o", "bar P", "bar(",
                       "P o (Q", "", "P ^ 1.5", "(" * 101 + "P" + ")" * 101, "P" + "*" * 101,
                       "bar(" * 101 + "P" + ")" * 101, "P^100000000", "(P o Q)^1000001"):
        for action in ("normalize", "eval"):
            argv = ["pattern", action, expression]
            commands.append((" ".join(argv), argv, None))
    table = {"P": {"table": {"0": 1, "-2": 3}}}
    for expression, doc in (("Q", table), ("P o Q", table), ("P_5", table), ("bar(P*)_1", table),
                            ("P", None), ("P_-1", {"P": {"family": {"root": "1/3"}}})):
        argv = ["pattern", "eval", expression, *(["--assignment"] if doc else [])]
        commands.append((" ".join([*argv, *([json.dumps(doc)] if doc else [])]), argv, doc))
    for name, doc in (("both", {"P": {"table": {}, "family": {"root": "1/3"}}}),
                      ("neither", {"P": {}}), ("not an object", {"P": []}),
                      ("float value", {"P": {"table": {"0": 1.0}}}),
                      ("bool value", {"P": {"table": {"0": True}}}),
                      ("float key", {"P": {"table": {"0.0": 1}}}),
                      ("two keys, one twist", {"P": {"table": {"0": 1, "-0": 2}}}),
                      ("extra family key", {"P": {"family": {"root": "1/3", "k": 1}}}),
                      ("root not a string", {"P": {"family": {"root": [1, 3]}}}),
                      ("a list", [{"P": {"table": {}}}])):
        commands.append((f"pattern eval P <{name}>", ["pattern", "eval", "P", "--assignment"],
                         doc))
    return commands


def _random_bands(rng: random.Random) -> dict:
    """A valid band presentation of 1-12 bands, some keys left at their defaults."""
    n = rng.randint(1, 12)
    bands = []
    for _ in range(n):
        band = {"orientable": rng.random() < 0.5}
        twists = rng.randint(-7, 7)
        if band["orientable"]:
            twists -= twists % 2
        if twists or rng.random() < 0.5:
            band["half_twists"] = twists
        if rng.random() < 0.6:
            band["self_writhe"] = 2 * rng.randint(-3, 3)
        bands.append(band)
    doc = {"bands": bands}
    if n > 1 or rng.random() < 0.5:
        crossings = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    crossings[i][j] = crossings[j][i] = rng.randint(-3, 3)
        doc["crossings"] = crossings
    return doc


def goeritz_commands() -> list[tuple[str, list[str], dict]]:
    rng = random.Random(20261020)
    docs = [_random_bands(rng) for _ in range(100)]
    return [(f"{' '.join(argv)} {json.dumps(doc)}", argv, doc)
            for doc in docs for argv in BAND_READERS]


def verify_commands() -> list[tuple[str, list[str], None]]:
    return [("verify", ["verify"], None), ("verify --json", ["verify", "--json"], None)]


GROUPS = {"certify": certify_commands, "family": family_commands, "seifert": seifert_commands,
          "refusals": refusal_commands, "goeritz": goeritz_commands, "verify": verify_commands}


def _run(argv: list[str]) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return out.getvalue(), err.getvalue(), code


def digests(group: str) -> list[tuple[str, str]]:
    """(digest, first command) of each chunk of the group."""
    commands = GROUPS[group]()
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "input.json")
        for start in range(0, len(commands), CHUNK):
            h = hashlib.sha256()
            for text, argv, doc in commands[start:start + CHUNK]:
                if doc is not None:
                    text_in = doc if isinstance(doc, str) else json.dumps(doc)
                    path.write_text(text_in, encoding="utf-8")
                    argv = [*argv, str(path)]
                for part in (text, *_run(argv)):
                    h.update(f"{part}\0".encode())
            out.append((h.hexdigest(), commands[start][0]))
    return out


def stored(group: str) -> list[tuple[str, str]]:
    lines = (DIGESTS / f"{group}.sha256").read_text(encoding="utf-8").splitlines()
    return [tuple(line.split("  ", 1)) for line in lines]


def mismatch(group: str) -> str | None:
    """None when the group's chunks match their digests.

    Otherwise a line naming the first chunk that differs and its first command.
    """
    want = stored(group)
    got = digests(group)
    if len(got) != len(want):
        return f"{group}: {len(got)} chunks, but {len(want)} digests are stored"
    for i, ((g, first), (w, _)) in enumerate(zip(got, want)):
        if g != w:
            return f"{group}: chunk {i} differs; it starts at `{first}`"
    return None


def write(group: str) -> None:
    DIGESTS.mkdir(exist_ok=True)
    text = "".join(f"{d}  {first}\n" for d, first in digests(group))
    (DIGESTS / f"{group}.sha256").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="regenerate the digests")
    args = parser.parse_args()
    failed = []
    for group in GROUPS:
        if args.write:
            write(group)
            print(f"{group}: digests written")
        elif (why := mismatch(group)) is not None:
            failed.append(why)
            print(why)
        else:
            print(f"{group}: {len(stored(group))} chunks match")
    sys.exit(1 if failed else 0)
