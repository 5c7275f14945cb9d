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
  then `lt` at those roots on an_family(n) for a few n.
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


GROUPS = {"certify": certify_commands, "family": family_commands, "seifert": seifert_commands}


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
                    path.write_text(json.dumps(doc), encoding="utf-8")
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
