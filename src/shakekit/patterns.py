"""Calculus of dualizable patterns: parsing, normal forms, evaluation.

A pattern term is a tree over Atom, Star (dual), Bar (mirror), Twist,
Compose, Power, Pound and Inverse.  normalize flattens any term into a
composition chain of leaves, each an atom with a star flag, a bar flag
and a net twist, by orienting the calculus identities left to right:

    (P*)* = P        (P_n)_m = P_{n+m}      P_0 = P       bar(bar(P)) = P
    (P_n)* = (P*)_{-n}                      bar(P_n) = bar(P)_{-n}
    P^-1 = bar(P*)   (P o Q)* = Q* o P*     (P o Q)_n = P_n o Q_n
    bar(P o Q) = bar(P) o bar(Q)

Pound produces a wrapping-number-one leaf: star, twist and repeated
pound collapse on it, bar passes inside, and consecutive pound leaves
commute (connected sum), so normalize sorts each run of them.
Evaluation sums leaf values per the satellite formula; a bar flag
negates and a star flag reflects the twist argument.  Each distinct leaf
is valued once and weighted by its multiplicity.  A normal form holds at
most 2,000,000 leaves; a longer one raises DomainError before it is built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Mapping, Union

from .errors import DomainError, strict_int

_MAX_LEAVES = 2_000_000  # longest composition chain a normal form may hold
_MAX_NESTING = 100  # deepest nesting of parentheses, bar( and suffixes the parser takes


class PatternSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class UnassignedAtom(LookupError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"no invariant profile assigned to atom {name!r}")


@dataclass(frozen=True)
class Atom:
    name: str
    wrapping_one: bool = False


@dataclass(frozen=True)
class Star:
    inner: "PatternTerm"


@dataclass(frozen=True)
class Bar:
    inner: "PatternTerm"


@dataclass(frozen=True)
class Twist:
    inner: "PatternTerm"
    n: int


@dataclass(frozen=True)
class Compose:
    left: "PatternTerm"
    right: "PatternTerm"


@dataclass(frozen=True)
class Power:
    inner: "PatternTerm"
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise DomainError(f"power exponent must be >= 1, got {self.m}")


@dataclass(frozen=True)
class Pound:
    inner: "PatternTerm"


@dataclass(frozen=True)
class Inverse:
    inner: "PatternTerm"


PatternTerm = Union[Atom, Star, Bar, Twist, Compose, Power, Pound, Inverse]


@dataclass(frozen=True)
class Leaf:
    atom: str
    star: bool = False
    bar: bool = False
    twist: int = 0

    def __str__(self) -> str:
        body = self.atom + ("*" if self.star else "")
        if self.bar:
            body = f"bar({body})"
        if self.twist:
            body += f"_{self.twist}"
        return body


@dataclass(frozen=True)
class PoundLeaf:
    inner: "NormalForm"

    def __str__(self) -> str:
        leaves = self.inner.leaves
        if len(leaves) == 1 and isinstance(leaves[0], Leaf):
            return f"{leaves[0]}#"
        return f"({self.inner})#"


NormalLeaf = Union[Leaf, PoundLeaf]


@dataclass(frozen=True)
class NormalForm:
    leaves: tuple[NormalLeaf, ...]

    def __str__(self) -> str:
        return " o ".join(str(leaf) for leaf in self.leaves)

    def term(self) -> PatternTerm:
        """Reconstruct a PatternTerm that normalizes back to this form."""
        return reduce(Compose, (_leaf_term(leaf) for leaf in self.leaves))


def _leaf_term(leaf: NormalLeaf) -> PatternTerm:
    if isinstance(leaf, PoundLeaf):
        return Pound(leaf.inner.term())
    t: PatternTerm = Atom(leaf.atom)
    if leaf.star:
        t = Star(t)
    if leaf.bar:
        t = Bar(t)
    if leaf.twist:
        t = Twist(t, leaf.twist)
    return t


def _star_leaf(leaf: NormalLeaf) -> NormalLeaf:
    if isinstance(leaf, PoundLeaf):
        return leaf
    return Leaf(leaf.atom, not leaf.star, leaf.bar, -leaf.twist)


def _bar_leaf(leaf: NormalLeaf) -> NormalLeaf:
    if isinstance(leaf, PoundLeaf):
        inner = tuple(_bar_leaf(x) for x in leaf.inner.leaves)
        return PoundLeaf(NormalForm(_sort_pound_runs(inner)))
    return Leaf(leaf.atom, leaf.star, not leaf.bar, -leaf.twist)


def _twist_leaf(leaf: NormalLeaf, n: int) -> NormalLeaf:
    if isinstance(leaf, PoundLeaf):
        return leaf
    return Leaf(leaf.atom, leaf.star, leaf.bar, leaf.twist + n)


def _sort_pound_runs(leaves: tuple[NormalLeaf, ...]) -> tuple[NormalLeaf, ...]:
    # Consecutive pound leaves are connected summands, so their order is
    # not meaningful; fix a canonical one.
    out: list[NormalLeaf] = []
    run: list[PoundLeaf] = []
    for leaf in leaves:
        if isinstance(leaf, PoundLeaf):
            run.append(leaf)
        else:
            out.extend(sorted(run, key=str))
            run = []
            out.append(leaf)
    out.extend(sorted(run, key=str))
    return tuple(out)


def _check_size(size: int) -> None:
    if size > _MAX_LEAVES:
        raise DomainError(f"normal form would have {size} leaves, "
                          f"over the limit of {_MAX_LEAVES}")


def _chain(t: PatternTerm) -> tuple[NormalLeaf, ...]:
    if isinstance(t, Atom):
        leaf = Leaf(t.name)
        if t.wrapping_one:
            return (PoundLeaf(NormalForm((leaf,))),)
        return (leaf,)
    if isinstance(t, Compose):
        # walk the left spine in a loop: a parsed chain P o Q o ... nests there
        rights = []
        while isinstance(t, Compose):
            rights.append(t.right)
            t = t.left
        out = list(_chain(t))
        for right in reversed(rights):
            chain = _chain(right)
            _check_size(len(out) + len(chain))
            out.extend(chain)
        return tuple(out)
    if isinstance(t, Power):
        inner = _chain(t.inner)
        _check_size(len(inner) * t.m)
        return inner * t.m
    if isinstance(t, Twist):
        return tuple(_twist_leaf(x, t.n) for x in _chain(t.inner))
    if isinstance(t, Star):
        return tuple(_star_leaf(x) for x in reversed(_chain(t.inner)))
    if isinstance(t, Bar):
        return tuple(_bar_leaf(x) for x in _chain(t.inner))
    if isinstance(t, Inverse):
        return _chain(Bar(Star(t.inner)))
    if isinstance(t, Pound):
        inner = _sort_pound_runs(_chain(t.inner))
        if all(isinstance(x, PoundLeaf) for x in inner):
            return inner
        return (PoundLeaf(NormalForm(inner)),)
    raise TypeError(f"not a pattern term: {t!r}")


def normalize(t: PatternTerm) -> NormalForm:
    """Unique normal form: a chain of star/bar/twist leaves and pound leaves."""
    if isinstance(t, NormalForm):
        return t
    return NormalForm(_sort_pound_runs(_chain(t)))


def render_term(t: PatternTerm) -> str:
    """Concrete syntax for a term, parseable by parse_pattern."""
    if isinstance(t, Atom):
        return t.name
    if isinstance(t, Star):
        return f"{_render_factor(t.inner)}*"
    if isinstance(t, Bar):
        return f"bar({render_term(t.inner)})"
    if isinstance(t, Twist):
        return f"{_render_factor(t.inner)}_{t.n}"
    if isinstance(t, Power):
        return f"{_render_factor(t.inner)}^{t.m}"
    if isinstance(t, Pound):
        return f"{_render_factor(t.inner)}#"
    if isinstance(t, Inverse):
        return f"{_render_factor(t.inner)}^-1"
    if isinstance(t, Compose):
        return f"{render_term(t.left)} o {render_term(t.right)}"
    raise TypeError(f"not a pattern term: {t!r}")


def _render_factor(t: PatternTerm) -> str:
    text = render_term(t)
    return f"({text})" if isinstance(t, Compose) else text


def retrace_term(Q: PatternTerm, n: int, c: int) -> PatternTerm:
    """The retrace (bar(Q*)_n)^c o Q^c of the c-fold sum, with Q^c innermost."""
    if c < 1:
        raise DomainError(f"retrace needs c >= 1, got {c}")
    return Compose(Power(Twist(Bar(Star(Q)), n), c), Power(Q, c))


Profile = Callable[[int], int]


def _twist_key(key: object) -> int:
    """A table key: an int, or an int's plain ASCII decimal text, as JSON object keys are."""
    if isinstance(key, str):
        digits = key.removeprefix("-")
        if digits.isascii() and digits.isdigit():
            return int(key)
    return strict_int(key, "profile twist")


def table_profile(values: Mapping[int, int]) -> Profile:
    """Invariant profile from a finite table n -> value; two keys may not name one twist."""
    table: dict[int, int] = {}
    keys: dict[int, object] = {}
    for k, v in values.items():
        n = _twist_key(k)
        if n in keys:
            raise ValueError(f"profile keys {keys[n]!r} and {k!r} both name twist {n}")
        keys[n], table[n] = k, strict_int(v, f"profile value at twist {k}")

    def profile(n: int) -> int:
        if n not in table:
            raise DomainError(f"invariant profile is not declared at twist {n}")
        return table[n]

    return profile


def eval_invariant(t: "PatternTerm | NormalForm",
                   assignment: Mapping[str, Profile]) -> int:
    """Invariant of the satellite: the sum of leaf values of the normal form.

    A leaf with twist n contributes +/- iota(+/- n) from its atom's
    profile: the bar flag negates the value (concordance inverse), and a
    lone star or lone bar reflects the twist argument.  Pound leaves
    contribute the value of their underlying knot.  Each distinct leaf
    calls its profile once, in first-seen order, so the first leaf that
    fails still raises.
    """
    nf = t if isinstance(t, NormalForm) else normalize(t)
    return _chain_value(nf.leaves, assignment)


def _chain_value(leaves: tuple[NormalLeaf, ...], assignment: Mapping[str, Profile]) -> int:
    return sum(count * _leaf_value(leaf, assignment) for leaf, count in Counter(leaves).items())


def _leaf_value(leaf: NormalLeaf, assignment: Mapping[str, Profile]) -> int:
    if isinstance(leaf, PoundLeaf):
        return _chain_value(leaf.inner.leaves, assignment)
    if leaf.atom not in assignment:
        raise UnassignedAtom(leaf.atom)
    arg = leaf.twist if leaf.star == leaf.bar else -leaf.twist
    value = assignment[leaf.atom](arg)
    return -value if leaf.bar else value


_IDENT_START = set("abcdefghijklmnpqrstuvwxyzABCDEFGHIJKLMNPQRSTUVWXYZ")
_IDENT_CONT = _IDENT_START | set("0123456789")


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0
        self.depth = 0  # parentheses and bar( open around the position

    def error(self, message: str) -> PatternSyntaxError:
        return PatternSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def expect(self, char: str):
        if self.peek() != char:
            raise self.error(f"expected {char!r}")
        self.pos += 1

    def read_int(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.src) and self.src[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.src) and self.src[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == digits:
            raise self.error("expected an integer")
        return int(self.src[start:self.pos])

    def read_ident(self) -> str:
        self.skip_ws()
        start = self.pos
        if self.pos >= len(self.src) or self.src[self.pos] not in _IDENT_START:
            raise self.error("expected a pattern name")
        self.pos += 1
        while self.pos < len(self.src) and self.src[self.pos] in _IDENT_CONT:
            self.pos += 1
        return self.src[start:self.pos]

    def nested(self, height: int) -> int:
        """height + 1, or a PatternSyntaxError where nesting from the outermost term passes it."""
        if self.depth + height + 1 > _MAX_NESTING:
            raise self.error(f"nesting deeper than {_MAX_NESTING} levels")
        return height + 1

    def parse_term(self) -> tuple[PatternTerm, int]:
        node, height = self.parse_factor()
        while self.peek() in ("o", "O"):
            self.pos += 1
            right, h = self.parse_factor()
            node, height = Compose(node, right), max(height, h)
        return node, height

    def parse_factor(self) -> tuple[PatternTerm, int]:
        node, height = self.parse_primary()
        while True:
            c = self.peek()
            if c and c in "*^_#":
                height = self.nested(height)
            if c == "*":
                self.pos += 1
                node = Star(node)
            elif c == "^":
                self.pos += 1
                at = self.pos
                k = self.read_int()
                if k == -1:
                    node = Inverse(node)
                elif k >= 1:
                    node = Power(node, k)
                else:
                    self.pos = at
                    raise self.error(f"power exponent must be >= 1 or the inverse ^-1, got {k}")
            elif c == "_":
                self.pos += 1
                node = Twist(node, self.read_int())
            elif c == "#":
                self.pos += 1
                node = Pound(node)
            else:
                return node, height

    def parse_group(self) -> tuple[PatternTerm, int]:
        """A term in parentheses, one nesting level deeper than the term around it."""
        self.skip_ws()
        self.nested(0)
        self.expect("(")
        self.depth += 1
        node, height = self.parse_term()
        self.expect(")")
        self.depth -= 1
        return node, height + 1

    def parse_primary(self) -> tuple[PatternTerm, int]:
        c = self.peek()
        if c == "(":
            return self.parse_group()
        if c in _IDENT_START:
            name = self.read_ident()
            if name != "bar":
                return Atom(name), 0
            node, height = self.parse_group()
            return Bar(node), height
        raise self.error("expected a pattern name, 'bar(' or '('")


def parse_pattern(src: str) -> PatternTerm:
    """Parse the ASCII pattern syntax.

    term := factor { "o" factor }; factor := primary { suffix };
    suffix := "*" | "^" INT | "_" SIGNED_INT | "#" | "^-1";
    primary := IDENT | "bar(" term ")" | "(" term ")".
    Identifiers never contain the letter o, which always composes.  Each
    parenthesis, bar( and suffix nests one level deeper, and nesting past
    _MAX_NESTING levels is a PatternSyntaxError.
    """
    parser = _Parser(src)
    term, _ = parser.parse_term()
    if parser.peek():
        raise parser.error(f"unexpected trailing input {parser.src[parser.pos:]!r}")
    return term
