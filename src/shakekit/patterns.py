"""Calculus of dualizable patterns: parsing, normal forms, evaluation.

A pattern term is a tree over Atom, Star (dual), Bar (mirror), Twist,
Compose, Power, Pound and Inverse.  normalize flattens any term into a
composition chain of leaves, each an atom with a star flag, a bar flag
and a net twist, by orienting the calculus identities left to right:

    (P*)* = P        (P_n)_m = P_{n+m}      P_0 = P       bar(bar(P)) = P
    (P_n)* = (P*)_{-n}                      bar(P_n) = bar(P)_{-n}
    P^-1 = bar(P*)   (P o Q)* = Q* o P*     (P o Q)_n = P_n o Q_n
    bar(P o Q) = bar(P) o bar(Q)

in one pass: the net star, bar and twist of the enclosing operators
travel down to the atoms, so each leaf is built once.  Twist(n) adds n
when star == bar and -n otherwise, a star also reverses a composition,
and Inverse flips both star and bar.

Pound produces a wrapping-number-one leaf, and Pound(Atom(name)) is how
an atom of wrapping number one is written: star, twist and repeated
pound collapse on it, bar passes inside, and consecutive pound leaves
commute (connected sum), so normalize sorts each run of them.

A normal form holds its chain as maximal (leaf, multiplicity) runs, so
Power(t, m) costs the same for every m when t normalizes to one run,
and the retrace term (bar(Q*)_n)^c o Q^c is two runs whatever c is.
Evaluation sums leaf values per the satellite formula; a bar flag
negates and a star flag reflects the twist argument.  Each distinct leaf
is valued once and weighted by its total multiplicity.  Text is the only
expansion of the runs: render_term writes each run's leaf text once and
repeats it, and raises DomainError before writing more than 2,000,000
leaves of one form, which sorting two or more pound leaves can hit, as
it writes their text.  normalize holds at most 2,000,000 runs.

Terms, leaves and normal forms print through render_term, the one
concrete syntax.  One loop, _factors, reads a composition chain wherever
it is normalized, rendered, compared, hashed, printed by repr, copied or
pickled, so no chain is walked by recursion.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Mapping
from functools import cached_property, reduce
from itertools import groupby

from ._record import Record
from .errors import DomainError, brief, int_text, strict_bool, strict_int

_MAX_LEAVES = 2_000_000  # most leaves a normal form writes out, and most runs it holds
_MAX_NESTING = 100  # deepest nesting of parentheses, bar( and suffixes the parser takes


class PatternSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class UnassignedAtom(DomainError, LookupError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"no invariant profile assigned to atom {brief(name)}")


class Atom(Record):
    name: str


class Star(Record):
    inner: "PatternTerm"


class Bar(Record):
    inner: "PatternTerm"


class Twist(Record):
    inner: "PatternTerm"
    n: int

    def _validate(self):
        strict_int(self.n, "twist")


class Compose(Record):
    left: "PatternTerm"
    right: "PatternTerm"

    # structural, like the other terms, but along the left spine in a loop;
    # so are repr, copy and pickle
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Compose):
            return NotImplemented
        return _factors(self) == _factors(other)

    def __hash__(self) -> int:
        return hash(tuple(_factors(self)))

    def __repr__(self) -> str:
        first, *rights = _factors(self)
        return "Compose(left=" * len(rights) + repr(first) + "".join(
            f", right={right!r})" for right in rights)

    def __reduce__(self):
        return reduce, (Compose, tuple(_factors(self)))


class Power(Record):
    inner: "PatternTerm"
    m: int

    def _validate(self):
        if strict_int(self.m, "power exponent") < 1:
            raise DomainError(f"power exponent must be >= 1, got {brief(self.m)}")


class Pound(Record):
    inner: "PatternTerm"


class Inverse(Record):
    inner: "PatternTerm"


PatternTerm = Atom | Star | Bar | Twist | Compose | Power | Pound | Inverse


class Leaf(Record):
    """An atom with a star flag, a bar flag and a net twist; only text the parser reads back."""

    atom: str
    star: bool = False
    bar: bool = False
    twist: int = 0

    def _validate(self):
        atom = self.atom
        if not (atom.__class__ is str and atom[:1] in _IDENT_START
                and _IDENT_CONT.issuperset(atom) and atom != "bar"):
            raise ValueError(f"leaf atom {atom!r} is not a pattern name: a letter, then "
                             "letters and digits, never the letter o, and not bar")
        strict_bool(self.star, "leaf star")
        strict_bool(self.bar, "leaf bar")
        strict_int(self.twist, "leaf twist")

    def __str__(self) -> str:
        return render_term(self)


class PoundLeaf(Record):
    """The pound of a normal form, which holds a plain leaf run as normalize builds it.

    Its text is written once, by the first of sorting, checking and
    rendering to need it, and kept.
    """

    inner: "NormalForm"

    def _validate(self):
        if self.inner.__class__ is not NormalForm:
            raise ValueError(f"a pound leaf holds a normal form, got {self.inner!r}")
        if not any(leaf.__class__ is Leaf for leaf, _ in self.inner.runs):
            raise ValueError(f"the form {self.inner} inside a pound leaf has no plain leaf run; "
                             "the pound of a form of pound leaves is that form")

    @cached_property
    def text(self) -> str:
        text, runs = render_term(self.inner), self.inner.runs
        return f"({text})#" if len(runs) > 1 or runs[0][1] > 1 else f"{text}#"

    def __str__(self) -> str:
        return self.text


NormalLeaf = Leaf | PoundLeaf
Run = tuple[NormalLeaf, int]


class NormalForm(Record):
    """A composition chain of leaves, held as maximal (leaf, multiplicity) runs.

    Neighbouring runs hold different leaves, and each stretch of pound
    runs is sorted by leaf text, so == and hash are canonical.  A form is
    its runs and its text, which render_term writes from the runs and
    parse_pattern reads back to a term of the same form.
    """

    runs: tuple[Run, ...]

    def _validate(self):
        if not self.runs:
            raise ValueError("a normal form needs at least one run, got none")
        for i, (leaf, count) in enumerate(self.runs):
            if strict_int(count, f"count of run {i}") < 1:
                raise ValueError(f"run {i} has count {count}; a count is an int >= 1")
            if i and leaf == self.runs[i - 1][0]:
                raise ValueError(f"runs {i - 1} and {i} hold the same leaf {leaf}; "
                                 "neighbouring runs hold different leaves")
            if (i and leaf.__class__ is PoundLeaf is self.runs[i - 1][0].__class__
                    and self.runs[i - 1][0].text >= leaf.text):
                raise ValueError(f"pound runs {i - 1} and {i} are out of order; "
                                 "a stretch of pound runs is sorted by text")

    def __str__(self) -> str:
        return render_term(self)


def _factors(t: PatternTerm) -> list[PatternTerm]:
    """The factors of a composition chain in order, read off its left spine in a loop."""
    factors = []
    while isinstance(t, Compose):
        factors.append(t.right)
        t = t.left
    return [t, *reversed(factors)]


def _extend(runs: list[Run], more) -> None:
    """Append the runs more to runs, merging the seam where a leaf meets itself."""
    for leaf, count in more:
        if runs and runs[-1][0] == leaf:
            runs[-1] = (leaf, runs[-1][1] + count)
        else:
            runs.append((leaf, count))


def _sort_pound_runs(runs: list[Run]) -> list[Run]:
    # Consecutive pound leaves are connected summands, so their order is
    # not meaningful; fix a canonical one.  Plain runs pass through.
    if all(type(leaf) is Leaf for leaf, _ in runs):
        return runs
    out: list[Run] = []
    for kind, group in groupby(runs, lambda run: type(run[0])):
        group = list(group)
        if kind is PoundLeaf and len(group) > 1:
            group.sort(key=lambda run: run[0].text)
        _extend(out, group)
    return out


def _check_size(size: int, what: str) -> None:
    if size > _MAX_LEAVES:
        raise DomainError(f"normal form would have {brief(size)} {what}, "
                          f"over the limit of {_MAX_LEAVES}")


def _chain(t: PatternTerm, star: bool = False, bar: bool = False,
           twist: int = 0) -> list[Run]:
    """The runs of t under enclosing operators whose net effect is star, bar and twist.

    Run counts are checked as they grow, before a power repeats them.
    """
    if isinstance(t, Atom):
        return [(Leaf(t.name, star, bar, twist), 1)]
    if isinstance(t, Compose):
        factors = _factors(t)
        if star:
            factors.reverse()
        runs: list[Run] = []
        for factor in factors:
            _extend(runs, _chain(factor, star, bar, twist))
            _check_size(len(runs), "runs")
        return runs
    if isinstance(t, Power):
        inner = _chain(t.inner, star, bar, twist)
        if len(inner) == 1:
            return [(inner[0][0], inner[0][1] * t.m)]
        seams = t.m - 1 if inner[0][0] == inner[-1][0] else 0
        _check_size(len(inner) * t.m - seams, "runs")
        runs = []
        for _ in range(t.m):
            _extend(runs, inner)
        return runs
    if isinstance(t, Twist):
        return _chain(t.inner, star, bar, twist + t.n if star == bar else twist - t.n)
    if isinstance(t, Star):
        return _chain(t.inner, not star, bar, twist)
    if isinstance(t, Bar):
        return _chain(t.inner, star, not bar, twist)
    if isinstance(t, Inverse):
        return _chain(t.inner, not star, not bar, twist)
    if isinstance(t, Pound):
        inner = _sort_pound_runs(_chain(t.inner, bar=bar))
        if all(type(leaf) is PoundLeaf for leaf, _ in inner):
            return inner
        return [(PoundLeaf(NormalForm(tuple(inner))), 1)]
    raise TypeError(f"not a pattern term: {t!r}")


def normalize(t: PatternTerm) -> NormalForm:
    """Unique normal form: runs of star/bar/twist leaves and of pound leaves."""
    if isinstance(t, NormalForm):
        return t
    return NormalForm(tuple(_sort_pound_runs(_chain(t))))


def render_term(t: "PatternTerm | NormalForm | NormalLeaf") -> str:
    """Concrete syntax for a term, a normal form or a leaf, parseable by parse_pattern."""
    if isinstance(t, Atom):
        return t.name
    if isinstance(t, Star):
        return f"{_render_factor(t.inner)}*"
    if isinstance(t, Bar):
        return f"bar({render_term(t.inner)})"
    if isinstance(t, Twist):
        return f"{_render_factor(t.inner)}_{int_text(t.n)}"
    if isinstance(t, Power):
        return f"{_render_factor(t.inner)}^{int_text(t.m)}"
    if isinstance(t, Pound):
        return f"{_render_factor(t.inner)}#"
    if isinstance(t, Inverse):
        return f"{_render_factor(t.inner)}^-1"
    if isinstance(t, Compose):
        return " o ".join(map(render_term, _factors(t)))
    if isinstance(t, NormalForm):
        _check_size(sum(count for _, count in t.runs), "leaves")
        return " o ".join(" o ".join([render_term(leaf)] * count) for leaf, count in t.runs)
    if isinstance(t, PoundLeaf):
        return t.text
    if isinstance(t, Leaf):
        text = f"{t.atom}*" if t.star else t.atom
        text = f"bar({text})" if t.bar else text
        return f"{text}_{int_text(t.twist)}" if t.twist else text
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
            try:
                return int(key)
            except ValueError:  # past the digit limit of str-to-int conversion
                raise ValueError(f"profile twist {brief(key)}: expected at most "
                                 f"{sys.get_int_max_str_digits()} digits") from None
    return strict_int(key, "profile twist")


def table_profile(values: Mapping[int, int]) -> Profile:
    """Invariant profile from a finite table n -> value; two keys may not name one twist."""
    table: dict[int, int] = {}
    keys: dict[int, object] = {}
    for k, v in values.items():
        n = _twist_key(k)
        if n in keys:
            raise ValueError(f"profile keys {brief(keys[n])} and {brief(k)} "
                             f"both name twist {brief(n)}")
        keys[n], table[n] = k, strict_int(v, f"profile value at twist {brief(k, text=str)}")

    def profile(n: int) -> int:
        if n not in table:
            raise DomainError(f"invariant profile is not declared at twist {brief(n)}")
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
    fails still raises, and its value is weighted by the leaf's total
    multiplicity over the runs: the cost follows the runs, not the leaves.
    """
    nf = t if isinstance(t, NormalForm) else normalize(t)
    return _chain_value(nf.runs, assignment)


def _chain_value(runs: tuple[Run, ...], assignment: Mapping[str, Profile]) -> int:
    counts: dict[NormalLeaf, int] = {}
    for leaf, count in runs:
        counts[leaf] = counts.get(leaf, 0) + count
    return sum(count * _leaf_value(leaf, assignment) for leaf, count in counts.items())


def _leaf_value(leaf: NormalLeaf, assignment: Mapping[str, Profile]) -> int:
    if isinstance(leaf, PoundLeaf):
        return _chain_value(leaf.inner.runs, assignment)
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
        try:
            return int(self.src[start:self.pos])
        except ValueError:  # past the digit limit of str-to-int conversion
            count, self.pos = self.pos - digits, start
            raise self.error(f"expected at most {sys.get_int_max_str_digits()} digits, "
                             f"got {count}") from None

    def read_ident(self) -> str:
        start = self.pos
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
                    raise self.error(f"power exponent must be >= 1 or the inverse ^-1, "
                                     f"got {brief(k)}")
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
        raise parser.error(f"unexpected trailing input {brief(parser.src[parser.pos:])}")
    return term
