import copy
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import normalize_by_maps, render_normal_form
from shakekit import patterns
from shakekit.errors import DomainError
from shakekit.patterns import (
    Atom,
    Bar,
    Compose,
    Inverse,
    Leaf,
    NormalForm,
    PatternSyntaxError,
    Pound,
    PoundLeaf,
    Power,
    Star,
    Twist,
    UnassignedAtom,
    eval_invariant,
    normalize,
    parse_pattern,
    render_term,
    retrace_term,
    table_profile,
)

P, Q, R = Atom("P"), Atom("Q"), Atom("R")
W = Pound(Atom("W"))  # the one spelling of a wrapping-number-one atom

def _term_strategy(atom_strategy):
    return st.recursive(
        atom_strategy,
        lambda kids: st.one_of(
            kids.map(Star),
            kids.map(Bar),
            kids.map(Pound),
            kids.map(Inverse),
            st.tuples(kids, st.integers(-3, 3)).map(lambda p: Twist(*p)),
            st.tuples(kids, st.integers(1, 3)).map(lambda p: Power(*p)),
            st.tuples(kids, kids).map(lambda p: Compose(*p)),
        ),
        max_leaves=8,
    )


terms = _term_strategy(st.sampled_from("PQR").map(Atom) | st.just(W))

linear_profiles = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
    lambda ab: lambda n: ab[0] * n + ab[1]
)
assignments = st.fixed_dictionaries(
    {name: linear_profiles for name in "PQRW"}
)


class TestParser:
    def test_suffix_examples(self):
        assert parse_pattern("P*_3") == Twist(Star(P), 3)
        assert parse_pattern("bar(P)_2") == Twist(Bar(P), 2)
        assert parse_pattern("P^3_1") == Twist(Power(P, 3), 1)
        assert parse_pattern("P^-1") == Inverse(P)
        assert parse_pattern("P#") == Pound(P)
        assert parse_pattern("P_-4") == Twist(P, -4)

    def test_compose_is_left_associative(self):
        assert parse_pattern("P o Q o R") == Compose(Compose(P, Q), R)

    def test_o_always_composes(self):
        # identifiers never contain the letter o
        assert parse_pattern("PoQ") == Compose(P, Q)
        assert parse_pattern("P O Q") == Compose(P, Q)

    def test_parentheses(self):
        assert parse_pattern("(P o Q)^2") == Power(Compose(P, Q), 2)
        assert parse_pattern("((P))") == P

    def test_multichar_names(self):
        assert parse_pattern("Spine2*") == Star(Atom("Spine2"))

    def test_whitespace_insensitive(self):
        assert parse_pattern(" P *_ 3 ") == parse_pattern("P*_3")

    def test_error_positions(self):
        cases = {
            "": 0,
            "P^0": 2,
            "P^^2": 2,
            "P__2": 2,
            "P Q": 2,
            "(P": 2,
            "Q_\u0663": 2,
            "Q_\u00b2": 2,
            "P^\u0662": 2,
            "Q_-\u0663": 3,
            "Q_1\u0663": 3,
        }
        for src, pos in cases.items():
            with pytest.raises(PatternSyntaxError) as exc:
                parse_pattern(src)
            assert exc.value.position == pos, src

    def test_nesting_limit(self):
        limit = patterns._MAX_NESTING
        assert parse_pattern("(" * limit + "P" + ")" * limit) == P
        assert normalize(parse_pattern("P" + "*" * limit)) == normalize(P)
        # bar(, parentheses and suffixes add up along one path
        inner = "bar(" * 30 + "(" * 30 + "P" + "*" * 40
        assert normalize(parse_pattern(inner + ")" * 60)) == normalize(P)
        with pytest.raises(PatternSyntaxError, match="nesting deeper than 100") as exc:
            parse_pattern(inner + "*" + ")" * 60)
        assert exc.value.position == len(inner)
        # each group's suffixes count on top of the levels inside it
        term = "P"
        for _ in range(10):
            term = f"({term}{'*' * 9})"
        assert normalize(parse_pattern(term)) == normalize(P)
        with pytest.raises(PatternSyntaxError) as exc:
            parse_pattern(term + "_1")
        assert exc.value.position == len(term)

    def test_long_chain_is_not_nesting(self):
        chain = parse_pattern(" o ".join(f"P_{i}" for i in range(3000)))
        assert normalize(chain).leaves == tuple(Leaf("P", twist=i) for i in range(3000))
        assert normalize(Star(chain)).leaves == tuple(
            Leaf("P", star=True, twist=-i) for i in reversed(range(3000)))

    def test_power_zero_rejected(self):
        with pytest.raises(PatternSyntaxError):
            parse_pattern("P^0")
        with pytest.raises(PatternSyntaxError):
            parse_pattern("P^-2")

    def test_constructor_validation(self):
        with pytest.raises(DomainError):
            Power(P, 0)

    def test_float_twist_is_refused(self):
        # Q_1.5 would render as text that parse_pattern cannot read back
        with pytest.raises(ValueError, match="expected integer twist, got 1.5"):
            Twist(Atom("Q"), 1.5)

    def test_bool_power_is_refused(self):
        # Q^True would render as text, and count as a multiplicity
        with pytest.raises(ValueError, match="expected integer power exponent, got True"):
            Power(Q, True)

    @given(terms)
    def test_render_parse_preserves_normal_form(self, t):
        assert normalize(parse_pattern(render_term(t))) == normalize(t)

    def test_render_examples(self):
        assert render_term(Twist(Star(P), 3)) == "P*_3"
        assert render_term(Compose(Compose(P, Q), R)) == "P o Q o R"
        assert render_term(Power(Compose(P, Q), 2)) == "(P o Q)^2"
        assert render_term(Inverse(P)) == "P^-1"


class TestNormalForm:
    def test_atom(self):
        assert normalize(P) == NormalForm(((Leaf("P"), 1),))

    def test_star_of_compose_reverses(self):
        assert str(normalize(parse_pattern("(PoQ)*"))) == "Q* o P*"

    def test_bar_distributes_without_reversing(self):
        assert str(normalize(parse_pattern("bar(PoQ)"))) == "bar(P) o bar(Q)"

    def test_twist_accumulates(self):
        assert normalize(Twist(Twist(P, 2), 3)) == NormalForm(((Leaf("P", twist=5), 1),))
        assert str(normalize(parse_pattern("P_2_3"))) == "P_5"

    def test_leaf_rendering(self):
        assert str(normalize(parse_pattern("bar(P*)_2"))) == "bar(P*)_2"
        assert str(normalize(parse_pattern("P#"))) == "P#"

    def test_power_unrolls(self):
        assert normalize(Power(P, 3)) == normalize(Compose(Compose(P, P), P))

    def test_wrapping_one_atom_is_a_pound_leaf(self):
        nf = normalize(W)
        assert len(nf.leaves) == 1
        assert isinstance(nf.leaves[0], PoundLeaf)

    @given(terms)
    def test_leaves_are_flat(self, t):
        for leaf in normalize(t).leaves:
            assert isinstance(leaf, (Leaf, PoundLeaf))

    @given(terms)
    def test_normalize_is_idempotent(self, t):
        once = normalize(t)
        assert normalize(once.term()) == once
        assert normalize(once) == once


class TestRewriteIdentities:
    @given(terms)
    def test_star_involution(self, t):
        assert normalize(Star(Star(t))) == normalize(t)

    @given(terms)
    def test_bar_involution(self, t):
        assert normalize(Bar(Bar(t))) == normalize(t)

    @given(terms, st.integers(-4, 4), st.integers(-4, 4))
    def test_twist_addition(self, t, a, b):
        assert normalize(Twist(Twist(t, a), b)) == normalize(Twist(t, a + b))

    @given(terms, terms)
    def test_star_antidistributes(self, t, u):
        assert normalize(Star(Compose(t, u))) == normalize(Compose(Star(u), Star(t)))

    @given(terms, terms)
    def test_bar_distributes(self, t, u):
        assert normalize(Bar(Compose(t, u))) == normalize(Compose(Bar(t), Bar(u)))

    @given(terms, terms, st.integers(-4, 4))
    def test_twist_distributes(self, t, u, n):
        assert normalize(Twist(Compose(t, u), n)) == normalize(
            Compose(Twist(t, n), Twist(u, n))
        )

    @given(terms)
    def test_inverse_is_bar_star(self, t):
        assert normalize(Inverse(t)) == normalize(Bar(Star(t)))
        assert normalize(Inverse(t)) == normalize(Star(Bar(t)))

    @given(terms, st.integers(-4, 4))
    def test_star_twist_commutation(self, t, n):
        assert normalize(Star(Twist(t, n))) == normalize(Twist(Star(t), -n))

    @given(terms, st.integers(-4, 4))
    def test_bar_twist_commutation(self, t, n):
        assert normalize(Bar(Twist(t, n))) == normalize(Twist(Bar(t), -n))

    @given(terms)
    def test_pound_is_idempotent(self, t):
        assert normalize(Pound(Pound(t))) == normalize(Pound(t))

    @given(terms, terms)
    def test_pound_factors_commute(self, t, u):
        assert normalize(Compose(Pound(t), Pound(u))) == normalize(
            Compose(Pound(u), Pound(t))
        )

    def test_plain_factors_do_not_commute(self):
        assert normalize(Compose(P, Q)) != normalize(Compose(Q, P))

    def test_wrapping_one_collapses(self):
        assert normalize(Star(W)) == normalize(W)
        assert normalize(Twist(W, 5)) == normalize(W)
        assert normalize(Pound(W)) == normalize(W)
        assert normalize(Inverse(W)) == normalize(Bar(W))


class TestRetrace:
    def test_structure(self):
        assert retrace_term(Q, 2, 3) == Compose(
            Power(Twist(Bar(Star(Q)), 2), 3), Power(Q, 3)
        )

    def test_rendering(self):
        assert render_term(retrace_term(Q, 2, 3)) == "bar(Q*)_2^3 o Q^3"

    def test_zero_twist(self):
        nf = normalize(retrace_term(Q, 0, 2))
        assert nf.leaves == (
            Leaf("Q", star=True, bar=True),
            Leaf("Q", star=True, bar=True),
            Leaf("Q"),
            Leaf("Q"),
        )

    def test_rejects_bad_count(self):
        with pytest.raises(DomainError):
            retrace_term(Q, 2, 0)

    @given(terms, st.integers(-3, 3), st.integers(1, 4), assignments)
    def test_eval_identity(self, t, n, c, asg):
        got = eval_invariant(retrace_term(t, n, c), asg)
        assert got == c * (eval_invariant(t, asg) - eval_invariant(Twist(t, n), asg))

    def test_profile_called_once_per_distinct_leaf(self):
        calls = []

        def profile(n):
            calls.append(n)
            return 3 * n + 1

        assert eval_invariant(retrace_term(Q, 2, 500), {"Q": profile}) == 500 * (1 - 7)
        assert sorted(calls) == [0, 2]


class TestEval:
    def test_sign_table(self):
        asg = {"P": table_profile({3: 7, -3: 11, 0: 5})}
        assert eval_invariant(Twist(P, 3), asg) == 7
        assert eval_invariant(Twist(Star(P), 3), asg) == 11
        assert eval_invariant(Twist(Bar(P), 3), asg) == -11
        assert eval_invariant(Twist(Inverse(P), 3), asg) == -7
        assert eval_invariant(P, asg) == 5

    def test_pound_preserves_value(self):
        asg = {"P": table_profile({0: 9})}
        assert eval_invariant(Pound(P), asg) == 9
        assert eval_invariant(W, {"W": table_profile({0: 4})}) == 4

    @given(terms, terms, assignments)
    def test_additive_over_compose(self, t, u, asg):
        assert eval_invariant(Compose(t, u), asg) == eval_invariant(
            t, asg
        ) + eval_invariant(u, asg)

    @given(terms, assignments)
    def test_inverse_negates(self, t, asg):
        assert eval_invariant(Inverse(t), asg) == -eval_invariant(t, asg)
        assert eval_invariant(Compose(t, Inverse(t)), asg) == 0

    @given(terms, assignments)
    def test_normal_form_evaluates_like_term(self, t, asg):
        assert eval_invariant(normalize(t), asg) == eval_invariant(t, asg)

    def test_unassigned_atom(self):
        with pytest.raises(UnassignedAtom) as exc:
            eval_invariant(Compose(P, Q), {"P": table_profile({0: 1})})
        assert exc.value.name == "Q"

    @pytest.mark.parametrize("table", [{"0": 1, "-0": 5}, {3: 1, "3": 2}, {"03": 1, 3: 2}])
    def test_table_keys_naming_one_twist_are_refused(self, table):
        with pytest.raises(ValueError, match="both name twist") as exc:
            table_profile(table)
        assert not isinstance(exc.value, DomainError)

    @pytest.mark.parametrize("key", ["\u0663", "\u00b3", "-\u0663", "--3"])
    def test_table_keys_are_ascii_decimal(self, key):
        with pytest.raises(ValueError, match="profile twist"):
            table_profile({key: 4})

    def test_table_profile_domain(self):
        profile = table_profile({0: 1, 2: 5})
        assert profile(2) == 5
        with pytest.raises(DomainError):
            profile(1)


def random_term(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.25:
        return rng.choice((P, Q, R, W))
    kind = rng.randrange(8)
    inner = random_term(rng, depth - 1)
    if kind == 0:
        return Star(inner)
    if kind == 1:
        return Bar(inner)
    if kind == 2:
        return Twist(inner, rng.randint(-3, 3))
    if kind == 3:
        return Power(inner, rng.randint(1, 4))
    if kind == 4:
        return Pound(inner)
    if kind == 5:
        return Inverse(inner)
    return Compose(inner, random_term(rng, depth - 1))


def leaf_by_leaf(leaves, tables) -> int:
    """The satellite sum with one table lookup per leaf, multiplicities unrolled."""
    total = 0
    for leaf in leaves:
        if isinstance(leaf, PoundLeaf):
            total += leaf_by_leaf(leaf.inner.leaves, tables)
            continue
        arg = leaf.twist if leaf.star == leaf.bar else -leaf.twist
        total += -tables[leaf.atom][arg] if leaf.bar else tables[leaf.atom][arg]
    return total


class TestCountedEvaluation:
    def test_matches_leaf_by_leaf_sum(self):
        rng = random.Random(20261018)
        for _ in range(500):
            t = random_term(rng, 5)
            tables = {name: {n: rng.randint(-9, 9) for n in range(-40, 41)} for name in "PQRW"}
            asg = {name: table_profile(table) for name, table in tables.items()}
            assert eval_invariant(t, asg) == leaf_by_leaf(normalize(t).leaves, tables), t

    def test_first_failing_leaf_raises(self):
        asg = {"P": table_profile({0: 1})}
        with pytest.raises(UnassignedAtom) as exc:
            eval_invariant(Compose(Power(P, 3), Compose(R, Q)), asg)
        assert exc.value.name == "R"
        with pytest.raises(DomainError, match="twist 2"):
            eval_invariant(Compose(Twist(P, 2), Twist(P, 5)), asg)


class TestLeafLimit:
    """Runs hold any multiplicity; the limit fires where a form is written out leaf by leaf."""

    def test_power_is_refused_before_it_is_built(self):
        tracemalloc.start()
        try:
            nf = normalize(parse_pattern("P^100000000"))
            assert nf.runs == ((Leaf("P"), 100000000),)
            for write_out in (lambda: nf.leaves, lambda: str(nf), nf.term):
                with pytest.raises(DomainError, match="100000000 leaves.*limit of 2000000"):
                    write_out()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_limit_is_inclusive_at_power_and_compose(self, monkeypatch):
        monkeypatch.setattr(patterns, "_MAX_LEAVES", 10)
        assert len(normalize(Compose(Power(P, 5), Power(Q, 5))).leaves) == 10
        assert len(normalize(Power(Compose(P, Q), 5)).leaves) == 10
        with pytest.raises(DomainError, match="11 leaves"):
            str(normalize(Compose(Power(P, 6), Power(Q, 5))))
        with pytest.raises(DomainError, match="12 leaves"):
            normalize(Power(P, 12)).leaves
        # a pound leaf over a long power values and compares; only its text is refused
        long_pound = normalize(Pound(Power(Twist(P, 1), 12)))
        assert eval_invariant(long_pound, {"P": table_profile({1: 1})}) == 12
        assert long_pound == normalize(Pound(Compose(Power(Twist(P, 1), 7),
                                                     Power(Twist(P, 1), 5))))
        with pytest.raises(DomainError, match="12 leaves"):
            str(long_pound)

    def test_run_count_is_limited_before_a_power_repeats_it(self, monkeypatch):
        monkeypatch.setattr(patterns, "_MAX_LEAVES", 10)
        assert len(normalize(Power(Compose(P, Q), 5)).runs) == 10
        with pytest.raises(DomainError, match="12 runs, over the limit of 10"):
            normalize(Power(Compose(P, Q), 6))
        # the seams P o P merge: (P o Q o P)^5 is 11 runs, ^4 is 9
        assert len(normalize(Power(Compose(Compose(P, Q), P), 4)).runs) == 9
        with pytest.raises(DomainError, match="11 runs"):
            normalize(Power(Compose(Compose(P, Q), P), 5))
        with pytest.raises(DomainError, match="11 runs"):
            normalize(Compose(Power(Compose(P, Q), 5), R))
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="200000000 runs"):
                normalize(parse_pattern("(P o Q)^100000000"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestRuns:
    """The seams where runs merge; TestOnePassNormalizer checks runs against the flat reference."""

    def test_power_of_one_run_multiplies(self):
        assert normalize(parse_pattern("(P o P)^3")).runs == ((Leaf("P"), 6),)

    def test_power_merges_its_seams(self):
        assert normalize(parse_pattern("(P o Q o P)^2")).runs == (
            (Leaf("P"), 1), (Leaf("Q"), 1), (Leaf("P"), 2), (Leaf("Q"), 1), (Leaf("P"), 1))

    def test_star_over_a_power(self):
        assert normalize(parse_pattern("((P o Q_1)^3)*")).runs == (
            (Leaf("Q", star=True, twist=-1), 1), (Leaf("P", star=True), 1)) * 3
        assert normalize(parse_pattern("(P_2^4)*")).runs == ((Leaf("P", star=True, twist=-2), 4),)

    def test_pound_runs_merge(self):
        pound_p = PoundLeaf(NormalForm(((Leaf("P"), 1),)))
        assert normalize(parse_pattern("P# o P#")).runs == ((pound_p, 2),)
        assert str(normalize(parse_pattern("P# o Q# o P#"))) == "P# o P# o Q#"

    def test_retrace_is_two_runs_at_any_count(self):
        nf = normalize(retrace_term(Q, 2, 10**18))
        assert nf.runs == ((Leaf("Q", star=True, bar=True, twist=2), 10**18), (Leaf("Q"), 10**18))
        assert eval_invariant(nf, {"Q": table_profile({0: 0, 2: 1})}) == -10**18


class TestOnePassNormalizer:
    """The one-pass normalizer against the reference that maps every leaf under each operator."""

    TABLES = {name: {n: (7 * n + ord(name)) % 19 - 9 for n in range(-60, 61)} for name in "PQRW"}
    ASSIGNMENT = {name: table_profile(table) for name, table in TABLES.items()}

    def check(self, t):
        """Runs agree with the flat reference in ==, hash, str, leaves and value."""
        nf, want = normalize(t), normalize_by_maps(t)
        assert nf == want and hash(nf) == hash(want), t
        assert str(nf) == render_normal_form(want), t
        assert nf.leaves == want.leaves, t
        assert eval_invariant(nf, self.ASSIGNMENT) == leaf_by_leaf(want.leaves, self.TABLES), t
        return nf, want

    @given(terms)
    def test_matches_map_normalizer(self, t):
        self.check(t)

    def test_matches_map_normalizer_on_seeded_terms(self):
        rng = random.Random(20261018)
        for _ in range(20_000):
            t = random_term(rng, 7)
            nf, want = self.check(t)
            assert [str(leaf) for leaf in nf.leaves] == [
                render_normal_form(NormalForm(((leaf, 1),))) for leaf in want.leaves], t

    def test_composition_stays_non_associative(self):
        left, right = Compose(Compose(P, Q), R), Compose(P, Compose(Q, R))
        assert left != right
        assert left == Compose(Compose(P, Q), R)
        assert hash(left) == hash(Compose(Compose(P, Q), R))
        assert Compose(P, Q) != P and Compose(P, Q) != "P o Q"


class TestLongChains:
    """A parsed chain nests along its left spine; nothing walks it by recursion."""

    def test_chain_of_1500_atoms(self):
        text = " o ".join(["P", "Q*", "bar(R)_2"] * 500)
        t = parse_pattern(text)
        assert render_term(t) == text
        assert render_term(normalize(t).term()) == text
        again = parse_pattern(render_term(t))
        assert again == t and again is not t
        assert hash(again) == hash(t)
        assert again != parse_pattern(text + " o P")
        assert normalize(Star(t)) == normalize_by_maps(Star(t))

    def test_repr_copy_and_pickle_of_a_long_chain(self):
        t = parse_pattern(" o ".join(["P", "Q*", "bar(R)_2"] * 500))
        text = repr(t)
        assert text.startswith("Compose(left=" * 1499 + "Atom(name='P'), right=Star(")
        assert text.count("Compose(") == 1499
        assert text.endswith(", right=Twist(inner=Bar(inner=Atom(name='R')), n=2))")
        assert copy.deepcopy(t) == t
        assert pickle.loads(pickle.dumps(t)) == t

    def test_repr_of_a_short_chain_is_the_dataclass_text(self):
        t = Compose(Compose(P, Star(Q)), Compose(R, W))
        assert repr(t) == ("Compose(left=Compose(left=Atom(name='P'), right=Star(inner=Atom("
                           "name='Q'))), right=Compose(left=Atom(name='R'), "
                           "right=Pound(inner=Atom(name='W'))))")
        assert copy.copy(t) == t and pickle.loads(pickle.dumps(t)) == t
