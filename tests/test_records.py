"""The frozen records: repr, ==, hash, immutability, construction, copy and pickle."""

import copy
import pickle

import pytest

from shakekit._record import Record
from shakekit.complexity import ComplexityCertificate
from shakekit.errors import DomainError
from shakekit.exactlinalg import Inertia, Pivots
from shakekit.goeritz import Band, BandPresentation, GoeritzData
from shakekit.laurent import UnitCirclePoint
from shakekit.patterns import (
    Atom,
    Bar,
    Compose,
    Inverse,
    Leaf,
    NormalForm,
    Pound,
    PoundLeaf,
    Power,
    Star,
    Twist,
)
from shakekit.verify import CheckResult

P, Q = Atom("P"), Atom("Q")
ORIENTED, TWISTED = Band(orientable=True), Band(orientable=False, half_twists=1)
CERTIFICATE = dict(n=-2, c=3, witness=UnitCirclePoint.root(1, 3),
                   invariant_name="half-LT-signature", i_q=0, i_qn=-1, bound=3,
                   term="bar(Q*)_2^3 o Q^3", assumptions=("recorded",))

# (class, its fields by keyword, some left to their defaults; a change to
# one field; the repr, which is the text the frozen dataclasses printed)
RECORDS = [
    (Inertia, dict(n_plus=2, n_zero=0, n_minus=1), dict(n_zero=1),
     "Inertia(n_plus=2, n_zero=0, n_minus=1)"),
    (Pivots, dict(bits=8, values=(-1, 258), lows=(0, 1)), dict(lows=(0, 0)),
     "Pivots(bits=8, values=(-1, 258), lows=(0, 1))"),
    (Atom, dict(name="P"), dict(name="Q"), "Atom(name='P')"),
    (Star, dict(inner=P), dict(inner=Q), "Star(inner=Atom(name='P'))"),
    (Bar, dict(inner=P), dict(inner=Q), "Bar(inner=Atom(name='P'))"),
    (Twist, dict(inner=P, n=-3), dict(n=3), "Twist(inner=Atom(name='P'), n=-3)"),
    (Compose, dict(left=P, right=Star(Q)), dict(right=Q),
     "Compose(left=Atom(name='P'), right=Star(inner=Atom(name='Q')))"),
    (Power, dict(inner=P, m=2), dict(m=3), "Power(inner=Atom(name='P'), m=2)"),
    (Pound, dict(inner=P), dict(inner=Q), "Pound(inner=Atom(name='P'))"),
    (Inverse, dict(inner=P), dict(inner=Q), "Inverse(inner=Atom(name='P'))"),
    (Leaf, dict(atom="P", twist=2), dict(star=True),
     "Leaf(atom='P', star=False, bar=False, twist=2)"),
    (PoundLeaf, dict(inner=NormalForm(((Leaf("P"), 1), (Leaf("Q", bar=True), 2)))),
     dict(inner=NormalForm(((Leaf("P"), 1),))),
     "PoundLeaf(inner=NormalForm(runs=((Leaf(atom='P', star=False, bar=False, twist=0), 1), "
     "(Leaf(atom='Q', star=False, bar=True, twist=0), 2))))"),
    (NormalForm, dict(runs=((Leaf("P", star=True), 1), (Leaf("Q"), 3))),
     dict(runs=((Leaf("Q"), 1),)),
     "NormalForm(runs=((Leaf(atom='P', star=True, bar=False, twist=0), 1), "
     "(Leaf(atom='Q', star=False, bar=False, twist=0), 3)))"),
    (Band, dict(orientable=False, half_twists=3), dict(self_writhe=2),
     "Band(orientable=False, half_twists=3, self_writhe=0)"),
    (BandPresentation, dict(bands=(ORIENTED, TWISTED), crossings=((0, 1), (1, 0))),
     dict(crossings=((0, 2), (2, 0))),
     "BandPresentation(bands=(Band(orientable=True, half_twists=0, self_writhe=0), "
     "Band(orientable=False, half_twists=1, self_writhe=0)), crossings=((0, 1), (1, 0)))"),
    (GoeritzData, dict(G=((3, 1), (1, -1)), nonorientable=frozenset({1})),
     dict(nonorientable=frozenset()),
     "GoeritzData(G=((3, 1), (1, -1)), nonorientable=frozenset({1}))"),
    (ComplexityCertificate, CERTIFICATE, dict(bound=6),
     "ComplexityCertificate(n=-2, c=3, witness=UnitCirclePoint(1/3), "
     "invariant_name='half-LT-signature', i_q=0, i_qn=-1, bound=3, "
     "term='bar(Q*)_2^3 o Q^3', assumptions=('recorded',))"),
    (CheckResult, dict(name="torus signatures", passed=True, detail="n = 1..20"),
     dict(passed=False), "CheckResult(name='torus signatures', passed=True, detail='n = 1..20')"),
]


@pytest.mark.parametrize("cls, fields, change, text", RECORDS,
                         ids=[case[0].__name__ for case in RECORDS])
def test_record_behaviour(cls, fields, change, text):
    record = cls(**fields)
    names = list(cls.__annotations__)
    values = tuple(getattr(record, name) for name in names)
    assert repr(record) == text

    # positional and keyword construction agree; equal records hash as their fields
    same = cls(*values)
    assert same is not record and same == record and not same != record
    assert hash(same) == hash(record) == hash(values)
    other = cls(**{**fields, **change})
    assert other != record and not other == record

    # a class with the same fields and the same text is still another class
    twin = type(cls.__name__, (Record,), {"__annotations__": dict(cls.__annotations__)})(*values)
    assert repr(twin) == text
    assert twin != record and record != twin and not twin == record

    for name in [*names, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values

    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(clone) is cls and clone == record and repr(clone) == text


def test_terms_of_one_field_differ_by_class():
    terms = [Star(P), Bar(P), Pound(P), Inverse(P)]
    assert all((a == b) == (a is b) for a in terms for b in terms)


def test_defaults():
    assert Leaf("P") == Leaf("P", False, False, 0) == Leaf(atom="P")
    assert Band(orientable=True) == Band(True, 0, 0)
    assert GoeritzData([[1]]).nonorientable == frozenset()
    assert BandPresentation([ORIENTED]).crossings == ((0,),)


def test_pivots_cache_their_terms():
    pivots = Pivots(8, (-1, 258), (0, 1))
    assert pivots.terms == [[(0, -1)], [(1, 2), (2, 1)]]
    assert pivots.terms is pivots.terms
    assert pivots == Pivots(8, (-1, 258), (0, 1))


@pytest.mark.parametrize("build, error", [
    (lambda: Inertia(-1, 0, 0), ValueError),
    (lambda: Band(orientable=True, self_writhe=1), ValueError),
    (lambda: Power(Atom("P"), 0), DomainError),
], ids=["Inertia", "Band", "Power"])
def test_validation_hooks_refuse(build, error):
    with pytest.raises(error):
        build()
