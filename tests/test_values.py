"""Value semantics of the package's records.

Every record derives from ``records._Value`` and is an immutable value: it
is built from its fields in order (or by keyword, with defaults), prints as
``Name(field=value, ...)``, equals and hashes like the tuple of its fields
within its own class only, and refuses assignment and deletion. Two records
compare and hash by fewer fields (``IdealSet`` by its members, ``LawReport``
without its timing), and ``CornerRing``, whose position dict makes it
unhashable, compares by all of them; these three have their own test.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from cleanrings import analysis, catalog, core, dsl, laws
from cleanrings import localized as loc
from cleanrings.constructions import corner_ring, zn
from cleanrings.ideals import IdealSet

_TOKEN = "_Token(kind='int', text='7', line=1, col=2)"
_ZERO = "ModuleRef(kind='zero', m=None, tables=None)"
_ZNMOD = "ModuleRef(kind='znmod', m=2, tables=None)"
_DECOMPOSITION = "Decomposition(sign=1, idempotent=1, unit=1)"

# One instance of each record, built by a factory so that two equal but
# distinct instances can be made, with its exact repr.
_CASES = [
    (lambda: dsl._Token("int", "7", 1, 2), _TOKEN),
    (lambda: dsl._Atom(dsl._Token("int", "7", 1, 2)), f"_Atom(token={_TOKEN})"),
    (
        lambda: dsl._List((dsl._Atom(dsl._Token("int", "7", 1, 2)),), dsl._Token("int", "7", 1, 2)),
        f"_List(items=(_Atom(token={_TOKEN}),), open_token={_TOKEN})",
    ),
    (lambda: dsl.ZnSpec(6), "ZnSpec(n=6)"),
    (
        lambda: dsl.ProductSpec((dsl.ZnSpec(2), dsl.ZnSpec(3))),
        "ProductSpec(factors=(ZnSpec(n=2), ZnSpec(n=3)))",
    ),
    (lambda: dsl.MatrixSpec(2, dsl.ZnSpec(2)), "MatrixSpec(k=2, base=ZnSpec(n=2))"),
    (
        lambda: dsl.ModuleRef("table", tables=(((0,),), ((0,),), ((0,),))),
        "ModuleRef(kind='table', m=None, tables=(((0,),), ((0,),), ((0,),)))",
    ),
    (
        lambda: dsl.Tri2Spec(dsl.ZnSpec(2), dsl.ZnSpec(3), dsl.ModuleRef("zero")),
        f"Tri2Spec(r=ZnSpec(n=2), s=ZnSpec(n=3), lower={_ZERO})",
    ),
    (
        lambda: dsl.Tri3Spec(*[dsl.ZnSpec(2)] * 3, *[dsl.ModuleRef("znmod", 2)] * 3),
        "Tri3Spec(a1=ZnSpec(n=2), a2=ZnSpec(n=2), a3=ZnSpec(n=2),"
        f" m21={_ZNMOD}, m31={_ZNMOD}, m32={_ZNMOD})",
    ),
    (
        lambda: dsl.MoritaSpec(
            dsl.ZnSpec(2), dsl.ZnSpec(2), dsl.ModuleRef("regular"), dsl.ModuleRef("zero")
        ),
        "MoritaSpec(r=ZnSpec(n=2), s=ZnSpec(n=2),"
        f" upper=ModuleRef(kind='regular', m=None, tables=None), lower={_ZERO})",
    ),
    (
        lambda: dsl.IdealizeSpec(dsl.ZnSpec(4), dsl.ModuleRef("znmod", 2)),
        f"IdealizeSpec(base=ZnSpec(n=4), module={_ZNMOD})",
    ),
    (lambda: dsl.IdealRef(None), "IdealRef(generators=None)"),
    (
        lambda: dsl.QuotientSpec(dsl.ZnSpec(8), dsl.IdealRef((4,))),
        "QuotientSpec(base=ZnSpec(n=8), ideal=IdealRef(generators=(4,)))",
    ),
    (lambda: dsl.SeriesSpec(dsl.ZnSpec(2), 3), "SeriesSpec(base=ZnSpec(n=2), k=3)"),
    (lambda: dsl.LocalizedSpec((3, 5)), "LocalizedSpec(primes=(3, 5))"),
    (lambda: dsl.CornerSpec(dsl.ZnSpec(6), 3), "CornerSpec(base=ZnSpec(n=6), element=3)"),
    (lambda: dsl._Int("x"), "_Int(label='x', minimum=1)"),
    (lambda: dsl._Module("s", "r"), "_Module(left='s', right='r')"),
    (
        lambda: dsl._Construction("zn", dsl.ZnSpec, (dsl._Int("zn modulus"),)),
        "_Construction(head='zn', cls=<class 'cleanrings.dsl.ZnSpec'>,"
        " kinds=(_Int(label='zn modulus', minimum=1),), many=None, nested=True)",
    ),
    (lambda: loc.LocalizedIntegers((5, 3)), "LocalizedIntegers(primes=(3, 5))"),
    (
        lambda: loc.LocalizedIdeal(loc.LocalizedIntegers((3,)), "principal", (1,)),
        "LocalizedIdeal(ring=LocalizedIntegers(primes=(3,)), kind='principal', exponents=(1,))",
    ),
    (
        lambda: loc.SignClasses(Fraction(1, 2), True, False, True),
        "SignClasses(element=Fraction(1, 2), unit=True,"
        " shifted_down_unit=False, shifted_up_unit=True)",
    ),
    (
        lambda: loc.SignClassSurvey(None, Fraction(3), Fraction(-3), 10),
        "SignClassSurvey(first_plus_only=None, first_minus_only=Fraction(3, 1),"
        " first_neither=Fraction(-3, 1), scanned=10)",
    ),
    (
        lambda: loc.ProductVerdict(
            False, (Fraction(1), Fraction(2)), ("plus-only", "minus-only"),
            (True, True), (True, False), "d",
        ),
        "ProductVerdict(ok=False, witness=(Fraction(1, 1), Fraction(2, 1)),"
        " witness_sign_classes=('plus-only', 'minus-only'), component_weakly_clean=(True, True),"
        " component_clean=(True, False), detail='d')",
    ),
    (lambda: core.Violation("one-identity", (1,)), "Violation(axiom='one-identity', witness=(1,))"),
    (
        lambda: core.ValidationReport(False, False, (core.Violation("one-identity", (1,)),)),
        "ValidationReport(ok=False, trivial=False,"
        " violations=(Violation(axiom='one-identity', witness=(1,)),))",
    ),
    (lambda: analysis.Decomposition(1, 1, 1), _DECOMPOSITION),
    (
        lambda: analysis.CleanClass(2, (analysis.Decomposition(1, 1, 1),)),
        f"CleanClass(element=2, decompositions=({_DECOMPOSITION},))",
    ),
    (
        lambda: analysis.IdealVerdict("clean", "<2>", False, 1, 2, (analysis.Decomposition(1, 1, 1),), "d"),
        "IdealVerdict(property_name='clean', ideal_description='<2>', ok=False, checked=1,"
        f" failing=2, trace=({_DECOMPOSITION},), detail='d')",
    ),
    (
        lambda: catalog.CatalogEntry("z4", zn(4), True),
        "CatalogEntry(key='z4', ring=<FiniteRing Z_4 order=4>, in_ideal_laws=True, note='')",
    ),
    (
        lambda: laws._Law("units-sanity", "equation", "d"),
        "_Law(law_id='units-sanity', direction='equation', description='d', check=None)",
    ),
]


def _field_names(text: str) -> list[str]:
    """The top-level field names of a repr, in order."""
    names, depth, start = [], 0, text.index("(") + 1
    for i, ch in enumerate(text):
        if ch in "([<":
            depth += 1
        elif ch in ")]>":
            depth -= 1
        elif ch == "=" and depth == 1 and text[i + 1] != "=":
            names.append(text[start:i].strip(" ,"))
        elif ch == "," and depth == 1:
            start = i + 1
    return names


def test_every_record_has_a_case():
    classes = {type(make()) for make, _ in _CASES}
    assert len(classes) == len(_CASES) == 31


@pytest.mark.parametrize("make, text", _CASES, ids=[t.split("(")[0] for _, t in _CASES])
def test_a_record_prints_compares_hashes_and_refuses_assignment(make, text):
    a, b = make(), make()
    assert repr(a) == text
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    names = _field_names(text)
    values = tuple(getattr(a, name) for name in names)
    assert hash(a) == hash(values)
    assert a != values and values != a
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.unknown = 1
    assert a == b and repr(a) == text


def test_records_that_compare_on_fewer_fields_or_do_not_hash():
    ring = zn(4)
    a, b = IdealSet(ring, (2, 0), (2,)), IdealSet(zn(4), (0, 2))
    assert repr(a) == "IdealSet(ring=<FiniteRing Z_4 order=4>, members=(0, 2), generators=(2,))"
    assert a.generators != b.generators and a == b and hash(a) == hash(b) == hash(((0, 2),))
    assert a != IdealSet(ring, (0, 1, 2, 3), (2,)) and a != (0, 2)

    def report(verdict="pass", seconds=0.0):
        return laws.LawReport("units-sanity", "d", "(zn 4)", verdict, "equation", "degenerate", seconds=seconds)

    fast, slow = report(seconds=0.001), report(seconds=2.0)
    assert "seconds=2.0)" in repr(slow)
    assert fast == slow and hash(fast) == hash(slow)
    assert fast != report("fail", 0.001)

    c, d = corner_ring(zn(6), 3), corner_ring(zn(6), 3)
    assert repr(c) == (
        "CornerRing(ring=<FiniteRing Z_6|e=3 order=2>, parent=<FiniteRing Z_6 order=6>, e=3,"
        " carrier=(0, 3), position={0: 0, 3: 1})"
    )
    assert c is not d and c == d and c != corner_ring(zn(6), 4)
    with pytest.raises(TypeError):
        hash(c)
    with pytest.raises(AttributeError):
        c.e = 4
    for record in (a, fast):
        with pytest.raises(AttributeError):
            record.members = ()


def test_equality_needs_the_same_class_and_equal_fields():
    assert dsl.IdealRef((1,)) != dsl.LocalizedSpec((1,))
    assert dsl.ZnSpec(6) != dsl.ZnSpec(7)
    assert dsl.ZnSpec(6) != 6
    assert {dsl.ZnSpec(6), dsl.ZnSpec(6), dsl.ZnSpec(7)} == {dsl.ZnSpec(7), dsl.ZnSpec(6)}
    assert loc.SignClasses(None, True, False, False) != loc.SignClasses(None, True, False, True)


def test_defaults_and_keyword_construction():
    assert dsl.ModuleRef("regular") == dsl.ModuleRef("regular", None, None)
    assert (dsl.ModuleRef("znmod", 3).m, dsl.ModuleRef("znmod", 3).tables) == (3, None)
    tables = (((0,),), ((0,),), ((0,),))
    assert dsl.ModuleRef("table", tables=tables) == dsl.ModuleRef(kind="table", m=None, tables=tables)
    assert dsl._Int("x") == dsl._Int("x", 1) and dsl._Int("x", minimum=0).minimum == 0
    zn = dsl._Construction("zn", dsl.ZnSpec, ())
    assert (zn.many, zn.nested) == (None, True)
    assert dsl.MatrixSpec(base=dsl.ZnSpec(2), k=2) == dsl.MatrixSpec(2, dsl.ZnSpec(2))
    flags = loc.SignClasses(element=None, unit=True, shifted_down_unit=False, shifted_up_unit=True)
    assert flags == loc.SignClasses(None, True, False, True)


@pytest.mark.parametrize(
    "args, kwargs",
    [((), {}), ((1, 2), {}), ((1,), {"n": 1}), ((), {"m": 1})],
    ids=["missing", "too-many", "twice", "unknown"],
)
def test_wrong_arguments_are_a_type_error(args, kwargs):
    with pytest.raises(TypeError):
        dsl.ZnSpec(*args, **kwargs)


def test_localization_records_check_their_arguments():
    ring = loc.LocalizedIntegers((5, 3))
    assert ring.primes == (3, 5)
    for kind, exponents in [("zero", (1, 0)), ("maximal", (1, 0)), ("principal", (1,))]:
        with pytest.raises(ValueError):
            loc.LocalizedIdeal(ring, kind, exponents)
        with pytest.raises(ValueError):
            loc.LocalizedIdeal(ring=ring, kind=kind, exponents=exponents)
