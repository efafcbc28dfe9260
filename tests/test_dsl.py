"""Parser, analyzer, builder, and pretty-printer for the ring spec language."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cleanrings.core import FiniteRing, SizeCapError
from cleanrings.dsl import (
    CornerSpec,
    IdealRef,
    LocalizedSpec,
    MatrixSpec,
    ModuleRef,
    ProductSpec,
    QuotientSpec,
    SeriesSpec,
    SpecArityError,
    SpecError,
    SpecLexicalError,
    SpecSizeError,
    SpecSyntaxError,
    Tri2Spec,
    ZnSpec,
    build,
    parse,
    pretty,
    size_estimate,
)
from cleanrings.localized import LocalizedIntegers

GOLDEN = [
    "(zn 6)",
    "(product (zn 2) (zn 4))",
    "(matrix 2 (zn 2))",
    "(localized 3 5)",
    "(quotient (zn 8) (ideal 4))",
    "(series (zn 2) 3)",
    "(tri2 (zn 2) (zn 2) regular)",
    "(tri2 (zn 4) (zn 6) (znmod 2))",
    "(tri3 (zn 2) (zn 2) (zn 2) zero (znmod 2) zero)",
    "(morita (zn 2) (zn 3) zero (znmod 1))",
    "(idealize (zn 4) regular)",
    "(corner (zn 6) 3)",
    "(quotient (zn 12) (ideal all))",
    "(product (zn 2) (zn 3) (zn 5))",
]


@pytest.mark.parametrize("text", GOLDEN)
def test_golden_specs_round_trip(text):
    spec = parse(text)
    assert pretty(spec) == text
    assert parse(pretty(spec)) == spec


def test_whitespace_and_newlines_are_insignificant():
    spec = parse("(product\n  (zn 2)\n  (zn 4))")
    assert spec == parse("(product (zn 2) (zn 4))")
    assert pretty(spec) == "(product (zn 2) (zn 4))"


def test_parse_builds_expected_ast():
    assert parse("(zn 6)") == ZnSpec(6)
    assert parse("(matrix 2 (zn 2))") == MatrixSpec(2, ZnSpec(2))
    assert parse("(quotient (zn 8) (ideal 4))") == QuotientSpec(
        ZnSpec(8), IdealRef((4,))
    )
    assert parse("(quotient (zn 8) (ideal all))") == QuotientSpec(ZnSpec(8), IdealRef(None))
    assert parse("(localized 3 5)") == LocalizedSpec((3, 5))
    assert parse("(tri2 (zn 2) (zn 2) regular)") == Tri2Spec(
        ZnSpec(2), ZnSpec(2), ModuleRef("regular")
    )


# ---------------------------------------------------------------------------
# random ASTs round-trip through pretty + parse


def _modules():
    return st.one_of(
        st.just(ModuleRef("zero")),
        st.builds(lambda m: ModuleRef("znmod", m), st.integers(1, 4)),
    )


def _tri2(spec, regular_depth):
    # the regular module demands equal neighbours, so draw it separately; it
    # prints its one operand twice, so k nested regular forms would give text
    # of 2^k operands: their nesting is bounded, their operands are not
    with_named = st.builds(Tri2Spec, spec, spec, _modules())
    if regular_depth == 0:
        return with_named
    operand = _finite_specs(regular_depth - 1)
    with_regular = st.builds(lambda r: Tri2Spec(r, r, ModuleRef("regular")), operand)
    return st.one_of(with_named, with_regular)


def _finite_specs(regular_depth):
    """Finite specs with regular tri2 forms nested at most regular_depth deep."""
    specs = st.deferred(
        lambda: st.one_of(
            st.builds(ZnSpec, st.integers(1, 9)),
            st.builds(MatrixSpec, st.integers(1, 2), st.builds(ZnSpec, st.integers(1, 4))),
            st.builds(
                ProductSpec,
                st.lists(specs, min_size=1, max_size=3).map(tuple),
            ),
            st.builds(SeriesSpec, st.builds(ZnSpec, st.integers(1, 6)), st.integers(1, 3)),
            st.builds(
                QuotientSpec,
                specs,
                st.one_of(
                    st.just(IdealRef(None)),
                    st.builds(
                        IdealRef,
                        st.lists(st.integers(0, 8), min_size=1, max_size=2).map(tuple),
                    ),
                ),
            ),
            _tri2(specs, regular_depth),
            st.builds(CornerSpec, specs, st.integers(0, 8)),
        )
    )
    return specs


FINITE_SPECS = _finite_specs(3)

TOP_SPECS = st.one_of(
    FINITE_SPECS,
    st.builds(
        LocalizedSpec,
        st.lists(st.sampled_from([2, 3, 5, 7, 11]), min_size=1, max_size=3, unique=True)
        .map(tuple),
    ),
)


@settings(max_examples=200, deadline=None)
@given(TOP_SPECS)
def test_round_trip_random_specs(spec):
    estimate = size_estimate(spec)
    text = pretty(spec)
    if estimate is not None and estimate > 256:
        with pytest.raises(SpecSizeError):
            parse(text)
        return
    assert parse(text) == spec


# ---------------------------------------------------------------------------
# diagnostics: four distinct classes, all positioned


def test_unterminated_matrix_form_is_a_syntax_error_expecting_close():
    with pytest.raises(SpecSyntaxError) as err:
        parse("(matrix 2")
    assert err.value.expected == (")",)
    assert (err.value.line, err.value.col) == (1, 10)


def test_lexical_error_carries_position():
    with pytest.raises(SpecLexicalError) as err:
        parse("(zn\n  %)")
    assert (err.value.line, err.value.col) == (2, 3)


SYNTAX_ERRORS = {
    "": "syntax error at 1:1: empty input (expected ()",
    ")": "syntax error at 1:1: unmatched ')' (expected ()",
    "(zn 6) extra": (
        "syntax error at 1:8: trailing input 'extra' after the spec (expected end of input)"
    ),
    "()": "syntax error at 1:1: empty form",
    "((zn 2))": (
        "syntax error at 1:2: a form must start with a construction name (expected symbol)"
    ),
    "zn": "syntax error at 1:1: expected a parenthesized form, got 'zn' (expected ()",
}


def test_syntax_errors():
    for text, message in SYNTAX_ERRORS.items():
        with pytest.raises(SpecSyntaxError) as err:
            parse(text)
        assert str(err.value) == message


ARITY_ERRORS = {
    "(zn)": "arity error at 1:1: zn takes 1 argument(s), got 0",
    "(zn 6 7)": "arity error at 1:1: zn takes 1 argument(s), got 2",
    "(zn 0)": "arity error at 1:5: zn modulus must be at least 1, got 0",
    "(zn x)": "arity error at 1:5: zn modulus must be an integer (expected integer)",
    "(matrix (zn 2) 2)": (
        "arity error at 1:9: matrix size must be an integer (expected integer)"
    ),
    "(product)": "arity error at 1:1: product needs at least one factor",
    "(frobnicate 3)": (
        "arity error at 1:2: unknown construction 'frobnicate' (expected zn or product"
        " or matrix or tri2 or tri3 or morita or idealize or quotient or series"
        " or localized or corner)"
    ),
    "(localized)": "arity error at 1:1: localized needs at least one prime",
    "(localized 1)": "arity error at 1:12: localized prime must be at least 2, got 1",
    "(product (zn 2) (localized 3))": (
        "arity error at 1:17: localized rings cannot be nested inside constructions"
    ),
    "(tri2 (zn 2) (zn 3) regular)": (
        "arity error at 1:21: the regular module in tri2 needs both neighbouring rings"
        " equal (expected zero or (znmod m))"
    ),
    "(tri2 (zn 2) (zn 2) diagonal)": (
        "arity error at 1:21: unknown module name 'diagonal'"
        " (expected regular or zero or (znmod m))"
    ),
    "(tri2 (zn 2) (zn 2) (znmod))": "arity error at 1:21: znmod takes 1 argument(s), got 0",
    "(quotient (zn 8) 4)": (
        "arity error at 1:18: expected an (ideal ...) form"
        " (expected (ideal gens...) or (ideal all))"
    ),
    "(quotient (zn 8) (ideal))": "arity error at 1:18: ideal needs generators or the word all",
    "(series (zn 2))": "arity error at 1:1: series takes 2 argument(s), got 1",
    "(corner (zn 6) 3 4)": "arity error at 1:1: corner takes 2 argument(s), got 3",
    "(morita (zn 2) (zn 3) regular zero)": (
        "arity error at 1:23: the regular module in morita needs both neighbouring rings"
        " equal (expected zero or (znmod m))"
    ),
}


@pytest.mark.parametrize("text", list(ARITY_ERRORS))
def test_arity_class_covers_malformed_but_well_nested_specs(text):
    with pytest.raises(SpecArityError) as err:
        parse(text)
    assert str(err.value) == ARITY_ERRORS[text]


def test_size_cap_error_precedes_construction(monkeypatch):
    with pytest.raises(SpecSizeError):
        parse("(matrix 9 (zn 10))")
    with pytest.raises(SpecSizeError):
        parse("(zn 257)")
    monkeypatch.setenv("CLEANRINGS_SIZE_CAP", "300")
    assert parse("(zn 300)") == ZnSpec(300)
    with pytest.raises(SpecSizeError):
        parse("(zn 301)")


def test_error_classes_are_distinct_specerror_subclasses():
    classes = [SpecLexicalError, SpecSyntaxError, SpecArityError, SpecSizeError]
    for cls in classes:
        assert issubclass(cls, SpecError)
    assert len({cls.category for cls in classes}) == 4


def test_diagnostic_message_names_category_and_position():
    with pytest.raises(SpecError) as err:
        parse("(zn 6 7)")
    assert "arity error at 1:1" in str(err.value)


# ---------------------------------------------------------------------------
# size estimation and building


@pytest.mark.parametrize(
    "text, order",
    [
        ("(zn 6)", 6),
        ("(product (zn 2) (zn 4))", 8),
        ("(matrix 2 (zn 2))", 16),
        ("(series (zn 2) 3)", 8),
        ("(tri2 (zn 2) (zn 2) regular)", 8),
        ("(tri2 (zn 4) (zn 6) (znmod 2))", 48),
        ("(tri3 (zn 2) (zn 2) (zn 2) zero (znmod 2) zero)", 16),
        ("(idealize (zn 4) regular)", 16),
    ],
)
def test_size_estimate_matches_built_order(text, order):
    spec = parse(text)
    assert size_estimate(spec) == order
    assert build(spec).order == order


def _nested(depth: int, wrap: str, core: str) -> str:
    text = core
    for _ in range(depth):
        text = wrap.format(text)
    return text


DEEP_SPECS = [
    _nested(8, "(matrix 2 {})", "(zn 4)"),
    _nested(8, "(tri2 {0} {0} regular)", "(matrix 2 (zn 3))"),
]


@pytest.mark.parametrize("text", DEEP_SPECS, ids=["matrix-8-deep", "tri2-8-deep"])
def test_deeply_nested_oversized_spec_is_a_positioned_size_error(text):
    # The true orders have thousands of digits; the estimate stops at the cap.
    with pytest.raises(SpecSizeError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (1, 1)
    assert "exceeds the size cap 256" in str(exc.value)


def test_size_estimate_is_clamped_just_above_the_cap():
    deep = ZnSpec(4)
    for _ in range(8):
        deep = MatrixSpec(2, deep)
    assert size_estimate(deep) == 257
    assert size_estimate(MatrixSpec(2, ZnSpec(4))) == 256
    assert size_estimate(SeriesSpec(ZnSpec(2), 10**6)) == 257


def test_build_refuses_more_components_than_the_cap_over_a_trivial_base(monkeypatch):
    """The order over Z_1 is 1 for any count, so only the component count
    can be refused; up to the cap such rings still build."""
    assert size_estimate(MatrixSpec(10**5, ZnSpec(1))) == 1
    for spec in (MatrixSpec(17, ZnSpec(1)), SeriesSpec(ZnSpec(1), 257), MatrixSpec(10**5, ZnSpec(1))):
        with pytest.raises(SizeCapError, match="components > cap 256"):
            build(spec)
    assert build(MatrixSpec(16, ZnSpec(1))).order == 1
    assert build(SeriesSpec(ZnSpec(1), 256)).order == 1
    monkeypatch.setenv("CLEANRINGS_SIZE_CAP", "100")
    with pytest.raises(SizeCapError, match="101 components > cap 100"):
        build(SeriesSpec(ZnSpec(1), 101))


def test_size_estimate_walks_a_shared_chain_once_per_level_past_the_cap(monkeypatch):
    """A chain of regular tri2 forms built in Python, each reusing one
    operand for both rings, has 2^depth unshared nodes; past the cap the
    estimate visits one node per level."""
    from cleanrings import dsl

    visited = []
    estimate = dsl.size_estimate
    monkeypatch.setattr(dsl, "size_estimate", lambda spec: visited.append(spec) or estimate(spec))
    counts = {}
    for depth in (0, 1, 2, 6, 12, 18):
        spec = ZnSpec(2)
        for _ in range(depth):
            spec = Tri2Spec(spec, spec, ModuleRef("regular"))
        visited.clear()
        counts[depth] = (dsl.size_estimate(spec), len(visited))
    assert [order for order, _ in counts.values()] == [2, 8, 257, 257, 257, 257]
    # from depth 2, where the order first reaches the clamp, one more visit per level
    assert len({n - depth for depth, (_, n) in counts.items() if depth >= 2}) == 1


def test_size_estimate_visits_a_shared_chain_below_the_clamp_once_per_node(monkeypatch):
    """A chain over (zn 1) has order 1 at every level, so the clamp never
    stops the walk; each shared operand is estimated once, and its second
    use is a memo hit, so the count is linear in the depth."""
    from cleanrings import dsl

    visited = []
    estimate = dsl.size_estimate
    monkeypatch.setattr(dsl, "size_estimate", lambda spec: visited.append(spec) or estimate(spec))
    for depth in (0, 1, 2, 10, 18):
        spec = ZnSpec(1)
        for _ in range(depth):
            spec = Tri2Spec(spec, spec, ModuleRef("regular"))
        visited.clear()
        assert dsl.size_estimate(spec) == 1
        assert len(visited) == 2 * depth + 1, depth


def test_build_hashes_each_record_of_a_deep_spec_once(monkeypatch):
    """Building a spec looks each sub-spec up in a memo keyed by value. A
    record's field tuple is read once, when it is first hashed, so building
    (product (product ... (zn 2))) reads a number of tuples linear in the depth."""
    from cleanrings import localized

    reads = []
    values = localized._Value._values
    monkeypatch.setattr(localized._Value, "_values", lambda self: reads.append(self) or values(self))
    counts = {}
    for depth in (1, 2, 49, 98):
        spec = parse("(product " * depth + "(zn 2)" + ")" * depth)
        reads.clear()
        assert build(spec).order == 2
        counts[depth] = len(reads)
    per_level = counts[2] - counts[1]
    assert counts[49] - counts[2] == 47 * per_level
    assert counts[98] - counts[49] == 49 * per_level


def test_quotient_and_corner_estimates_bound_the_built_order():
    for text in ["(quotient (zn 12) (ideal 4))", "(corner (zn 6) 3)"]:
        spec = parse(text)
        ring = build(spec)
        assert ring.order <= size_estimate(spec)
        assert size_estimate(spec) % ring.order == 0


def test_build_quotient_by_generator():
    ring = build(parse("(quotient (zn 8) (ideal 4))"))
    assert ring.order == 4
    ring = build(parse("(quotient (zn 12) (ideal all))"))
    assert ring.order == 1 and ring.is_trivial


def test_build_localized():
    ring = build(parse("(localized 3 5)"))
    assert isinstance(ring, LocalizedIntegers)
    assert ring.modulus == 15
    with pytest.raises(ValueError):
        build(parse("(localized 4)"))  # 4 is not prime: construction rejects


def test_build_regular_tri2_shares_one_ring_object():
    ring = build(parse("(tri2 (zn 2) (zn 2) regular)"))
    assert isinstance(ring, FiniteRing)
    assert ring.order == 8
    assert ring.provenance["kind"] == "tri2"


def test_build_corner_returns_the_corner_ring():
    ring = build(parse("(corner (zn 6) 3)"))
    assert ring.order == 2


# ---------------------------------------------------------------------------
# spec-file-only table modules


TABLE_TEXT = (
    "(tri2 (zn 2) (zn 2) (table (add (0 1) (1 0))"
    " (left (0 0) (0 1)) (right (0 0) (0 1))))"
)


def test_table_modules_require_the_spec_file_mode():
    with pytest.raises(SpecArityError):
        parse(TABLE_TEXT)
    spec = parse(TABLE_TEXT, allow_tables=True)
    assert parse(pretty(spec), allow_tables=True) == spec
    assert build(spec).order == 8


def test_table_module_needs_all_three_blocks():
    with pytest.raises(SpecArityError):
        parse(
            "(tri2 (zn 2) (zn 2) (table (add (0 1) (1 0)) (left (0 0) (0 1))))",
            allow_tables=True,
        )


def test_bad_table_content_fails_at_construction():
    bad = (
        "(tri2 (zn 2) (zn 2) (table (add (0 1) (1 1))"
        " (left (0 0) (0 1)) (right (0 0) (0 1))))"
    )
    with pytest.raises(ValueError):
        build(parse(bad, allow_tables=True))
