"""Exact arithmetic in subrings of Q with denominators avoiding a prime set,
and the residue decider for ideal cleanness validated against a residue scan
and the bounded witness-search oracle."""

from __future__ import annotations

import importlib.util
import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cleanrings.localized import (
    DEFAULT_SEARCH_BOUND,
    LocalizedIdeal,
    LocalizedIntegers,
    candidate_stream,
    clean_flags,
    ideal_is_clean_analytic,
    ideal_is_uniquely_weakly_clean_analytic,
    ideal_is_weakly_clean_analytic,
    ideal_is_weakly_exchange_analytic,
    is_weakly_exchange_element_exact,
    product_weakly_clean,
    reproduce_examples,
    sign_class_survey,
    uniqueness_witness_search,
    witness_search,
)
from cleanrings.localized import (
    SignClasses,
    _first_hit,
    _is_prime,
    _localized_ideal,
    _rows,
    _search_grid,
)

R35 = LocalizedIntegers((3, 5))
R23 = LocalizedIntegers((2, 3))
R2 = LocalizedIntegers((2,))
R3 = LocalizedIntegers((3,))

ENVELOPE_PRIMES = [2, 3, 5, 7, 11]


def _members(ring: LocalizedIntegers, max_num: int = 200, max_den: int = 60):
    return st.tuples(
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den).filter(
            lambda b: math.gcd(b, ring.modulus) == 1
        ),
    ).map(lambda ab: Fraction(ab[0], ab[1]))


# -- construction and membership ----------------------------------------------


def test_prime_set_normalization():
    ring = LocalizedIntegers((5, 3, 3))
    assert ring.primes == (3, 5)
    assert ring.modulus == 15
    assert ring.label == "Z_(3,5)"


def test_rejects_empty_or_composite_prime_sets():
    with pytest.raises(ValueError):
        LocalizedIntegers(())
    with pytest.raises(ValueError):
        LocalizedIntegers((4,))
    with pytest.raises(ValueError):
        LocalizedIntegers((1, 3))


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_primality_agrees_with_trial_division_below_twenty_thousand():
    assert [n for n in range(20_000) if _is_prime(n)] == [
        n for n in range(20_000) if _trial_division(n)
    ]


def test_primality_is_decided_up_to_two_to_the_sixty_four():
    # a strong pseudoprime to every base from 2 to 31: only base 37 exposes it
    assert not _is_prime(3825123056546413051)
    assert _is_prime(10**18 + 3)
    assert _is_prime(2**64 - 59)
    with pytest.raises(ValueError, match=r"below 2\^64"):
        LocalizedIntegers((2**64 + 13,))


def test_membership_is_checked_on_the_reduced_form():
    assert R35.element(3, 8) == Fraction(3, 8)
    assert LocalizedIntegers((3,)).element(3, 6) == Fraction(1, 2)
    with pytest.raises(ValueError):
        R35.element(1, 3)
    with pytest.raises(ValueError):
        R35.element(7, 10)
    assert not R35.contains(Fraction(1, 5))
    assert R35.contains(Fraction(4, 7))


@pytest.mark.parametrize(
    "make",
    [
        lambda: R35.element(0.1),
        lambda: R35.element(True),
        lambda: R35.element(1, 2.0),
        lambda: R35.principal_ideal(0.5),
        lambda: clean_flags(R35, 0.5),
    ],
    ids=["float", "bool", "float-denominator", "float-generator", "float-flags"],
)
def test_members_are_not_built_from_floats_or_bools(make):
    with pytest.raises(ValueError):
        make()


def test_members_are_built_from_integers_fractions_and_text():
    assert R35.element("0.5") == R35.element("1/2") == R35.element(Fraction(1, 2)) == Fraction(1, 2)
    assert R35.element(-7) == Fraction(-7)
    assert R35.principal_ideal("3/8") == R35.principal_ideal(Fraction(3, 8)) == R35.ideal((1, 0))
    assert R35.principal_ideal(0).is_zero


def test_unit_criterion():
    assert R35.is_unit(Fraction(2, 11))
    assert R35.is_unit(Fraction(1))
    assert not R35.is_unit(Fraction(3, 8))
    assert not R35.is_unit(Fraction(0))
    assert not R35.is_unit(Fraction(1, 3))  # not even a member


def test_idempotents_are_zero_and_one():
    assert R35.idempotents == (Fraction(0), Fraction(1))


@settings(max_examples=80, deadline=None)
@given(x=_members(R35))
def test_no_third_idempotent_exists(x):
    if x * x == x:
        assert x in (Fraction(0), Fraction(1))


# -- sign classes -----------------------------------------------------------------


def test_sign_class_census_frozen_points():
    flags = clean_flags(R35, Fraction(3, 8))
    assert (flags.plus, flags.minus) == (False, True)
    assert flags.is_weakly_clean and not flags.is_clean

    six = clean_flags(R35, 6)
    assert six.minus_only and not six.plus

    one = clean_flags(R35, 1)
    assert one.plus and one.minus and one.is_clean

    zero = clean_flags(R35, 0)
    assert zero.plus and zero.minus and zero.is_uniquely_weakly_clean


def test_sign_class_json_shape():
    assert clean_flags(R35, Fraction(3, 8)).to_json_dict() == {
        "element": "3/8",
        "clean": False,
        "weakly_clean": True,
        "plus": False,
        "minus": True,
    }


@settings(max_examples=60, deadline=None)
@given(x=_members(R35))
def test_clean_implies_weakly_clean_elementwise(x):
    flags = clean_flags(R35, x)
    assert flags.is_clean <= flags.is_weakly_clean
    assert flags.is_uniquely_weakly_clean <= flags.is_weakly_clean


@pytest.mark.parametrize("primes", [(3, 5), (2, 7), (2, 3, 5)])
def test_negation_swaps_the_sign_classes(primes):
    ring = LocalizedIntegers(primes)
    pairs = 0
    for b in range(1, 61):
        if math.gcd(b, ring.modulus) != 1:
            continue
        for a in range(-40, 41):
            x = Fraction(a, b)
            f, g = clean_flags(ring, x), clean_flags(ring, -x)
            assert f.plus == g.minus and f.minus == g.plus
            pairs += 1
    assert pairs >= 1000


# -- ideal normalization ------------------------------------------------------------


def test_unit_generator_yields_the_whole_ring():
    ideal = R35.principal_ideal(Fraction(2, 11))
    assert ideal.is_full and ideal.exponents == (0, 0)
    assert ideal.describe() == "R"
    assert ideal.generator == 1


def test_normalization_strips_unit_factors():
    ideal = R35.principal_ideal(Fraction(45, 2))
    assert ideal.exponents == (2, 1)
    assert ideal.generator == 45
    assert ideal.describe() == "<45>"


def test_zero_generator_yields_zero_ideal():
    ideal = R35.principal_ideal(0)
    assert ideal.is_zero and ideal.describe() == "<0>"
    assert ideal.contains(Fraction(0)) and not ideal.contains(Fraction(45))


def test_generators_are_read_as_members_before_zeros_are_dropped():
    assert _localized_ideal(R35, ["0"]) == R35.zero_ideal()
    assert _localized_ideal(R35, ["0", "0/7"]) == R35.zero_ideal()
    assert _localized_ideal(R35, ["0", "45/2", 75]) == R35.ideal((1, 1))
    for gens in ([0.0], [False], [0, 0.5]):
        with pytest.raises(ValueError):
            _localized_ideal(R35, gens)


def test_ideal_validation():
    with pytest.raises(ValueError):
        R35.ideal((1,))
    with pytest.raises(ValueError):
        R35.ideal((1, -1))
    with pytest.raises(ValueError):
        LocalizedIdeal(R35, "zero", (1, 0))
    with pytest.raises(ValueError):
        LocalizedIdeal(R35, "maximal", (1, 0))


@pytest.mark.parametrize("primes", [(3.5, 5), ("7",), (True, 3), (7, 7.0)])
def test_primes_must_be_integers(primes):
    with pytest.raises(ValueError):
        LocalizedIntegers(primes)


@pytest.mark.parametrize("exponents", [(1.9, 0), (1,), (1, 0, 0), (-1, 0), (True, 0), ("1", 0)])
def test_every_ideal_takes_one_non_negative_integer_exponent_per_prime(exponents):
    with pytest.raises(ValueError):
        R35.ideal(exponents)
    with pytest.raises(ValueError):
        LocalizedIdeal(R35, "principal", exponents)


@settings(max_examples=100, deadline=None)
@given(r=_members(R35))
def test_principal_ideal_membership_tracks_valuations(r):
    g = Fraction(45, 2)
    ideal = R35.principal_ideal(g)
    product = g * r
    assert ideal.contains(product)
    if product != 0:
        vals = R35.valuations(product.numerator)
        assert all(v >= e for v, e in zip(vals, ideal.exponents))


def test_membership_rejects_smaller_valuations():
    ideal = R35.principal_ideal(Fraction(45, 2))  # exponents (2, 1)
    assert not ideal.contains(Fraction(15))  # valuations (1, 1)
    assert not ideal.contains(Fraction(9))  # valuations (2, 0)
    assert ideal.contains(Fraction(45, 7))
    assert ideal.contains(Fraction(-90))


# -- the analytic verdicts, anchored -----------------------------------------------------


def test_zero_ideal_is_clean():
    assert ideal_is_clean_analytic(R35.zero_ideal())


def test_everywhere_positive_valuations_give_a_clean_ideal():
    assert ideal_is_clean_analytic(R35.ideal((1, 2)))
    assert ideal_is_clean_analytic(R23.ideal((1, 1)))


def test_full_ring_over_two_odd_primes_weakly_clean_not_clean():
    full = R35.full_ideal()
    assert ideal_is_weakly_clean_analytic(full)
    assert not ideal_is_clean_analytic(full)
    assert witness_search(R35, full, flavor="clean") == Fraction(-5)
    assert witness_search(R35, full, flavor="weakly-clean") is None


def test_single_odd_zero_valuation_stays_weakly_clean():
    ideal = R35.principal_ideal(3)
    assert ideal_is_weakly_clean_analytic(ideal)
    assert not ideal_is_clean_analytic(ideal)
    assert witness_search(R35, ideal, flavor="clean") == Fraction(6)


def test_even_prime_in_the_zero_part_defeats_weak_cleanness():
    ideal = R23.principal_ideal(3)
    assert not ideal_is_weakly_clean_analytic(ideal)
    assert witness_search(R23, ideal) == Fraction(3)


def test_three_primes_defeat_the_full_ring():
    ring = LocalizedIntegers((3, 5, 7))
    assert not ideal_is_weakly_clean_analytic(ring.full_ideal())
    assert witness_search(ring, ring.full_ideal()) == Fraction(6)
    bigger = LocalizedIntegers((5, 7, 11))
    assert witness_search(bigger, bigger.full_ideal()) == Fraction(21)


def test_uniqueness_table():
    assert ideal_is_uniquely_weakly_clean_analytic(R2.full_ideal())
    assert not ideal_is_uniquely_weakly_clean_analytic(R3.full_ideal())
    assert uniqueness_witness_search(R3, R3.full_ideal()) == Fraction(1)
    assert ideal_is_uniquely_weakly_clean_analytic(R35.zero_ideal())
    proper = R35.principal_ideal(3)
    assert (
        ideal_is_uniquely_weakly_clean_analytic(proper)
        == ideal_is_weakly_clean_analytic(proper)
    )


def test_weakly_exchange_table_matches_weakly_clean():
    for ideal in (R35.full_ideal(), R35.principal_ideal(3), R23.principal_ideal(3)):
        assert (
            ideal_is_weakly_exchange_analytic(ideal)
            == ideal_is_weakly_clean_analytic(ideal)
        )


def test_verdicts_beyond_the_agreement_sweep_are_plain_bools():
    # (clean, weakly clean, uniquely weakly clean, weakly exchange)
    cases = [
        (LocalizedIntegers((13,)).full_ideal(), (True, True, False, True)),
        (LocalizedIntegers((2, 3, 5, 7)).full_ideal(), (False, False, False, False)),
        (R35.ideal((3, 0)), (False, True, True, True)),
    ]
    for ideal, expected in cases:
        verdicts = (
            ideal_is_clean_analytic(ideal),
            ideal_is_weakly_clean_analytic(ideal),
            ideal_is_uniquely_weakly_clean_analytic(ideal),
            ideal_is_weakly_exchange_analytic(ideal),
        )
        assert all(type(v) is bool for v in verdicts), ideal.describe()
        assert verdicts == expected, ideal.describe()


# -- the decider against a residue scan, for every prime set -----------------------------


def _residue_scan(ring: LocalizedIntegers, ideal: LocalizedIdeal) -> tuple[bool, bool, bool]:
    """(clean, weakly clean, uniquely weakly clean), read off every residue
    mod M that a member takes. R/MR is Z/M and M*R is the Jacobson radical,
    so x is a unit exactly when x mod M is; the members d*a/b of <d> take
    the residues d*a*b^-1 mod M, which are the multiples of gcd(d, M) (only
    0 for the zero ideal)."""
    m = ring.modulus
    step = math.gcd(int(ideal.generator), m)
    flags = [tuple(math.gcd(r + s, m) == 1 for s in (0, -1, 1)) for r in range(0, m, step)]
    return (
        all(x or down for x, down, _ in flags),
        all(x or down or up for x, down, up in flags),
        all(x != (down or up) for x, down, up in flags),
    )


def _decided(ideal: LocalizedIdeal) -> tuple[bool, bool, bool]:
    return (
        ideal_is_clean_analytic(ideal),
        ideal_is_weakly_clean_analytic(ideal),
        ideal_is_uniquely_weakly_clean_analytic(ideal),
    )


def _shape_ideals():
    """One ideal of every shape, then the zero ideal of its prime set.

    A shape fixes, for 2 and for 3, whether the prime is absent, has e = 0
    or has e > 0; it takes zero to three of 5, 7 and 11 with e = 0, and 13
    with e > 0 or not. Every prime p >= 5 has the same residue patterns (0,
    1, -1 and another residue where e_p = 0, only 0 where e_p > 0), three
    such primes with e = 0 already give every (x, x - 1, x + 1) flag triple,
    and a second prime with e > 0 repeats the first, so the shapes show the
    pattern set of every prime set and every exponent vector.
    """
    roles = [
        ((), ((2, 0),), ((2, 1),)),
        ((), ((3, 0),), ((3, 1),)),
        [tuple((p, 0) for p in (5, 7, 11)[:k]) for k in range(4)],
        ((), ((13, 1),)),
    ]
    for parts in itertools.product(*roles):
        pairs = [pair for part in parts for pair in part]
        if pairs:
            ring = LocalizedIntegers([p for p, _ in pairs])
            yield ring, ring.ideal([e for _, e in pairs])
            yield ring, ring.zero_ideal()


def _small_prime_ideals():
    """Every set of one to three primes up to 13, with the zero ideal and
    every 0/1 exponent vector."""
    for size in (1, 2, 3):
        for primes in itertools.combinations((2, 3, 5, 7, 11, 13), size):
            ring = LocalizedIntegers(primes)
            yield ring, ring.zero_ideal()
            for exponents in itertools.product((0, 1), repeat=size):
                yield ring, ring.ideal(exponents)


@pytest.mark.parametrize("ideals, count", [(_shape_ideals, 142), (_small_prime_ideals, 273)])
def test_decider_agrees_with_a_residue_scan(ideals, count):
    checked = 0
    disagreements = []
    for ring, ideal in ideals():
        checked += 1
        if _decided(ideal) != _residue_scan(ring, ideal):
            disagreements.append((ring.label, ideal.describe(), _decided(ideal)))
    assert checked == count
    assert disagreements == []


# -- oracle agreement over the whole validated envelope --------------------------------


def test_analytic_table_agrees_with_search_oracle_everywhere():
    disagreements = []
    checked = 0
    for size in (1, 2, 3):
        for primes in itertools.combinations(ENVELOPE_PRIMES, size):
            ring = LocalizedIntegers(primes)
            ideals = [ring.zero_ideal()] + [
                ring.ideal(vals) for vals in itertools.product((0, 1, 2), repeat=size)
            ]
            for ideal in ideals:
                checked += 1
                for flavor, verdict in (
                    ("clean", ideal_is_clean_analytic(ideal)),
                    ("weakly-clean", ideal_is_weakly_clean_analytic(ideal)),
                ):
                    witness = witness_search(ring, ideal, flavor=flavor)
                    if verdict != (witness is None):
                        disagreements.append((primes, ideal.describe(), flavor, witness))
                unique = uniqueness_witness_search(ring, ideal)
                if ideal_is_uniquely_weakly_clean_analytic(ideal) != (unique is None):
                    disagreements.append((primes, ideal.describe(), "unique", unique))
    assert checked == 400
    assert disagreements == []


def test_witnesses_replay_against_the_sign_flags():
    cases = [
        (R35, R35.full_ideal(), "clean"),
        (R35, R35.principal_ideal(3), "clean"),
        (R23, R23.principal_ideal(3), "weakly-clean"),
        (LocalizedIntegers((3, 5, 7)), LocalizedIntegers((3, 5, 7)).full_ideal(), "weakly-clean"),
    ]
    for ring, ideal, flavor in cases:
        witness = witness_search(ring, ideal, flavor=flavor)
        assert witness is not None
        assert ideal.contains(witness)
        flags = clean_flags(ring, witness)
        if flavor == "clean":
            assert not flags.is_clean
        else:
            assert not flags.is_weakly_clean


def _load_bench_checks():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# perfbench/checks.py shares no code with cleanrings; its grid_witness scans
# the canonical order in plain Python with one gcd per unit test.
bench = _load_bench_checks()

_SEARCH_PRIMES = [p for p in range(2, 24) if _is_prime(p)]


# (primes, exponents), with exponents up to 60 so that d passes 2^63
_LARGE_IDEALS = st.lists(st.sampled_from(_SEARCH_PRIMES), min_size=1, max_size=4, unique=True).flatmap(
    lambda ps: st.tuples(st.just(tuple(ps)), st.lists(st.integers(0, 60), min_size=len(ps), max_size=len(ps)))
)


@settings(max_examples=150, deadline=None)
@given(query=_LARGE_IDEALS, bound=st.integers(1, 40))
@example(query=((3, 5), [40, 0]), bound=3)
@example(query=((3, 5, 7), [38, 0, 0]), bound=12)
def test_searches_match_a_pure_python_scan_for_any_generator(query, bound):
    """The witness searches and the sign-class survey against an independent
    scan, on generators far past int64."""
    ring = LocalizedIntegers(query[0])
    ideal = ring.ideal(query[1])
    d = int(ideal.generator)
    for flavor in ("clean", "weakly-clean"):
        found = witness_search(ring, ideal, bound=bound, flavor=flavor)
        assert found == bench.grid_witness(ring.primes, d, flavor, bound), (flavor, d, bound)
    found = uniqueness_witness_search(ring, ideal, bound=bound)
    assert found == bench.grid_witness(ring.primes, d, "uniquely", bound), (d, bound)

    survey = sign_class_survey(ring, ideal, bound=bound)
    rows = sum(math.gcd(b, ring.modulus) == 1 for b in range(1, bound + 1))
    assert survey.scanned == rows * (2 * bound + 1)
    assert survey.first_neither == witness_search(ring, ideal, bound=bound, flavor="weakly-clean")
    for x, holds in (
        (survey.first_plus_only, lambda f: f.plus_only),
        (survey.first_minus_only, lambda f: f.minus_only),
        (survey.first_neither, lambda f: not f.is_weakly_clean),
    ):
        if x is not None:
            assert ideal.contains(x) and holds(clean_flags(ring, x)), (d, bound, x)


def _grid_answers(ring, ideal, bound):
    """Both witness flavors, the uniqueness witness, the survey's three
    representatives and its size, read off the exhaustive grid."""
    a_vals, b_vals, x_non_unit, down_non_unit, up_non_unit = _search_grid(ring, ideal, bound)
    grid = SignClasses(None, ~x_non_unit, ~down_non_unit, ~up_non_unit)
    masks = (
        ~grid.is_clean,
        ~grid.is_weakly_clean,
        ~grid.is_uniquely_weakly_clean,
        grid.plus_only,
        grid.minus_only,
        ~grid.is_weakly_clean,
    )
    d = int(ideal.generator)
    return [*(_first_hit(mask, a_vals, b_vals, d) for mask in masks), int(x_non_unit.size)]


def _row_answers(ring, ideal, bound):
    survey = sign_class_survey(ring, ideal, bound=bound)
    return [
        witness_search(ring, ideal, bound=bound, flavor="clean"),
        witness_search(ring, ideal, bound=bound, flavor="weakly-clean"),
        uniqueness_witness_search(ring, ideal, bound=bound),
        survey.first_plus_only,
        survey.first_minus_only,
        survey.first_neither,
        survey.scanned,
    ]


# (primes, exponents, bound) with d*(bound + 1) < 2^62; primes past the bound
# often leave a class without a member inside it
_GRID_QUERIES = (
    st.lists(st.sampled_from([p for p in range(2, 100) if _is_prime(p)]), min_size=1, max_size=5, unique=True)
    .flatmap(
        lambda ps: st.tuples(
            st.just(tuple(sorted(ps))),
            st.lists(st.integers(0, 4), min_size=len(ps), max_size=len(ps)),
            st.integers(1, 40),
        )
    )
    .filter(lambda q: math.prod(p**e for p, e in zip(q[0], q[1])) * (q[2] + 1) < 2**62)
)


@settings(max_examples=300, deadline=None)
@given(query=_GRID_QUERIES)
@example(query=((3, 5), [0, 0], 1))  # no clean witness inside the bound
@example(query=((3, 5, 7), [0, 0, 0], 1))  # no weakly clean witness inside the bound
@example(query=((3, 5), [0, 0], 3))  # the first clean witness, -3/2, lies in row 2
@example(query=((3, 5), [0, 0], 40))  # rows repeat with period 15; no neither member
@example(query=((2, 3), [1, 0], 30))  # 2 divides d, so every x is a non-unit
@example(query=((2, 3, 5, 7), [1, 1, 0, 0], 40))  # a row holds 2*35 of its 81 positions
@example(query=((2, 3, 5), [1, 1, 0], 40))  # all 4 row classes mod 5 by b = 19; no neither member
@example(query=((3, 5), [1, 0], 40))  # all 4 row classes mod 5 by b = 8; no uniqueness witness
def test_row_search_matches_the_grid_oracle(query):
    primes, exponents, bound = query
    ring = LocalizedIntegers(primes)
    ideal = ring.ideal(exponents)
    assert _row_answers(ring, ideal, bound) == _grid_answers(ring, ideal, bound), query


@pytest.mark.parametrize("primes", [(3, 5), (2, 3, 5, 7)])
def test_survey_scans_the_grid_around_multiples_of_the_modulus(primes):
    ring = LocalizedIntegers(primes)
    m = ring.modulus
    for bound in (0, 1, m - 1, m, m + 1, 2 * m - 1, 2 * m, 2 * m + 1):
        for ideal in (ring.full_ideal(), ring.principal_ideal(primes[0])):
            survey = sign_class_survey(ring, ideal, bound=bound)
            assert survey.scanned == len(list(_rows(ring, bound))) * (2 * bound + 1), (bound, ideal)


def test_candidate_stream_order():
    ideal = R35.principal_ideal(3)
    first = list(itertools.islice(candidate_stream(R35, ideal, 3), 8))
    assert first == [
        Fraction(0),
        Fraction(3),
        Fraction(-3),
        Fraction(6),
        Fraction(-6),
        Fraction(9),
        Fraction(-9),
        Fraction(0),  # denominator 2 restarts the numerator ladder
    ]
    for x in candidate_stream(R35, ideal, 6):
        assert ideal.contains(x)


def test_search_skips_denominators_meeting_the_prime_set():
    seen = {x.denominator for x in candidate_stream(R23, R23.full_ideal(), 10)}
    assert seen == {1, 5, 7}


# -- weakly exchange, by definition -----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(x=_members(R35, max_num=60, max_den=20))
def test_exchange_by_definition_equals_weak_cleanness(x):
    assert (
        is_weakly_exchange_element_exact(R35, x)
        == clean_flags(R35, x).is_weakly_clean
    )


@settings(max_examples=60, deadline=None)
@given(k=st.integers(min_value=-20, max_value=20))
def test_strict_and_relaxed_exchange_agree_on_members(k):
    ideal = R35.principal_ideal(15)
    x = Fraction(15 * k)
    assert is_weakly_exchange_element_exact(
        R35, x, ideal=ideal, mode="strict"
    ) == is_weakly_exchange_element_exact(R35, x, mode="relaxed")


def test_strict_exchange_requires_the_ideal():
    with pytest.raises(ValueError):
        is_weakly_exchange_element_exact(R35, Fraction(3), mode="strict")


# -- products ---------------------------------------------------------------------------


def test_product_over_two_non_clean_components_fails_with_witness():
    verdict = product_weakly_clean([(R35, R35.full_ideal()), (R35, R35.full_ideal())])
    assert not verdict.ok
    assert verdict.witness == (Fraction(5), Fraction(-5))
    assert verdict.witness_sign_classes == ("plus-only", "minus-only")
    f1, f2 = (clean_flags(R35, x) for x in verdict.witness)
    assert not ((f1.plus and f2.plus) or (f1.minus and f2.minus))


def test_product_with_at_most_one_non_clean_component_passes():
    clean_component = (R35, R35.ideal((1, 1)))
    lax_component = (R35, R35.full_ideal())
    verdict = product_weakly_clean([clean_component, lax_component])
    assert verdict.ok and verdict.witness is None
    assert verdict.component_clean == (True, False)
    singleton = product_weakly_clean([lax_component])
    assert singleton.ok


def test_product_with_a_non_weakly_clean_component_pads_zeros():
    verdict = product_weakly_clean([(R35, R35.full_ideal()), (R23, R23.principal_ideal(3))])
    assert not verdict.ok
    assert verdict.witness == (Fraction(0), Fraction(3))
    assert verdict.witness_sign_classes == ("both", "neither")
    assert "not weakly clean" in verdict.detail


def test_product_requires_components():
    with pytest.raises(ValueError):
        product_weakly_clean([])


def test_product_verdict_serializes():
    verdict = product_weakly_clean([(R35, R35.full_ideal()), (R35, R35.full_ideal())])
    record = verdict.to_json_dict()
    assert record["witness"] == ["5", "-5"]
    assert record["component_clean"] == [False, False]


# -- worked demonstrations ----------------------------------------------------------------


def test_reproduce_examples_frozen_report():
    assert reproduce_examples() == {
        "full_ring_weakly_clean_not_clean": {
            "ring": "Z_(3,5)",
            "generator": "2/11",
            "generator_is_unit": True,
            "ideal": "R",
            "ideal_is_full_ring": True,
            "weakly_clean": True,
            "clean": False,
            "non_clean_witness": "-5",
            "witness_checks": {
                "x_is_unit": False,
                "x_minus_one_is_unit": False,
                "x_plus_one_is_unit": True,
            },
        },
        "product_not_weakly_clean": {
            "ring": "Z_(3,5) x Z_(3,5)",
            "generators": ["2/11", "4/7"],
            "generators_are_units": [True, True],
            "component_ideals": ["R", "R"],
            "product": {
                "ok": False,
                "witness": ["5", "-5"],
                "witness_sign_classes": ["plus-only", "minus-only"],
                "component_weakly_clean": [True, True],
                "component_clean": [False, False],
                "detail": (
                    "components 0 and 1 are both weakly clean but not clean, "
                    "with opposite exclusive sign classes"
                ),
            },
        },
    }


def test_example_witness_fits_the_default_bound():
    witness = witness_search(R35, R35.full_ideal(), flavor="clean")
    assert abs(witness.numerator) <= DEFAULT_SEARCH_BOUND
    assert witness.denominator <= DEFAULT_SEARCH_BOUND


def test_survey_of_the_full_ring_over_two_odd_primes():
    survey = sign_class_survey(R35, R35.full_ideal())
    assert survey.first_plus_only == Fraction(5)
    assert survey.first_minus_only == Fraction(-5)
    assert survey.first_neither is None
    assert survey.scanned > 0
