"""Ideal enumeration and induced ideals, checked against divisor-lattice
oracles for Z_n, tuple-membership oracles for block constructions, and a
worklist closure that follows the definition of a two-sided ideal."""

from __future__ import annotations

import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cleanrings import (
    IdealSet,
    SizeCapError,
    all_ideals,
    corner_ring,
    direct_product,
    full_ideal,
    ideal_closure,
    ideal_from_members,
    ideal_intersection,
    ideal_inventory,
    ideal_sum,
    idealization,
    is_ideal,
    matrix_ring,
    module_from_action,
    morita_zero,
    principal_ideals,
    quotient,
    tri2,
    tri3,
    truncated_power_series,
    zero_ideal,
    zn,
    zn_bimodule,
)
from cleanrings.catalog import build_catalog
from cleanrings.dsl import SpecError, build, parse, size_estimate
from cleanrings.ideals import (
    idealization_ideal,
    matrix_ideal,
    morita_ideal,
    product_ideal,
    series_ideal,
    tri2_ideal,
    tri3_ideal,
    corner_ideal,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def zn_ideal_members_oracle(n: int, d: int) -> tuple[int, ...]:
    """Members of the ideal generated by d in Z_n: multiples of gcd(d, n)."""
    g = math.gcd(d, n) or n
    return tuple(range(0, n, g)) if g else (0,)


def _distinct(values: np.ndarray, n: int) -> np.ndarray:
    """The distinct element indices (below n) among values, ascending."""
    seen = np.zeros(n, dtype=bool)
    seen[values] = True
    return np.flatnonzero(seen)


def worklist_closure(ring, generators) -> tuple[int, ...]:
    """Members of the ideal generated by generators, by definition: each new
    element contributes its sums with the current members and its left and
    right multiples, until nothing new appears."""
    add, mul = np.asarray(ring.add_table), np.asarray(ring.mul_table)
    members: set[int] = {0}
    pending: list[int] = [int(g) for g in generators]
    while pending:
        x = pending.pop()
        if x in members:
            continue
        members.add(x)
        current = np.fromiter(members, dtype=np.int32)
        fresh = set(map(int, add[x, current]))
        fresh.update(map(int, mul[x, :]))
        fresh.update(map(int, mul[:, x]))
        pending.extend(c for c in fresh if c not in members)
    return tuple(sorted(members))


def worklist_principal_ideals(ring) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(members, generators) of every <x>, the first x kept, sorted by (size, members)."""
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for x in ring.elements:
        seen.setdefault(worklist_closure(ring, (x,)), (x,))
    return sorted(seen.items(), key=lambda item: (len(item[0]), item[0]))


# -- basic predicates -----------------------------------------------------------


def test_is_ideal_on_zn():
    ring = zn(12)
    assert is_ideal(ring, [0, 2, 4, 6, 8, 10])
    assert is_ideal(ring, [0])
    assert is_ideal(ring, range(12))
    assert not is_ideal(ring, [0, 2, 4])  # not additively closed: misses 6
    assert not is_ideal(ring, [2, 4, 6, 8, 10])  # missing zero
    assert not is_ideal(ring, [0, 5])  # 5 + 5 = 10 escapes


def test_ideal_set_normalizes_and_describes():
    ring = zn(6)
    ideal = IdealSet(ring, (4, 0, 2), generators=(4,))
    assert ideal.members == (0, 2, 4)
    assert 2 in ideal and 3 not in ideal
    assert len(ideal) == 3
    assert ideal.is_proper and not ideal.is_zero
    assert ideal.describe() == "<4>"
    assert zero_ideal(ring).describe() == "<0>"
    assert full_ideal(ring).describe() == "R"
    assert ideal.member_mask() == bytearray([1, 0, 1, 0, 1, 0])


@given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=23))
def test_principal_closure_matches_gcd_oracle(n, d):
    ring = zn(n)
    ideal = ideal_closure(ring, [d % n])
    assert ideal.members == zn_ideal_members_oracle(n, d % n)


def test_multi_generator_closure():
    ring = zn(12)
    assert ideal_closure(ring, [4, 6]).members == zn_ideal_members_oracle(12, 2)
    assert ideal_closure(ring, []).members == (0,)
    assert ideal_closure(ring, [5]).members == tuple(range(12))


def test_ideal_from_members_validates():
    ring = zn(12)
    ideal = ideal_from_members(ring, [0, 6])
    assert ideal.members == (0, 6)
    with pytest.raises(ValueError):
        ideal_from_members(ring, [0, 5])


# -- lattice operations ------------------------------------------------------------


def test_sum_and_intersection_follow_gcd_lcm():
    ring = zn(12)
    a = ideal_closure(ring, [4])
    b = ideal_closure(ring, [6])
    assert ideal_sum(a, b).members == zn_ideal_members_oracle(12, 2)
    assert ideal_intersection(a, b).members == zn_ideal_members_oracle(12, 12)
    assert ideal_sum(a, zero_ideal(ring)).members == a.members


def test_sum_requires_same_ring():
    with pytest.raises(ValueError):
        ideal_sum(ideal_closure(zn(6), [2]), ideal_closure(zn(12), [2]))


def test_sum_refuses_member_sets_that_are_not_ideals_and_ends():
    # {1} lacks 0, and {0, 1} is not closed, but the span of {0, 1} and <2>
    # is all of Z_4, an ideal; a span over a set without 0 could loop. Run in
    # a child, so that a loop fails the test instead of stalling it.
    script = """
from cleanrings import IdealSet, ideal_closure, ideal_sum, zn
r = zn(4)
for members in ((1,), (0, 1)):
    try:
        ideal_sum(IdealSet(r, members), ideal_closure(r, [2]))
    except RuntimeError as exc:
        print(exc)
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.stdout.splitlines() == [
        "ideal_sum requires ideals: 0 is not a member",
        "ideal_sum requires ideals: members are not closed under addition",
    ]


@pytest.mark.parametrize("members, outside", [((0, -2), -2), ((0, 5), 5)])
def test_ideal_set_refuses_members_outside_the_ring(members, outside):
    # -2 would wrap to 2 in a mask, and 5 would index past it
    with pytest.raises(ValueError, match=f"^member {outside} lies outside 0..3$"):
        IdealSet(zn(4), members)


# -- enumeration --------------------------------------------------------------------


@given(st.integers(min_value=1, max_value=30))
@settings(max_examples=30)
def test_all_ideals_of_zn_is_divisor_lattice(n):
    ring = zn(n)
    found = {ideal.members for ideal in all_ideals(ring)}
    expected = {zn_ideal_members_oracle(n, d) for d in range(n)}
    assert found == expected


def test_matrix_ring_over_field_is_simple():
    ring = matrix_ring(zn(2), 2)
    ideals = all_ideals(ring)
    assert {i.members for i in ideals} == {(0,), tuple(range(16))}


def test_all_ideals_cap_and_inventory_fallback():
    ring = direct_product([zn(2)] * 6, cap=64)  # 2^6 = 64 elements, 64 ideals
    with pytest.raises(SizeCapError):
        all_ideals(ring, cap=10)
    ideals, complete = ideal_inventory(ring, cap=10)
    assert not complete
    assert {i.members for i in ideals} == {i.members for i in principal_ideals(ring)}
    full, ok = ideal_inventory(ring, cap=64)
    assert ok and len(full) == 64


def _pairwise_all_ideals(ring, cap: int = 64) -> list[tuple[tuple[int, ...], tuple[int, ...] | None]]:
    """(members, generators) of every ideal, by the walk all_ideals replaced:
    each ideal of the growing list is summed with every one before it through
    the full sum table of the two, and each new sum is appended."""
    assert ring.order <= cap
    ideals = [(i.members, i.generators) for i in principal_ideals(ring)]
    seen = {members for members, _ in ideals}
    for i, (b, b_gens) in enumerate(ideals):
        for a, a_gens in ideals[:i]:
            members = tuple(_distinct(np.asarray(ring.add_table)[np.ix_(a, b)], ring.order).tolist())
            assert is_ideal(ring, members)
            if members not in seen:
                seen.add(members)
                gens = None if a_gens is None or b_gens is None else tuple(dict.fromkeys(a_gens + b_gens))
                ideals.append((members, gens))
    return sorted(ideals, key=lambda item: (len(item[0]), item[0]))


def _listed(ideals) -> list[tuple[tuple[int, ...], tuple[int, ...] | None]]:
    return [(i.members, i.generators) for i in ideals]


@pytest.mark.parametrize(
    "entry", [e for e in build_catalog() if e.ring.order <= 64], ids=lambda entry: entry.key
)
def test_all_ideals_matches_the_pairwise_walk_on_the_catalog(entry):
    assert _listed(all_ideals(entry.ring)) == _pairwise_all_ideals(entry.ring)


def _ideals_by_brute_force(ring) -> set[tuple[int, ...]]:
    """Every additive subgroup spanned by at most 4 elements that is closed
    under multiplication on both sides; a group of order at most 16 needs no
    more than 4 generators, so on such rings these are all the ideals."""
    add, mul = np.asarray(ring.add_table), np.asarray(ring.mul_table)
    found = set()
    for size in range(5):
        for gens in itertools.combinations(ring.elements, size):
            span = {0}
            for g in gens:
                grown = span
                while True:
                    grown = {int(add[s, g]) for s in grown} - span
                    if not grown:
                        break
                    span |= grown
            members = np.array(sorted(span))
            mask = np.zeros(ring.order, dtype=bool)
            mask[members] = True
            if mask[mul[:, members]].all() and mask[mul[members, :]].all():
                found.add(tuple(members.tolist()))
    return found


@pytest.mark.parametrize(
    "key, ideals, principal",
    [("idealization-z4-z2", 6, 5), ("series-z4-k2", 7, 6), ("idealization-z4-z4", 7, 6)],
)
def test_all_ideals_matches_a_brute_force_enumeration(key, ideals, principal):
    # Each of these rings has an ideal that is not principal, so the lattice
    # is only complete if all_ideals joins principal ideals.
    ring = next(e.ring for e in build_catalog() if e.key == key)
    assert ring.order <= 16
    found = [i.members for i in all_ideals(ring)]
    assert len(found) == ideals
    assert len(principal_ideals(ring)) == principal
    assert set(found) == _ideals_by_brute_force(ring)


def test_principal_ideals_are_sorted_and_deduplicated():
    ring = zn(12)
    ideals = principal_ideals(ring)
    sizes = [len(i) for i in ideals]
    assert sizes == sorted(sizes)
    assert len({i.members for i in ideals}) == len(ideals)


# -- induced ideals -----------------------------------------------------------------


def test_matrix_ideal_members_are_entrywise():
    base = zn(4)
    ambient = matrix_ring(base, 2)
    inner = ideal_closure(base, [2])
    induced = matrix_ideal(ambient, inner, 2)
    assert len(induced) == len(inner) ** 4
    # every member decodes to entries inside the inner ideal
    from cleanrings import matrix_entries

    for idx in induced.members:
        for row in matrix_entries(ambient, idx):
            for entry in row:
                assert entry in inner


def test_product_ideal_members():
    r1, r2 = zn(4), zn(6)
    ambient = direct_product([r1, r2])
    induced = product_ideal(ambient, [ideal_closure(r1, [2]), ideal_closure(r2, [3])])
    expected = {a * 6 + b for a in (0, 2) for b in (0, 3)}
    assert set(induced.members) == expected


def test_tri2_ideal_members():
    z2 = zn(2)
    ambient = tri2(z2, z2, zn_bimodule(z2, z2, 2))
    upper = ideal_closure(z2, [0])
    lower = ideal_closure(z2, [1])
    induced = tri2_ideal(ambient, upper, lower)
    # triples (r, m, s): r in {0}, m free, s in {0, 1} -> 1 * 2 * 2 = 4 members
    assert len(induced) == 4
    assert set(induced.members) == {(r * 2 + m) * 2 + s for r in (0,) for m in (0, 1) for s in (0, 1)}


def test_tri3_ideal_members():
    z2 = zn(2)
    b = zn_bimodule(z2, z2, 2)
    ambient = tri3(z2, z2, z2, b, b, b)
    induced = tri3_ideal(ambient, zero_ideal(z2), full_ideal(z2), zero_ideal(z2))
    # slots (a1, m21, a2, m31, m32, a3); middles free
    assert len(induced) == 1 * 2 * 2 * 2 * 2 * 1


def test_morita_ideal_members():
    z2 = zn(2)
    b = zn_bimodule(z2, z2, 2)
    ambient = morita_zero(z2, z2, b, b)
    induced = morita_ideal(ambient, full_ideal(z2), zero_ideal(z2))
    assert len(induced) == 2 * 2 * 2 * 1


def test_series_ideal_members():
    base = zn(4)
    ambient = truncated_power_series(base, 2)
    induced = series_ideal(ambient, ideal_closure(base, [2]), 2)
    # every coefficient drawn from the inner ideal
    assert set(induced.members) == {c * 4 + a for c in (0, 2) for a in (0, 2)}


def test_idealization_ideal_members_and_submodule_validation():
    z4 = zn(4)
    module = module_from_action(z4, z4.add_table, z4.mul_table)
    ambient = idealization(z4, module)
    induced = idealization_ideal(ambient, ideal_closure(z4, [2]), [0, 2])
    assert set(induced.members) == {r * 4 + m for r in (0, 2) for m in (0, 2)}
    with pytest.raises(ValueError):
        # {0, 1} is not additively closed in the module (1 + 1 = 2 escapes)
        idealization_ideal(ambient, ideal_closure(z4, [2]), [0, 1])
    # the zero ideal pairs with any submodule
    small = idealization_ideal(ambient, zero_ideal(z4), [0, 2])
    assert set(small.members) == {0, 2}


def test_corner_ideal_maps_members_through_position():
    z6 = zn(6)
    corner = corner_ring(z6, 4)  # carrier (0, 2, 4), a copy of a 3-element field
    induced = corner_ideal(corner, ideal_closure(z6, [2]))
    assert set(induced.members) == {0, 1, 2}
    small = corner_ideal(corner, zero_ideal(z6))
    assert small.members == (0,)


def test_quotient_projection_is_a_homomorphism():
    ring = zn(12)
    ideal = ideal_closure(ring, [4])
    quot, proj = quotient(ring, ideal)
    assert quot == zn(4)  # reps are 0..3 with mod-4 arithmetic
    for x in range(12):
        for y in range(12):
            assert proj[ring.add(x, y)] == quot.add(int(proj[x]), int(proj[y]))
            assert proj[ring.mul(x, y)] == quot.mul(int(proj[x]), int(proj[y]))
    assert int(proj[ring.one]) == quot.one


# -- closure properties (property-based) ----------------------------------------------


@given(
    st.integers(min_value=2, max_value=16),
    st.lists(st.integers(min_value=0, max_value=15), max_size=3),
)
@settings(max_examples=60)
def test_closure_contains_generators_and_is_minimal(n, gens):
    ring = zn(n)
    gens = [g % n for g in gens]
    ideal = ideal_closure(ring, gens)
    assert is_ideal(ring, ideal.members)
    for g in gens:
        assert g in ideal
    # minimality: closure of each generator alone is contained in it
    for g in gens:
        assert set(ideal_closure(ring, [g]).members) <= set(ideal.members)
    # and every member is reachable, so the gcd oracle agrees
    g = 0
    for x in gens:
        g = math.gcd(g, x)
    assert ideal.members == zn_ideal_members_oracle(n, g % n if n else 0)


# -- the span closure against the worklist oracle ----------------------------------------

CATALOG_RINGS = [entry.ring for entry in build_catalog()]


@pytest.mark.parametrize("ring", CATALOG_RINGS, ids=lambda ring: ring.label)
def test_closure_and_principal_ideals_match_the_worklist_on_the_catalog(ring):
    for x in ring.elements:
        assert ideal_closure(ring, (x,)).members == worklist_closure(ring, (x,))
    got = [(ideal.members, ideal.generators) for ideal in principal_ideals(ring)]
    assert got == worklist_principal_ideals(ring)


_SMALL_RING_TEXT = st.recursive(
    st.integers(1, 4).map("(zn {})".format),
    lambda ring: st.one_of(
        st.lists(ring, min_size=1, max_size=3).map(lambda rings: f"(product {' '.join(rings)})"),
        ring.map("(matrix 2 {})".format),
        ring.map("(tri2 {0} {0} regular)".format),
        st.builds("(series {} {})".format, ring, st.integers(1, 3)),
        st.builds("(quotient {} (ideal {}))".format, ring, st.integers(0, 3)),
    ),
    max_leaves=3,
)


@st.composite
def _small_composite(draw):
    try:
        spec = parse(draw(_SMALL_RING_TEXT))
        assume(size_estimate(spec) <= 64)
        return build(spec)
    except (SpecError, ValueError):
        assume(False)


@given(_small_composite(), st.data())
@settings(max_examples=40, deadline=None)
def test_closure_matches_the_worklist_on_composites(ring, data):
    elements = st.integers(0, ring.order - 1)
    gens = data.draw(st.lists(elements, max_size=3))
    assert ideal_closure(ring, gens).members == worklist_closure(ring, gens)
    got = [(ideal.members, ideal.generators) for ideal in principal_ideals(ring)]
    assert got == worklist_principal_ideals(ring)


@given(_small_composite())
@settings(max_examples=40, deadline=None)
def test_all_ideals_matches_the_pairwise_walk_on_composites(ring):
    assert _listed(all_ideals(ring)) == _pairwise_all_ideals(ring)


NEAR_CAP = {
    "(matrix 2 (zn 4))": 3,
    "(series (zn 4) 4)": 16,
    "(zn 256)": 9,
    "(product (zn 4) (zn 4) (zn 16))": 45,
}


@pytest.mark.parametrize("spec", list(NEAR_CAP))
def test_near_cap_principal_ideals_are_pinned_and_match_the_worklist(spec):
    ring = build(parse(spec))
    ideals = principal_ideals(ring)
    assert len(ideals) == NEAR_CAP[spec]
    for x in random.Random(spec).sample(ring.elements, 4):
        assert ideal_closure(ring, (x,)).members == worklist_closure(ring, (x,))
    # every ideal is the closure of the generator recorded for it
    for ideal in ideals:
        assert worklist_closure(ring, ideal.generators) == ideal.members


@pytest.mark.parametrize("spec", list(NEAR_CAP))
def test_near_cap_lattices_match_the_pairwise_walk(spec):
    ring = build(parse(spec))
    assert _listed(all_ideals(ring, cap=256)) == _pairwise_all_ideals(ring, cap=256)


def test_the_lattice_of_f2_to_the_eighth_has_every_subspace():
    # every subspace of F_2^8 is an ideal of the product ring; the pairwise
    # walk would sum 32,640 pairs here
    ring = build(parse(f"(product {' '.join(['(zn 2)'] * 8)})"))
    assert len(all_ideals(ring, cap=256)) == 256
