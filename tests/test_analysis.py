"""Element and ideal classification: decompositions into unit plus/minus
idempotent, uniqueness counting, the exchange-style membership test, and
radical lifting."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cleanrings import (
    CleanClass,
    Decomposition,
    IdealSet,
    build,
    build_catalog,
    catalog_entry,
    clean_class,
    decompositions,
    direct_product,
    full_ideal,
    ideal_closure,
    ideal_from_members,
    ideal_is_clean,
    ideal_is_uniquely_weakly_clean,
    ideal_is_weakly_clean,
    ideal_is_weakly_exchange,
    is_clean_element,
    is_uniquely_weakly_clean_element,
    is_weakly_clean_element,
    is_weakly_exchange_element,
    lift_idempotent,
    matrix_ring,
    parse,
    principal_ideals,
    quotient,
    ring_is_clean,
    ring_is_uniquely_weakly_clean,
    ring_is_weakly_clean,
    tri2,
    zero_ideal,
    zn,
    zn_bimodule,
)
from cleanrings.analysis import _exchange_masks, _failure_trace

Z6 = zn(6)
Z2XZ2 = direct_product([zn(2), zn(2)])
M2Z2 = matrix_ring(zn(2), 2)
TRI2 = tri2(zn(2), zn(2), zn_bimodule(zn(2), zn(2), 2))

SAMPLE_RINGS = [zn(n) for n in (1, 2, 3, 4, 5, 6, 8, 9, 12)] + [Z2XZ2, M2Z2, TRI2]


def _replay(ring, x: int, d: Decomposition) -> bool:
    """Re-derive the claimed identity x = unit + sign * idempotent."""
    if not ring.is_unit(d.unit) or not ring.is_idempotent(d.idempotent):
        return False
    term = d.idempotent if d.sign == 1 else ring.neg_table[d.idempotent]
    return ring.add(d.unit, int(term)) == x


# -- element census ------------------------------------------------------------


def test_z6_census_of_three():
    got = [(d.sign, d.idempotent, d.unit) for d in decompositions(Z6, 3)]
    assert got == [(1, 4, 5), (-1, 4, 1)]
    for d in decompositions(Z6, 3):
        assert _replay(Z6, 3, d)


def test_z6_census_of_two():
    got = [(d.sign, d.idempotent, d.unit) for d in decompositions(Z6, 2)]
    assert got == [(1, 1, 1), (1, 3, 5), (-1, 3, 5)]
    cc = clean_class(Z6, 2)
    assert cc.is_clean and cc.is_weakly_clean and not cc.is_uniquely_weakly_clean


def test_census_ordering_plus_block_first():
    for ring in SAMPLE_RINGS:
        for x in ring.elements:
            ds = decompositions(ring, x)
            signs = [d.sign for d in ds]
            assert signs == sorted(signs, reverse=True)
            plus = [d.idempotent for d in ds if d.sign == 1]
            minus = [d.idempotent for d in ds if d.sign == -1]
            assert plus == sorted(plus) and minus == sorted(minus)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=16), data=st.data())
def test_every_reported_decomposition_replays(n, data):
    ring = zn(n)
    x = data.draw(st.integers(min_value=0, max_value=n - 1))
    ds = decompositions(ring, x)
    assert ds, "finite rings decompose every element"
    for d in ds:
        assert _replay(ring, x, d)


def test_element_flags_agree_with_census():
    for ring in SAMPLE_RINGS:
        for x in ring.elements:
            cc = clean_class(ring, x)
            assert is_clean_element(ring, x) == cc.is_clean
            assert is_weakly_clean_element(ring, x) == cc.is_weakly_clean
            assert (
                is_uniquely_weakly_clean_element(ring, x) == cc.is_uniquely_weakly_clean
            )
            assert cc.is_clean <= cc.is_weakly_clean
            assert cc.is_uniquely_weakly_clean <= cc.is_weakly_clean


def test_negating_an_element_mirrors_the_signs():
    for ring in SAMPLE_RINGS:
        for x in ring.elements:
            flipped = {
                (-d.sign, d.idempotent, int(ring.neg_table[d.unit]))
                for d in decompositions(ring, x)
            }
            got = {
                (d.sign, d.idempotent, d.unit)
                for d in decompositions(ring, int(ring.neg_table[x]))
            }
            assert flipped == got


def test_clean_class_json_shape():
    record = clean_class(Z6, 3).to_json_dict()
    assert record == {
        "element": 3,
        "clean": True,
        "weakly_clean": True,
        "uniquely_weakly_clean": True,
        "decompositions": [
            {"sign": 1, "idempotent": 4, "unit": 5},
            {"sign": -1, "idempotent": 4, "unit": 1},
        ],
    }


# -- uniqueness ---------------------------------------------------------------


def test_z6_is_not_uniquely_weakly_clean():
    assert not ring_is_uniquely_weakly_clean(Z6)
    verdict = ideal_is_uniquely_weakly_clean(Z6, full_ideal(Z6))
    assert not verdict.ok
    assert verdict.failing == 1
    assert verdict.detail == "element 1: 2 distinct idempotents work"


def test_z2xz2_every_element_uniquely_weakly_clean():
    assert [is_uniquely_weakly_clean_element(Z2XZ2, x) for x in range(4)] == [True] * 4
    assert ring_is_uniquely_weakly_clean(Z2XZ2)


def test_m2z2_clean_but_not_uniquely():
    assert ring_is_clean(M2Z2)
    assert ring_is_weakly_clean(M2Z2)
    assert not ring_is_uniquely_weakly_clean(M2Z2)
    assert ideal_is_uniquely_weakly_clean(M2Z2, zero_ideal(M2Z2)).ok
    verdict = ideal_is_uniquely_weakly_clean(M2Z2, full_ideal(M2Z2))
    assert verdict.failing == 1
    assert verdict.detail == "element 1: 3 distinct idempotents work"


def test_uniqueness_counts_match_census_everywhere():
    for ring in SAMPLE_RINGS:
        for x in ring.elements:
            distinct = {d.idempotent for d in decompositions(ring, x)}
            assert is_uniquely_weakly_clean_element(ring, x) == (len(distinct) == 1)


# -- a two-sided ideal holding a non-central idempotent -------------------------


def test_tri2_principal_ideal_defeats_uniqueness():
    ideal = ideal_closure(TRI2, [4])
    assert ideal.members == (0, 2, 4, 6)
    assert TRI2.is_idempotent(4) and not TRI2.is_central(4)

    assert ideal_is_clean(TRI2, ideal).ok
    assert ideal_is_weakly_clean(TRI2, ideal).ok
    verdict = ideal_is_uniquely_weakly_clean(TRI2, ideal)
    assert not verdict.ok
    assert verdict.failing == 4
    assert verdict.detail == "element 4: 2 distinct idempotents work"
    got = [(d.sign, d.idempotent, d.unit) for d in decompositions(TRI2, 4)]
    assert got == [(1, 1, 5), (1, 3, 7), (-1, 1, 5), (-1, 3, 7)]


def test_tri2_bimodule_slot_ideal_stays_unique():
    ideal = ideal_from_members(TRI2, [0, 2])
    assert ideal_is_uniquely_weakly_clean(TRI2, ideal).ok


# -- weakly exchange ------------------------------------------------------------


def test_strict_and_relaxed_exchange_agree_on_ideal_members():
    for ring in SAMPLE_RINGS:
        for ideal in principal_ideals(ring):
            for x in ideal.members:
                strict = is_weakly_exchange_element(ring, x, ideal=ideal, mode="strict")
                relaxed = is_weakly_exchange_element(ring, x, mode="relaxed")
                assert strict == relaxed


def test_weakly_clean_ideal_is_weakly_exchange():
    for ring in SAMPLE_RINGS:
        for ideal in principal_ideals(ring):
            if ideal_is_weakly_clean(ring, ideal).ok:
                assert ideal_is_weakly_exchange(ring, ideal).ok


def _exchange_oracle(ring, x: int, probed) -> list[int]:
    """The idempotents among probed with e - x in R(x - x^2) or e + x in
    R(x + x^2), straight from the definition, each R*y a Python set."""
    square = ring.mul(x, x)
    minus = {ring.mul(r, ring.sub(x, square)) for r in ring.elements}
    plus = {ring.mul(r, ring.add(x, square)) for r in ring.elements}
    return [e for e in probed if ring.sub(e, x) in minus or ring.add(e, x) in plus]


# every catalog ring and the four order-256 rings of the near-cap benchmark
EXCHANGE_RINGS = [entry.key for entry in build_catalog()] + [
    "(matrix 2 (zn 4))",
    "(series (zn 4) 4)",
    "(zn 256)",
    "(product (zn 4) (zn 4) (zn 16))",
]


@pytest.mark.parametrize("name", EXCHANGE_RINGS)
def test_exchange_masks_match_the_definition_on_every_element(name):
    ring = build(parse(name)) if name.startswith("(") else catalog_entry(name).ring
    masks = _exchange_masks(ring, ring.elements)
    assert masks.shape == (ring.order, len(ring.idempotents))
    idem = np.array(ring.idempotents)
    for x in ring.elements:
        assert idem[masks[x]].tolist() == _exchange_oracle(ring, x, ring.idempotents)


# principal ideals, and member sets that are not ideals: the strict probe of
# {2} in Z_6 holds no idempotent at all
EXCHANGE_SETS = [ideal for ring in SAMPLE_RINGS for ideal in principal_ideals(ring)] + [
    IdealSet(Z6, (2,)),
    IdealSet(Z6, (1, 2)),
    IdealSet(Z6, (0, 2, 5)),
    IdealSet(M2Z2, (1, 2, 6)),
    IdealSet(TRI2, (0, 4, 6)),
]


@pytest.mark.parametrize("mode", ["strict", "relaxed"])
def test_exchange_verdicts_match_the_definition(mode):
    for ideal in EXCHANGE_SETS:
        ring = ideal.ring
        probed = [e for e in ring.idempotents if mode == "relaxed" or e in ideal.members]
        passing = [bool(_exchange_oracle(ring, x, probed)) for x in ideal.members]
        for x, ok in zip(ideal.members, passing):
            assert is_weakly_exchange_element(ring, x, ideal=ideal, mode=mode) == ok
        failing = next((x for x, ok in zip(ideal.members, passing) if not ok), None)
        verdict = ideal_is_weakly_exchange(ring, ideal, mode=mode)
        assert (verdict.ok, verdict.failing, verdict.checked) == (
            failing is None,
            failing,
            len(ideal),
        )
        assert verdict.trace == (() if failing is None else tuple(probed))
        assert verdict.property_name == f"weakly-exchange-{mode}"


def test_strict_mode_requires_the_ideal():
    with pytest.raises(ValueError):
        is_weakly_exchange_element(Z6, 3, mode="strict")


def test_exchange_on_z6_diagonal_ideal():
    ideal = ideal_closure(Z6, [3])
    assert is_weakly_exchange_element(Z6, 3, ideal=ideal, mode="strict")
    verdict = ideal_is_weakly_exchange(Z6, ideal)
    assert verdict.ok and verdict.checked == 2


# -- verdict serialization and failure reporting --------------------------------


def test_passing_verdict_serializes_counts_only():
    ideal = ideal_closure(Z6, [2])
    assert ideal_is_clean(Z6, ideal).to_json_dict() == {
        "property": "clean",
        "ideal": "<2>",
        "ok": True,
        "checked": 3,
    }


def test_failing_verdict_carries_replayable_trace():
    ideal = ideal_closure(TRI2, [4])
    record = ideal_is_uniquely_weakly_clean(TRI2, ideal).to_json_dict()
    assert record["ok"] is False
    assert record["failing_element"] == 4
    assert [tuple(t.values()) for t in record["trace"]] == [
        (1, 1, 5),
        (1, 3, 7),
        (-1, 1, 5),
        (-1, 3, 7),
    ]


def test_clean_scan_failure_path_with_doctored_units():
    # No valid finite ring has a non-clean element, so the reporting branch
    # is exercised by blinding the unit mask on a throwaway copy.
    ring = zn(4)
    ring.__dict__["_unit_data"] = (
        np.zeros(4, dtype=bool),
        np.full(4, -1, dtype=np.int32),
    )
    verdict = ideal_is_clean(ring, ideal_closure(ring, [2]))
    assert not verdict.ok
    assert verdict.failing == 0
    assert verdict.checked == 2
    trace = verdict.trace
    assert all(entry["is_unit"] is False for entry in trace)
    assert {entry["sign"] for entry in trace} == {1, -1}
    weak = ideal_is_weakly_clean(ring, ideal_closure(ring, [2]))
    assert not weak.ok and "either sign" in weak.detail


def test_exchange_failure_path_with_non_ideal_members():
    # The strict probe draws candidate idempotents from the member set, so a
    # hand-built set avoiding them exposes the failure report.
    from cleanrings import IdealSet

    fake = IdealSet(Z6, (2,))
    verdict = ideal_is_weakly_exchange(Z6, fake, mode="strict")
    assert not verdict.ok
    assert verdict.failing == 2
    assert verdict.trace == ()


def test_failure_trace_pairs_signs_per_idempotent():
    trace = _failure_trace(Z6, 2)
    assert len(trace) == 2 * len(Z6.idempotents)
    for entry in trace:
        x = 2
        candidate = (
            Z6.sub(x, entry["idempotent"])
            if entry["sign"] == 1
            else Z6.add(x, entry["idempotent"])
        )
        assert entry["candidate_unit"] == candidate
        assert entry["is_unit"] == Z6.is_unit(candidate)
    # numpy scalars would not serialize
    assert json.loads(json.dumps(trace)) == list(trace)


# -- lifting ---------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 12, 16])
def test_lift_idempotent_over_radical_quotients(n):
    ring = zn(n)
    quot, proj = quotient(ring, list(ring.jacobson_radical))
    radical = set(ring.jacobson_radical)
    for ebar in quot.idempotents:
        e = lift_idempotent(ring, proj, quot, ebar)
        assert ring.is_idempotent(e)
        assert int(proj[e]) == ebar
        rep = next(r for r in ring.elements if int(proj[r]) == ebar)
        assert ring.sub(e, rep) in radical or int(proj[ring.sub(e, rep)]) == 0


def test_lift_idempotent_frozen_witness():
    ring = zn(12)
    quot, proj = quotient(ring, list(ring.jacobson_radical))
    assert ring.jacobson_radical == (0, 6)
    assert quot.idempotents == (0, 1, 3, 4)
    assert [lift_idempotent(ring, proj, quot, e) for e in quot.idempotents] == [0, 1, 9, 4]


def test_lift_idempotent_rejects_non_idempotent_target():
    ring = zn(4)
    quot, proj = quotient(ring, [0])
    with pytest.raises(ValueError):
        lift_idempotent(ring, proj, quot, 2)


def test_lift_idempotent_reports_missing_lift():
    ring = zn(4)
    quot = zn(2)
    proj = np.zeros(4, dtype=np.int32)
    with pytest.raises(RuntimeError):
        lift_idempotent(ring, proj, quot, 1)
