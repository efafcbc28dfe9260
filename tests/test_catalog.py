"""The built-in ring catalog: size, composition, and lookup behaviour."""

from __future__ import annotations

import pytest

from cleanrings.catalog import (
    _BASE_SPECS,
    IDEAL_LAW_MAX_ORDER,
    build_catalog,
    catalog_entry,
)
from cleanrings.constructions import quotient
from cleanrings.dsl import build, parse, pretty
from cleanrings.laws import RING_LAW_IDS, run_catalog, run_ring


def test_catalog_has_expected_size_and_unique_keys():
    entries = build_catalog()
    assert len(entries) == 41
    keys = [e.key for e in entries]
    assert len(set(keys)) == len(keys)
    assert len(entries) >= 25


def test_build_catalog_is_cached():
    assert build_catalog() is build_catalog()


def test_every_ideal_law_entry_respects_the_order_ceiling():
    for entry in build_catalog():
        if entry.in_ideal_laws:
            assert entry.ring.order <= IDEAL_LAW_MAX_ORDER, entry.key


def test_the_only_exclusion_is_the_order_81_matrix_ring():
    excluded = [e for e in build_catalog() if not e.in_ideal_laws]
    assert [e.key for e in excluded] == ["matrix2-z3"]
    assert excluded[0].ring.order == 81
    assert excluded[0].note != ""


def test_catalog_entry_lookup_and_miss():
    entry = catalog_entry("zn-6")
    assert entry.ring.order == 6
    with pytest.raises(KeyError):
        catalog_entry("no-such-ring")


def test_modular_entries_cover_one_through_twelve_and_sixteen():
    orders = {
        e.ring.order for e in build_catalog() if e.key.startswith("zn-")
    }
    assert orders == {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 16}


def test_radical_quotient_entries_pair_with_a_base_entry():
    entries = {e.key: e for e in build_catalog()}
    mod_radical = [k for k in entries if k.endswith("-mod-radical")]
    assert len(mod_radical) == 15
    for key in mod_radical:
        base_key = key[: -len("-mod-radical")]
        assert base_key in entries
        base = entries[base_key].ring
        assert set(base.jacobson_radical) != {0}


def test_radical_quotient_entries_have_trivial_radical():
    for entry in build_catalog():
        if entry.key.endswith("-mod-radical"):
            assert tuple(entry.ring.jacobson_radical) == (0,), entry.key


def test_base_entries_with_zero_radical_have_no_quotient_twin():
    entries = {e.key for e in build_catalog()}
    for entry in build_catalog():
        if entry.key.endswith("-mod-radical"):
            continue
        has_twin = f"{entry.key}-mod-radical" in entries
        nonzero_radical = set(entry.ring.jacobson_radical) != {0}
        assert has_twin == nonzero_radical, entry.key


def test_quotient_entry_agrees_with_a_fresh_quotient():
    entries = {e.key: e for e in build_catalog()}
    base = entries["zn-12"].ring
    fresh, _ = quotient(base, sorted(base.jacobson_radical))
    twin = entries["zn-12-mod-radical"].ring
    assert twin.order == fresh.order == 6


def test_laws_spec_on_a_base_entry_reproduces_its_catalog_reports():
    """Each base ring is canonical spec text, and ``laws --spec`` on that text
    (``run_ring`` under the entry's key) gives every ring-law report that the
    catalog run gives the entry."""
    catalog = [r.to_json_dict() for r in run_catalog() if r.law_id in RING_LAW_IDS]
    matched = 0
    for key, spec, _ in _BASE_SPECS:
        assert pretty(parse(spec)) == spec
        want = [r for r in catalog if r["inputs"] == key]
        got = [r.to_json_dict() for r in run_ring(build(parse(spec)), label=key)]
        assert [r for r in want if r not in got] == [], key
        matched += len(want)
    assert matched == 151
