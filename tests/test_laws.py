"""The law harness: every law passes over the catalog, skips carry reasons,
reports are deterministic, and the frozen shape of the run is stable."""

from __future__ import annotations

import hashlib
from collections import defaultdict
from fractions import Fraction

import pytest

from cleanrings import cli, laws
from cleanrings.dsl import build, parse, pretty
from cleanrings.laws import (
    LAW_FUNCTIONS,
    LAW_IDS,
    RING_LAW_IDS,
    LawReport,
    reports_to_json,
    run_catalog,
    run_law,
    run_ring,
    summarize,
)
from cleanrings.localized import LocalizedIntegers, clean_flags, ideal_is_clean_analytic

REPORTS = run_catalog()
BY_LAW: dict[str, list] = defaultdict(list)
for _r in REPORTS:
    BY_LAW[_r.law_id].append(_r)


def _one(law_id: str, inputs: str) -> LawReport:
    matches = [r for r in BY_LAW[law_id] if r.inputs == inputs]
    assert len(matches) == 1, f"{law_id} | {inputs}: {len(matches)} matches"
    return matches[0]


def test_catalog_run_has_zero_failures():
    failures = [(r.law_id, r.inputs) for r in REPORTS if r.verdict == "fail"]
    assert failures == []


def test_every_registered_law_reports():
    assert len(LAW_IDS) == 18
    assert {r.law_id for r in REPORTS} == set(LAW_IDS)


def test_frozen_run_summary():
    assert summarize(REPORTS) == {
        "laws": 18,
        "reports": 292,
        "pass": 248,
        "fail": 0,
        "skipped": 44,
        "discriminating": 20,
        "scanned": 41213,
    }


def test_reports_are_sorted_by_law_then_inputs():
    keys = [(r.law_id, r.inputs) for r in REPORTS]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_every_skip_states_its_unmet_hypothesis():
    for r in REPORTS:
        if r.verdict == "skipped":
            assert r.reason != "", (r.law_id, r.inputs)


def test_verdicts_use_the_closed_vocabulary():
    assert {r.verdict for r in REPORTS} <= {"pass", "fail", "skipped"}
    assert {r.direction for r in REPORTS} <= {"forward", "both", "equation"}
    assert {r.instance_strength for r in REPORTS} <= {"degenerate", "discriminating"}


def test_discriminating_instances_are_exactly_the_frozen_set():
    got = sorted(
        (r.law_id, r.inputs, r.verdict)
        for r in REPORTS
        if r.instance_strength == "discriminating"
    )
    assert got == [
        ("central-equivalence", "Z_(2,3) | <3>", "pass"),
        ("central-equivalence", "Z_(3,5) | R", "pass"),
        ("determinant-cofactor", "Z_5, k=3, 200 seeded samples", "pass"),
        ("determinant-cofactor", "Z_6, k=2, exhaustive", "pass"),
        ("determinant-cofactor", "Z_6, k=3, 200 seeded samples", "pass"),
        ("localized-agreement", "400 ideals, primes up to 11, exponents up to 2", "pass"),
        ("product-ideal", "Z_(2,3) x Z_(2,3) | <3> x R", "pass"),
        ("product-ideal", "Z_(3,5) x Z_(3,5) | R x <15>", "pass"),
        ("product-ideal", "Z_(3,5) x Z_(3,5) | R x R", "pass"),
        ("reduced-rings", "Z_(2,3) | <6>", "pass"),
        ("reduced-rings", "Z_(2,3) | R", "skipped"),
        ("reduced-rings", "Z_(3,5) | R", "pass"),
        ("uniqueness-forces-central", "matrix2-z2", "pass"),
        ("uniqueness-forces-central", "morita-z2", "pass"),
        ("uniqueness-forces-central", "tri2-z2", "pass"),
        ("uniqueness-forces-central", "tri3-z2", "pass"),
        ("units-sanity", "19 unit-count identities", "pass"),
        ("weakly-clean-implies-weakly-exchange", "Z_(2,3) | <3>", "skipped"),
        ("weakly-clean-implies-weakly-exchange", "Z_(3,5) | <3>", "pass"),
        ("weakly-clean-implies-weakly-exchange", "Z_(3,5) | R", "pass"),
    ]


def test_proper_ideals_law_covers_every_catalog_entry():
    from cleanrings.catalog import build_catalog

    assert {r.inputs for r in BY_LAW["proper-ideals"]} == {
        e.key for e in build_catalog()
    }
    assert all(r.verdict == "pass" for r in BY_LAW["proper-ideals"])


def test_determinant_cofactor_counts_are_frozen():
    exhaustive = _one("determinant-cofactor", "Z_6, k=2, exhaustive")
    assert exhaustive.verdict == "pass"
    assert exhaustive.scanned == 31104
    for n in (5, 6):
        sampled = _one("determinant-cofactor", f"Z_{n}, k=3, 200 seeded samples")
        assert sampled.verdict == "pass"
        assert sampled.scanned == 200


def test_matrix_law_instances_are_frozen():
    assert sorted(r.inputs for r in BY_LAW["matrix-ideal"]) == [
        "Z_2 | R, k=2",
        "Z_2 | R, k=3",
        "Z_3 | <0>, k=2",
        "Z_4 | <2>, k=2",
        "Z_6 | <3>, k=1",
    ]
    assert all(r.verdict == "pass" for r in BY_LAW["matrix-ideal"])


def test_product_law_counterexample_witness_is_replayable():
    report = _one("product-ideal", "Z_(3,5) x Z_(3,5) | R x R")
    assert report.verdict == "pass"
    assert report.witness == {
        "member_tuple": ["5", "-5"],
        "classes": ["plus-only", "minus-only"],
    }
    ring = LocalizedIntegers((3, 5))
    plus = clean_flags(ring, Fraction(5))
    minus = clean_flags(ring, Fraction(-5))
    assert plus.plus_only and minus.minus_only
    assert not (plus.plus and minus.plus)
    assert not (plus.minus and minus.minus)


def test_product_law_non_weakly_clean_component_witness():
    report = _one("product-ideal", "Z_(2,3) x Z_(2,3) | <3> x R")
    assert report.verdict == "pass"
    assert report.witness == {
        "member_tuple": ["3", "0"],
        "classes": ["neither", "both"],
    }
    ring = LocalizedIntegers((2, 3))
    flags = clean_flags(ring, Fraction(3))
    assert not flags.plus and not flags.minus


def test_uniqueness_law_bites_exactly_on_noncentral_idempotent_rings():
    bites = {
        r.inputs: r.reason
        for r in BY_LAW["uniqueness-forces-central"]
        if r.instance_strength == "discriminating"
    }
    assert set(bites) == {"matrix2-z2", "morita-z2", "tri2-z2", "tri3-z2"}
    for key, expected_count in (
        ("matrix2-z2", 1),
        ("morita-z2", 3),
        ("tri2-z2", 3),
        ("tri3-z2", 10),
    ):
        assert bites[key].startswith(f"{expected_count} ideal(s)"), key


def test_localized_agreement_covers_the_envelope():
    report = _one(
        "localized-agreement", "400 ideals, primes up to 11, exponents up to 2"
    )
    assert report.verdict == "pass"
    assert report.scanned == 1200
    assert report.witness is None


def test_envelope_really_holds_400_ideals():
    from cleanrings.laws import envelope_ideals

    pairs = list(envelope_ideals())
    assert len(pairs) == 400
    assert sum(1 for _, i in pairs if i.is_zero) == 25


def test_every_envelope_ideal_is_labelled_analytic():
    # _method_for and envelope_ideals read the same bounds
    from cleanrings.laws import envelope_ideals

    for _, ideal in envelope_ideals():
        assert ideal_is_clean_analytic(ideal).method == "analytic"


def test_units_sanity_counts():
    report = _one("units-sanity", "19 unit-count identities")
    assert report.verdict == "pass"
    assert report.scanned == 19


def test_radical_quotient_skips_exactly_the_zero_radical_entries():
    from cleanrings.catalog import build_catalog

    skipped = {r.inputs for r in BY_LAW["radical-quotient"] if r.verdict == "skipped"}
    expected = {
        e.key
        for e in build_catalog()
        if e.in_ideal_laws and set(e.ring.jacobson_radical) == {0}
    }
    assert skipped == expected
    assert len(skipped) == 25
    ran = [r for r in BY_LAW["radical-quotient"] if r.verdict == "pass"]
    assert len(ran) == 15


def test_morita_law_includes_triangular_forms():
    inputs = {r.inputs for r in BY_LAW["morita-ideal"]}
    assert "tri2-z2 | R x R" in inputs
    assert "T2(Z_4;Z_2;Z_6) | <2>, <3>" in inputs
    assert len(inputs) == 5
    assert all(r.verdict == "pass" for r in BY_LAW["morita-ideal"])


def test_tri3_laws_share_instances_and_pass():
    forward = {r.inputs for r in BY_LAW["tri3-ideal"]}
    converse = {r.inputs for r in BY_LAW["tri3-converse"]}
    assert forward == converse
    assert len(forward) == 3
    assert any("multiplicative pairing" in i for i in forward)


def test_json_lines_are_identical_across_runs():
    first = reports_to_json(REPORTS)
    second = reports_to_json(run_catalog())
    assert first == second
    assert first.endswith("\n")
    assert len(first.splitlines()) == len(REPORTS)


def test_json_dict_excludes_timing():
    for r in REPORTS[:5]:
        d = r.to_json_dict()
        assert "seconds" not in d
        assert set(d) == {
            "law",
            "inputs",
            "verdict",
            "direction",
            "instance_strength",
            "description",
            "reason",
            "witness",
            "scanned",
        }


def test_run_law_filters_to_one_law():
    reports = run_law("units-sanity")
    assert len(reports) == 1
    assert reports[0].law_id == "units-sanity"
    with pytest.raises(KeyError):
        run_law("no-such-law")


def test_catalog_run_fits_the_time_budget():
    total = sum(r.seconds for r in REPORTS)
    assert total < 60.0


# ---------------------------------------------------------------------------
# golden pins: the exact bytes of the catalog run and of three per-ring runs,
# so a refactor that changed every run the same way would still be caught


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_catalog_json_matches_the_golden_pin():
    assert (
        _sha256(reports_to_json(REPORTS))
        == "4e68c2fdb05549dad84488f7e7c7f5317df49059aa3bcc7e2657305123df3c99"
    )


@pytest.mark.parametrize(
    "text, digest",
    [
        ("(zn 12)", "6c5c9d6064d3996af3e6a757d0a63c7681dfb2f86ca08b719394fea069e222ef"),
        (
            "(tri2 (zn 2) (zn 2) regular)",
            "b719b200db0855c6bdfb4642a3cdc6abcf7912f868d055661ea007c68de2296a",
        ),
        (
            "(matrix 2 (zn 2))",
            "f9e7786b6918d1e9f09f290bb4e9c1dd0a98198bab23edec83ba4c7484c9fdb9",
        ),
    ],
)
def test_run_ring_json_matches_the_golden_pin(text, digest):
    spec = parse(text)
    assert _sha256(reports_to_json(run_ring(build(spec), label=pretty(spec)))) == digest


def test_catalog_text_output_matches_the_golden_pin(capsys):
    assert cli.main(["laws", "--catalog"]) == 0
    assert (
        _sha256(capsys.readouterr().out)
        == "e0e1ad4b050e58e5eb59bb9a50dbbc1522719d0db2d89759c7ac31451519d515"
    )


def test_law_functions_are_module_attributes_that_report_their_own_id():
    # perfbench/traced.py times each law by wrapping laws.<fn.__name__>.
    assert tuple(law_id for law_id, _ in LAW_FUNCTIONS) == LAW_IDS
    for law_id, fn in LAW_FUNCTIONS:
        assert getattr(laws, fn.__name__) is fn
        reports = fn()
        assert isinstance(reports, list)
        assert {r.law_id for r in reports} == {law_id}


def test_law_ids_are_pinned_in_declaration_order():
    # The CLI prints both orders in its usage errors.
    assert LAW_IDS == (
        "proper-ideals",
        "weakly-clean-implies-weakly-exchange",
        "central-equivalence",
        "reduced-rings",
        "determinant-cofactor",
        "matrix-ideal",
        "product-ideal",
        "uniqueness-forces-central",
        "morita-ideal",
        "tri3-ideal",
        "tri3-converse",
        "peirce-corners",
        "series-ideal",
        "idealization-ideal",
        "radical-quotient",
        "radical-sum",
        "localized-agreement",
        "units-sanity",
    )
    assert RING_LAW_IDS == (
        "proper-ideals",
        "weakly-clean-implies-weakly-exchange",
        "central-equivalence",
        "reduced-rings",
        "uniqueness-forces-central",
        "radical-quotient",
    )


def test_every_law_function_is_registered():
    # A law_* function that is not declared as a law would never run.
    declared = {name for name in vars(laws) if name.startswith("law_")}
    assert declared == {fn.__name__ for _, fn in LAW_FUNCTIONS}
