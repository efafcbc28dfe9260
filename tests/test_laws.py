"""The law harness: every law passes over the catalog, skips carry reasons,
reports are deterministic, and the frozen shape of the run is stable."""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import importlib
import random
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np
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
from cleanrings.localized import LocalizedIntegers, clean_flags

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


def _drawn_cases(n: int, k: int, samples: int):
    """The seeded determinant-cofactor draws written out one by one: the grid
    row by row, then the row, the column and the bump."""
    rng = random.Random(f"determinant-cofactor-{n}-{k}")
    for _ in range(samples):
        grid = [[rng.randrange(n) for _ in range(k)] for _ in range(k)]
        i = rng.randrange(k)
        j = rng.randrange(k)
        x = rng.randrange(n)
        yield tuple(v for row in grid for v in row), i, j, x


@pytest.mark.parametrize("n", [5, 6])
def test_determinant_cofactor_seeded_stream_keeps_its_draw_order(n):
    # The counts above would not notice a reordered stream; the instances'
    # verdicts and witnesses depend on the exact cases drawn.
    assert list(laws._seeded_cases(n, 3, 200)) == list(_drawn_cases(n, 3, 200))


def test_determinant_cofactor_exhaustive_stream_covers_every_case_once():
    cases = list(laws._every_case(6, 2))
    assert len(cases) == 31104 == len(set(cases))
    assert cases[:7] == [((0, 0, 0, 0), 0, 0, x) for x in range(6)] + [((0, 0, 0, 0), 0, 1, 0)]
    assert cases[-1] == ((5, 5, 5, 5), 1, 1, 5)


def _per_case_loop(n: int, k: int, cases):
    """The determinant-cofactor step checked case by case, as the definition
    reads: (witness, cases scanned) of the first case that fails, or None and
    the number of cases. det and cofactor are read from laws, so a fault
    patched there reaches this oracle too."""
    base = laws.zn(n)

    def grid(entries):
        return [list(entries[r * k : (r + 1) * k]) for r in range(k)]

    scanned = 0
    for entries, i, j, x in cases:
        scanned += 1
        bumped = list(entries)
        bumped[i * k + j] = base.add(bumped[i * k + j], x)
        lhs = laws.det(base, grid(bumped))
        rhs = base.add(laws.det(base, grid(entries)), base.mul(x, laws.cofactor(base, grid(entries), i, j)))
        if lhs != rhs:
            where = {"modulus": n, "entries": list(entries), "row": i, "col": j, "bump": x}
            return {**where, "got": lhs, "expected": rhs}, scanned
    return None, scanned


_DET_STREAMS = {
    "Z_6, k=2, exhaustive": (6, 2, lambda: laws._every_case(6, 2)),
    "Z_5, k=3, seeded": (5, 3, lambda: laws._seeded_cases(5, 3, 200)),
    "Z_6, k=3, seeded": (6, 3, lambda: laws._seeded_cases(6, 3, 200)),
}


def _det_fault(monkeypatch, name: str, n: int, fires) -> None:
    """Make laws.<name> answer one more, mod n, wherever fires(grid, *rest)."""
    real = getattr(laws, name)

    def faulty(base, grid, *rest):
        value = real(base, grid, *rest)
        return (value + 1) % n if fires(tuple(v for row in grid for v in row), *rest) else value

    monkeypatch.setattr(laws, name, faulty)


@pytest.mark.parametrize("fault", ["none", "det", "cofactor"])
@pytest.mark.parametrize("stream", list(_DET_STREAMS))
def test_determinant_cofactor_step_matches_the_per_case_loop(monkeypatch, stream, fault):
    """The array pass against the per-case loop, as it is and with det wrong
    at one grid or cofactor wrong at one (grid, row, col) from the middle of
    the stream: the same verdict, cases scanned and witness."""
    n, k, cases = _DET_STREAMS[stream]
    drawn = list(cases())
    middle = drawn[len(drawn) // 2]
    if fault == "det":
        _det_fault(monkeypatch, "det", n, lambda grid: grid == middle[0])
    elif fault == "cofactor":
        _det_fault(monkeypatch, "cofactor", n, lambda grid, i, j: (grid, i, j) == middle[:3])
    expected = _per_case_loop(n, k, drawn)
    assert laws._det_cofactor(n, k, iter(drawn)) == expected
    assert (expected[0] is None) == (fault == "none")


def test_determinant_cofactor_calls_det_and_cofactor_once_per_distinct_argument(monkeypatch):
    calls = defaultdict(list)

    def count(name):
        real = getattr(laws, name)

        def counted(base, grid, *rest):
            calls[name].append((tuple(v for row in grid for v in row), *rest))
            return real(base, grid, *rest)

        monkeypatch.setattr(laws, name, counted)

    count("det")
    count("cofactor")
    cases = list(laws._every_case(6, 2))
    assert laws._det_cofactor(6, 2, cases) == (None, 31104)
    assert len(calls["det"]) == len(set(calls["det"])) == 6**4
    assert sorted(calls["cofactor"]) == sorted({(grid, i, j) for grid, i, j, _ in cases})


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


def _traced_names() -> set[str]:
    """The "<module>.<attr>" names perfbench/traced.py wraps, counts or sums:
    PRIVATE, the keys of COUNTERS, and every literal span name that
    layer_figures passes to incl, own or calls, directly or in a tuple."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "traced.py").read_text())
    top = {t.id: node.value for node in tree.body if isinstance(node, ast.Assign) for t in node.targets}
    names = set(ast.literal_eval(top["PRIVATE"])) | {ast.literal_eval(k) for k in top["COUNTERS"].keys}
    figures = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "layer_figures")
    tuples = {
        t.id: node.value
        for node in ast.walk(figures)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
        for t in node.targets
    }
    for node in ast.walk(figures):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("incl", "own", "calls"):
            for arg in node.args:
                if isinstance(arg, ast.Starred) and isinstance(arg.value, ast.Name):
                    names |= set(ast.literal_eval(tuples[arg.value.id]))
                elif isinstance(arg, ast.Constant):
                    names.add(arg.value)
    return names


def test_every_name_the_tracer_measures_is_a_callable_of_the_package():
    # traced.py finds its targets by name, so a renamed or deleted function
    # would silently read as zero time instead of failing.
    names = _traced_names()
    assert {"analysis._scan_masks", "localized._search_grid", "cli.main", "laws.run_ring"} <= names
    for name in sorted(names):
        module, attr = name.split(".")
        target = getattr(importlib.import_module(f"cleanrings.{module}"), attr, None)
        assert callable(target), name


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


# ---------------------------------------------------------------------------
# fault injection: every catalog instance passes, so the failure branches of
# the structural laws and the empty-hypothesis branch of the implications
# never run on the catalog. Each fault rebinds a function that ``laws``
# imports at module level (the bindings perfbench/traced.py wraps as well)
# so that a law meets a verdict the catalog never gives it, and the test pins
# the verdict, witness and scanned count that result.


def _flip(monkeypatch, name: str, *kinds: str) -> None:
    """Invert ``laws.<name>`` on rings built by the given constructions."""
    real = getattr(laws, name)

    def flipped(ring, arg, *rest, **kwargs):
        v = real(ring, arg, *rest, **kwargs)
        if ring.provenance.get("kind") not in kinds:
            return v
        if isinstance(v, bool):
            return not v
        return dataclasses.replace(v, ok=not v.ok, failing=arg.members[-1] if v.ok else None)

    monkeypatch.setattr(laws, name, flipped)


def _flip_scan(monkeypatch, verdict: str, *kinds: str) -> None:
    """Rebind ``laws._scan_masks`` so that, on rings built by the given
    constructions, every member's clean verdict (verdict "clean": whether
    some x - e is a unit) or weakly clean verdict ("weakly-clean") reads
    inverted. Inverting the clean verdict may change the weakly clean one."""
    real = laws._scan_masks

    def flipped(ring, members):
        plus, minus = real(ring, members)
        if ring.provenance.get("kind") not in kinds:
            return plus, minus
        inverted = np.zeros_like(plus)
        if verdict == "clean":
            inverted[:, 0] = ~plus.any(axis=1)
            return inverted, minus
        inverted[:, 0] = ~(plus | minus).any(axis=1)
        return inverted, np.zeros_like(minus)

    monkeypatch.setattr(laws, "_scan_masks", flipped)


def _alter(monkeypatch, name: str, attr: str, value) -> None:
    """Give each ring ``laws.<name>`` builds the attribute ``value(ring)``."""
    real = getattr(laws, name)

    def built(*args):
        ring = real(*args)
        monkeypatch.setattr(ring, attr, value(ring))
        return ring

    monkeypatch.setattr(laws, name, built)


def _ring_reports(text: str, *law_ids: str):
    spec = parse(text)
    return [r for r in run_ring(build(spec), label=pretty(spec)) if r.law_id in law_ids]


_FAULTS = {
    "determinant-cofactor, every cofactor zero": (
        lambda mp: mp.setattr(laws, "cofactor", lambda base, grid, i, j: 0),
        laws.law_determinant_cofactor,
    ),
    "matrix-ideal, block verdict inverted": (
        lambda mp: _flip(mp, "ideal_is_weakly_clean", "matrix"),
        laws.law_matrix_ideal,
    ),
    "matrix-ideal, diagonal matrices not weakly clean": (
        lambda mp: _flip(mp, "is_weakly_clean_element", "matrix"),
        laws.law_matrix_ideal,
    ),
    "product-ideal, product verdict inverted": (
        lambda mp: _flip(mp, "ideal_is_weakly_clean", "product"),
        lambda: [r for r in laws.law_product_ideal() if not r.inputs.startswith("Z_(")],
    ),
    "morita-ideal, block verdict inverted": (
        lambda mp: _flip(mp, "ideal_is_weakly_clean", "morita", "tri2"),
        laws.law_morita_ideal,
    ),
    "morita-ideal, diagonal verdicts inverted": (
        lambda mp: _flip(mp, "ideal_is_weakly_clean", "zn"),
        laws.law_morita_ideal,
    ),
    "tri3-ideal, block verdict inverted": (
        lambda mp: _flip(mp, "ideal_is_weakly_clean", "tri3"),
        laws.law_tri3_ideal,
    ),
    "tri3-ideal, diagonal verdicts inverted": (
        lambda mp: _flip(mp, "ideal_is_weakly_clean", "zn"),
        laws.law_tri3_ideal,
    ),
    "tri3-converse, block verdict inverted": (
        lambda mp: _flip(mp, "ideal_is_weakly_clean", "tri3"),
        laws.law_tri3_converse,
    ),
    "tri3-converse, corner verdicts inverted": (
        lambda mp: _flip(mp, "ideal_is_weakly_clean", "zn"),
        laws.law_tri3_converse,
    ),
    "series-ideal, series verdict inverted": (
        lambda mp: _flip(mp, "ideal_is_weakly_clean", "series"),
        laws.law_series_ideal,
    ),
    "series-ideal, a nonconstant idempotent": (
        lambda mp: _alter(
            mp, "truncated_power_series", "idempotents", lambda r: (*r.idempotents, 1)
        ),
        laws.law_series_ideal,
    ),
    "series-ideal, element weak cleanness inverted": (
        lambda mp: _flip_scan(mp, "weakly-clean", "series"),
        laws.law_series_ideal,
    ),
    "series-ideal, element cleanness inverted": (
        lambda mp: _flip_scan(mp, "clean", "series"),
        laws.law_series_ideal,
    ),
    "idealization-ideal, every pair a unit": (
        lambda mp: _alter(mp, "idealization", "is_unit", lambda r: lambda i: True),
        laws.law_idealization_ideal,
    ),
    "idealization-ideal, no pair idempotent": (
        lambda mp: _alter(mp, "idealization", "is_idempotent", lambda r: lambda i: False),
        laws.law_idealization_ideal,
    ),
    "idealization-ideal, extension verdict inverted": (
        lambda mp: _flip(mp, "ideal_is_weakly_clean", "idealization"),
        laws.law_idealization_ideal,
    ),
    "implications, weak cleanness inverted": (
        lambda mp: _flip(mp, "ideal_is_weakly_clean", "zn"),
        lambda: _ring_reports("(zn 6)", "weakly-clean-implies-weakly-exchange", "reduced-rings"),
    ),
    "implications, weak exchange inverted": (
        lambda mp: _flip(mp, "ideal_is_weakly_exchange", "zn"),
        lambda: _ring_reports("(zn 6)", "weakly-clean-implies-weakly-exchange", "reduced-rings"),
    ),
    "proper-ideals, weak cleanness inverted on the largest proper ideal": (
        lambda mp: _flip_larger_than(mp, "ideal_is_weakly_clean", 4),
        lambda: _ring_reports("(zn 12)", "proper-ideals"),
    ),
    "radical-quotient, quotient verdict inverted": (
        lambda mp: _flip(mp, "ideal_is_weakly_clean", "quotient"),
        lambda: _ring_reports("(zn 12)", "radical-quotient"),
    ),
    "radical-quotient, lifts to zero": (
        lambda mp: mp.setattr(laws, "lift_idempotent", lambda ring, proj, quot, e: ring.zero),
        lambda: _ring_reports("(zn 12)", "radical-quotient"),
    ),
}

# (inputs, verdict, witness, scanned) of each report; run_ring sorts by law id
_FAULT_PINS = {
    "determinant-cofactor, every cofactor zero": [
        (
            "Z_6, k=2, exhaustive",
            "fail",
            {"modulus": 6, "entries": [0, 0, 0, 1], "row": 0, "col": 0, "bump": 1, "got": 1, "expected": 0},
            26,
        ),
        (
            "Z_5, k=3, 200 seeded samples",
            "fail",
            {
                "modulus": 5,
                "entries": [2, 2, 2, 0, 4, 0, 3, 0, 2],
                "row": 1,
                "col": 2,
                "bump": 4,
                "got": 1,
                "expected": 2,
            },
            1,
        ),
        (
            "Z_6, k=3, 200 seeded samples",
            "fail",
            {
                "modulus": 6,
                "entries": [5, 3, 4, 5, 4, 2, 2, 3, 4],
                "row": 0,
                "col": 1,
                "bump": 4,
                "got": 2,
                "expected": 0,
            },
            3,
        ),
    ],
    "idealization-ideal, every pair a unit": [
        ("Z_4 with module Z_4 | <2>, N={0,2}", "fail", {"index": 0, "check": "unit"}, 1),
        ("Z_6 with module Z_6 | <3>, N={0,3}", "fail", {"index": 0, "check": "unit"}, 1),
        ("Z_4 with module Z_2 | <2>, N=all", "fail", {"index": 0, "check": "unit"}, 1),
    ],
    "idealization-ideal, extension verdict inverted": [
        ("Z_4 with module Z_4 | <2>, N={0,2}", "fail", {"base": True, "extension": False}, 22),
        ("Z_6 with module Z_6 | <3>, N={0,3}", "fail", {"base": True, "extension": False}, 42),
        ("Z_4 with module Z_2 | <2>, N=all", "fail", {"base": True, "extension": False}, 14),
    ],
    "idealization-ideal, no pair idempotent": [
        ("Z_4 with module Z_4 | <2>, N={0,2}", "fail", {"index": 0, "check": "idempotent"}, 1),
        ("Z_6 with module Z_6 | <3>, N={0,3}", "fail", {"index": 0, "check": "idempotent"}, 1),
        ("Z_4 with module Z_2 | <2>, N=all", "fail", {"index": 0, "check": "idempotent"}, 1),
    ],
    "implications, weak cleanness inverted": [
        ("(zn 6)", "fail", {"ideal": "<0>", "element": 0}, 2),
        ("(zn 6)", "pass", None, 12),
    ],
    "implications, weak exchange inverted": [
        ("(zn 6)", "pass", None, 12),
        ("(zn 6)", "fail", {"ideal": "<0>", "element": 0}, 2),
    ],
    "matrix-ideal, block verdict inverted": [
        ("Z_4 | <2>, k=2", "fail", {"ideal_clean": True, "matrix_ideal_weakly_clean": False}, 18),
        ("Z_2 | R, k=2", "fail", {"ideal_clean": True, "matrix_ideal_weakly_clean": False}, 18),
        ("Z_3 | <0>, k=2", "fail", {"ideal_clean": True, "matrix_ideal_weakly_clean": False}, 2),
        ("Z_6 | <3>, k=1", "fail", {"ideal_clean": True, "matrix_ideal_weakly_clean": False}, 4),
        ("Z_2 | R, k=3", "fail", {"ideal_clean": True, "matrix_ideal_weakly_clean": False}, 514),
    ],
    "matrix-ideal, diagonal matrices not weakly clean": [
        ("Z_4 | <2>, k=2", "fail", {"element": 0, "matrix_index": 0}, 19),
        ("Z_2 | R, k=2", "fail", {"element": 0, "matrix_index": 0}, 19),
        ("Z_3 | <0>, k=2", "fail", {"element": 0, "matrix_index": 0}, 3),
        ("Z_6 | <3>, k=1", "pass", None, 4),
        ("Z_2 | R, k=3", "fail", {"element": 0, "matrix_index": 0}, 515),
    ],
    "morita-ideal, block verdict inverted": [
        ("morita-z2 | R x R", "fail", {"ideal": "R", "element": 15}, 24),
        ("[[Z_4,Z_2],[Z_2,Z_6]] | <2>, <3>", "fail", {"ideal": "{0,3,6,9,12,15,18,21,...}", "element": 69}, 24),
        ("[[Z_2,0],[0,Z_3]] | R, <0>", "fail", {"ideal": "{0,3}", "element": 3}, 8),
        ("tri2-z2 | R x R", "fail", {"ideal": "R", "element": 7}, 16),
        ("T2(Z_4;Z_2;Z_6) | <2>, <3>", "fail", {"ideal": "{0,3,6,9,24,27,30,33}", "element": 33}, 16),
    ],
    "morita-ideal, diagonal verdicts inverted": [
        ("morita-z2 | R x R", "skipped", None, 8),
        ("[[Z_4,Z_2],[Z_2,Z_6]] | <2>, <3>", "skipped", None, 8),
        ("[[Z_2,0],[0,Z_3]] | R, <0>", "skipped", None, 6),
        ("tri2-z2 | R x R", "skipped", None, 8),
        ("T2(Z_4;Z_2;Z_6) | <2>, <3>", "skipped", None, 8),
    ],
    "product-ideal, product verdict inverted": [
        ("Z_4 x Z_6 | <2> x <3>", "fail", {"product_weakly_clean": False, "component_rule": True}, 12),
        ("Z_2 x Z_2 | R x <0>", "fail", {"product_weakly_clean": False, "component_rule": True}, 8),
        ("Z_6 | <2> (singleton)", "fail", {"product_weakly_clean": False, "component_rule": True}, 9),
    ],
    "proper-ideals, weak cleanness inverted on the largest proper ideal": [
        ("(zn 12)", "fail", {"ideal": "<2>", "element": None}, 44),
    ],
    "radical-quotient, lifts to zero": [
        ("(zn 12)", "fail", {"ideal": "<6>", "element": 0, "lifted_idempotent": 0, "sign": 1}, 4),
    ],
    "radical-quotient, quotient verdict inverted": [
        ("(zn 12)", "fail", {"ideal": "<6>", "upstairs": True, "downstairs": False}, 3),
    ],
    "series-ideal, a nonconstant idempotent": [
        ("Z_2 | R, k=3", "fail", {"unexpected_idempotents": [1]}, 13),
        ("Z_4 | <2>, k=2", "fail", {"unexpected_idempotents": [1]}, 9),
        ("Z_4 | R, k=3", "fail", {"unexpected_idempotents": [1]}, 71),
        ("Z_2 | R, k=1", "pass", None, 9),
    ],
    "series-ideal, element cleanness inverted": [
        ("Z_2 | R, k=3", "fail", {"series_index": 0, "constant_term": 0, "check": "clean"}, 13),
        ("Z_4 | <2>, k=2", "fail", {"series_index": 0, "constant_term": 0, "check": "clean"}, 9),
        ("Z_4 | R, k=3", "fail", {"series_index": 0, "constant_term": 0, "check": "clean"}, 71),
        ("Z_2 | R, k=1", "fail", {"series_index": 0, "constant_term": 0, "check": "clean"}, 7),
    ],
    "series-ideal, element weak cleanness inverted": [
        ("Z_2 | R, k=3", "fail", {"series_index": 0, "constant_term": 0, "check": "weakly-clean"}, 13),
        ("Z_4 | <2>, k=2", "fail", {"series_index": 0, "constant_term": 0, "check": "weakly-clean"}, 9),
        ("Z_4 | R, k=3", "fail", {"series_index": 0, "constant_term": 0, "check": "weakly-clean"}, 71),
        ("Z_2 | R, k=1", "fail", {"series_index": 0, "constant_term": 0, "check": "weakly-clean"}, 7),
    ],
    "series-ideal, series verdict inverted": [
        ("Z_2 | R, k=3", "fail", {"base": True, "series": False}, 10),
        ("Z_4 | <2>, k=2", "fail", {"base": True, "series": False}, 6),
        ("Z_4 | R, k=3", "fail", {"base": True, "series": False}, 68),
        ("Z_2 | R, k=1", "fail", {"base": True, "series": False}, 4),
    ],
    "tri3-converse, block verdict inverted": [
        ("tri3-z2 | R, R, R", "skipped", None, 64),
        ("tri3-z2 | <0>, R, <0>", "skipped", None, 16),
        ("tri3-z2 (multiplicative pairing) | R, <0>, R", "skipped", None, 32),
    ],
    "tri3-converse, corner verdicts inverted": [
        ("tri3-z2 | R, R, R", "fail", {"corner": 0, "ideal": "R", "element": 1}, 66),
        ("tri3-z2 | <0>, R, <0>", "fail", {"corner": 0, "ideal": "<0>", "element": 0}, 17),
        ("tri3-z2 (multiplicative pairing) | R, <0>, R", "fail", {"corner": 0, "ideal": "R", "element": 1}, 34),
    ],
    "tri3-ideal, block verdict inverted": [
        ("tri3-z2 | R, R, R", "fail", {"ideal": "R", "element": 63}, 76),
        ("tri3-z2 | <0>, R, <0>", "fail", {"ideal": "{0,2,4,6,8,10,12,14,...}", "element": 30}, 24),
        ("tri3-z2 (multiplicative pairing) | R, <0>, R", "fail", {"ideal": "{0,1,2,3,4,5,6,7,...}", "element": 55}, 42),
    ],
    "tri3-ideal, diagonal verdicts inverted": [
        ("tri3-z2 | R, R, R", "skipped", None, 12),
        ("tri3-z2 | <0>, R, <0>", "skipped", None, 8),
        ("tri3-z2 (multiplicative pairing) | R, <0>, R", "skipped", None, 10),
    ],
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_injected_faults_reach_the_failure_branches(monkeypatch, fault):
    inject, run = _FAULTS[fault]
    inject(monkeypatch)
    got = [(r.inputs, r.verdict, r.witness, r.scanned) for r in run()]
    assert got == _FAULT_PINS[fault]


def _flip_larger_than(monkeypatch, name: str, size: int) -> None:
    """Invert the ``ok`` of ``laws.<name>`` on ideals of more than ``size`` members."""
    real = getattr(laws, name)

    def flipped(ring, ideal, *rest, **kwargs):
        v = real(ring, ideal, *rest, **kwargs)
        return dataclasses.replace(v, ok=not v.ok) if len(ideal.members) > size else v

    monkeypatch.setattr(laws, name, flipped)


# The two ring laws that keep their own counters: a failing report's reason
# must describe its witness, not the counts taken up to the failure.
_REASON_FAULTS = {
    "uniqueness-forces-central, uniqueness forced on a simple ring": (
        lambda mp: _flip(mp, "ideal_is_uniquely_weakly_clean", "matrix"),
        "(matrix 2 (zn 2))",
        "uniqueness-forces-central",
        (
            "fail",
            "R holds a noncentral idempotent and is uniquely weakly clean",
            {"ideal": "R", "noncentral_idempotents": [1, 3, 5, 8, 10, 12]},
            17,
        ),
    ),
    "central-equivalence, weak exchange inverted past the skipped ideals": (
        lambda mp: _flip_larger_than(mp, "ideal_is_weakly_exchange", 4),
        "(product (tri2 (zn 2) (zn 2) regular) (zn 3))",
        "central-equivalence",
        (
            "fail",
            "<7> holds only central idempotents, and its weakly clean and weakly"
            " exchange verdicts differ",
            {"ideal": "<7>", "weakly_clean": True, "weakly_exchange": False},
            24,
        ),
    ),
}


@pytest.mark.parametrize("fault", sorted(_REASON_FAULTS))
def test_a_failing_ring_law_gives_the_reason_of_its_witness(monkeypatch, fault):
    inject, spec, law_id, pin = _REASON_FAULTS[fault]
    inject(monkeypatch)
    (report,) = _ring_reports(spec, law_id)
    assert (report.verdict, report.reason, report.witness, report.scanned) == pin
