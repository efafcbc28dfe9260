"""Release gate: the nine required behaviors, one visible verdict line each.

Each test prints ``criterion N: PASS/FAIL — <summary>`` directly to the
terminal (bypassing capture) so a plain pytest run shows the scorecard.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from cleanrings.analysis import ideal_is_clean, lift_idempotent
from cleanrings.catalog import IDEAL_LAW_MAX_ORDER, build_catalog
from cleanrings.constructions import quotient
from cleanrings.ideals import ideal_from_members, ideal_inventory
from cleanrings.laws import LAW_IDS, run_law
from cleanrings.localized import (
    LocalizedIntegers,
    clean_flags,
    product_weakly_clean,
    reproduce_examples,
)

CATALOG = build_catalog()


def _report(capfd, number: int, summary: str, check) -> None:
    try:
        detail = check()
    except BaseException:
        with capfd.disabled():
            print(f"criterion {number}: FAIL — {summary}", flush=True)
        raise
    line = f"criterion {number}: PASS — {summary}"
    if detail:
        line += f" ({detail})"
    with capfd.disabled():
        print(line, flush=True)


def _cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "cleanrings.cli", *argv],
        capture_output=True,
        timeout=300,
    )


# ---------------------------------------------------------------------------


def test_criterion_1_catalog_law_suite_clean_and_fast(capfd):
    def check():
        assert len(LAW_IDS) >= 15
        assert len(CATALOG) >= 25
        assert IDEAL_LAW_MAX_ORDER == 64
        start = time.perf_counter()
        proc = _cli("laws", "--catalog")
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stdout.decode()[-500:]
        tail = proc.stdout.decode().strip().splitlines()[-1]
        assert " 0 fail," in tail
        assert elapsed < 60.0
        return f"{len(LAW_IDS)} laws over {len(CATALOG)} rings, 0 failures, {elapsed:.1f}s"

    _report(capfd, 1, "law suite over the built-in catalog", check)


def test_criterion_2_two_prime_localization_full_ideal(capfd):
    def check():
        report = reproduce_examples(bound=64)
        study = report["full_ring_weakly_clean_not_clean"]
        assert study["ring"] == "Z_(3,5)"
        assert study["generator"] == "2/11"
        assert study["generator_is_unit"] is True
        assert study["ideal"] == "R" and study["ideal_is_full_ring"] is True
        assert study["weakly_clean"] is True
        assert study["clean"] is False
        witness = Fraction(study["non_clean_witness"])
        assert abs(witness.numerator) <= 64 and witness.denominator <= 64
        ring = LocalizedIntegers((3, 5))
        flags = clean_flags(ring, witness)
        assert not flags.is_clean and flags.is_weakly_clean
        checks = study["witness_checks"]
        assert checks["x_is_unit"] is False
        assert checks["x_minus_one_is_unit"] is False
        assert checks["x_plus_one_is_unit"] is True
        return f"<2/11> = R, weakly clean yes / clean no, witness {witness}"

    _report(capfd, 2, "full ideal weakly clean but not clean over primes {3,5}", check)


def test_criterion_3_product_ideal_opposite_sign_classes(capfd):
    def check():
        report = reproduce_examples(bound=64)
        product = report["product_not_weakly_clean"]["product"]
        assert product["ok"] is False
        classes = product["witness_sign_classes"]
        assert sorted(classes) == ["minus-only", "plus-only"]
        ring = LocalizedIntegers((3, 5))
        tuple_members = [Fraction(w) for w in product["witness"]]
        flags = [clean_flags(ring, w) for w in tuple_members]
        exclusive = {
            "plus-only" if f.plus_only else "minus-only" if f.minus_only else "mixed"
            for f in flags
        }
        assert exclusive == {"plus-only", "minus-only"}
        fresh = product_weakly_clean(
            [(ring, ring.full_ideal()), (ring, ring.full_ideal())], bound=64
        )
        assert fresh.ok is False and fresh.witness is not None
        witness_text = ", ".join(str(w) for w in tuple_members)
        return f"witness ({witness_text}) with classes {sorted(classes)}"

    _report(capfd, 3, "product ideal refuted by opposite exclusive sign classes", check)


def test_criterion_4_analytic_verdicts_match_bounded_search(capfd):
    def check():
        reports = run_law("localized-agreement")
        assert len(reports) == 1
        rep = reports[0]
        assert rep.verdict == "pass"
        assert rep.witness is None
        assert rep.scanned == 1200  # 400 ideals x three properties
        assert "primes up to 11" in rep.inputs
        assert "exponents up to 2" in rep.inputs
        return "400 ideals, 1200 verdict pairs, zero disagreements"

    _report(capfd, 4, "analytic ideal criterion agrees with the search oracle", check)


def test_criterion_5_radical_cross_checks(capfd):
    def check():
        for entry in CATALOG:
            ring = entry.ring
            members = set(ring.jacobson_radical)
            one, mt = ring.one, np.asarray(ring.mul_table)
            unit = np.asarray(list(ring.units_mask), dtype=bool)
            neg, at = np.asarray(list(ring.neg_table)), np.asarray(ring.add_table)
            for a in range(ring.order):
                ra = mt[:, a]
                left_ok = bool(unit[at[one, neg[ra]]].all())
                two_ok = bool(unit[at[one, neg[mt[ra]]]].all())
                assert left_ok == two_ok == (a in members), (entry.key, a)
            assert bool(unit[at[one, sorted(members)]].all()), entry.key
            for j in members:
                assert not (ring.mul(j, j) == j and j != 0), (entry.key, j)
            quot, _ = quotient(ring, ideal_from_members(ring, sorted(members)))
            assert quot.jacobson_radical == (0,), entry.key
        return f"{len(CATALOG)} rings, 4 independent checks plus trivial quotient radical"

    _report(capfd, 5, "radical agrees with the quasi-regularity definitions", check)


def test_criterion_6_idempotents_lift_from_the_quotient(capfd):
    def check():
        lifted = 0
        for entry in CATALOG:
            ring = entry.ring
            members = sorted(set(ring.jacobson_radical))
            radical = set(members)
            quot, proj = quotient(ring, ideal_from_members(ring, members))
            preimage = {int(proj[i]): i for i in range(ring.order - 1, -1, -1)}
            for ebar in quot.idempotents:
                e = lift_idempotent(ring, proj, quot, ebar)
                assert ring.mul(e, e) == e, (entry.key, ebar)
                assert ring.sub(e, preimage[ebar]) in radical, (entry.key, ebar)
                assert int(proj[e]) == ebar, (entry.key, ebar)
                lifted += 1
        return f"{lifted} idempotent cosets lifted across {len(CATALOG)} rings"

    _report(capfd, 6, "every idempotent coset of R/J lifts to a verified idempotent", check)


def test_criterion_7_determinant_cofactor_identity(capfd):
    def check():
        reports = run_law("determinant-cofactor")
        assert all(r.verdict == "pass" for r in reports)
        by_inputs = {r.inputs: r.scanned for r in reports}
        exhaustive = [n for n in by_inputs.values() if n == 31104]
        assert len(exhaustive) == 1
        sampled = [n for n in by_inputs.values() if n == 200]
        assert len(sampled) == 2  # k = 3 over two different moduli
        return "31104 exhaustive evaluations plus 2 x 200 samples"

    _report(capfd, 7, "determinant expansion identity holds in every evaluation", check)


def test_criterion_8_law_json_output_is_byte_identical(capfd):
    def check():
        first = _cli("laws", "--catalog", "--json")
        second = _cli("laws", "--catalog", "--json")
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.endswith(b"\n")
        lines = first.stdout.decode("utf-8").strip().split("\n")
        assert all(json.loads(line) for line in lines)
        return f"two runs, {len(lines)} JSON lines, identical bytes"

    _report(capfd, 8, "repeated law runs emit byte-identical JSON", check)


def test_criterion_9_every_catalog_ideal_is_clean_by_search(capfd):
    def check():
        ideals_checked = 0
        elements_checked = 0
        for entry in CATALOG:
            ring = entry.ring
            ideals, _complete = ideal_inventory(ring, cap=IDEAL_LAW_MAX_ORDER)
            for ideal in ideals:
                verdict = ideal_is_clean(ring, ideal)
                assert verdict.ok, (entry.key, ideal.describe(), verdict.detail)
                ideals_checked += 1
                elements_checked += verdict.checked
        assert ideals_checked > 100
        return f"{ideals_checked} ideals, {elements_checked} elements decomposed"

    _report(capfd, 9, "exhaustive decomposition search confirms every ideal clean", check)
