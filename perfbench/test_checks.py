"""Tests that the benchmark's own checks accept right outputs and reject
wrong ones. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import unittest
from fractions import Fraction

import checks


def finite_payload(witnesses):
    return json.dumps(
        {
            "ok": True,
            "verdict": {"checked": len(witnesses), "ok": True},
            "witnesses": witnesses,
        }
    )


def localized_text(verdict, witness=None, check="clean", ideal="R"):
    lines = ["ring Z_(3,5) from (localized 3 5)", f"ideal {ideal}: {check} {verdict} [analytic]"]
    if witness is not None:
        lines.append(f"  witness {witness}: no admissible decomposition")
    return "\n".join(lines) + "\n"


class FiniteRingModels(unittest.TestCase):
    def test_inverses_multiply_to_one(self):
        for ring in (checks.Matrix2(4), checks.Series(4, 4), checks.ZMod(256), checks.Product((4, 4, 16))):
            for u in range(ring.order):
                v = ring.inverse(u)
                if v is not None:
                    self.assertEqual(ring.mul(u, v), ring.one)
                    self.assertEqual(ring.mul(v, u), ring.one)

    def test_unit_counts(self):
        # |GL_2(Z_4)| = 96; Z_4[x]/(x^4) units have an odd constant term.
        counts = {
            "M2": sum(checks.Matrix2(4).inverse(u) is not None for u in range(256)),
            "series": sum(checks.Series(4, 4).inverse(u) is not None for u in range(256)),
            "Z256": sum(checks.ZMod(256).inverse(u) is not None for u in range(256)),
        }
        self.assertEqual(counts, {"M2": 96, "series": 128, "Z256": 128})

    def test_ideal_sizes(self):
        m2 = checks.Matrix2(4)
        self.assertEqual(len(checks.ideal_of(m2, [m2.encode((1, 0, 0, 0))])), 256)
        self.assertEqual(len(checks.ideal_of(m2, [m2.encode((2, 0, 0, 0))])), 16)
        self.assertEqual(len(checks.ideal_of(checks.ZMod(256), [6])), 128)
        series = checks.Series(4, 4)
        self.assertEqual(len(checks.ideal_of(series, [series.encode((0, 1, 0, 0))])), 64)
        product = checks.Product((4, 4, 16))
        self.assertEqual(len(checks.ideal_of(product, [product.encode((1, 2, 4))])), 32)


class FiniteIdealCheck(unittest.TestCase):
    ring = checks.ZMod(6)
    members = {0, 3}
    good = [
        {"element": 0, "idempotent": 1, "sign": 1, "unit": 5},
        {"element": 3, "idempotent": 4, "sign": 1, "unit": 5},
    ]

    def run_check(self, witnesses, rc=0, err=""):
        return checks.check_finite_ideal(self.ring, self.members, rc, finite_payload(witnesses), err)

    def test_accepts_audited_witnesses(self):
        self.assertEqual(self.run_check(self.good), [])

    def test_rejects_a_corrupted_unit(self):
        # 3 = 2 + 1 holds, but 2 is not a unit of Z_6.
        bad = [self.good[0], {"element": 3, "idempotent": 1, "sign": 1, "unit": 2}]
        self.assertIn("2 is not invertible", self.run_check(bad))

    def test_rejects_a_wrong_sum_and_a_non_idempotent(self):
        bad = [self.good[0], {"element": 3, "idempotent": 2, "sign": 1, "unit": 5}]
        problems = self.run_check(bad)
        self.assertIn("3 != 5 + 2", problems)
        self.assertIn("2 is not idempotent", problems)

    def test_rejects_a_witness_outside_the_ideal(self):
        bad = [self.good[0], {"element": 1, "idempotent": 0, "sign": 1, "unit": 1}]
        self.assertTrue(self.run_check(bad))

    def test_rejects_a_wrong_exit_code_and_a_traceback(self):
        self.assertTrue(self.run_check(self.good, rc=1))
        self.assertTrue(self.run_check(self.good, err="Traceback (most recent call last):\nValueError"))

    def test_rejects_a_no_on_a_finite_ring(self):
        out = json.dumps({"ok": False, "verdict": {"ok": False}, "witnesses": None})
        self.assertTrue(checks.check_finite_ideal(self.ring, self.members, 1, out, ""))


class LocalizationDecider(unittest.TestCase):
    def test_paper_example(self):
        # 2/11 is a unit of Z_(3,5), so <2/11> = R: weakly clean, not clean.
        self.assertTrue(checks.element_flags(15, Fraction(2, 11))[0])
        self.assertTrue(checks.decide_ideal(15, 1, "weakly-clean"))
        self.assertFalse(checks.decide_ideal(15, 1, "clean"))

    def test_known_cases(self):
        self.assertTrue(checks.decide_ideal(15, 15, "clean"))  # every prime divides d
        self.assertFalse(checks.decide_ideal(6, 3, "weakly-clean"))  # README: <3> in Z_(2,3)
        self.assertFalse(checks.decide_ideal(30, 1, "weakly-clean"))  # three primes, I = R
        self.assertTrue(checks.decide_ideal(2, 1, "uniquely"))  # P = {2}
        self.assertFalse(checks.decide_ideal(3, 1, "uniquely"))  # 1 = 1 + 0 = 2 - 1

    def test_envelope_size(self):
        self.assertEqual(checks.envelope_size(), 400)


class LocalizedIdealCheck(unittest.TestCase):
    def run_check(self, out, rc=1, err="", check="clean", primes=(3, 5), exponents=(0, 0), as_json=False):
        return checks.check_localized_ideal(primes, exponents, check, as_json, rc, out, err)

    def test_accepts_a_true_no_with_witness(self):
        self.assertEqual(self.run_check(localized_text("no", "-5")), [])

    def test_rejects_a_changed_verdict(self):
        self.assertTrue(self.run_check(localized_text("yes"), rc=0))

    def test_rejects_a_wrong_exit_code(self):
        self.assertTrue(self.run_check(localized_text("no", "-5"), rc=0))

    def test_rejects_a_witness_with_the_property(self):
        # 2 - 1 = 1 is a unit, so 2 is clean.
        self.assertTrue(self.run_check(localized_text("no", "2")))

    def test_rejects_a_witness_outside_the_ideal(self):
        # -5 fails cleanness but is not a multiple of 9 in <9>.
        problems = self.run_check(localized_text("no", "-5", ideal="<9>"), exponents=(2, 0))
        self.assertIn("witness -5 is not a member of <9>", problems)

    def test_rejects_a_missing_witness_and_a_traceback(self):
        self.assertTrue(self.run_check(localized_text("no")))
        self.assertTrue(self.run_check("", err="Traceback (most recent call last):\nOverflowError"))

    def test_rejects_the_wrapped_int64_witness(self):
        out = json.dumps({"ok": False, "verdict": {"witness": "10806813741383936712"}})
        problems = self.run_check(out, check="weakly-clean", primes=(3, 5, 7), exponents=(38, 0, 0), as_json=True)
        self.assertIn("witness 10806813741383936712 has the weakly-clean property", problems)


class CatalogChecks(unittest.TestCase):
    records = [
        {"law": law, "verdict": "pass", "instance_strength": "degenerate", "scanned": 1, "inputs": "x"}
        for law in sorted(checks.LAW_IDS)
    ]

    def json_out(self, records):
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)

    def test_rejects_missing_laws_and_failures(self):
        out = self.json_out(self.records[1:])
        self.assertTrue(checks.check_law_json(0, out, "", checks.LAW_IDS))
        failing = [dict(self.records[0], verdict="fail")] + self.records[1:]
        self.assertTrue(checks.check_law_json(0, self.json_out(failing), "", checks.LAW_IDS))
        self.assertEqual(checks.check_law_json(0, self.json_out(self.records), "", checks.LAW_IDS), [])

    def test_rejects_an_uncovered_envelope_and_changed_bytes(self):
        out = self.json_out(self.records)
        problems = checks.check_catalog_json(0, out, "", reference=out + " ")
        self.assertIn("two --json runs are not byte-identical", problems)
        self.assertIn("localized-agreement does not cover 400 ideals", problems)

    def test_text_tally_must_match_the_json(self):
        out = self.json_out(self.records)
        rows = "".join(f"pass    {r['law']}\n" for r in self.records)
        tally = "18 laws, 18 instances: 18 pass, 0 fail, 0 skipped (0 discriminating, 18 elements scanned)\n"
        self.assertEqual(checks.check_catalog_text(0, rows + tally, "", out), [])
        wrong = tally.replace("18 pass", "17 pass")
        self.assertTrue(checks.check_catalog_text(0, rows + wrong, "", out))


if __name__ == "__main__":
    unittest.main()
