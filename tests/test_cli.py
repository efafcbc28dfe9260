"""Command-line surface: output formats, schema conformance, exit codes."""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from cleanrings import cli
from cleanrings.cli import main
from cleanrings.dsl import build, parse
from cleanrings.laws import RING_LAW_IDS, reports_to_json, run_catalog
from cleanrings.schemas import COMMAND_SCHEMAS, LAW_REPORT, schema_for


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out.endswith("\n")
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_weakly_clean_element_exits_zero(capsys):
    code, out, _ = run(capsys, "analyze", "(zn 6)", "--element", "4")
    assert code == 0
    assert "clean yes, weakly clean yes" in out
    assert out.endswith("\n")


def test_analyze_json_validates_and_replays(capsys):
    code, payload, _ = run_json(capsys, "analyze", "(zn 6)", "--element", "4", "--json")
    assert code == 0
    jsonschema.validate(payload, schema_for("analyze"))
    ring = build(parse(payload["spec"]))
    for d in payload["verdict"]["decompositions"]:
        rebuilt = ring.add(
            d["unit"], d["idempotent"] if d["sign"] == 1 else ring.neg(d["idempotent"])
        )
        assert rebuilt == payload["verdict"]["element"]
        assert ring.is_unit(d["unit"])
        assert ring.mul(d["idempotent"], d["idempotent"]) == d["idempotent"]


def test_analyze_localized_not_weakly_clean_exits_one(capsys):
    code, payload, _ = run_json(
        capsys, "analyze", "(localized 2 3)", "--element", "3", "--json"
    )
    assert code == 1
    jsonschema.validate(payload, schema_for("analyze"))
    assert payload["ok"] is False
    assert payload["verdict"] == {
        "element": "3",
        "clean": False,
        "weakly_clean": False,
        "plus": False,
        "minus": False,
    }


def test_analyze_localized_weakly_clean_only_by_minus(capsys):
    code, out, _ = run(capsys, "analyze", "(localized 3 5)", "--element", "3/8")
    assert code == 0
    assert "clean no, weakly clean yes" in out
    assert "11/8 is a unit" in out


def test_global_json_flag_position_is_free(capsys):
    argv = ["analyze", "(zn 5)", "--element", "2"]
    _, before, _ = run_json(capsys, "--json", *argv)
    _, after, _ = run_json(capsys, *argv, "--json")
    _, both, _ = run_json(capsys, "--json", *argv, "--json")
    assert before == after == both
    code, neither, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert neither.startswith("ring Z_5 from (zn 5)\n")


# ---------------------------------------------------------------------------
# ideal


def test_ideal_pass_emits_one_witness_per_element(capsys):
    code, payload, _ = run_json(
        capsys, "ideal", "(zn 6)", "--gens", "3", "--check", "weakly-clean", "--json"
    )
    assert code == 0
    jsonschema.validate(payload, schema_for("ideal"))
    assert payload["ok"] is True
    assert payload["verdict"]["checked"] == 2
    assert len(payload["witnesses"]) == 2
    ring = build(parse(payload["spec"]))
    for w in payload["witnesses"]:
        rebuilt = ring.add(
            w["unit"], w["idempotent"] if w["sign"] == 1 else ring.neg(w["idempotent"])
        )
        assert rebuilt == w["element"]


def test_ideal_clean_witnesses_are_plus_sign(capsys):
    code, payload, _ = run_json(
        capsys, "ideal", "(zn 8)", "--gens", "2", "--check", "clean", "--json"
    )
    assert code == 0
    assert all(w["sign"] == 1 for w in payload["witnesses"])


def test_ideal_uniqueness_failure_exits_one_with_failing_element(capsys):
    code, payload, _ = run_json(
        capsys, "ideal", "(zn 6)", "--check", "uniquely", "--json"
    )
    assert code == 1
    jsonschema.validate(payload, schema_for("ideal"))
    assert payload["ok"] is False
    assert payload["witnesses"] is None
    assert "failing_element" in payload["verdict"]


def test_ideal_exchange_witnesses_name_an_idempotent(capsys):
    code, payload, _ = run_json(
        capsys, "ideal", "(zn 8)", "--gens", "2", "--check", "exchange", "--json"
    )
    assert code == 0
    assert all("idempotent" in w for w in payload["witnesses"])


@pytest.mark.parametrize(
    "spec", ["(zn 12)", "(matrix 2 (zn 2))", "(series (zn 2) 3)", "(product (zn 4) (zn 6))"]
)
def test_ideal_witnesses_are_the_first_decomposition_of_each_member(spec):
    from cleanrings.analysis import decompositions

    ring = build(parse(spec))
    members = tuple(ring.elements)
    for check in ("clean", "weakly-clean", "uniquely"):
        expected = []
        for x in members:
            first = [d for d in decompositions(ring, x) if check != "clean" or d.sign == 1][0]
            expected.append({"element": x, **first.to_json_dict()})
        assert json.dumps(cli._finite_witness(ring, members, check)) == json.dumps(expected)


def test_ideal_localized_refutation_ships_a_witness(capsys):
    code, payload, _ = run_json(
        capsys,
        "ideal",
        "(localized 2 3)",
        "--gens",
        "3",
        "--check",
        "weakly-clean",
        "--json",
    )
    assert code == 1
    jsonschema.validate(payload, schema_for("ideal"))
    assert payload["ideal"] == "<3>"
    assert payload["verdict"] == {
        "value": False,
        "method": "analytic",
        "witness": "3",
    }


def test_ideal_localized_no_without_a_witness_says_so(capsys):
    code, out, _ = run(
        capsys, "ideal", "(localized 2 3)", "--check", "weakly-clean", "--bound", "1"
    )
    assert code == 1
    assert "weakly-clean no" in out
    assert "  no witness within the search bound 1 (raise --bound)\n" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["ideal", "(localized 2 3)", "--gens", "3", "--check", "weakly-clean", "--bound", "0"],
        ["ideal", "(zn 6)", "--check", "clean", "--bound", "-1"],
        ["examples", "--bound", "0"],
        ["examples", "--bound", "-5"],
    ],
)
def test_bound_must_be_a_positive_integer(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--bound: must be a positive integer" in captured.err


def test_ideal_localized_multiple_generators_take_the_valuation_min(capsys):
    code, payload, _ = run_json(
        capsys,
        "ideal",
        "(localized 2 3)",
        "--gens",
        "12",
        "18",
        "--check",
        "clean",
        "--json",
    )
    # <12> + <18> = <6>: valuations (2,1) and (1,2) meet at (1,1)
    assert payload["ideal"] == "<6>"
    assert code == 0 and payload["ok"] is True


def test_ideal_localized_zero_generators_give_the_zero_ideal(capsys):
    code, payload, _ = run_json(
        capsys, "ideal", "(localized 7)", "--gens", "0", "--check", "clean", "--json"
    )
    assert code == 0
    assert payload["ideal"] == "<0>"


def test_ideal_full_ring_default(capsys):
    code, payload, _ = run_json(
        capsys, "ideal", "(localized 3 5)", "--check", "clean", "--json"
    )
    assert code == 1
    assert payload["ideal"] == "R"
    assert payload["verdict"]["witness"] is not None


# ---------------------------------------------------------------------------
# radical / idempotents / units


def test_radical_finite_json(capsys):
    code, payload, _ = run_json(capsys, "radical", "(zn 8)", "--json")
    assert code == 0
    jsonschema.validate(payload, schema_for("radical"))
    assert payload["members"] == [0, 2, 4, 6]
    assert payload["kind"] == "finite"


def test_radical_localized_json(capsys):
    code, payload, _ = run_json(capsys, "radical", "(localized 3 5)", "--json")
    assert code == 0
    jsonschema.validate(payload, schema_for("radical"))
    assert payload == {
        "command": "radical",
        "spec": "(localized 3 5)",
        "ring": "Z_(3,5)",
        "kind": "localized",
        "members": None,
        "size": None,
        "generator": "15",
        "description": "<15>",
    }


def test_idempotents_json(capsys):
    code, payload, _ = run_json(capsys, "idempotents", "(zn 6)", "--json")
    assert code == 0
    jsonschema.validate(payload, schema_for("idempotents"))
    assert payload["idempotents"] == [0, 1, 3, 4]

    code, payload, _ = run_json(capsys, "idempotents", "(localized 7)", "--json")
    assert payload["idempotents"] == ["0", "1"]


def test_units_json_finite_and_localized(capsys):
    code, payload, _ = run_json(capsys, "units", "(zn 9)", "--json")
    assert code == 0
    jsonschema.validate(payload, schema_for("units"))
    assert payload["units"] == [1, 2, 4, 5, 7, 8]

    code, payload, _ = run_json(capsys, "units", "(localized 7)", "--json")
    jsonschema.validate(payload, schema_for("units"))
    assert payload["units"] is None
    assert "gcd(a, 7)" in payload["criterion"]


# ---------------------------------------------------------------------------
# laws


def test_laws_catalog_json_is_the_library_serialization(capsys):
    code, out, _ = run(capsys, "laws", "--catalog", "--json")
    assert code == 0
    assert out == reports_to_json(run_catalog())
    lines = out.splitlines()
    assert len(lines) == 292
    for line in lines:
        jsonschema.validate(json.loads(line), LAW_REPORT)


def test_laws_catalog_text_summary(capsys):
    code, out, _ = run(capsys, "laws", "--catalog", "--law", "units-sanity")
    assert code == 0
    assert "1 pass, 0 fail" in out


def test_laws_spec_runs_the_ring_quantified_laws(capsys):
    code, out, _ = run(capsys, "laws", "--spec", "(zn 8)")
    assert code == 0
    for law in (
        "proper-ideals",
        "central-equivalence",
        "radical-quotient",
        "uniqueness-forces-central",
        "weakly-clean-implies-weakly-exchange",
        "reduced-rings",
    ):
        assert law in out
    assert "0 fail" in out


def test_laws_spec_with_law_filter(capsys):
    code, out, _ = run(capsys, "laws", "--spec", "(zn 8)", "--law", "proper-ideals")
    assert code == 0
    assert out.count("\n") == 2  # one report line plus the summary line


def test_laws_unknown_law_is_a_usage_error(capsys):
    code, _, err = run(capsys, "laws", "--catalog", "--law", "no-such-law")
    assert code == 2
    assert "unknown law" in err


def test_laws_spec_with_a_catalog_only_law_is_a_usage_error(capsys):
    code, out, err = run(capsys, "laws", "--spec", "(zn 8)", "--law", "matrix-ideal")
    assert code == 2
    assert out == ""
    for law in RING_LAW_IDS:
        assert law in err
    assert len(RING_LAW_IDS) == 6


def test_laws_spec_rejects_localizations(capsys):
    code, _, err = run(capsys, "laws", "--spec", "(localized 3 5)")
    assert code == 2
    assert "laws --catalog" in err


# ---------------------------------------------------------------------------
# examples


def test_examples_json_matches_schema_and_frozen_findings(capsys):
    code, payload, _ = run_json(capsys, "examples", "--json")
    assert code == 0
    jsonschema.validate(payload, schema_for("examples"))
    study = payload["full_ring_weakly_clean_not_clean"]
    assert study["generator_is_unit"] is True
    assert study["ideal"] == "R"
    assert study["weakly_clean"] is True and study["clean"] is False
    assert study["witness_checks"]["x_plus_one_is_unit"] is True
    product = payload["product_not_weakly_clean"]["product"]
    assert product["ok"] is False
    assert sorted(product["witness_sign_classes"]) == ["minus-only", "plus-only"]


def test_examples_with_too_small_a_bound_is_an_error_naming_the_bound(capsys):
    code, out, err = run(capsys, "examples", "--bound", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("cleanrings: error: ") and "bound 1" in err


def test_examples_text_names_both_case_studies(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    assert "case study 1" in out and "case study 2" in out
    assert out.endswith("\n")


# ---------------------------------------------------------------------------
# error handling and exit codes


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["analyze", "(zn 6", "--element", "1"], "syntax error"),
        (["analyze", "(zn 0)", "--element", "0"], "arity error"),
        (["analyze", "(zn 999)", "--element", "1"], "size-cap error"),
        (["analyze", "(zn @)", "--element", "1"], "lexical error"),
        (["analyze", "(zn 6)", "--element", "9"], "out of range"),
        (["analyze", "(zn 6)", "--element", "2/3"], "indices"),
        (["analyze", "(localized 5)", "--element", "1/5"], "does not lie in"),
        (["analyze", "(corner (zn 6) 2)", "--element", "0"], "idempotent"),
        (["radical", "(localized 9)"], "prime"),
        (["ideal", "(zn 6)", "--gens", "7", "--check", "clean"], "out of range"),
        (["analyze", "--element", "1"], "spec is required"),
        (["units", "(matrix 2 " * 8 + "(zn 4)" + ")" * 8], "size-cap error at 1:1"),
        (["units", "(product " * 400 + "(zn 2)" + ")" * 400], "syntax error at 1:901"),
        (["units", "(product " * 3000 + "(zn 2)" + ")" * 3000], "syntax error at 1:901"),
        (["units", "(zn " + "1" * 5000 + ")"], "arity error at 1:5: zn modulus"),
        (["units", "(localized " + "7" * 5000 + ")"], "arity error at 1:12: localized prime"),
        (["units", "(corner (zn 6) 7)"], "7 out of range for order 6"),
        (["radical", "(localized 18446744073709551629)"], "must be below 2^64"),
    ],
)
def test_usage_and_construction_errors_exit_two(capsys, argv, needle):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert needle in err
    assert out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["analyze", "(zn 6)", "--element", "2/3"],
            "error: elements of the finite ring Z_6 are indices 0..5",
        ),
        (["analyze", "(zn 6)", "--element", "9"], "error: element 9 out of range for Z_6 (order 6)"),
        (
            ["ideal", "(zn 6)", "--gens", "7", "--check", "clean"],
            "error: element 7 out of range for Z_6 (order 6)",
        ),
        (
            ["analyze", "(localized 5)", "--element", "1/5"],
            "error: element '1/5' does not lie in Z_(5): 1/5 lies outside Z_(5):"
            " denominator 5 shares a factor with 5",
        ),
        (
            ["analyze", "(localized 5)", "--element", "1/0"],
            "error: element '1/0' does not lie in Z_(5): Fraction(1, 0)",
        ),
        (
            ["laws", "--spec", "(localized 3 5)"],
            "error: laws --spec needs a finite ring; the built-in catalog already"
            " carries the localization instances (use laws --catalog)",
        ),
        (
            ["radical", "(zn 6)", "--spec-file", "ring.spec"],
            "error: give either an inline spec or --spec-file, not both",
        ),
        (["radical"], "error: a ring spec is required (inline or via --spec-file)"),
        (
            ["radical", "--spec-file", "/nonexistent/x.spec"],
            "[Errno 2] No such file or directory: '/nonexistent/x.spec'",
        ),
        (
            ["analyze", "(zn 6", "--element", "1"],
            "syntax error at 1:6: unterminated form at end of input (expected ))",
        ),
    ],
)
def test_usage_and_construction_errors_print_one_exact_line(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"cleanrings: {message}\n")


def test_a_closed_output_pipe_ends_quietly_with_exit_141(tmp_path):
    """The reader takes one line and closes the pipe, as `| head -1` does;
    the rest of the output (about 90 KB) cannot fit in the pipe meanwhile.
    Run with PYTHONUNBUFFERED unset and set to 1: unbuffered, the
    interpreter's own stdout would count the part of one large write that
    the pipe took as all of it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        with open(tmp_path / "stderr", "w+b") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "cleanrings.cli", "laws", "--catalog", "--json"],
                stdout=subprocess.PIPE,
                stderr=err,
                bufsize=0,
                env={**env, **unbuffered, "PYTHONPATH": src},
            )
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=120)
            err.seek(0)
            assert (unbuffered, code, err.read()) == (unbuffered, 141, b"")
        assert json.loads(first)["law"]


def test_an_internal_error_exits_three_with_one_line(capsys, monkeypatch):
    def broken(spec):
        raise RuntimeError("no table")

    monkeypatch.setattr(cli, "build", broken)
    code, out, err = run(capsys, "units", "(zn 6)")
    assert (code, out, err) == (3, "", "cleanrings: internal error: RuntimeError: no table\n")


def test_missing_subcommand_and_bad_flags_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["ideal", "(zn 6)"])  # --check is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["laws"])  # a target is required
    assert exc.value.code == 2


def test_spec_file_reads_the_same_language(tmp_path, capsys):
    path = tmp_path / "ring.spec"
    path.write_text("(product (zn 2)\n  (zn 3))\n", encoding="utf-8")
    code, payload, _ = run_json(
        capsys, "idempotents", "--spec-file", str(path), "--json"
    )
    assert code == 0
    assert payload["count"] == 4


def test_spec_file_admits_table_modules_inline_does_not(tmp_path, capsys):
    text = (
        "(tri2 (zn 2) (zn 2) (table (add (0 1) (1 0))"
        " (left (0 0) (0 1)) (right (0 0) (0 1))))"
    )
    code, _, err = run(capsys, "radical", text)
    assert code == 2 and "spec file" in err
    path = tmp_path / "table.spec"
    path.write_text(text + "\n", encoding="utf-8")
    code, payload, _ = run_json(capsys, "radical", "--spec-file", str(path), "--json")
    assert code == 0
    assert payload["size"] >= 1


def test_spec_file_table_entry_past_64_bits_exits_two(tmp_path, capsys):
    path = tmp_path / "huge.spec"
    path.write_text(
        "(idealize (zn 2) (table (add (0 1) (1 99999999999999999999))"
        " (left (0 0) (0 1)) (right (0 0) (0 1))))\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "units", "--spec-file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("cleanrings: error: module add table is not an integer table")


def test_malformed_size_cap_environment_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("CLEANRINGS_SIZE_CAP", "abc")
    code, out, err = run(capsys, "units", "(zn 6)")
    assert (code, out) == (2, "")
    assert err == "cleanrings: error: CLEANRINGS_SIZE_CAP must be an integer, got 'abc'\n"


def test_spec_file_and_inline_spec_together_is_an_error(tmp_path, capsys):
    path = tmp_path / "ring.spec"
    path.write_text("(zn 6)\n", encoding="utf-8")
    code, _, err = run(capsys, "radical", "(zn 6)", "--spec-file", str(path))
    assert code == 2
    assert "not both" in err


def test_missing_spec_file_exits_two(capsys):
    code, _, err = run(capsys, "radical", "--spec-file", "/nonexistent/x.spec")
    assert code == 2


# ---------------------------------------------------------------------------
# text and JSON modes agree on verdicts


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "(zn 6)", "--element", "3"],
        ["analyze", "(localized 2 3)", "--element", "3"],
        ["ideal", "(zn 6)", "--gens", "3", "--check", "weakly-clean"],
        ["ideal", "(zn 6)", "--check", "uniquely"],
        ["ideal", "(localized 2 3)", "--gens", "3", "--check", "weakly-clean"],
        ["laws", "--spec", "(zn 8)"],
    ],
)
def test_text_and_json_exit_codes_agree(capsys, argv):
    text_code, text_out, _ = run(capsys, *argv)
    json_code, json_out, _ = run(capsys, *argv, "--json")
    assert text_code == json_code
    assert text_out.endswith("\n") and json_out.endswith("\n")


def test_every_command_schema_is_itself_valid():
    validator = jsonschema.validators.validator_for(LAW_REPORT)
    for schema in COMMAND_SCHEMAS.values():
        validator.check_schema(schema)


def test_command_schemas_match_the_golden_pin():
    text = json.dumps(COMMAND_SCHEMAS, sort_keys=True)
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "88b8b6a28d20b24bc0ad6caf8ca2a207a40f9d02b26a037bb2d77382730547e9"
    )


def _object_schemas(node):
    if isinstance(node, dict):
        if node.get("type") == "object":
            yield node
        for value in node.values():
            yield from _object_schemas(value)
    elif isinstance(node, list):
        for value in node:
            yield from _object_schemas(value)


def test_every_object_schema_is_strict():
    objects = list(_object_schemas(COMMAND_SCHEMAS))
    assert len(objects) == 17
    for node in objects:
        assert node["additionalProperties"] is False
        assert set(node["required"]) <= set(node["properties"])


def test_ideal_schema_names_the_cli_checks_in_order():
    assert schema_for("ideal")["properties"]["check"]["enum"] == list(cli._CHECKS)


# ---------------------------------------------------------------------------
# golden pins: the exact stdout and exit code of every spec command


SPEC_COMMANDS = {
    "analyze-finite": ["analyze", "(zn 6)", "--element", "4"],
    "analyze-finite-many": ["analyze", "(matrix 2 (zn 3))", "--element", "1"],
    "analyze-localized-minus": ["analyze", "(localized 3 5)", "--element", "3/8"],
    "analyze-localized-unit": ["analyze", "(localized 3 5)", "--element", "2/11"],
    "analyze-localized-no": ["analyze", "(localized 2 3)", "--element", "3"],
    "ideal-finite-clean": ["ideal", "(zn 12)", "--gens", "2", "--check", "clean"],
    "ideal-finite-weakly-clean": ["ideal", "(zn 12)", "--gens", "2", "--check", "weakly-clean"],
    "ideal-finite-uniquely": ["ideal", "(zn 12)", "--gens", "2", "--check", "uniquely"],
    "ideal-finite-exchange": ["ideal", "(zn 12)", "--gens", "2", "--check", "exchange"],
    "ideal-finite-uniquely-no": ["ideal", "(zn 6)", "--check", "uniquely"],
    "ideal-finite-matrix-clean": ["ideal", "(matrix 2 (zn 2))", "--check", "clean"],
    "ideal-finite-series-exchange": ["ideal", "(series (zn 4) 4)", "--gens", "4", "--check", "exchange"],
    "ideal-localized-clean": ["ideal", "(localized 2 3)", "--gens", "3", "--check", "clean"],
    "ideal-localized-weakly-clean": ["ideal", "(localized 2 3)", "--gens", "3", "--check", "weakly-clean"],
    "ideal-localized-uniquely": ["ideal", "(localized 2 3)", "--gens", "3", "--check", "uniquely"],
    "ideal-localized-exchange": ["ideal", "(localized 2 3)", "--gens", "3", "--check", "exchange"],
    "ideal-localized-full-clean": ["ideal", "(localized 3 5)", "--check", "clean"],
    "ideal-localized-two-gens": ["ideal", "(localized 2 3)", "--gens", "12", "18", "--check", "clean"],
    "ideal-localized-no-witness": ["ideal", "(localized 2 3)", "--check", "weakly-clean", "--bound", "1"],
    "ideal-localized-one-prime-clean": ["ideal", "(localized 13)", "--check", "clean"],
    "ideal-localized-four-primes-weakly-clean": ["ideal", "(localized 2 3 5 7)", "--check", "weakly-clean"],
    "ideal-localized-cube-uniquely": ["ideal", "(localized 3 5)", "--gens", "27", "--check", "uniquely"],
    "radical-finite": ["radical", "(quotient (zn 12) (ideal 4))"],
    "radical-localized": ["radical", "(localized 3 5)"],
    "idempotents-finite": ["idempotents", "(product (zn 2) (zn 3))"],
    "idempotents-localized": ["idempotents", "(localized 7)"],
    "units-finite": ["units", "(zn 9)"],
    "units-localized": ["units", "(localized 7)"],
    "laws-series": ["laws", "--spec", "(series (zn 4) 4)"],
    "laws-near-cap-product": ["laws", "--spec", "(product (zn 4) (zn 4) (zn 16))"],
}

# "<case>-<text|json>": (exit code, SHA-256 of stdout)
SPEC_COMMAND_PINS = {
    "analyze-finite-text": (0, "fa3dcee603e4252b84b8b7b6e09daf7b1deb59a9be13e321c3e8a5b03ee36ea9"),
    "analyze-finite-json": (0, "85e81635374996baf18227f7b33f80c7ba054aeda0a4b338e1581ed6c947bda9"),
    "analyze-finite-many-text": (0, "3529ff15e1d72ada0477b88e8591a1afd0333e9136ead063491c29a5b8161058"),
    "analyze-finite-many-json": (0, "f6352fcb00b000d9876cd675085d6d1af8d5d0420476fed0b0490b0e0202dfc4"),
    "analyze-localized-minus-text": (0, "40ccaba4c1449bbc4f0cc7efcb6a979b235d4cf2b1070c58cf932337b74c9f2b"),
    "analyze-localized-minus-json": (0, "7f324a6195156075bdd4d911b71adae507819f72454a0e5525f4ae7405458ec2"),
    "analyze-localized-unit-text": (0, "d95ddb4560b1941631a12119b07c6d8205f1f08d0537ccf5f2298d974af9fa19"),
    "analyze-localized-unit-json": (0, "03563a0b80929bb6dd77cb4f04f2bdfc58e34aff7848c8c982b41b83c7f10c34"),
    "analyze-localized-no-text": (1, "393faa46769983f15cba8362c8cd85b24fa99c443c619a9d4a153ddbe0908181"),
    "analyze-localized-no-json": (1, "83026a51021335945272ef289a84bddcc994ee514085ef9b627360c39d061cbc"),
    "ideal-finite-clean-text": (0, "02618cba49d29597307acf646b1cd2d2f2e7a6464c06d1726acd0344ecae9621"),
    "ideal-finite-clean-json": (0, "df3312afaf7cb98d9c45626670f60caf4369dbf4070ac33043997b3838dcd694"),
    "ideal-finite-weakly-clean-text": (0, "ce77da6691e496d084146d74f0e028779586ca34198820f3f692e7b91b1493e3"),
    "ideal-finite-weakly-clean-json": (0, "30b9b20c987e4a3c11cc593239dd8ccb3b641685aa860a7a66a73ab06593532f"),
    "ideal-finite-uniquely-text": (1, "fcb11be63ffd05934fca63bc603bd779b89c91111c6d1a6657dfb2a11d8e1d60"),
    "ideal-finite-uniquely-json": (1, "917014de137f6bb7b080938a4e40a32360d2f339072fa3421e02cc5a32905e23"),
    "ideal-finite-exchange-text": (0, "e9582213f215032a79f114362da916d057495ce7f8db80f9690962f8b0d0ea16"),
    "ideal-finite-exchange-json": (0, "6c7d5e2ef0238c3beae94bee5e04189bd213411c0cbb3c620f2602efc3a62280"),
    "ideal-finite-uniquely-no-text": (1, "188fcbe587d8e81e20afe1b9a09b51552a3dc768d12d101a212fc2a75305f85e"),
    "ideal-finite-uniquely-no-json": (1, "2555c623a7aa10bbac3f08ef4efc9b67bd491e26cd562e489fdfd0885b332509"),
    "ideal-finite-matrix-clean-text": (0, "bfaf988e69cc7eef155fd963a4445a689538d98ada5f7340f3af76c23ec34834"),
    "ideal-finite-matrix-clean-json": (0, "7efdd47536e70914fa7c63dde10a45fc8a990e264e2d3795313bf8339a0aaffc"),
    "ideal-finite-series-exchange-text": (0, "c135d3da61297ebf9b1f439f7c4bb7d454822d49cfa2e4c8af8bc7e16fa1fb10"),
    "ideal-finite-series-exchange-json": (0, "852d7a246636716ac0faa566ef7243b6730d01e7c3ef029f6e720e93138f5b98"),
    "ideal-localized-clean-text": (1, "6a7e383085e6c4d06e707f1f4ac9f6540618c1b58bf50703253fada9b833d47d"),
    "ideal-localized-clean-json": (1, "2d0ae444defc9e33a24c61d61af4890619d39070cdfad8ca52c8363cba13c8bc"),
    "ideal-localized-weakly-clean-text": (1, "8a013b447b4c1665ba6f3ead1e69ea778a4c1da2f9c58e7674bea0f52f8f3305"),
    "ideal-localized-weakly-clean-json": (1, "17c6e6808a043a13f313c6dc3b81e435ba2d74886b10739c3ea06413f5f8a8d2"),
    "ideal-localized-uniquely-text": (1, "36c923191cc352f41e0f3e303b0d2ff57f6928e4d25122a46cc6291dc19c7038"),
    "ideal-localized-uniquely-json": (1, "00156525d6a2ade67934cf3106af08252cc921e880485e593e85ff65b78f63c5"),
    "ideal-localized-exchange-text": (1, "bbe1931128b62b94c1c8305c48cf6caa28875b96224fd2a9a70cf6a156179efb"),
    "ideal-localized-exchange-json": (1, "ef717883fab54369ea711fe64d1a185f27990a7478f812bf2ae8fbd979e5ee62"),
    "ideal-localized-full-clean-text": (1, "e26cef835a0b7e1e064934bbdc1c37eaf4403b669136907fe10e3491ddbe8aa7"),
    "ideal-localized-full-clean-json": (1, "077bbcd30e86fd9fbd89ec13ba709f1819129df610120a04fd3412e1d11d56c4"),
    "ideal-localized-two-gens-text": (0, "e94343434890559997d0d8c08b6769a8b8dfcf03955a3c2bd0d6b3bb0e8d3ca7"),
    "ideal-localized-two-gens-json": (0, "21cab8a71fa7bbf8e8e0d057b4d9bb03c414bd080e824a71c3dafd63ebc9a7f3"),
    "ideal-localized-no-witness-text": (1, "36192b4e3433b27d50bcac92e7a92418efb2a3e174e0b5e40ad15bb75b9ba72f"),
    "ideal-localized-no-witness-json": (1, "f1d5c61b2d65a74ad16e054ecb3d2a9d6ade42f69d639c220ba4b346aded150c"),
    "ideal-localized-one-prime-clean-text": (0, "3959fc371662ac65cfc960c0e98c4bd153aa35b745ca65bffae44c05f1db765e"),
    "ideal-localized-four-primes-weakly-clean-json": (1, "8af9db4c4f0b692e9fb2e8e2cb71cfaa81d9d1b54a8f7f526870f4e35be7749f"),
    "ideal-localized-cube-uniquely-text": (0, "96e376ed937b70d9e852ef00b7647c237d76fce6f8c7b7279245e91ab181aead"),
    "radical-finite-text": (0, "b13fd7a15656ef2b15b9923c41b59caccc37c5bead1d7878cdc12b0be92b95f1"),
    "radical-finite-json": (0, "11734bbd5202c122515e7326cc17e46400d9c121c010fedc2e0cf32592782dd1"),
    "radical-localized-text": (0, "fc395c4fdd773d910b8c9466f104c355d6008a6cb27d1d1cb954cec69d8b9838"),
    "radical-localized-json": (0, "48810a2a40dd559141596e2226453043a13cd84afcb0727b310d94789205b4dd"),
    "idempotents-finite-text": (0, "4a83fd239b8aa75cc241c20f71677b4fa296fc5a1e1f7f1aefb36868fee5cfce"),
    "idempotents-finite-json": (0, "bbe60d2b725effe0be7ff589aaf78f5396ae23d5236a085848675a5c5be8f754"),
    "idempotents-localized-text": (0, "6ab7fdd50cf188bbd6ee4170749ad76fcf40cc17fae8c63cb1f83d1812005461"),
    "idempotents-localized-json": (0, "9f6ee4d68214a9434accf3c34d8ca43cce8c59df99293902b131c491126fe24d"),
    "units-finite-text": (0, "588748eb2fbd199e1cb0d5e9cbddcb9ba0f55113c2537a8cde9be49ea865c433"),
    "units-finite-json": (0, "3f768ccb47f417b73b5d8aa3b49186ebeb31198f9d809bc4c6918f762be79613"),
    "units-localized-text": (0, "3411f3f1dff4d5cc88940ed4836fd78ee4105cf32db649eb3cf32240d1c340ed"),
    "units-localized-json": (0, "908288f46bc0d1cd8acfd457519938fdbf04119e1feb95eb99661651f724b9fa"),
    "laws-series-json": (0, "8bc876a3a26252cb274195e9e4448182e2ad527ef05c4efcbfe3bbb79634ec39"),
    "laws-near-cap-product-json": (0, "313bd2e2e623d9bea4743a6c3b27f55b56c5c9db43fcf2b44b2731386639df28"),
}


@pytest.mark.parametrize("pin", list(SPEC_COMMAND_PINS))
def test_spec_command_output_matches_the_golden_pin(capsys, pin):
    case, fmt = pin.rsplit("-", 1)
    argv = SPEC_COMMANDS[case] + (["--json"] if fmt == "json" else [])
    code, out, err = run(capsys, *argv)
    assert err == ""
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == SPEC_COMMAND_PINS[pin]


# ---------------------------------------------------------------------------
# fuzzing: any spec text ends in a verdict or a diagnostic, never a crash

_MODULE_TEXT = st.sampled_from(["regular", "zero", "(znmod 1)", "(znmod 2)", "(znmod 4)"])
_IDEAL_TEXT = st.one_of(
    st.just("(ideal all)"),
    st.lists(st.integers(0, 9), min_size=1, max_size=2).map(
        lambda gens: "(ideal " + " ".join(map(str, gens)) + ")"
    ),
)


def _composites(ring):
    return st.one_of(
        st.lists(ring, min_size=1, max_size=3).map(lambda rings: f"(product {' '.join(rings)})"),
        st.builds("(matrix {} {})".format, st.integers(0, 2), ring),
        st.builds("(tri2 {} {} {})".format, ring, ring, _MODULE_TEXT),
        st.builds(
            "(tri3 {} {} {} {} {} {})".format, ring, ring, ring, _MODULE_TEXT, _MODULE_TEXT, _MODULE_TEXT
        ),
        st.builds("(morita {} {} {} {})".format, ring, ring, _MODULE_TEXT, _MODULE_TEXT),
        st.builds("(idealize {} {})".format, ring, _MODULE_TEXT),
        st.builds("(quotient {} {})".format, ring, _IDEAL_TEXT),
        st.builds("(series {} {})".format, ring, st.integers(0, 3)),
        st.builds("(corner {} {})".format, ring, st.integers(0, 9)),
    )


# Localized specs keep to primes up to 11 and the commands take no --gens, so
# the witness search never meets the int64 overflow of a huge generator.
_SPEC_TEXT = st.one_of(
    st.recursive(st.integers(0, 12).map("(zn {})".format), _composites, max_leaves=4),
    st.lists(st.sampled_from([2, 3, 5, 7, 11]), min_size=1, max_size=3).map(
        lambda primes: "(localized " + " ".join(map(str, primes)) + ")"
    ),
)


@st.composite
def _fuzzed_spec(draw):
    """Spec text from the grammar, half the time with one character changed."""
    text = draw(_SPEC_TEXT)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text) - 1))
        new = draw(st.sampled_from(["", *"() 0129az-@"]))  # "" deletes
        text = text[:at] + new + text[at + draw(st.integers(0, 1)) :]  # insert or replace
    return text


@given(_fuzzed_spec())
@settings(max_examples=200, deadline=None)
def test_fuzzed_specs_end_in_a_verdict_or_a_diagnostic(spec):
    for command in ("units", "idempotents", "radical"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, spec])
        assert code in (0, 1, 2), (command, spec, err.getvalue())
        assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue()


# ---------------------------------------------------------------------------
# fuzzing the flags of `ideal` and `analyze` on finite rings; where the ring
# has a model in perfbench/checks.py, which shares no code with cleanrings,
# the verdict and its witnesses are checked against that model


def _load_bench_checks():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_bench_checks()

# (spec text, the independent model of that ring or None)
_FLAG_RINGS = st.one_of(
    st.integers(1, 12).map(lambda n: (f"(zn {n})", bench.ZMod(n))),
    st.lists(st.integers(1, 4), min_size=2, max_size=3).map(
        lambda ms: ("(product " + " ".join(f"(zn {m})" for m in ms) + ")", bench.Product(ms))
    ),
    st.integers(1, 3).map(lambda m: (f"(matrix 2 (zn {m}))", bench.Matrix2(m))),
    st.builds(lambda m, k: (f"(series (zn {m}) {k})", bench.Series(m, k)), st.integers(1, 4), st.integers(1, 3)),
    st.sampled_from(
        [
            "(tri2 (zn 2) (zn 2) regular)",
            "(quotient (zn 12) (ideal 4))",
            "(morita (zn 2) (zn 2) regular regular)",
            "(idealize (zn 4) regular)",
            "(corner (matrix 2 (zn 2)) 8)",
        ]
    ).map(lambda text: (text, None)),
)


def _flag_element(order):
    """(text, index or None when the text names no element of the ring),
    three times in four an element."""
    valid = st.integers(0, order - 1).map(lambda i: (str(i), i))
    return st.one_of(
        valid,
        valid,
        valid,
        st.sampled_from([str(order), str(order + 7), "-1", "x", "1.5", "1/2", ""]).map(lambda t: (t, None)),
    )


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue(), argv
    return code, out.getvalue(), err.getvalue()


@given(_FLAG_RINGS, st.data())
@settings(max_examples=200, deadline=None)
def test_fuzzed_ideal_flags_end_in_a_verdict_or_a_diagnostic(ring, data):
    text, model = ring
    order = build(parse(text)).order
    gens = data.draw(st.none() | st.lists(_flag_element(order), min_size=1, max_size=3))
    check = data.draw(st.sampled_from(sorted(cli._CHECKS)))
    as_json = data.draw(st.booleans())
    bound = data.draw(st.sampled_from([None, None, "3", "0", "x"]))
    argv = ["ideal", text, "--check", check]
    argv += [] if gens is None else ["--gens", *(g for g, _ in gens)]
    argv += ["--json"] if as_json else []
    argv += [] if bound is None else ["--bound", bound]
    _run_main(argv)
    if model is not None and all(i is not None for _, i in gens or ()):
        # every finite ring is clean, so the verdict is yes with a witness per member
        argv = ["ideal", text, "--check", "weakly-clean", "--json"]
        argv += [] if gens is None else ["--gens", *(g for g, _ in gens)]
        members = set(range(order)) if gens is None else bench.ideal_of(model, [i for _, i in gens])
        assert bench.check_finite_ideal(model, members, *_run_main(argv)) == [], argv


@given(_FLAG_RINGS, st.data())
@settings(max_examples=100, deadline=None)
def test_fuzzed_analyze_flags_end_in_a_verdict_or_a_diagnostic(ring, data):
    text, model = ring
    element, x = data.draw(_flag_element(build(parse(text)).order))
    as_json = data.draw(st.booleans())
    code, out, err = _run_main(["analyze", text, "--element", element, *(["--json"] if as_json else [])])
    if x is None:
        assert code == 2
    elif model is not None:
        assert code == 0  # every element of a finite ring is clean
        for d in json.loads(out)["verdict"]["decompositions"] if as_json else ():
            assert bench.check_decomposition(model, {**d, "element": x}) == [], (text, x, d)


# ---------------------------------------------------------------------------
# the same for localizations Z_(P), with generators past 2^64; every verdict
# that a witness backs is checked with perfbench's residue decider, which is
# O(M), so M stays at most 3,000


@pytest.mark.parametrize(
    "primes, exponents, check, witness",
    [
        ((3, 5), (40, 0), "clean", 3**40),
        ((3, 5, 7), (38, 0, 0), "weakly-clean", 11 * 3**38),
    ],
)
def test_ideal_localized_generator_past_int64_gets_a_true_witness(capsys, primes, exponents, check, witness):
    """perfbench's two fault commands: 3^40 once exited 3 with an
    OverflowError, and 3^38 wrapped in int64 to a wrong witness."""
    d = math.prod(p**e for p, e in zip(primes, exponents))
    spec = "(localized " + " ".join(map(str, primes)) + ")"
    code, out, err = run(capsys, "ideal", spec, "--gens", str(d), "--check", check)
    assert code == 1
    assert out.splitlines()[2] == f"  witness {witness}: no admissible decomposition"
    assert bench.check_localized_ideal(primes, exponents, check, False, code, out, err) == []


def _run_capped(argv: list[str], limit: int = 1 << 30, timeout: float = 120, env: dict | None = None):
    """(exit code, stdout, stderr, wall seconds) of the command line in a child
    whose address space is capped, so that a search that allocates by its
    bound fails at once instead of exhausting the machine's memory. env adds
    to the child's environment."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(__file__).resolve().parents[1] / "src")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cleanrings.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src, **(env or {})},
        preexec_fn=cap,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


@pytest.mark.parametrize(
    "argv, code",
    [
        (["ideal", "(localized 3 5)", "--gens", "3", "--check", "clean", "--bound", "1000000"], 1),
        (["examples", "--bound", "200000"], 0),
        (["ideal", "(localized 3 5)", "--gens", "3", "--check", "clean", "--bound", "1000000000"], 1),
        (["examples", "--bound", "100000000"], 0),
    ],
)
def test_a_large_bound_ends_as_a_small_one_does(capsys, argv, code):
    """The search grid of the first two bounds would take 993 GiB and 39.7
    GiB, and a row of the last two as wide as the bound would take 250 MB and
    25 MB; the row search finds the same first members in a few seconds."""
    got, out, err, seconds = _run_capped(argv)
    assert (got, err) == (code, "")
    assert (got, out, err) == run(capsys, *argv[:-1], "64")
    assert seconds < 10
    if code:
        assert "  witness 6: no admissible decomposition" in out


@pytest.mark.parametrize(
    "spec, components",
    [
        ("(matrix 100 (zn 1))", 10_000),
        ("(matrix 1000 (zn 1))", 1_000_000),
        ("(matrix 100000 (zn 1))", 10_000_000_000),
        ("(series (zn 1) 1000)", 1_000),
        ("(series (zn 1) 100000)", 100_000),
    ],
)
def test_a_trivial_base_does_not_carry_a_ring_past_the_cap(spec, components):
    """Over Z_1 the order is 1 however many components a matrix or series
    ring has, so the size estimate passes such a spec; the constructor
    refuses more components than the cap before it lists them, so none of
    these hangs or runs out of memory."""
    code, out, err, seconds = _run_capped(["analyze", spec, "--element", "0"], timeout=10)
    assert (code, out) == (2, "")
    assert err.startswith("cleanrings: error: ")
    assert err.endswith(f" would have {components} components > cap 256\n")
    assert seconds < 2


def test_a_lowered_cap_names_the_catalog_entry_it_refuses():
    """The catalog's rings are spec texts the user never typed, so the
    refusal names the entry and its text rather than a position in it."""
    code, out, err, _ = _run_capped(["laws", "--catalog"], env={"CLEANRINGS_SIZE_CAP": "50"})
    assert (code, out) == (2, "")
    assert err == (
        "cleanrings: error: catalog entry matrix2-z3 (matrix 2 (zn 3)):"
        " estimated order exceeds the size cap 50\n"
    )


@pytest.mark.parametrize(
    "argv, code",
    [
        (["ideal", "(localized 3 5)", "--gens", "-7/2", "--check", "clean"], 1),
        (["analyze", "(localized 3 5)", "--element", "-7/2"], 0),
        (["ideal", "(localized 3 5)", "--gens", "-7/2", "--check", "weakly-clean", "--json"], 0),
    ],
)
def test_a_negative_fraction_is_read_as_a_value(capsys, argv, code):
    """-7/2 after a flag is that flag's value, as -7 is, and not an unknown option."""
    flag = next(i for i, a in enumerate(argv) if a in ("--gens", "--element"))
    joined = [*argv[:flag], f"{argv[flag]}={argv[flag + 1]}", *argv[flag + 2 :]]
    got = run(capsys, *argv)
    assert got[0] == code
    assert got == run(capsys, *joined)


_LOCALIZED_PRIMES = (
    st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), min_size=1, max_size=4, unique=True)
    .filter(lambda ps: math.prod(ps) <= 3000)
    .map(sorted)
)


def _localized_gen(primes):
    """(text, value or None when the text names no member of Z_(P)), three
    times in four a member, of either sign."""
    modulus = math.prod(primes)
    big = st.builds(
        lambda exponents, cofactor: cofactor * math.prod(p**e for p, e in zip(primes, exponents)),
        st.lists(st.integers(0, 70), min_size=len(primes), max_size=len(primes)),
        st.integers(-(2**70), 2**70),
    )
    fractions = st.builds(Fraction, big, st.integers(1, 50).filter(lambda b: math.gcd(b, modulus) == 1))
    valid = (fractions | st.integers(-(2**70), 2**70).map(Fraction)).map(lambda x: (str(x), x))
    invalid = st.sampled_from(["x", "", "1/0", f"1/{primes[0]}", "1" * 5000]).map(lambda t: (t, None))
    return st.one_of(valid, valid, valid, invalid)


@given(_LOCALIZED_PRIMES, st.data())
@settings(max_examples=150, deadline=None)
def test_fuzzed_localized_ideal_flags_end_in_a_verdict_or_a_diagnostic(primes, data):
    gens = data.draw(st.none() | st.lists(_localized_gen(primes), min_size=1, max_size=3))
    check = data.draw(st.sampled_from(sorted(cli._CHECKS)))
    as_json = data.draw(st.booleans())
    bound = data.draw(st.sampled_from([None, None, "1", "5", "40", "0", "-3", "x"]))
    argv = ["ideal", "(localized " + " ".join(map(str, primes)) + ")", "--check", check]
    argv += [] if gens is None else ["--gens", *(g for g, _ in gens)]
    argv += ["--json"] if as_json else []
    argv += [] if bound is None else ["--bound", bound]
    code, out, err = _run_main(argv)

    values = [x for _, x in gens or ()]
    if None in values or (gens and not any(values)) or check == "exchange" or bound in ("0", "-3", "x"):
        return  # a diagnostic, the zero ideal, or a check the decider does not model
    exponents = [min((bench.valuation(x.numerator, p) for x in values if x), default=0) for p in primes]
    d = math.prod(p**e for p, e in zip(primes, exponents))
    decided = bench.decide_ideal(math.prod(primes), d, check)
    if decided or bench.grid_witness(primes, d, check, int(bound or 64)) is not None:
        assert bench.check_localized_ideal(primes, exponents, check, as_json, code, out, err) == [], argv
