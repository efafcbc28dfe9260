"""Command-line surface: output formats, schema conformance, exit codes."""

from __future__ import annotations

import json

import jsonschema
import pytest

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
    _, before, _ = run_json(capsys, "--json", "analyze", "(zn 5)", "--element", "2")
    _, after, _ = run_json(capsys, "analyze", "(zn 5)", "--element", "2", "--json")
    assert before == after


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
    ],
)
def test_usage_and_construction_errors_exit_two(capsys, argv, needle):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert needle in err
    assert out == ""


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
