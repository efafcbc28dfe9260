"""The package's public names, and what a localization command imports."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import cleanrings

SRC = Path(__file__).resolve().parents[1] / "src"

# Every public name of the package, by the submodule that defines it.
_EXPORTS = {
    "core": "FiniteRing RingValidationError SizeCapError TableFormatError ValidationReport"
    " Violation validate_ring",
    "ideals": "IdealSet all_ideals corner_ideal full_ideal ideal_closure ideal_from_members"
    " ideal_intersection ideal_inventory ideal_sum idealization_ideal is_ideal matrix_ideal"
    " morita_ideal principal_ideals product_ideal series_ideal tri2_ideal tri3_ideal zero_ideal",
    "constructions": "Bimodule BimoduleError CornerRing PairingMap cofactor corner_ring det"
    " direct_product idealization matrix_element matrix_entries matrix_ring morita_zero"
    " module_from_action quotient regular_bimodule tri2 tri3 truncated_power_series"
    " zero_bimodule zn zn_bimodule",
    "localized": "DEFAULT_SEARCH_BOUND LocalizedIdeal LocalizedIntegers"
    " SignClasses SignClassSurvey clean_flags ideal_is_clean_analytic"
    " ideal_is_uniquely_weakly_clean_analytic ideal_is_weakly_clean_analytic"
    " ideal_is_weakly_exchange_analytic is_weakly_exchange_element_exact product_weakly_clean"
    " reproduce_examples sign_class_survey uniqueness_witness_search witness_search",
    "analysis": "CleanClass Decomposition IdealVerdict clean_class decompositions ideal_is_clean"
    " ideal_is_uniquely_weakly_clean ideal_is_weakly_clean ideal_is_weakly_exchange"
    " is_clean_element is_uniquely_weakly_clean_element is_weakly_clean_element"
    " is_weakly_exchange_element lift_idempotent ring_is_clean ring_is_uniquely_weakly_clean"
    " ring_is_weakly_clean",
    "catalog": "IDEAL_LAW_MAX_ORDER CatalogEntry build_catalog catalog_entry",
    "laws": "LAW_IDS LawReport reports_to_json run_catalog run_law run_ring summarize",
    "dsl": "RingSpec SpecArityError SpecError SpecLexicalError SpecSizeError SpecSyntaxError"
    " build parse pretty size_estimate",
    "schemas": "COMMAND_SCHEMAS LAW_REPORT schema_for",
}


def test_public_names_are_pinned_and_come_from_their_submodules():
    names = [name for names in _EXPORTS.values() for name in names.split()]
    assert sorted(cleanrings.__all__) == sorted([*names, *_EXPORTS])
    assert len(cleanrings.__all__) == 114
    for module, exported in _EXPORTS.items():
        home = importlib.import_module(f"cleanrings.{module}")
        assert getattr(cleanrings, module) is home
        for name in exported.split():
            assert getattr(cleanrings, name) is getattr(home, name), name
    assert set(cleanrings.__all__) <= set(dir(cleanrings))


# Each localization command, run in one fresh interpreter; after each one none
# of the finite-ring modules, not numpy, and not dataclasses or inspect (whose
# import costs a localized command a quarter of its time) may be imported.
_LOCALIZED_COMMANDS = [
    ["analyze", "(localized 3 5)", "--element", "2/11"],
    ["ideal", "(localized 3 5 7)", "--gens", "3", "--check", "weakly-clean"],
    ["ideal", "(localized 3 5)", "--check", "clean", "--json"],
    ["units", "(localized 2 3)"],
    ["radical", "(localized 2 3)"],
    ["idempotents", "(localized 5)"],
    ["examples"],
]

_KEPT_OUT = [
    "numpy",
    "cleanrings.core",
    "cleanrings.ideals",
    "cleanrings.constructions",
    "cleanrings.analysis",
    "cleanrings.laws",
    "dataclasses",
    "inspect",
]

_PROBE = """
import contextlib, io, json, sys
from cleanrings import cli
runs = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        runs.append([cli.main(argv), sorted(sys.modules)])
print(json.dumps(runs))
"""


def test_localized_commands_import_no_finite_ring_module():
    """-S keeps the site hooks (.pth files) from importing modules first."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _PROBE, json.dumps(_LOCALIZED_COMMANDS)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert [code for code, _ in runs] == [0, 1, 1, 0, 0, 0, 0]
    for argv, (_, modules) in zip(_LOCALIZED_COMMANDS, runs):
        assert [m for m in _KEPT_OUT if m in modules] == [], argv


# Commands on finite rings, run in one fresh interpreter: none of them may
# import numpy.ma, which np.unique loads and which adds about 12 ms to each.
# numpy's own directory goes on the path, as -S leaves out site-packages.
_FINITE_COMMANDS = [
    ["laws", "--catalog"],
    ["laws", "--spec", "(zn 256)"],
    ["ideal", "(series (zn 4) 4)", "--gens", "16", "--check", "weakly-clean"],
]


def test_finite_commands_do_not_import_numpy_ma():
    import numpy

    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(Path(numpy.__file__).parents[1])])}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _PROBE, json.dumps(_FINITE_COMMANDS)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert [code for code, _ in runs] == [0, 0, 0]
    for argv, (_, modules) in zip(_FINITE_COMMANDS, runs):
        assert "numpy" in modules and "numpy.ma" not in modules, argv
