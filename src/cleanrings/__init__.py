"""Finite-ring workbench: validated operation-table rings, ideal lattices,
clean/weakly-clean/exchange analysis, localizations of the integers, and a
law harness that checks structural facts over a catalog of rings.

Every public name is imported from its submodule on first use (PEP 562), so
importing the package, or running a localization command, loads no numpy.
"""

import importlib

# Every public name, by the submodule that defines it.
_EXPORTS = {
    "core": (
        "FiniteRing",
        "RingValidationError",
        "SizeCapError",
        "TableFormatError",
        "ValidationReport",
        "Violation",
        "validate_ring",
    ),
    "ideals": (
        "IdealSet",
        "all_ideals",
        "corner_ideal",
        "full_ideal",
        "ideal_closure",
        "ideal_from_members",
        "ideal_intersection",
        "ideal_inventory",
        "ideal_sum",
        "idealization_ideal",
        "is_ideal",
        "matrix_ideal",
        "morita_ideal",
        "principal_ideals",
        "product_ideal",
        "series_ideal",
        "tri2_ideal",
        "tri3_ideal",
        "zero_ideal",
    ),
    "constructions": (
        "Bimodule",
        "BimoduleError",
        "CornerRing",
        "PairingMap",
        "cofactor",
        "corner_ring",
        "det",
        "direct_product",
        "idealization",
        "matrix_element",
        "matrix_entries",
        "matrix_ring",
        "morita_zero",
        "module_from_action",
        "quotient",
        "regular_bimodule",
        "tri2",
        "tri3",
        "truncated_power_series",
        "zero_bimodule",
        "zn",
        "zn_bimodule",
    ),
    "localized": (
        "DEFAULT_SEARCH_BOUND",
        "LocalizedIdeal",
        "LocalizedIntegers",
        "SignClasses",
        "SignClassSurvey",
        "clean_flags",
        "ideal_is_clean_analytic",
        "ideal_is_uniquely_weakly_clean_analytic",
        "ideal_is_weakly_clean_analytic",
        "ideal_is_weakly_exchange_analytic",
        "is_weakly_exchange_element_exact",
        "product_weakly_clean",
        "reproduce_examples",
        "sign_class_survey",
        "uniqueness_witness_search",
        "witness_search",
    ),
    "analysis": (
        "CleanClass",
        "Decomposition",
        "IdealVerdict",
        "clean_class",
        "decompositions",
        "ideal_is_clean",
        "ideal_is_uniquely_weakly_clean",
        "ideal_is_weakly_clean",
        "ideal_is_weakly_exchange",
        "is_clean_element",
        "is_uniquely_weakly_clean_element",
        "is_weakly_clean_element",
        "is_weakly_exchange_element",
        "lift_idempotent",
        "ring_is_clean",
        "ring_is_uniquely_weakly_clean",
        "ring_is_weakly_clean",
    ),
    "catalog": ("IDEAL_LAW_MAX_ORDER", "CatalogEntry", "build_catalog", "catalog_entry"),
    "laws": (
        "LAW_IDS",
        "LawReport",
        "reports_to_json",
        "run_catalog",
        "run_law",
        "run_ring",
        "summarize",
    ),
    "dsl": (
        "RingSpec",
        "SpecArityError",
        "SpecError",
        "SpecLexicalError",
        "SpecSizeError",
        "SpecSyntaxError",
        "build",
        "parse",
        "pretty",
        "size_estimate",
    ),
    "schemas": ("COMMAND_SCHEMAS", "LAW_REPORT", "schema_for"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, *_EXPORTS])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
