"""Published JSON schemas for every machine-readable CLI output.

The ``laws`` command emits one JSON object per line, each matching
LAW_REPORT. Every other command emits a single JSON object matching the
entry of COMMAND_SCHEMAS named after the command. Schemas follow JSON
Schema draft 2020-12 and are deliberately strict: every object schema
forbids additional properties and requires each of its properties that it
does not name optional, so accidental payload drift fails validation in the
test suite.
"""

from __future__ import annotations

__all__ = ["COMMAND_SCHEMAS", "LAW_REPORT", "schema_for"]


def _object(properties: dict, *, optional: tuple[str, ...] = ()) -> dict:
    """A strict object schema requiring its non-optional properties, in order."""
    required = [name for name in properties if name not in optional]
    return {
        "type": "object",
        "properties": properties,
        "required": required,
        "additionalProperties": False,
    }


def _document(properties: dict, *, command: str | None = None, one_ring: bool = False) -> dict:
    """A top-level schema; like ``cli._render``, it puts the command name and,
    for a command about one ring, its spec and ring label first."""
    header: dict = {} if command is None else {"command": {"const": command}}
    if one_ring:
        header |= {"spec": {"type": "string"}, "ring": {"type": "string"}}
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        **_object({**header, **properties}),
    }


_DECOMPOSITION = {
    "sign": {"enum": [1, -1]},
    "idempotent": {"type": "integer"},
    "unit": {"type": "integer"},
}

# one line of `laws --json` output
LAW_REPORT = _document(
    {
        "law": {"type": "string"},
        "inputs": {"type": "string"},
        "verdict": {"enum": ["pass", "fail", "skipped"]},
        "direction": {"enum": ["forward", "both", "equation"]},
        "instance_strength": {"enum": ["degenerate", "discriminating"]},
        "description": {"type": "string"},
        "reason": {"type": "string"},
        "witness": {"type": ["object", "null"]},
        "scanned": {"type": "integer", "minimum": 0},
    }
)

_ANALYZE = _document(
    {
        "ok": {"type": "boolean"},
        "verdict": {
            "oneOf": [
                _object(  # finite ring: full decomposition census
                    {
                        "element": {"type": "integer"},
                        "clean": {"type": "boolean"},
                        "weakly_clean": {"type": "boolean"},
                        "uniquely_weakly_clean": {"type": "boolean"},
                        "decompositions": {"type": "array", "items": _object(_DECOMPOSITION)},
                    }
                ),
                _object(  # localization: sign classes
                    {
                        "element": {"type": "string"},
                        "clean": {"type": "boolean"},
                        "weakly_clean": {"type": "boolean"},
                        "plus": {"type": "boolean"},
                        "minus": {"type": "boolean"},
                    }
                ),
            ]
        },
    },
    command="analyze",
    one_ring=True,
)

_IDEAL = _document(
    {
        "check": {"enum": ["clean", "weakly-clean", "uniquely", "exchange"]},
        "ideal": {"type": "string"},
        "ok": {"type": "boolean"},
        "verdict": {
            "oneOf": [
                _object(  # finite ring: exhaustive scan
                    {
                        "property": {"type": "string"},
                        "ideal": {"type": "string"},
                        "ok": {"type": "boolean"},
                        "checked": {"type": "integer", "minimum": 0},
                        "failing_element": {"type": "integer"},
                        "detail": {"type": "string"},
                        "trace": {"type": "array"},
                    },
                    optional=("failing_element", "detail", "trace"),
                ),
                _object(  # localization: the residue decider's verdict, and a searched witness for a no
                    {
                        "value": {"type": "boolean"},
                        "method": {"type": "string"},
                        "witness": {"type": ["string", "null"]},
                    }
                ),
            ]
        },
        "witnesses": {
            "type": ["array", "null"],
            # each element of a passing ideal, with its decomposition if it has one
            "items": _object(
                {"element": {"type": "integer"}, **_DECOMPOSITION},
                optional=tuple(_DECOMPOSITION),
            ),
        },
    },
    command="ideal",
    one_ring=True,
)

_RADICAL = _document(
    {
        "kind": {"enum": ["finite", "localized"]},
        "members": {"type": ["array", "null"], "items": {"type": "integer"}},
        "size": {"type": ["integer", "null"]},
        "generator": {"type": ["string", "null"]},
        "description": {"type": "string"},
    },
    command="radical",
    one_ring=True,
)

_IDEMPOTENTS = _document(
    {
        "idempotents": {"type": "array", "items": {"type": ["integer", "string"]}},
        "count": {"type": "integer", "minimum": 1},
    },
    command="idempotents",
    one_ring=True,
)

_UNITS = _document(
    {
        "kind": {"enum": ["finite", "localized"]},
        "units": {"type": ["array", "null"], "items": {"type": "integer"}},
        "count": {"type": ["integer", "null"]},
        "criterion": {"type": ["string", "null"]},
    },
    command="units",
    one_ring=True,
)

_EXAMPLES = _document(
    {
        "full_ring_weakly_clean_not_clean": _object(
            {
                "ring": {"type": "string"},
                "generator": {"type": "string"},
                "generator_is_unit": {"type": "boolean"},
                "ideal": {"type": "string"},
                "ideal_is_full_ring": {"type": "boolean"},
                "weakly_clean": {"type": "boolean"},
                "clean": {"type": "boolean"},
                "non_clean_witness": {"type": "string"},
                "witness_checks": _object(
                    {
                        "x_is_unit": {"type": "boolean"},
                        "x_minus_one_is_unit": {"type": "boolean"},
                        "x_plus_one_is_unit": {"type": "boolean"},
                    }
                ),
            }
        ),
        "product_not_weakly_clean": _object(
            {
                "ring": {"type": "string"},
                "generators": {"type": "array", "items": {"type": "string"}},
                "generators_are_units": {"type": "array", "items": {"type": "boolean"}},
                "component_ideals": {"type": "array", "items": {"type": "string"}},
                "product": _object(
                    {
                        "ok": {"type": "boolean"},
                        "witness": {"type": ["array", "null"], "items": {"type": "string"}},
                        "witness_sign_classes": {"type": ["array", "null"], "items": {"type": "string"}},
                        "component_weakly_clean": {"type": "array", "items": {"type": "boolean"}},
                        "component_clean": {"type": "array", "items": {"type": "boolean"}},
                        "detail": {"type": "string"},
                    }
                ),
            }
        ),
    },
    command="examples",
)

COMMAND_SCHEMAS = {
    "analyze": _ANALYZE,
    "ideal": _IDEAL,
    "radical": _RADICAL,
    "idempotents": _IDEMPOTENTS,
    "units": _UNITS,
    "laws": LAW_REPORT,
    "examples": _EXAMPLES,
}


def schema_for(command: str) -> dict:
    """The JSON schema governing a command's --json output."""
    return COMMAND_SCHEMAS[command]
