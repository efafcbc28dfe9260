"""Command-line front end.

Subcommands::

    analyze SPEC --element E      decomposition census for one element
    ideal SPEC [--gens ...] --check {clean,weakly-clean,uniquely,exchange}
    radical SPEC                  members (finite) or generator (localized)
    idempotents SPEC              list the idempotent elements
    units SPEC                    list the units, or state the unit criterion
    laws (--catalog | --spec SPEC | --spec-file F) [--law ID]
    examples [--bound N]          the two bundled localization case studies

Ring specs use the parenthesized prefix language of the dsl module, either
inline or from a file via --spec-file (the file form additionally accepts
raw bimodule tables). --json switches every command to a machine-readable
payload governed by the schemas module; the laws command then emits one
JSON object per line.

Exit codes: 0 success; 1 a checked property failed (a law failed, or an
element with no admissible decomposition was found); 2 usage, parse, or
construction errors; 3 an internal error, a fault of the program rather than
a verdict, reported on one line as "cleanrings: internal error: <type>: <message>".
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from .dsl import LocalizedSpec, SpecError, build, parse, pretty
from .localized import (
    LocalizedIntegers,
    _localized_ideal,
    clean_flags,
    ideal_is_clean_analytic,
    ideal_is_uniquely_weakly_clean_analytic,
    ideal_is_weakly_clean_analytic,
    ideal_is_weakly_exchange_analytic,
    reproduce_examples,
    uniqueness_witness_search,
    witness_search,
)

# The finite-ring modules (and numpy with them) are imported by the commands
# that need them, so a localization command starts light.
if TYPE_CHECKING:
    from .core import FiniteRing

__all__ = ["main"]


class _UsageError(ValueError):
    """A bad invocation detected after argparse (exit code 2)."""


# ---------------------------------------------------------------------------
# shared plumbing


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(payload: dict) -> None:
    _emit(json.dumps(payload, sort_keys=True))


def _positive_int(text: str) -> int:
    """argparse type for --bound: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _load_spec(args: argparse.Namespace):
    file_name = getattr(args, "spec_file", None)
    inline = getattr(args, "spec", None)
    if file_name and inline:
        raise _UsageError("give either an inline spec or --spec-file, not both")
    if file_name:
        return parse(Path(file_name).read_text(encoding="utf-8"), allow_tables=True)
    if inline is None:
        raise _UsageError("a ring spec is required (inline or via --spec-file)")
    return parse(inline)


def _built(args: argparse.Namespace):
    spec = _load_spec(args)
    return spec, build(spec)


def _render(
    args: argparse.Namespace, payload: dict, lines: list, ok: bool = True, spec=None, ring=None
) -> int:
    """Emit a command's result and return its exit code (1 when not ok).

    With --json the payload goes out as one object naming the command;
    otherwise the text lines do. A command about one ring passes its spec and
    the built ring, which add the "spec" and "ring" keys or the header line.
    """
    if spec is not None:
        text = pretty(spec)
        payload = {"spec": text, "ring": ring.label, **payload}
        lines = [f"ring {ring.label} from {text}", *lines]
    if args.json:
        _emit_json({"command": args.command, **payload})
    else:
        for line in lines:
            _emit(line)
    return 0 if ok else 1


def _parse_element(ring, text: str):
    if isinstance(ring, LocalizedIntegers):
        try:
            return ring.element(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise _UsageError(f"element {text!r} does not lie in {ring.label}: {exc}")
    try:
        value = int(text, 0)
    except ValueError:
        raise _UsageError(
            f"elements of the finite ring {ring.label} are indices 0..{ring.order - 1}"
        )
    if not 0 <= value < ring.order:
        raise _UsageError(
            f"element {value} out of range for {ring.label} (order {ring.order})"
        )
    return value


# ---------------------------------------------------------------------------
# analyze


def _cmd_analyze(args: argparse.Namespace) -> int:
    spec, ring = _built(args)
    x = _parse_element(ring, args.element)
    if isinstance(ring, LocalizedIntegers):
        verdict = clean_flags(ring, x)
        lines = []
        if verdict.unit:
            lines.append(f"  {x} = {x} + 0 and {x} = {x} - 0 ({x} is a unit)")
        if verdict.shifted_down_unit:
            lines.append(f"  {x} = {x - 1} + 1 ({x - 1} is a unit)")
        if verdict.shifted_up_unit:
            lines.append(f"  {x} = {x + 1} - 1 ({x + 1} is a unit)")
        if not verdict.is_weakly_clean:
            lines.append(f"  none of {x}, {x - 1}, {x + 1} is a unit: no decomposition")
    else:
        from .analysis import clean_class

        verdict = clean_class(ring, x)
        shown = verdict.decompositions[:12]
        lines = [f"  {x} = {d.unit} {'+' if d.sign == 1 else '-'} {d.idempotent}" for d in shown]
        rest = len(verdict.decompositions) - len(shown)
        if rest:
            lines.append(f"  ... and {rest} more decomposition(s)")
        if not verdict.decompositions:
            lines.append("  no unit-plus-idempotent or unit-minus-idempotent decomposition")
    ok = verdict.is_weakly_clean
    census = (
        f"element {x}: clean {_yn(verdict.is_clean)},"
        f" weakly clean {_yn(ok)},"
        f" uniquely weakly clean {_yn(verdict.is_uniquely_weakly_clean)}"
    )
    payload = {"ok": ok, "verdict": verdict.to_json_dict()}
    return _render(args, payload, [census, *lines], ok, spec, ring)


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# ideal


# each --check value: (the name of its finite-ring verdict in analysis, its
# localization verdict)
_CHECKS = {
    "clean": ("ideal_is_clean", ideal_is_clean_analytic),
    "weakly-clean": ("ideal_is_weakly_clean", ideal_is_weakly_clean_analytic),
    "uniquely": ("ideal_is_uniquely_weakly_clean", ideal_is_uniquely_weakly_clean_analytic),
    "exchange": ("ideal_is_weakly_exchange", ideal_is_weakly_exchange_analytic),
}


def _finite_witness(ring: FiniteRing, members: tuple[int, ...], check: str) -> list[dict]:
    """One audited decomposition (or exchange idempotent) per member of a
    passing ideal: the first of the ring's that works, from one gather."""
    from .analysis import _exchange_masks, _first_decompositions

    if check == "exchange":
        first = _exchange_masks(ring, members).argmax(axis=1).tolist()
        return [{"element": x, "idempotent": ring.idempotents[j]} for x, j in zip(members, first)]
    found = _first_decompositions(ring, members, plus_only=check == "clean")
    return [{"element": x, **d.to_json_dict()} for x, d in zip(members, found)]


def _cmd_ideal(args: argparse.Namespace) -> int:
    spec, ring = _built(args)
    finite_check, analytic_check = _CHECKS[args.check]
    gens = None if args.gens is None else [_parse_element(ring, g) for g in args.gens]
    if isinstance(ring, LocalizedIntegers):
        ideal = _localized_ideal(ring, gens)
        ok = analytic_check(ideal)
        witness = None
        if not ok:
            if args.check == "uniquely":
                witness = uniqueness_witness_search(ring, ideal, bound=args.bound)
            else:
                flavor = "clean" if args.check == "clean" else "weakly-clean"
                witness = witness_search(ring, ideal, bound=args.bound, flavor=flavor)
        verdict_json = {
            "value": ok,
            "method": "analytic",
            "witness": None if witness is None else str(witness),
        }
        witnesses = None
        lines = [f"ideal {ideal.describe()}: {args.check} {_yn(ok)} [analytic]"]
        if witness is not None:
            lines.append(f"  witness {witness}: no admissible decomposition")
        elif not ok:
            lines.append(f"  no witness within the search bound {args.bound} (raise --bound)")
    else:
        from . import analysis
        from .ideals import _finite_ideal

        ideal = _finite_ideal(ring, gens)
        verdict = getattr(analysis, finite_check)(ring, ideal)
        ok = verdict.ok
        verdict_json = verdict.to_json_dict()
        witnesses = _finite_witness(ring, ideal.members, args.check) if ok else None
        lines = [
            f"ideal {ideal.describe()} ({len(ideal.members)} elements):"
            f" {args.check} {_yn(ok)}"
        ]
        for w in witnesses or ():
            if "unit" in w:
                sign = "+" if w["sign"] == 1 else "-"
                lines.append(f"  {w['element']} = {w['unit']} {sign} {w['idempotent']}")
            else:
                lines.append(
                    f"  element {w['element']}: idempotent {w['idempotent']}"
                    " lands in the required multiple set"
                )
        if not ok:
            lines.append(f"  failing element {verdict.failing}: {verdict.detail}")
    payload = {
        "check": args.check,
        "ideal": ideal.describe(),
        "ok": ok,
        "verdict": verdict_json,
        "witnesses": witnesses,
    }
    return _render(args, payload, lines, ok, spec, ring)


# ---------------------------------------------------------------------------
# radical / idempotents / units


def _cmd_radical(args: argparse.Namespace) -> int:
    spec, ring = _built(args)
    if isinstance(ring, LocalizedIntegers):
        kind, members, generator = "localized", None, str(ring.modulus)
        description = f"<{generator}>"
        line = f"radical {description} (all multiples of {generator})"
    else:
        kind, members, generator = "finite", list(ring.jacobson_radical), None
        description = "{" + ", ".join(str(m) for m in members) + "}"
        line = f"radical {description} ({len(members)} of {ring.order} elements)"
    payload = {
        "kind": kind,
        "members": members,
        "size": None if members is None else len(members),
        "generator": generator,
        "description": description,
    }
    return _render(args, payload, [line], spec=spec, ring=ring)


def _cmd_idempotents(args: argparse.Namespace) -> int:
    spec, ring = _built(args)
    if isinstance(ring, LocalizedIntegers):
        values: list = [str(e) for e in ring.idempotents()]
    else:
        values = list(ring.idempotents)
    payload = {"idempotents": values, "count": len(values)}
    line = f"idempotents ({len(values)}): {', '.join(str(v) for v in values)}"
    return _render(args, payload, [line], spec=spec, ring=ring)


def _cmd_units(args: argparse.Namespace) -> int:
    spec, ring = _built(args)
    if isinstance(ring, LocalizedIntegers):
        criterion = (
            f"a/b is a unit exactly when gcd(a, {ring.modulus}) = 1;"
            f" membership already forces gcd(b, {ring.modulus}) = 1"
        )
        payload = {"kind": "localized", "units": None, "count": None, "criterion": criterion}
        line = f"units: {criterion}"
    else:
        units = list(ring.units)
        payload = {"kind": "finite", "units": units, "count": len(units), "criterion": None}
        line = f"units ({len(units)}): {', '.join(str(u) for u in units)}"
    return _render(args, payload, [line], spec=spec, ring=ring)


# ---------------------------------------------------------------------------
# laws / examples


def _cmd_laws(args: argparse.Namespace) -> int:
    from .laws import LAW_IDS, RING_LAW_IDS, reports_to_json, run_catalog, run_law, run_ring, summarize

    if args.law is not None and args.law not in LAW_IDS:
        raise _UsageError(f"unknown law {args.law!r}; known: {', '.join(LAW_IDS)}")
    if args.catalog:
        reports = run_catalog() if args.law is None else run_law(args.law)
    else:
        if args.law is not None and args.law not in RING_LAW_IDS:
            raise _UsageError(
                f"law {args.law!r} does not run on a single ring; laws --spec runs"
                f" {', '.join(RING_LAW_IDS)}"
            )
        spec = _load_spec(args)
        if isinstance(spec, LocalizedSpec):
            raise _UsageError(
                "laws --spec needs a finite ring; the built-in catalog already"
                " carries the localization instances (use laws --catalog)"
            )
        reports = run_ring(build(spec), label=pretty(spec))
        if args.law is not None:
            reports = [r for r in reports if r.law_id == args.law]
    failed = sum(1 for r in reports if r.verdict == "fail")
    if args.json:
        sys.stdout.write(reports_to_json(reports))
        return 1 if failed else 0
    for r in reports:
        line = f"{r.verdict:7s} {r.law_id:40s} {r.inputs}"
        if r.reason:
            line += f"  [{r.reason}]"
        _emit(line)
    tally = summarize(reports)
    _emit(
        f"{tally['laws']} laws, {tally['reports']} instances:"
        f" {tally['pass']} pass, {tally['fail']} fail, {tally['skipped']} skipped"
        f" ({tally['discriminating']} discriminating, {tally['scanned']} elements scanned)"
    )
    return 1 if failed else 0


def _cmd_examples(args: argparse.Namespace) -> int:
    report = reproduce_examples(bound=args.bound)
    one = report["full_ring_weakly_clean_not_clean"]
    checks = one["witness_checks"]
    two = report["product_not_weakly_clean"]
    product = two["product"]
    lines = [
        f"case study 1: the full ideal of {one['ring']}",
        f"  generator {one['generator']} is a unit: {_yn(one['generator_is_unit'])}"
        f" -> the ideal is {one['ideal']}",
        f"  weakly clean {_yn(one['weakly_clean'])}, clean {_yn(one['clean'])};"
        f" non-clean witness {one['non_clean_witness']}",
        f"  witness checks: x unit {_yn(checks['x_is_unit'])},"
        f" x-1 unit {_yn(checks['x_minus_one_is_unit'])},"
        f" x+1 unit {_yn(checks['x_plus_one_is_unit'])}",
        f"case study 2: a product ideal over {two['ring']}",
        f"  generators {', '.join(two['generators'])} are units ->"
        f" component ideals {', '.join(two['component_ideals'])}",
        f"  weakly clean {_yn(product['ok'])}: {product['detail']}",
    ]
    if product["witness"]:
        pairs = ", ".join(
            f"{w} ({c})"
            for w, c in zip(product["witness"], product["witness_sign_classes"])
        )
        lines.append(f"  witness tuple: {pairs}")
    return _render(args, report, lines)


# ---------------------------------------------------------------------------
# parser assembly


def _add_spec_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("spec", nargs="?", help="inline ring spec, e.g. '(zn 6)'")
    sub.add_argument(
        "--spec-file",
        metavar="FILE",
        help="read the spec from FILE (also accepts raw bimodule tables)",
    )


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cleanrings",
        description="Decide clean and weakly clean properties of ring elements and ideals.",
    )
    top.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    commands = top.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps the subcommand from resetting a --json given before it.
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS, help="emit machine-readable JSON"
    )

    analyze = commands.add_parser(
        "analyze", parents=[common], help="decomposition census for one element"
    )
    _add_spec_arguments(analyze)
    analyze.add_argument("--element", required=True, help="index, or a/b for localizations")
    analyze.set_defaults(func=_cmd_analyze)

    ideal = commands.add_parser(
        "ideal", parents=[common], help="check a property over a whole ideal"
    )
    _add_spec_arguments(ideal)
    ideal.add_argument(
        "--gens",
        nargs="+",
        metavar="G",
        help="ideal generators (omit for the whole ring)",
    )
    ideal.add_argument("--check", required=True, choices=tuple(_CHECKS))
    ideal.add_argument(
        "--bound",
        type=_positive_int,
        default=64,
        help="numerator/denominator bound for localization witness searches",
    )
    ideal.set_defaults(func=_cmd_ideal)

    for name, func, blurb in (
        ("radical", _cmd_radical, "the intersection of the maximal left ideals"),
        ("idempotents", _cmd_idempotents, "list the idempotent elements"),
        ("units", _cmd_units, "list the units, or state the unit criterion"),
    ):
        sub = commands.add_parser(name, parents=[common], help=blurb)
        _add_spec_arguments(sub)
        sub.set_defaults(func=func)

    laws = commands.add_parser(
        "laws", parents=[common], help="run the law suite over the catalog or one ring"
    )
    target = laws.add_mutually_exclusive_group(required=True)
    target.add_argument(
        "--catalog", action="store_true", help="run over the built-in ring catalog"
    )
    target.add_argument("--spec", help="run the per-ring laws on one finite ring")
    target.add_argument(
        "--spec-file", metavar="FILE", help="like --spec, reading FILE"
    )
    laws.add_argument("--law", help="restrict to a single law id")
    laws.set_defaults(func=_cmd_laws)

    examples = commands.add_parser(
        "examples",
        parents=[common],
        help="reproduce the two bundled localization case studies",
    )
    examples.add_argument(
        "--bound", type=_positive_int, default=64, help="witness search bound"
    )
    examples.set_defaults(func=_cmd_examples)
    # No option looks like a number, so -7/2, like -7 and -0.5, is a value.
    negative_number = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
    for parser in (top, *commands.choices.values()):
        parser._negative_number_matcher = negative_number
    return top


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"cleanrings: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cleanrings: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # construction and usage failures
        print(f"cleanrings: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not a verdict
        print(f"cleanrings: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
