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
a verdict, reported on one line as "cleanrings: internal error: <type>: <message>";
141, with nothing printed, when the reader closes stdout early (128 + SIGPIPE,
what a shell reports for cat in the same place).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from . import localized
from .dsl import LocalizedSpec, SpecError, build, parse, pretty

# The finite-ring modules (and numpy with them) are imported by the commands
# that need them, so a localization command starts light.
if TYPE_CHECKING:
    from .core import FiniteRing

__all__ = ["main"]


# ---------------------------------------------------------------------------
# shared plumbing


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _fraction_text(value: object) -> str:
    """json's hook for the one non-JSON value a payload holds: a Fraction."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _emit_json(payload: dict) -> None:
    _emit(json.dumps(payload, sort_keys=True, default=_fraction_text))


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
        raise ValueError("give either an inline spec or --spec-file, not both")
    if file_name:
        return parse(Path(file_name).read_text(encoding="utf-8"), allow_tables=True)
    if inline is None:
        raise ValueError("a ring spec is required (inline or via --spec-file)")
    return parse(inline)


def _built(args: argparse.Namespace):
    """(spec, ring, kind): the one place that tells a localization from a
    finite ring; every ring command then asks the kind."""
    spec = _load_spec(args)
    ring = build(spec)
    return spec, ring, (_Localized if isinstance(spec, LocalizedSpec) else _Finite)(ring)


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


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


# each --check value: the property p of its verdicts, analysis.ideal_is_<p>
# for a finite ring and localized.ideal_is_<p>_analytic for a localization
_CHECKS = {
    "clean": "clean",
    "weakly-clean": "weakly_clean",
    "uniquely": "uniquely_weakly_clean",
    "exchange": "weakly_exchange",
}


# ---------------------------------------------------------------------------
# the two kinds of ring: each answers analyze, ideal, radical and units with
# the command's payload fields (or verdict) and text lines


class _Finite:
    """A ring given by operation tables; elements are indices."""

    name = "finite"

    def __init__(self, ring: FiniteRing):
        self.ring = ring

    def element(self, text: str) -> int:
        ring = self.ring
        try:
            value = int(text, 0)
        except ValueError:
            raise ValueError(
                f"elements of the finite ring {ring.label} are indices 0..{ring.order - 1}"
            )
        if not 0 <= value < ring.order:
            raise ValueError(f"element {value} out of range for {ring.label} (order {ring.order})")
        return value

    def analyze(self, x: int):
        from .analysis import clean_class

        verdict = clean_class(self.ring, x)
        shown = verdict.decompositions[:12]
        lines = [f"  {x} = {d.unit} {'+' if d.sign == 1 else '-'} {d.idempotent}" for d in shown]
        rest = len(verdict.decompositions) - len(shown)
        if rest:
            lines.append(f"  ... and {rest} more decomposition(s)")
        if not verdict.decompositions:
            lines.append("  no unit-plus-idempotent or unit-minus-idempotent decomposition")
        return verdict, lines

    def ideal(self, gens, check: str, bound: int):
        from . import analysis
        from .ideals import _finite_ideal

        ring = self.ring
        ideal = _finite_ideal(ring, gens)
        verdict = getattr(analysis, f"ideal_is_{_CHECKS[check]}")(ring, ideal)
        witnesses = _finite_witness(ring, ideal.members, check) if verdict.ok else None
        lines = [
            f"ideal {ideal.describe()} ({len(ideal.members)} elements): {check} {_yn(verdict.ok)}"
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
        if not verdict.ok:
            lines.append(f"  failing element {verdict.failing}: {verdict.detail}")
        payload = {"ideal": ideal.describe(), "ok": verdict.ok, "witnesses": witnesses}
        return {**payload, "verdict": verdict.to_json_dict()}, lines

    def radical(self):
        members = list(self.ring.jacobson_radical)
        description = "{" + ", ".join(str(m) for m in members) + "}"
        payload = {"members": members, "size": len(members), "generator": None}
        line = f"radical {description} ({len(members)} of {self.ring.order} elements)"
        return {**payload, "description": description}, [line]

    def units(self):
        units = list(self.ring.units)
        line = f"units ({len(units)}): {', '.join(str(u) for u in units)}"
        return {"units": units, "count": len(units), "criterion": None}, [line]


class _Localized:
    """Z_(P), decided from residues; elements are fractions a/b."""

    name = "localized"

    def __init__(self, ring: localized.LocalizedIntegers):
        self.ring = ring

    def element(self, text: str) -> Fraction:
        try:
            return self.ring.element(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"element {text!r} does not lie in {self.ring.label}: {exc}")

    def analyze(self, x: Fraction):
        verdict = localized.clean_flags(self.ring, x)
        lines = []
        if verdict.unit:
            lines.append(f"  {x} = {x} + 0 and {x} = {x} - 0 ({x} is a unit)")
        if verdict.shifted_down_unit:
            lines.append(f"  {x} = {x - 1} + 1 ({x - 1} is a unit)")
        if verdict.shifted_up_unit:
            lines.append(f"  {x} = {x + 1} - 1 ({x + 1} is a unit)")
        if not verdict.is_weakly_clean:
            lines.append(f"  none of {x}, {x - 1}, {x + 1} is a unit: no decomposition")
        return verdict, lines

    def ideal(self, gens, check: str, bound: int):
        ring = self.ring
        ideal = localized._localized_ideal(ring, gens)
        ok = getattr(localized, f"ideal_is_{_CHECKS[check]}_analytic")(ideal)
        witness = None
        if not ok:
            if check == "uniquely":
                witness = localized.uniqueness_witness_search(ring, ideal, bound=bound)
            else:
                flavor = "clean" if check == "clean" else "weakly-clean"
                witness = localized.witness_search(ring, ideal, bound=bound, flavor=flavor)
        lines = [f"ideal {ideal.describe()}: {check} {_yn(ok)} [analytic]"]
        if witness is not None:
            lines.append(f"  witness {witness}: no admissible decomposition")
        elif not ok:
            lines.append(f"  no witness within the search bound {bound} (raise --bound)")
        verdict = {"value": ok, "method": "analytic", "witness": witness}
        return {"ideal": ideal.describe(), "ok": ok, "verdict": verdict, "witnesses": None}, lines

    def radical(self):
        g = self.ring.modulus
        payload = {"members": None, "size": None, "generator": str(g), "description": f"<{g}>"}
        return payload, [f"radical <{g}> (all multiples of {g})"]

    def units(self):
        modulus = self.ring.modulus
        criterion = (
            f"a/b is a unit exactly when gcd(a, {modulus}) = 1;"
            f" membership already forces gcd(b, {modulus}) = 1"
        )
        return {"units": None, "count": None, "criterion": criterion}, [f"units: {criterion}"]


# ---------------------------------------------------------------------------
# the ring commands


def _finite_witness(ring: FiniteRing, members: tuple[int, ...], check: str) -> list[dict]:
    """One audited decomposition (or exchange idempotent) per member of a
    passing ideal: the first of the ring's that works, from one gather."""
    from .analysis import _exchange_masks, _first_decompositions

    if check == "exchange":
        first = _exchange_masks(ring, members).argmax(axis=1).tolist()
        return [{"element": x, "idempotent": ring.idempotents[j]} for x, j in zip(members, first)]
    found = _first_decompositions(ring, members, plus_only=check == "clean")
    return [{"element": x, **d.to_json_dict()} for x, d in zip(members, found)]


def _cmd_analyze(args: argparse.Namespace) -> int:
    spec, ring, kind = _built(args)
    x = kind.element(args.element)
    verdict, lines = kind.analyze(x)
    ok = verdict.is_weakly_clean
    census = (
        f"element {x}: clean {_yn(verdict.is_clean)},"
        f" weakly clean {_yn(ok)},"
        f" uniquely weakly clean {_yn(verdict.is_uniquely_weakly_clean)}"
    )
    payload = {"ok": ok, "verdict": verdict.to_json_dict()}
    return _render(args, payload, [census, *lines], ok, spec, ring)


def _cmd_ideal(args: argparse.Namespace) -> int:
    spec, ring, kind = _built(args)
    gens = None if args.gens is None else [kind.element(g) for g in args.gens]
    payload, lines = kind.ideal(gens, args.check, args.bound)
    return _render(args, {"check": args.check, **payload}, lines, payload["ok"], spec, ring)


def _cmd_structure(args: argparse.Namespace) -> int:
    """radical and units: the kind's answer, under the command's name."""
    spec, ring, kind = _built(args)
    payload, lines = getattr(kind, args.command)()
    return _render(args, {"kind": kind.name, **payload}, lines, spec=spec, ring=ring)


def _cmd_idempotents(args: argparse.Namespace) -> int:
    spec, ring, _ = _built(args)
    values = list(ring.idempotents)
    line = f"idempotents ({len(values)}): {', '.join(str(v) for v in values)}"
    payload = {"idempotents": values, "count": len(values)}
    return _render(args, payload, [line], spec=spec, ring=ring)


# ---------------------------------------------------------------------------
# laws / examples


def _cmd_laws(args: argparse.Namespace) -> int:
    from .laws import LAW_IDS, RING_LAW_IDS, reports_to_json, run_catalog, run_law, run_ring, summarize

    if args.law is not None and args.law not in LAW_IDS:
        raise ValueError(f"unknown law {args.law!r}; known: {', '.join(LAW_IDS)}")
    if args.catalog:
        reports = run_catalog() if args.law is None else run_law(args.law)
    else:
        if args.law is not None and args.law not in RING_LAW_IDS:
            raise ValueError(
                f"law {args.law!r} does not run on a single ring; laws --spec runs"
                f" {', '.join(RING_LAW_IDS)}"
            )
        spec = _load_spec(args)
        if isinstance(spec, LocalizedSpec):
            raise ValueError(
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
    report = localized.reproduce_examples(bound=args.bound)
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
        ("radical", _cmd_structure, "the intersection of the maximal left ideals"),
        ("idempotents", _cmd_idempotents, "list the idempotent elements"),
        ("units", _cmd_structure, "list the units, or state the unit criterion"),
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
    stdout = sys.stdout
    if isinstance(getattr(stdout, "buffer", None), io.RawIOBase):
        # Unbuffered (python -u), a write that a closing pipe takes in part counts
        # as whole; a line-buffered writer writes the rest, and so fails.
        sys.stdout = open(stdout.fileno(), "w", 1, stdout.encoding, stdout.errors, closefd=False)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here at the latest
        return code
    except BrokenPipeError:  # the reader has gone: stop quietly, as cat does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (SpecError, OSError) as exc:
        print(f"cleanrings: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # construction and usage failures
        print(f"cleanrings: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not a verdict
        print(f"cleanrings: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        sys.stdout = stdout


if __name__ == "__main__":
    sys.exit(main())
