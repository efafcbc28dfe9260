"""A small prefix-form language for describing rings on the command line.

Grammar (parenthesized prefix form)::

    spec      := (zn N)
               | (product spec spec ...)
               | (matrix K spec)
               | (tri2 spec spec module)
               | (tri3 spec spec spec module module module)
               | (morita spec spec module module)
               | (idealize spec module)
               | (quotient spec ideal)
               | (series spec K)
               | (localized P P ...)
               | (corner spec E)
    module    := regular | zero | (znmod M)
    ideal     := (ideal N N ...) | (ideal all)

Examples: ``(zn 6)``, ``(product (zn 2) (zn 4))``, ``(matrix 2 (zn 2))``,
``(localized 3 5)``, ``(quotient (zn 8) (ideal 4))``, ``(series (zn 2) 3)``.

Parsing happens in three stages with distinct diagnostics, each carrying the
line and column of the offending token and, where sensible, the set of
expected tokens:

* lexical   (``SpecLexicalError``)  -- a character that cannot start a token;
* syntactic (``SpecSyntaxError``)   -- bad nesting, missing ``)``, trailing
  input;
* arity     (``SpecArityError``)    -- a structurally valid form with the
  wrong number or kind of arguments (this class also covers value errors
  such as ``(zn 0)`` and nesting a localization inside a construction);
* size      (``SpecSizeError``)     -- the order estimate, computed before
  any table is built, exceeds the active size cap.

``parse`` returns an immutable AST; ``build`` turns an AST into a live ring;
``pretty`` renders an AST back to canonical text, and parsing that text
yields an equal AST.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .constructions import (
    Bimodule,
    corner_ring,
    direct_product,
    idealization,
    matrix_ring,
    morita_zero,
    quotient,
    regular_bimodule,
    tri2,
    tri3,
    truncated_power_series,
    zero_bimodule,
    zn,
    zn_bimodule,
)
from .core import FiniteRing, size_cap
from .ideals import full_ideal, ideal_closure
from .localized import LocalizedIntegers

__all__ = [
    "CornerSpec",
    "IdealRef",
    "IdealizeSpec",
    "LocalizedSpec",
    "MatrixSpec",
    "ModuleRef",
    "MoritaSpec",
    "ProductSpec",
    "QuotientSpec",
    "RingSpec",
    "SeriesSpec",
    "SpecArityError",
    "SpecError",
    "SpecLexicalError",
    "SpecSizeError",
    "SpecSyntaxError",
    "Tri2Spec",
    "Tri3Spec",
    "ZnSpec",
    "build",
    "parse",
    "pretty",
    "size_estimate",
]


# ---------------------------------------------------------------------------
# diagnostics


class SpecError(ValueError):
    """Base class for spec-language diagnostics with source position."""

    category = "error"

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected
        suffix = f" (expected {' or '.join(expected)})" if expected else ""
        super().__init__(f"{self.category} error at {line}:{col}: {message}{suffix}")


class SpecLexicalError(SpecError):
    category = "lexical"


class SpecSyntaxError(SpecError):
    category = "syntax"


class SpecArityError(SpecError):
    category = "arity"


class SpecSizeError(SpecError):
    category = "size-cap"


# ---------------------------------------------------------------------------
# tokens and reader


@dataclass(frozen=True)
class _Token:
    kind: str  # "lparen" | "rparen" | "int" | "symbol" | "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch == "(":
            tokens.append(_Token("lparen", "(", line, col))
            col += 1
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token("rparen", ")", line, col))
            col += 1
            i += 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            start = i
            start_col = col
            i += 1
            col += 1
            while i < n and text[i].isdigit():
                i += 1
                col += 1
            tokens.append(_Token("int", text[start:i], line, start_col))
            continue
        if ch.isalpha():
            start = i
            start_col = col
            while i < n and (text[i].isalnum() or text[i] in "-_"):
                i += 1
                col += 1
            tokens.append(_Token("symbol", text[start:i], line, start_col))
            continue
        raise SpecLexicalError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


@dataclass(frozen=True)
class _Atom:
    token: _Token


@dataclass(frozen=True)
class _List:
    items: tuple[Union["_Atom", "_List"], ...]
    open_token: _Token


def _read(tokens: list[_Token], pos: int) -> tuple[Union[_Atom, _List], int]:
    tok = tokens[pos]
    if tok.kind in ("int", "symbol"):
        return _Atom(tok), pos + 1
    if tok.kind == "lparen":
        items: list[Union[_Atom, _List]] = []
        cursor = pos + 1
        while True:
            inner = tokens[cursor]
            if inner.kind == "rparen":
                return _List(tuple(items), tok), cursor + 1
            if inner.kind == "eof":
                raise SpecSyntaxError(
                    "unterminated form at end of input",
                    inner.line,
                    inner.col,
                    expected=(")",),
                )
            item, cursor = _read(tokens, cursor)
            items.append(item)
    if tok.kind == "rparen":
        raise SpecSyntaxError("unmatched ')'", tok.line, tok.col, expected=("(",))
    raise SpecSyntaxError("empty input", tok.line, tok.col, expected=("(",))


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class ZnSpec:
    n: int


@dataclass(frozen=True)
class ProductSpec:
    factors: tuple["RingSpec", ...]


@dataclass(frozen=True)
class MatrixSpec:
    k: int
    base: "RingSpec"


@dataclass(frozen=True)
class ModuleRef:
    """A bimodule reference: ``regular``, ``zero``, ``znmod m``, or raw tables.

    The ``table`` kind carries (addition, left action, right action) as nested
    tuples of indices and is only accepted when parsing a spec file.
    """

    kind: str  # "regular" | "zero" | "znmod" | "table"
    m: int | None = None
    tables: tuple[tuple[tuple[int, ...], ...], ...] | None = None


@dataclass(frozen=True)
class Tri2Spec:
    r: "RingSpec"
    s: "RingSpec"
    lower: ModuleRef


@dataclass(frozen=True)
class Tri3Spec:
    a1: "RingSpec"
    a2: "RingSpec"
    a3: "RingSpec"
    m21: ModuleRef
    m31: ModuleRef
    m32: ModuleRef


@dataclass(frozen=True)
class MoritaSpec:
    r: "RingSpec"
    s: "RingSpec"
    upper: ModuleRef
    lower: ModuleRef


@dataclass(frozen=True)
class IdealizeSpec:
    base: "RingSpec"
    module: ModuleRef


@dataclass(frozen=True)
class IdealRef:
    """Ideal generators, or the whole ring when ``generators`` is None."""

    generators: tuple[int, ...] | None


@dataclass(frozen=True)
class QuotientSpec:
    base: "RingSpec"
    ideal: IdealRef


@dataclass(frozen=True)
class SeriesSpec:
    base: "RingSpec"
    k: int


@dataclass(frozen=True)
class LocalizedSpec:
    primes: tuple[int, ...]


@dataclass(frozen=True)
class CornerSpec:
    base: "RingSpec"
    element: int


RingSpec = Union[
    ZnSpec,
    ProductSpec,
    MatrixSpec,
    Tri2Spec,
    Tri3Spec,
    MoritaSpec,
    IdealizeSpec,
    QuotientSpec,
    SeriesSpec,
    LocalizedSpec,
    CornerSpec,
]


# ---------------------------------------------------------------------------
# analyzer


def _need_int(node: Union[_Atom, _List], what: str, *, minimum: int = 1) -> int:
    if isinstance(node, _Atom) and node.token.kind == "int":
        value = int(node.token.text)
        if value < minimum:
            raise SpecArityError(
                f"{what} must be at least {minimum}, got {value}",
                node.token.line,
                node.token.col,
            )
        return value
    tok = node.token if isinstance(node, _Atom) else node.open_token
    raise SpecArityError(
        f"{what} must be an integer", tok.line, tok.col, expected=("integer",)
    )


def _need_arity(form: _List, head: str, count: int) -> None:
    if len(form.items) - 1 != count:
        raise SpecArityError(
            f"{head} takes {count} argument(s), got {len(form.items) - 1}",
            form.open_token.line,
            form.open_token.col,
        )


def _int_rows(form: _List, skip: int, what: str) -> tuple[tuple[int, ...], ...]:
    rows = []
    for item in form.items[skip:]:
        if not isinstance(item, _List) or not item.items:
            tok = item.token if isinstance(item, _Atom) else item.open_token
            raise SpecArityError(
                f"{what} rows must be parenthesized integer lists",
                tok.line,
                tok.col,
                expected=("(",),
            )
        rows.append(
            tuple(_need_int(cell, f"{what} entry", minimum=0) for cell in item.items)
        )
    return tuple(rows)


def _analyze_table_module(node: _List) -> ModuleRef:
    blocks: dict[str, tuple[tuple[int, ...], ...]] = {}
    for item in node.items[1:]:
        head = item.items[0] if isinstance(item, _List) and item.items else None
        name = head.token.text if isinstance(head, _Atom) else None
        if name not in ("add", "left", "right") or name in blocks:
            tok = item.token if isinstance(item, _Atom) else item.open_token
            raise SpecArityError(
                "a table module needs one add, one left, and one right block",
                tok.line,
                tok.col,
                expected=("(add ...)", "(left ...)", "(right ...)"),
            )
        blocks[name] = _int_rows(item, 1, name)
    if set(blocks) != {"add", "left", "right"}:
        raise SpecArityError(
            "a table module needs one add, one left, and one right block",
            node.open_token.line,
            node.open_token.col,
        )
    return ModuleRef("table", tables=(blocks["add"], blocks["left"], blocks["right"]))


def _analyze_module(node: Union[_Atom, _List], *, allow_tables: bool) -> ModuleRef:
    expected = ("regular", "zero", "(znmod m)") + (
        ("(table ...)",) if allow_tables else ()
    )
    if isinstance(node, _Atom) and node.token.kind == "symbol":
        if node.token.text in ("regular", "zero"):
            return ModuleRef(node.token.text)
        raise SpecArityError(
            f"unknown module name {node.token.text!r}",
            node.token.line,
            node.token.col,
            expected=expected,
        )
    if isinstance(node, _List) and node.items:
        head = node.items[0]
        if isinstance(head, _Atom) and head.token.text == "znmod":
            _need_arity(node, "znmod", 1)
            return ModuleRef("znmod", _need_int(node.items[1], "znmod modulus"))
        if isinstance(head, _Atom) and head.token.text == "table":
            if not allow_tables:
                raise SpecArityError(
                    "table modules are only accepted in a spec file",
                    node.open_token.line,
                    node.open_token.col,
                    expected=("regular", "zero", "(znmod m)"),
                )
            return _analyze_table_module(node)
    tok = node.token if isinstance(node, _Atom) else node.open_token
    raise SpecArityError(
        "a module must name a built-in bimodule",
        tok.line,
        tok.col,
        expected=expected,
    )


def _analyze_ideal(node: Union[_Atom, _List]) -> IdealRef:
    if isinstance(node, _List) and node.items:
        head = node.items[0]
        if isinstance(head, _Atom) and head.token.text == "ideal":
            if len(node.items) < 2:
                raise SpecArityError(
                    "ideal needs generators or the word all",
                    node.open_token.line,
                    node.open_token.col,
                )
            first = node.items[1]
            if (
                len(node.items) == 2
                and isinstance(first, _Atom)
                and first.token.text == "all"
            ):
                return IdealRef(None)
            gens = tuple(
                _need_int(item, "ideal generator", minimum=0)
                for item in node.items[1:]
            )
            return IdealRef(gens)
    tok = node.token if isinstance(node, _Atom) else node.open_token
    raise SpecArityError(
        "expected an (ideal ...) form",
        tok.line,
        tok.col,
        expected=("(ideal gens...)", "(ideal all)"),
    )


def _check_regular(
    ref: ModuleRef,
    left: "RingSpec",
    right: "RingSpec",
    node: Union[_Atom, _List],
    where: str,
) -> None:
    """The regular bimodule only exists over a single ring on both sides."""
    if ref.kind == "regular" and left != right:
        tok = node.token if isinstance(node, _Atom) else node.open_token
        raise SpecArityError(
            f"the regular module in {where} needs both neighbouring rings equal",
            tok.line,
            tok.col,
            expected=("zero", "(znmod m)"),
        )


def _analyze(node: Union[_Atom, _List], *, toplevel: bool, allow_tables: bool) -> RingSpec:
    if isinstance(node, _Atom):
        raise SpecSyntaxError(
            f"expected a parenthesized form, got {node.token.text!r}",
            node.token.line,
            node.token.col,
            expected=("(",),
        )
    if not node.items:
        raise SpecSyntaxError(
            "empty form", node.open_token.line, node.open_token.col
        )
    head = node.items[0]
    if not (isinstance(head, _Atom) and head.token.kind == "symbol"):
        tok = head.token if isinstance(head, _Atom) else head.open_token
        raise SpecSyntaxError(
            "a form must start with a construction name",
            tok.line,
            tok.col,
            expected=("symbol",),
        )
    name = head.token.text
    args = node.items[1:]

    def sub(child: Union[_Atom, _List]) -> RingSpec:
        return _analyze(child, toplevel=False, allow_tables=allow_tables)

    if name == "zn":
        _need_arity(node, "zn", 1)
        return ZnSpec(_need_int(args[0], "zn modulus"))
    if name == "product":
        if not args:
            raise SpecArityError(
                "product needs at least one factor",
                node.open_token.line,
                node.open_token.col,
            )
        return ProductSpec(tuple(sub(a) for a in args))
    if name == "matrix":
        _need_arity(node, "matrix", 2)
        return MatrixSpec(_need_int(args[0], "matrix size"), sub(args[1]))
    if name == "tri2":
        _need_arity(node, "tri2", 3)
        r, s = sub(args[0]), sub(args[1])
        lower = _analyze_module(args[2], allow_tables=allow_tables)
        _check_regular(lower, s, r, args[2], "tri2")
        return Tri2Spec(r, s, lower)
    if name == "tri3":
        _need_arity(node, "tri3", 6)
        rings = tuple(sub(a) for a in args[:3])
        mods = tuple(_analyze_module(a, allow_tables=allow_tables) for a in args[3:6])
        for ref, (li, ri), arg in zip(mods, ((1, 0), (2, 0), (2, 1)), args[3:6]):
            _check_regular(ref, rings[li], rings[ri], arg, "tri3")
        return Tri3Spec(*rings, *mods)
    if name == "morita":
        _need_arity(node, "morita", 4)
        r, s = sub(args[0]), sub(args[1])
        upper = _analyze_module(args[2], allow_tables=allow_tables)
        lower = _analyze_module(args[3], allow_tables=allow_tables)
        _check_regular(upper, r, s, args[2], "morita")
        _check_regular(lower, s, r, args[3], "morita")
        return MoritaSpec(r, s, upper, lower)
    if name == "idealize":
        _need_arity(node, "idealize", 2)
        return IdealizeSpec(sub(args[0]), _analyze_module(args[1], allow_tables=allow_tables))
    if name == "quotient":
        _need_arity(node, "quotient", 2)
        return QuotientSpec(sub(args[0]), _analyze_ideal(args[1]))
    if name == "series":
        _need_arity(node, "series", 2)
        return SeriesSpec(sub(args[0]), _need_int(args[1], "series truncation"))
    if name == "localized":
        if not toplevel:
            raise SpecArityError(
                "localized rings cannot be nested inside constructions",
                node.open_token.line,
                node.open_token.col,
            )
        if not args:
            raise SpecArityError(
                "localized needs at least one prime",
                node.open_token.line,
                node.open_token.col,
            )
        return LocalizedSpec(
            tuple(_need_int(a, "localized prime", minimum=2) for a in args)
        )
    if name == "corner":
        _need_arity(node, "corner", 2)
        return CornerSpec(sub(args[0]), _need_int(args[1], "corner idempotent", minimum=0))
    raise SpecArityError(
        f"unknown construction {name!r}",
        head.token.line,
        head.token.col,
        expected=(
            "zn",
            "product",
            "matrix",
            "tri2",
            "tri3",
            "morita",
            "idealize",
            "quotient",
            "series",
            "localized",
            "corner",
        ),
    )


def parse(text: str, *, allow_tables: bool = False) -> RingSpec:
    """Parse source text into a RingSpec, raising a positioned diagnostic.

    allow_tables admits raw bimodule tables (the spec-file-only form).
    """
    tokens = _tokenize(text)
    node, pos = _read(tokens, 0)
    trailing = tokens[pos]
    if trailing.kind != "eof":
        raise SpecSyntaxError(
            f"trailing input {trailing.text!r} after the spec",
            trailing.line,
            trailing.col,
            expected=("end of input",),
        )
    spec = _analyze(node, toplevel=True, allow_tables=allow_tables)
    estimate = size_estimate(spec)
    limit = size_cap(None)
    if estimate is not None and estimate > limit:
        raise SpecSizeError(
            f"estimated order exceeds the size cap {limit}",
            node.open_token.line if isinstance(node, _List) else 1,
            node.open_token.col if isinstance(node, _List) else 1,
        )
    return spec


# ---------------------------------------------------------------------------
# size estimation (before any table is built)


def _module_size(ref: ModuleRef, default: int) -> int:
    if ref.kind == "zero":
        return 1
    if ref.kind == "znmod":
        return ref.m or 1
    if ref.kind == "table":
        return len(ref.tables[0]) if ref.tables else 1
    return default


def size_estimate(spec: RingSpec) -> int | None:
    """Order of the ring the spec describes, or None for infinite rings.

    Every level is clamped at one above the size cap, so the estimate is
    exact at or below the cap and above it exactly when the true order is,
    however deeply the spec nests.
    """
    order = _one_level(spec)
    return None if order is None else min(order, size_cap(None) + 1)


def _one_level(spec: RingSpec) -> int | None:
    """The order from the clamped estimates of the spec's parts."""
    # A base of 2 or more raised to this many already exceeds the clamp.
    most = (size_cap(None) + 1).bit_length()
    if isinstance(spec, ZnSpec):
        return spec.n
    if isinstance(spec, LocalizedSpec):
        return None
    if isinstance(spec, ProductSpec):
        total = 1
        for f in spec.factors:
            total *= size_estimate(f) or 1
        return total
    if isinstance(spec, MatrixSpec):
        return (size_estimate(spec.base) or 1) ** min(spec.k * spec.k, most)
    if isinstance(spec, Tri2Spec):
        r = size_estimate(spec.r) or 1
        s = size_estimate(spec.s) or 1
        return r * _module_size(spec.lower, s) * s
    if isinstance(spec, Tri3Spec):
        a1 = size_estimate(spec.a1) or 1
        a2 = size_estimate(spec.a2) or 1
        a3 = size_estimate(spec.a3) or 1
        return (
            a1
            * a2
            * a3
            * _module_size(spec.m21, a2)
            * _module_size(spec.m31, a3)
            * _module_size(spec.m32, a3)
        )
    if isinstance(spec, MoritaSpec):
        r = size_estimate(spec.r) or 1
        s = size_estimate(spec.s) or 1
        return r * s * _module_size(spec.upper, r) * _module_size(spec.lower, s)
    if isinstance(spec, IdealizeSpec):
        base = size_estimate(spec.base) or 1
        return base * _module_size(spec.module, base)
    if isinstance(spec, QuotientSpec):
        return size_estimate(spec.base)
    if isinstance(spec, SeriesSpec):
        return (size_estimate(spec.base) or 1) ** min(spec.k, most)
    if isinstance(spec, CornerSpec):
        return size_estimate(spec.base)
    raise TypeError(f"not a RingSpec: {spec!r}")


# ---------------------------------------------------------------------------
# building


def build(spec: RingSpec) -> FiniteRing | LocalizedIntegers:
    """Construct the ring a spec describes.

    Returns a FiniteRing for every finite construction and a
    LocalizedIntegers for (localized ...). Equal sub-specs build the same
    ring object, so a regular bimodule always sits over the very ring it is
    attached to. Construction-level validation failures (bad moduli for
    bimodules, non-idempotent corner elements, generators out of range)
    propagate as the constructions' own errors.
    """
    if isinstance(spec, LocalizedSpec):
        return LocalizedIntegers(spec.primes)
    memo: dict[RingSpec, FiniteRing] = {}

    def go(node: RingSpec) -> FiniteRing:
        if node in memo:
            return memo[node]
        ring = _build_finite(node, go)
        memo[node] = ring
        return ring

    return go(spec)


def _build_finite(spec: RingSpec, go) -> FiniteRing:
    def module(ref: ModuleRef, left: FiniteRing, right: FiniteRing):
        if ref.kind == "zero":
            return zero_bimodule(left, right)
        if ref.kind == "znmod":
            return zn_bimodule(left, right, ref.m or 1)
        if ref.kind == "table" and ref.tables is not None:
            add, la, ra = ref.tables
            return Bimodule(left, right, add, la, ra, label="table")
        if left is not right:  # unreachable after analysis
            raise SpecArityError("regular module over two different rings", 1, 1)
        return regular_bimodule(left)

    if isinstance(spec, ZnSpec):
        return zn(spec.n)
    if isinstance(spec, ProductSpec):
        return direct_product([go(f) for f in spec.factors])
    if isinstance(spec, MatrixSpec):
        return matrix_ring(go(spec.base), spec.k)
    if isinstance(spec, Tri2Spec):
        r, s = go(spec.r), go(spec.s)
        return tri2(r, s, module(spec.lower, s, r))
    if isinstance(spec, Tri3Spec):
        a1, a2, a3 = go(spec.a1), go(spec.a2), go(spec.a3)
        return tri3(
            a1,
            a2,
            a3,
            module(spec.m21, a2, a1),
            module(spec.m31, a3, a1),
            module(spec.m32, a3, a2),
        )
    if isinstance(spec, MoritaSpec):
        r, s = go(spec.r), go(spec.s)
        return morita_zero(r, s, module(spec.upper, r, s), module(spec.lower, s, r))
    if isinstance(spec, IdealizeSpec):
        base = go(spec.base)
        return idealization(base, module(spec.module, base, base))
    if isinstance(spec, QuotientSpec):
        base = go(spec.base)
        if spec.ideal.generators is None:
            ideal = full_ideal(base)
        else:
            ideal = ideal_closure(base, spec.ideal.generators)
        ring, _ = quotient(base, ideal)
        return ring
    if isinstance(spec, SeriesSpec):
        return truncated_power_series(go(spec.base), spec.k)
    if isinstance(spec, CornerSpec):
        return corner_ring(go(spec.base), spec.element).ring
    if isinstance(spec, LocalizedSpec):  # unreachable after analysis
        raise SpecArityError("localized rings cannot be nested", 1, 1)
    raise TypeError(f"not a RingSpec: {spec!r}")


# ---------------------------------------------------------------------------
# pretty-printing (canonical round-trippable text)


def _pretty_module(ref: ModuleRef) -> str:
    if ref.kind == "znmod":
        return f"(znmod {ref.m})"
    if ref.kind == "table" and ref.tables is not None:
        def rows(t):
            return " ".join("(" + " ".join(str(c) for c in row) + ")" for row in t)
        add, la, ra = ref.tables
        return f"(table (add {rows(add)}) (left {rows(la)}) (right {rows(ra)}))"
    return ref.kind


def pretty(spec: RingSpec) -> str:
    """Canonical text for a spec; parsing it again gives an equal AST."""
    if isinstance(spec, ZnSpec):
        return f"(zn {spec.n})"
    if isinstance(spec, ProductSpec):
        return "(product " + " ".join(pretty(f) for f in spec.factors) + ")"
    if isinstance(spec, MatrixSpec):
        return f"(matrix {spec.k} {pretty(spec.base)})"
    if isinstance(spec, Tri2Spec):
        return f"(tri2 {pretty(spec.r)} {pretty(spec.s)} {_pretty_module(spec.lower)})"
    if isinstance(spec, Tri3Spec):
        parts = [pretty(spec.a1), pretty(spec.a2), pretty(spec.a3)]
        parts += [_pretty_module(m) for m in (spec.m21, spec.m31, spec.m32)]
        return "(tri3 " + " ".join(parts) + ")"
    if isinstance(spec, MoritaSpec):
        return (
            f"(morita {pretty(spec.r)} {pretty(spec.s)}"
            f" {_pretty_module(spec.upper)} {_pretty_module(spec.lower)})"
        )
    if isinstance(spec, IdealizeSpec):
        return f"(idealize {pretty(spec.base)} {_pretty_module(spec.module)})"
    if isinstance(spec, QuotientSpec):
        if spec.ideal.generators is None:
            inner = "(ideal all)"
        else:
            inner = "(ideal " + " ".join(str(g) for g in spec.ideal.generators) + ")"
        return f"(quotient {pretty(spec.base)} {inner})"
    if isinstance(spec, SeriesSpec):
        return f"(series {pretty(spec.base)} {spec.k})"
    if isinstance(spec, LocalizedSpec):
        return "(localized " + " ".join(str(p) for p in spec.primes) + ")"
    if isinstance(spec, CornerSpec):
        return f"(corner {pretty(spec.base)} {spec.element})"
    raise TypeError(f"not a RingSpec: {spec!r}")
