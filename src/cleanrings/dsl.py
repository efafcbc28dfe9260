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

Parsing happens in four stages with distinct diagnostics, each carrying the
line and column of the offending token and, where sensible, the set of
expected tokens:

* lexical   (``SpecLexicalError``)  -- a character that cannot start a token;
* syntactic (``SpecSyntaxError``)   -- bad nesting, forms nested more than
  100 deep, missing ``)``, trailing input;
* arity     (``SpecArityError``)    -- a structurally valid form with the
  wrong number or kind of arguments (this class also covers value errors
  such as ``(zn 0)`` and nesting a localization inside a construction);
* size      (``SpecSizeError``)     -- the order estimate, computed before
  any table is built, exceeds the active size cap.

``parse`` returns an immutable AST; ``build`` turns an AST into a live ring;
``pretty`` renders an AST back to canonical text, and parsing that text
yields an equal AST. Each construction is declared once, in
``_CONSTRUCTIONS``, by its head, its AST class and the kind of each argument;
the analyzer, the size estimate, the builder and the pretty-printer all walk
those declarations.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Union

from .limits import size_cap
from .localized import LocalizedIntegers, _Value

if TYPE_CHECKING:
    from .core import FiniteRing

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

    @classmethod
    def at(cls, token: "_Token", message: str, *expected: str) -> "SpecError":
        """The diagnostic for a message at a token's position."""
        return cls(message, token.line, token.col, expected)


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


class _Token(_Value):
    kind: str  # "lparen" | "rparen" | "int" | "symbol" | "eof"
    text: str
    line: int
    col: int

    def __init__(self, kind: str, text: str, line: int, col: int):
        # One per token: spelled out, it builds as fast as a dataclass.
        self.__dict__.update(kind=kind, text=text, line=line, col=col)


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


class _Atom(_Value):
    token: _Token


class _List(_Value):
    items: tuple[Union["_Atom", "_List"], ...]
    open_token: _Token


def _first(node: Union[_Atom, _List]) -> _Token:
    """The token a node starts with."""
    return node.token if isinstance(node, _Atom) else node.open_token


# Deeper forms are refused while reading, so no later stage can exhaust the
# interpreter's recursion limit.
_MAX_DEPTH = 100


def _read(tokens: list[_Token], pos: int, depth: int = 1) -> tuple[Union[_Atom, _List], int]:
    tok = tokens[pos]
    if tok.kind in ("int", "symbol"):
        return _Atom(tok), pos + 1
    if tok.kind == "lparen":
        if depth > _MAX_DEPTH:
            raise SpecSyntaxError.at(tok, f"forms nest more than {_MAX_DEPTH} levels deep")
        items: list[Union[_Atom, _List]] = []
        cursor = pos + 1
        while True:
            inner = tokens[cursor]
            if inner.kind == "rparen":
                return _List(tuple(items), tok), cursor + 1
            if inner.kind == "eof":
                raise SpecSyntaxError.at(inner, "unterminated form at end of input", ")")
            item, cursor = _read(tokens, cursor, depth + 1)
            items.append(item)
    if tok.kind == "rparen":
        raise SpecSyntaxError.at(tok, "unmatched ')'", "(")
    raise SpecSyntaxError.at(tok, "empty input", "(")


# ---------------------------------------------------------------------------
# AST


class ZnSpec(_Value):
    n: int


class ProductSpec(_Value):
    factors: tuple["RingSpec", ...]


class MatrixSpec(_Value):
    k: int
    base: "RingSpec"


class ModuleRef(_Value):
    """A bimodule reference: ``regular``, ``zero``, ``znmod m``, or raw tables.

    The ``table`` kind carries (addition, left action, right action) as nested
    tuples of indices and is only accepted when parsing a spec file.
    """

    kind: str  # "regular" | "zero" | "znmod" | "table"
    m: int | None = None
    tables: tuple[tuple[tuple[int, ...], ...], ...] | None = None


class Tri2Spec(_Value):
    r: "RingSpec"
    s: "RingSpec"
    lower: ModuleRef


class Tri3Spec(_Value):
    a1: "RingSpec"
    a2: "RingSpec"
    a3: "RingSpec"
    m21: ModuleRef
    m31: ModuleRef
    m32: ModuleRef


class MoritaSpec(_Value):
    r: "RingSpec"
    s: "RingSpec"
    upper: ModuleRef
    lower: ModuleRef


class IdealizeSpec(_Value):
    base: "RingSpec"
    module: ModuleRef


class IdealRef(_Value):
    """Ideal generators, or the whole ring when ``generators`` is None."""

    generators: tuple[int, ...] | None


class QuotientSpec(_Value):
    base: "RingSpec"
    ideal: IdealRef


class SeriesSpec(_Value):
    base: "RingSpec"
    k: int


class LocalizedSpec(_Value):
    primes: tuple[int, ...]


class CornerSpec(_Value):
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
# argument kinds


def _need_int(node: Union[_Atom, _List], what: str, *, minimum: int = 1) -> int:
    tok = _first(node)
    if tok.kind == "int":
        try:
            value = int(tok.text)
        except ValueError:  # more digits than the interpreter converts
            raise SpecArityError.at(
                tok, f"{what} has too many digits ({len(tok.text)})"
            ) from None
        if value < minimum:
            raise SpecArityError.at(tok, f"{what} must be at least {minimum}, got {value}")
        return value
    raise SpecArityError.at(tok, f"{what} must be an integer", "integer")


def _need_arity(form: _List, head: str, count: int) -> None:
    if len(form.items) - 1 != count:
        raise SpecArityError.at(
            form.open_token, f"{head} takes {count} argument(s), got {len(form.items) - 1}"
        )


def _int_rows(form: _List, skip: int, what: str) -> tuple[tuple[int, ...], ...]:
    rows = []
    for item in form.items[skip:]:
        if not isinstance(item, _List) or not item.items:
            raise SpecArityError.at(
                _first(item), f"{what} rows must be parenthesized integer lists", "("
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
            raise SpecArityError.at(
                _first(item),
                "a table module needs one add, one left, and one right block",
                "(add ...)",
                "(left ...)",
                "(right ...)",
            )
        blocks[name] = _int_rows(item, 1, name)
    if set(blocks) != {"add", "left", "right"}:
        raise SpecArityError.at(
            node.open_token, "a table module needs one add, one left, and one right block"
        )
    return ModuleRef("table", tables=(blocks["add"], blocks["left"], blocks["right"]))


class _Kind:
    """How one kind of argument is read, checked, printed, sized and built.

    The defaults suit a plain value: no check beyond reading it, printed with
    str, of order 1, and handed to its construction as it is.
    """

    def check(self, value, spec: RingSpec, node: Union[_Atom, _List], where: str) -> None:
        pass

    def text(self, value) -> str:
        return str(value)

    def order(self, value, orders: dict[str, int]) -> int:
        return 1

    def build(self, value, built: dict, go):
        return value


class _Ring(_Kind):
    """A nested ring spec."""

    def read(self, node: Union[_Atom, _List], allow_tables: bool) -> RingSpec:
        return _analyze(node, toplevel=False, allow_tables=allow_tables)

    def text(self, spec: RingSpec) -> str:
        return pretty(spec)

    def order(self, spec: RingSpec, orders: dict[str, int]) -> int:
        return size_estimate(spec) or 1

    def build(self, spec: RingSpec, built: dict, go) -> FiniteRing:
        decl = _BY_CLASS.get(type(spec))
        if decl is not None and not decl.nested:  # unreachable after analysis
            raise SpecArityError(f"{decl.head} rings cannot be nested", 1, 1)
        return go(spec)


class _Int(_Kind, _Value):
    """A positioned integer, named by its label in diagnostics."""

    label: str
    minimum: int = 1

    def read(self, node: Union[_Atom, _List], allow_tables: bool) -> int:
        return _need_int(node, self.label, minimum=self.minimum)


class _Ideal(_Kind):
    """Ideal generators, or the whole ring."""

    def read(self, node: Union[_Atom, _List], allow_tables: bool) -> IdealRef:
        if isinstance(node, _List) and node.items:
            head = node.items[0]
            if isinstance(head, _Atom) and head.token.text == "ideal":
                if len(node.items) < 2:
                    raise SpecArityError.at(
                        node.open_token, "ideal needs generators or the word all"
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
        raise SpecArityError.at(
            _first(node), "expected an (ideal ...) form", "(ideal gens...)", "(ideal all)"
        )

    def text(self, ref: IdealRef) -> str:
        if ref.generators is None:
            return "(ideal all)"
        return "(ideal " + " ".join(str(g) for g in ref.generators) + ")"


class _Module(_Kind, _Value):
    """A bimodule over the rings held by the fields named left and right."""

    left: str
    right: str

    def read(self, node: Union[_Atom, _List], allow_tables: bool) -> ModuleRef:
        expected = ("regular", "zero", "(znmod m)") + (
            ("(table ...)",) if allow_tables else ()
        )
        if isinstance(node, _Atom) and node.token.kind == "symbol":
            if node.token.text in ("regular", "zero"):
                return ModuleRef(node.token.text)
            raise SpecArityError.at(
                node.token, f"unknown module name {node.token.text!r}", *expected
            )
        if isinstance(node, _List) and node.items:
            head = node.items[0]
            if isinstance(head, _Atom) and head.token.text == "znmod":
                _need_arity(node, "znmod", 1)
                return ModuleRef("znmod", _need_int(node.items[1], "znmod modulus"))
            if isinstance(head, _Atom) and head.token.text == "table":
                if not allow_tables:
                    raise SpecArityError.at(
                        node.open_token,
                        "table modules are only accepted in a spec file",
                        "regular",
                        "zero",
                        "(znmod m)",
                    )
                return _analyze_table_module(node)
        raise SpecArityError.at(
            _first(node), "a module must name a built-in bimodule", *expected
        )

    def check(
        self, ref: ModuleRef, spec: RingSpec, node: Union[_Atom, _List], where: str
    ) -> None:
        """The regular bimodule only exists over a single ring on both sides."""
        if ref.kind == "regular" and getattr(spec, self.left) != getattr(spec, self.right):
            raise SpecArityError.at(
                _first(node),
                f"the regular module in {where} needs both neighbouring rings equal",
                "zero",
                "(znmod m)",
            )

    def text(self, ref: ModuleRef) -> str:
        if ref.kind == "znmod":
            return f"(znmod {ref.m})"
        if ref.kind == "table" and ref.tables is not None:
            def rows(t):
                return " ".join("(" + " ".join(str(c) for c in row) + ")" for row in t)
            add, la, ra = ref.tables
            return f"(table (add {rows(add)}) (left {rows(la)}) (right {rows(ra)}))"
        return ref.kind

    def order(self, ref: ModuleRef, orders: dict[str, int]) -> int:
        if ref.kind == "zero":
            return 1
        if ref.kind == "znmod":
            return ref.m or 1
        if ref.kind == "table":
            return len(ref.tables[0]) if ref.tables else 1
        return orders[self.left]

    def build(self, ref: ModuleRef, built: dict, go):
        c = _constructions()
        left, right = built[self.left], built[self.right]
        if ref.kind == "zero":
            return c.zero_bimodule(left, right)
        if ref.kind == "znmod":
            return c.zn_bimodule(left, right, ref.m or 1)
        if ref.kind == "table" and ref.tables is not None:
            add, la, ra = ref.tables
            return c.Bimodule(left, right, add, la, ra, label="table")
        if left is not right:  # unreachable after analysis
            raise SpecArityError("regular module over two different rings", 1, 1)
        return c.regular_bimodule(left)


_RING = _Ring()
_IDEAL = _Ideal()


# ---------------------------------------------------------------------------
# the constructions, each declared once


class _Construction(_Value):
    """A construction's head, its AST class and the kind of each argument.

    The kinds follow the class's fields, which are in text order. When
    ``many`` is set, the one kind repeats one or more times, the field holds
    a tuple, and ``many`` names one such argument in diagnostics. A
    construction that is not ``nested`` may only be the whole spec.
    """

    head: str
    cls: type
    kinds: tuple[_Kind, ...]
    many: str | None = None
    nested: bool = True


_CONSTRUCTIONS = (
    _Construction("zn", ZnSpec, (_Int("zn modulus"),)),
    _Construction("product", ProductSpec, (_RING,), many="factor"),
    _Construction("matrix", MatrixSpec, (_Int("matrix size"), _RING)),
    _Construction("tri2", Tri2Spec, (_RING, _RING, _Module("s", "r"))),
    _Construction(
        "tri3",
        Tri3Spec,
        (_RING, _RING, _RING, _Module("a2", "a1"), _Module("a3", "a1"), _Module("a3", "a2")),
    ),
    _Construction("morita", MoritaSpec, (_RING, _RING, _Module("r", "s"), _Module("s", "r"))),
    _Construction("idealize", IdealizeSpec, (_RING, _Module("base", "base"))),
    _Construction("quotient", QuotientSpec, (_RING, _IDEAL)),
    _Construction("series", SeriesSpec, (_RING, _Int("series truncation"))),
    _Construction(
        "localized", LocalizedSpec, (_Int("localized prime", 2),), many="prime", nested=False
    ),
    _Construction("corner", CornerSpec, (_RING, _Int("corner idempotent", 0))),
)
_BY_HEAD = {c.head: c for c in _CONSTRUCTIONS}
_BY_CLASS = {c.cls: c for c in _CONSTRUCTIONS}


def _parts(spec: RingSpec):
    """(field name, kind, value) for each argument of a spec, in text order."""
    decl = _BY_CLASS.get(type(spec))
    if decl is None:
        raise TypeError(f"not a RingSpec: {spec!r}")
    for name, kind in zip(spec._fields, decl.kinds):
        value = getattr(spec, name)
        for item in value if decl.many else (value,):
            yield name, kind, item


# ---------------------------------------------------------------------------
# analyzer


def _analyze(node: Union[_Atom, _List], *, toplevel: bool, allow_tables: bool) -> RingSpec:
    if isinstance(node, _Atom):
        raise SpecSyntaxError.at(
            node.token, f"expected a parenthesized form, got {node.token.text!r}", "("
        )
    form = node.open_token
    if not node.items:
        raise SpecSyntaxError.at(form, "empty form")
    head = node.items[0]
    if not (isinstance(head, _Atom) and head.token.kind == "symbol"):
        raise SpecSyntaxError.at(
            _first(head), "a form must start with a construction name", "symbol"
        )
    name = head.token.text
    decl = _BY_HEAD.get(name)
    if decl is None:
        raise SpecArityError.at(head.token, f"unknown construction {name!r}", *_BY_HEAD)
    if not (decl.nested or toplevel):
        raise SpecArityError.at(form, f"{name} rings cannot be nested inside constructions")
    args = node.items[1:]
    if decl.many:
        if not args:
            raise SpecArityError.at(form, f"{name} needs at least one {decl.many}")
        values = [tuple(decl.kinds[0].read(a, allow_tables) for a in args)]
    else:
        _need_arity(node, name, len(decl.kinds))
        values = [kind.read(a, allow_tables) for kind, a in zip(decl.kinds, args)]
    spec = decl.cls(*values)
    for kind, arg, value in zip(decl.kinds, args, values):
        kind.check(value, spec, arg, name)
    return spec


def parse(text: str, *, allow_tables: bool = False) -> RingSpec:
    """Parse source text into a RingSpec, raising a positioned diagnostic.

    allow_tables admits raw bimodule tables (the spec-file-only form).
    """
    tokens = _tokenize(text)
    node, pos = _read(tokens, 0)
    trailing = tokens[pos]
    if trailing.kind != "eof":
        raise SpecSyntaxError.at(
            trailing, f"trailing input {trailing.text!r} after the spec", "end of input"
        )
    spec = _analyze(node, toplevel=True, allow_tables=allow_tables)
    estimate = size_estimate(spec)
    limit = size_cap(None)
    if estimate is not None and estimate > limit:
        raise SpecSizeError.at(node.open_token, f"estimated order exceeds the size cap {limit}")
    return spec


# ---------------------------------------------------------------------------
# size estimation (before any table is built)


# The constructions whose order is not the product of the orders of their
# rings and bimodules. (For quotient and corner that product bounds the
# order from above.)
_ORDERS = {
    ZnSpec: lambda spec: spec.n,
    MatrixSpec: lambda spec: _power(spec.base, spec.k * spec.k),
    SeriesSpec: lambda spec: _power(spec.base, spec.k),
    LocalizedSpec: lambda spec: None,
}


# The estimates of the nodes of the spec being estimated, by node identity,
# per thread: a spec built in Python may reuse one subtree many times, and
# hashing a frozen spec walks it in full, so keys by value would cost what
# the memo saves.
_estimating = threading.local()


def size_estimate(spec: RingSpec) -> int | None:
    """Order of the ring the spec describes, or None for infinite rings.

    Every level is clamped at one above the size cap, so the estimate is
    exact at or below the cap and above it exactly when the true order is,
    however deeply the spec nests. Each node is estimated once per call.
    """
    memo = getattr(_estimating, "memo", None)
    outermost = memo is None
    if outermost:
        memo = _estimating.memo = {}
    try:
        if id(spec) not in memo:
            order = _ORDERS.get(type(spec), _parts_order)(spec)
            memo[id(spec)] = None if order is None else min(order, size_cap(None) + 1)
        return memo[id(spec)]
    finally:
        if outermost:
            _estimating.memo = None


def _power(base: RingSpec, exponent: int) -> int:
    # A base of 2 or more raised to this many already exceeds the clamp.
    most = (size_cap(None) + 1).bit_length()
    return (size_estimate(base) or 1) ** min(exponent, most)


def _parts_order(spec: RingSpec) -> int:
    """The product of the clamped orders of a spec's rings and bimodules.

    It stops once the product reaches the clamp: a part that can be built
    has order at least 1, so the clamped estimate is then fixed, and a spec
    built in Python that reuses one subtree for two parts is not walked
    twice past the cap.
    """
    orders: dict[str, int] = {}
    total = 1
    for name, kind, value in _parts(spec):
        if total > size_cap(None):
            break
        orders[name] = kind.order(value, orders)
        total *= orders[name]
    return total


# ---------------------------------------------------------------------------
# building


def _constructions():
    """The finite-ring constructions, imported when a finite ring is built, so
    that reading a spec or building a localization imports no numpy."""
    from . import constructions

    return constructions


def _ideal(ring: FiniteRing, ref: IdealRef):
    from .ideals import _finite_ideal

    return _finite_ideal(ring, ref.generators)


# Each construction's call, given its built arguments in field order. Every
# entry looks its function up on its module when called, so rebinding a
# module attribute (as perfbench/traced.py does) reaches the call.
_BUILDERS = {
    ZnSpec: lambda n: _constructions().zn(n),
    ProductSpec: lambda *factors: _constructions().direct_product(list(factors)),
    MatrixSpec: lambda k, base: _constructions().matrix_ring(base, k),
    Tri2Spec: lambda r, s, lower: _constructions().tri2(r, s, lower),
    Tri3Spec: lambda *parts: _constructions().tri3(*parts),
    MoritaSpec: lambda r, s, upper, lower: _constructions().morita_zero(r, s, upper, lower),
    IdealizeSpec: lambda base, module: _constructions().idealization(base, module),
    QuotientSpec: lambda base, ideal: _constructions().quotient(base, _ideal(base, ideal))[0],
    SeriesSpec: lambda base, k: _constructions().truncated_power_series(base, k),
    LocalizedSpec: lambda *primes: LocalizedIntegers(primes),
    CornerSpec: lambda base, e: _constructions().corner_ring(base, e).ring,
}


def build(spec: RingSpec) -> FiniteRing | LocalizedIntegers:
    """Construct the ring a spec describes.

    Returns a FiniteRing for every finite construction and a
    LocalizedIntegers for (localized ...). Equal sub-specs build the same
    ring object, so a regular bimodule always sits over the very ring it is
    attached to. Construction-level validation failures (bad moduli for
    bimodules, non-idempotent corner elements, generators out of range)
    propagate as the constructions' own errors.
    """
    memo: dict[RingSpec, FiniteRing | LocalizedIntegers] = {}

    def go(node: RingSpec):
        if node not in memo:
            memo[node] = _build_one(node, go)
        return memo[node]

    return go(spec)


def _build_one(spec: RingSpec, go):
    built: dict[str, object] = {}
    args = []
    for name, kind, value in _parts(spec):
        args.append(kind.build(value, built, go))
        built[name] = args[-1]
    return _BUILDERS[type(spec)](*args)


# ---------------------------------------------------------------------------
# pretty-printing (canonical round-trippable text)


def pretty(spec: RingSpec) -> str:
    """Canonical text for a spec; parsing it again gives an equal AST."""
    parts = [kind.text(value) for _, kind, value in _parts(spec)]
    return "(" + " ".join([_BY_CLASS[type(spec)].head, *parts]) + ")"
