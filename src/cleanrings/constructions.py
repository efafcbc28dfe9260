"""Ring constructors: cyclic rings, products, matrix rings, triangular and
Morita-style block rings, idealizations, quotients, truncated power series,
and corner rings, plus bimodules and pairings as validated tables.

Element encodings are mixed radix with the FIRST component in the most
significant position, reading block matrices row by row. For example a
product Z_2 x Z_3 encodes (a, b) as a*3 + b, a 2x2 matrix ring over R
encodes [[a, b], [c, d]] as ((a*n + b)*n + c)*n + d with n = |R|, and a
truncated series a_0 + a_1 x + ... encodes its coefficient vector with a_0
most significant. These encodings are fixed so serialized rings reproduce
bit for bit; induced ideals in the ideals module rebuild them from each
ring's construction record.

Every composite construction goes through _composite: it supplies its parts
(the rings and bimodules whose orders are the radices), its product's digit
grids as a function of the digit rows, and the digits of its one; addition
is always componentwise. A grid is one flat row of n*n entries, x-major, and
three kernels build them: _outer reads a part's table at the digits of x and
y, _lookup reads a table at two grids, and _encode sums digits times their
places. _lookup and _encode pack a row into one int, each entry in its own
byte lanes, so that sums and small multiples of rows are single int
operations. _digits and _index convert one element.

Every constructor's output goes through the ring validator, so an invalid
bimodule or pairing cannot produce a live ring. Bimodule and pairing laws go
through core's law kernel: additivity is checked against one argument's
additive generators, and the laws that are tri-additive once the maps are
bi-additive (associativity, commuting actions, balance, linearity) on
generator triples; tables that fail are scanned exhaustively, each law over
all rows before the next, to name the first law broken. Both sides of a
bimodule are checked as left actions (the right side of the opposite ring),
by the function that checks a ring as a module over itself.
"""

from __future__ import annotations

import math
import sys
from array import array
from itertools import chain
from typing import Callable, Sequence

from .core import FiniteRing, SizeCapError, size_cap, _abelian_group_violations, _action_breaks
from .core import _Table, _as_table, _closure_break, _gather, _getter, _int_table, _ints, _law_breaks, _row
from .records import _Value


class BimoduleError(ValueError):
    """Bimodule or pairing tables violate a required axiom."""


def _check_cap(order: int, cap: int | None, what: str) -> None:
    limit = size_cap(cap)
    if order > limit:
        raise SizeCapError(f"{what} would have order {order} > cap {limit}")


def _check_components(count: int, cap: int | None, what: str) -> None:
    """Refuse more components (digits) than the cap before a part list that
    long is built. Over a base of order 2 or more that many already exceed
    the cap; over the trivial ring the order stays 1 however many there are."""
    limit = size_cap(cap)
    if count > limit:
        raise SizeCapError(f"{what} would have {count} components > cap {limit}")


def _digits(idx: int, radices: Sequence[int]) -> list[int]:
    """The digits of an element index, first radix most significant."""
    if not 0 <= idx < math.prod(radices):
        raise ValueError(f"index {idx} out of range 0..{math.prod(radices) - 1}")
    return [idx // math.prod(radices[c + 1 :]) % r for c, r in enumerate(radices)]


def _index(digits: Sequence[int], radices: Sequence[int]) -> int:
    """The element index with the given digits; each must lie in 0..r-1."""
    digits = [int(d) for d in digits]
    if len(digits) != len(radices) or not all(0 <= d < r for d, r in zip(digits, radices)):
        raise ValueError(f"digits {digits} do not fit radices {list(radices)}")
    return sum(d * math.prod(radices[c + 1 :]) for c, d in enumerate(digits))


# -- grids --------------------------------------------------------------------

_LANE_CODES = {1: "B", 2: "H", 4: "I"}


def _width(bound: int) -> int:
    """Bytes per lane for entries below bound."""
    return 1 if bound <= 256 else 2 if bound <= 65536 else 4


def _lanes(row, width: int) -> int:
    """row as one int, entry i in the width bytes of lane i (lowest first)."""
    if isinstance(row, (bytes, bytearray)):
        if width == 1:
            return int.from_bytes(row, "little")
        wide = bytearray(width * len(row))
        wide[::width] = row
        return int.from_bytes(wide, "little")
    packed = array(_LANE_CODES[width], row)
    if sys.byteorder == "big":
        packed.byteswap()
    return int.from_bytes(packed, "little")


def _unlanes(value: int, width: int, count: int):
    """The count lanes of value: bytes for one-byte lanes, else an array."""
    raw = value.to_bytes(width * count, "little")
    if width == 1:
        return raw
    packed = array(_LANE_CODES[width])
    packed.frombytes(raw)
    if sys.byteorder == "big":
        packed.byteswap()
    return packed


def _flat(rows: list):
    """Rows of one kind joined into one row."""
    return b"".join(rows) if isinstance(rows[0], (bytes, bytearray)) else tuple(chain.from_iterable(rows))


def _table(flat, n: int) -> _Table:
    """The square table whose rows are the n slices of a flat grid."""
    return _Table(flat[i * n : (i + 1) * n] for i in range(n))


def _outer(table, dx, dy):
    """The grid of table[dx[x]][dy[y]], one gather per distinct digit of dx."""
    via = _getter(dy)
    rows = {v: _gather(table[v], via) for v in set(dx)}
    return _flat([rows[v] for v in dx])


def _lookup(table, a, b):
    """The grid of table[a[i]][b[i]]: the flat table read at a * width + b."""
    cols = len(table[0])
    width = _width(len(table) * cols)
    return _gather(_flat(list(table)), _unlanes(_lanes(a, width) * cols + _lanes(b, width), width, len(a)))


def _transposed(grid, n: int):
    """The grid with x and y exchanged."""
    return _flat([grid[j::n] for j in range(n)])


def _encode(digits: Sequence, radices: Sequence[int]):
    """The index with the given digits at every entry of the digit rows (or
    grids), first radix most significant: a row of the element kind."""
    n = math.prod(radices)
    width = _width(n)
    acc = 0
    for d, r in zip(digits, radices):
        acc = acc * r + _lanes(d, width)
    lanes = _unlanes(acc, width, len(digits[0]))
    return lanes if width == 1 else _gather(_ints(n), lanes)


def _digit_rows(radices: Sequence[int]) -> list:
    """Each position's digit of every index below prod(radices), as rows."""
    n = math.prod(radices)
    return [_row([x // math.prod(radices[c + 1 :]) % r for x in range(n)], r) for c, r in enumerate(radices)]


def _composite(
    kind: str,
    what: str,
    parts: Sequence,
    mul_cols: Callable[..., list],
    one_digits: Sequence[int],
    *,
    label: str,
    cap: int | None,
    decoder: Callable[[list[int]], str] | None = None,
    **provenance,
) -> FiniteRing:
    """The ring on tuples over ``parts`` (rings or bimodules), added componentwise.

    mul_cols takes the digit rows, one length-n row per part, and returns
    the product's digit grids; decoder renders an element from its digit
    list. The provenance records kind and radices plus any extra fields.
    """
    radices = tuple(p.order for p in parts)
    n = math.prod(radices)
    _check_cap(n, cap, what)
    digits = _digit_rows(radices)
    add = _encode([_outer(p.add_table, d, d) for p, d in zip(parts, digits)], radices)
    return FiniteRing(
        n,
        _index(one_digits, radices),
        _table(add, n),
        _table(_encode(mul_cols(*digits), radices), n),
        label=label,
        provenance={"kind": kind, "radices": list(radices), **provenance},
        decoder=None if decoder is None else (lambda i: decoder(_digits(i, radices))),
        cap=cap,
    )


# ---------------------------------------------------------------------------
# cyclic rings and products


def zn(n: int, *, cap: int | None = None) -> FiniteRing:
    """The ring of integers modulo n. zn(1) is the trivial ring (0 = 1)."""
    if n <= 0:
        raise ValueError("zn requires a positive modulus")
    _check_cap(n, cap, f"Z_{n}")
    idx = _row(range(n), n)
    add = _Table(idx[i:] + idx[:i] for i in range(n))
    # i*j mod n for j below n are the entries i apart in idx repeated i times
    mul = _Table((idx * i)[::i] if i else _row(bytes(n), n) for i in range(n))
    return FiniteRing(
        n,
        1 % n,
        add,
        mul,
        label=f"Z_{n}",
        provenance={"kind": "zn", "n": n},
        cap=cap,
    )


def direct_product(factors: Sequence[FiniteRing], *, label: str | None = None, cap: int | None = None) -> FiniteRing:
    """Componentwise product ring; element tuples are mixed radix encoded."""
    if not factors:
        raise ValueError("direct_product requires at least one factor")
    return _composite(
        "product",
        "product ring",
        factors,
        lambda *d: [_outer(f.mul_table, c, c) for f, c in zip(factors, d)],
        [f.one for f in factors],
        label=label or " x ".join(f.label for f in factors),
        cap=cap,
        decoder=lambda d: "(" + ",".join(f.describe(x) for f, x in zip(factors, d)) + ")",
    )


# ---------------------------------------------------------------------------
# matrix rings, determinants, cofactors


def matrix_ring(base: FiniteRing, k: int, *, label: str | None = None, cap: int | None = None) -> FiniteRing:
    """k x k matrices over base, entries encoded row-major.

    Products go through a dot table: with rows and columns numbered as
    length-k vectors in the same mixed radix, dot[u, v] is the product of
    row u and column v, so entry (i, j) of AB is one gather of dot at the
    codes of A's row i and B's column j.
    """
    if k < 1:
        raise ValueError("matrix_ring requires k >= 1")
    _check_components(k * k, cap, f"M_{k}({base.label})")

    def mul_cols(*d):
        radices = [base.order] * k
        vec = _digit_rows(radices)
        dot = _outer(base.mul_table, vec[0], vec[0])
        for l in range(1, k):
            dot = _lookup(base.add_table, dot, _outer(base.mul_table, vec[l], vec[l]))
        dot = _table(dot, len(vec[0]))
        rows = [_encode(d[i * k : (i + 1) * k], radices) for i in range(k)]
        cols = [_encode(d[j::k], radices) for j in range(k)]
        return [_outer(dot, row, col) for row in rows for col in cols]

    def decoder(entries: list[int]) -> str:
        rows = [",".join(base.describe(e) for e in entries[i * k : (i + 1) * k]) for i in range(k)]
        return "[" + ",".join(f"[{row}]" for row in rows) + "]"

    return _composite(
        "matrix",
        f"M_{k}({base.label})",
        [base] * (k * k),
        mul_cols,
        [base.one if i == j else 0 for i in range(k) for j in range(k)],
        label=label or f"M{k}({base.label})",
        cap=cap,
        decoder=decoder,
        k=k,
        base_order=base.order,
    )


def matrix_entries(ambient: FiniteRing, idx: int) -> list[list[int]]:
    """Decode a matrix-ring element index into its k x k entry grid."""
    prov = ambient.provenance or {}
    if prov.get("kind") != "matrix":
        raise ValueError("not a matrix ring")
    k, digits = prov["k"], _digits(idx, prov["radices"])
    return [digits[i * k : (i + 1) * k] for i in range(k)]


def matrix_element(ambient: FiniteRing, entries: Sequence[Sequence[int]]) -> int:
    """Encode a k x k entry grid as a matrix-ring element index."""
    prov = ambient.provenance or {}
    if prov.get("kind") != "matrix":
        raise ValueError("not a matrix ring")
    k, radices = prov["k"], prov["radices"]
    if len(entries) != k or any(len(row) != k for row in entries):
        raise ValueError(f"entries {entries} do not fit radices {radices}: a {k} x {k} grid is needed")
    return _index([e for row in entries for e in row], radices)


def det(base: FiniteRing, entries: Sequence[Sequence[int]]) -> int:
    """Determinant by cofactor expansion; commutative base rings only, k <= 4."""
    if not base.is_commutative:
        raise ValueError("determinants require a commutative base ring")
    k = len(entries)
    if k > 4:
        raise ValueError("cofactor expansion is capped at k = 4")
    for row in entries:
        if len(row) != k:
            raise ValueError("entries must be a square grid")
    return _det_rec(base, [list(map(int, row)) for row in entries])


def _det_rec(base: FiniteRing, a: list[list[int]]) -> int:
    k = len(a)
    if k == 1:
        return a[0][0]
    if k == 2:
        return base.sub(base.mul(a[0][0], a[1][1]), base.mul(a[0][1], a[1][0]))
    acc = 0
    for j in range(k):
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        term = base.mul(a[0][j], _det_rec(base, minor))
        if j % 2 == 1:
            term = base.neg(term)
        acc = base.add(acc, term)
    return acc


def cofactor(base: FiniteRing, entries: Sequence[Sequence[int]], i: int, j: int) -> int:
    """Signed minor A_ij (0-based row and column)."""
    if not base.is_commutative:
        raise ValueError("cofactors require a commutative base ring")
    k = len(entries)
    minor = [
        [int(entries[r][c]) for c in range(k) if c != j]
        for r in range(k)
        if r != i
    ]
    value = _det_rec(base, minor) if minor else base.one
    return base.neg(value) if (i + j) % 2 == 1 else value


# ---------------------------------------------------------------------------
# bimodules and pairings


class Bimodule:
    """A finite (L, R)-bimodule as explicit tables.

    carrier elements are indices 0..order-1 with 0 the zero element;
    left_action has shape (|L|, order), right_action (order, |R|). Validation
    checks the abelian carrier, unital associative additive actions on both
    sides, and that the actions commute; additive_generators is then a greedy
    additive generating set of the carrier.
    """

    def __init__(
        self,
        left_ring: FiniteRing,
        right_ring: FiniteRing,
        add_table,
        left_action,
        right_action,
        *,
        label: str = "",
    ):
        order = len(add_table)
        self.left_ring = left_ring
        self.right_ring = right_ring
        self.order = order
        self.add_table = _as_table(add_table, (order, order), order, "module add")
        self.left_action = _as_table(left_action, (left_ring.order, order), order, "left action")
        self.right_action = _as_table(right_action, (order, right_ring.order), order, "right action")
        self.label = label or f"bimodule{order}"
        self._validate()

    def _validate(self) -> None:
        violations, gens = _abelian_group_violations(self.add_table)
        if violations:
            raise BimoduleError(f"carrier is not an abelian group: {violations[0].axiom}")
        self.additive_generators = gens
        idx = _row(range(self.order), self.order)
        L, R = self.left_ring, self.right_ring
        la, ra, madd = self.left_action, self.right_action, self.add_table
        if la[L.one] != idx:
            raise BimoduleError("left action is not unital")
        if ra.columns[R.one] != idx:
            raise BimoduleError("right action is not unital")
        laws = ("associative over ring multiplication",
                "additive in the module argument", "additive in the ring argument")
        # m s is the left action s m of the opposite ring, whose product is R's transposed
        sides = {"left": (L, L.mul_table, la), "right": (R, R.mul_table.columns, ra.columns)}
        for side, (ring, ring_mul, act) in sides.items():
            breaks = _action_breaks(ring.add_table, ring_mul, act, madd, (ring.additive_generators, gens))
            for law, witness in zip(laws, breaks):
                if witness is not None:
                    raise BimoduleError(f"{side} action is not {law}")

        # (r m) s = r (m s), tri-additive now that both actions are bi-additive
        def commute(rs, s):
            via = _getter(ra.columns[s])
            return ((_gather(ra.columns[s], la.through[r]), _gather(la[r], via)) for r in rs)

        reduced = (L.additive_generators, gens, R.additive_generators)
        if _law_breaks([(commute, (L.order, self.order, R.order), reduced)]) != [None]:
            raise BimoduleError("left and right actions do not commute")

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def left(self, r: int, m: int) -> int:
        return self.left_action[r][m]

    def right(self, m: int, s: int) -> int:
        return self.right_action[m][s]

    def is_symmetric(self) -> bool:
        """True when left and right rings coincide and r*m = m*r for all r, m."""
        return self.left_ring == self.right_ring and self.left_action == self.right_action.columns


def zero_bimodule(left_ring: FiniteRing, right_ring: FiniteRing) -> Bimodule:
    """The one-element bimodule."""
    return Bimodule(
        left_ring,
        right_ring,
        [[0]],
        [[0]] * left_ring.order,
        [[0] * right_ring.order],
        label="0",
    )


def regular_bimodule(ring: FiniteRing) -> Bimodule:
    """The ring as an (R, R)-bimodule under its own multiplication."""
    return Bimodule(
        ring,
        ring,
        ring.add_table,
        ring.mul_table,
        ring.mul_table,
        label=ring.label,
    )


def zn_bimodule(left_ring: FiniteRing, right_ring: FiniteRing, m: int) -> Bimodule:
    """Z_m as a bimodule with both actions by reduction mod m.

    Only rings whose index arithmetic is genuinely modular (zn rings and
    their structural equals) pass validation; anything else fails the
    associativity or unitality checks honestly.
    """
    if m <= 0:
        raise ValueError("zn_bimodule requires a positive modulus")
    add = [[(a + b) % m for b in range(m)] for a in range(m)]
    left = [[r * x % m for x in range(m)] for r in range(left_ring.order)]
    right = [[x * s % m for s in range(right_ring.order)] for x in range(m)]
    return Bimodule(left_ring, right_ring, add, left, right, label=f"Z_{m}")


def module_from_action(ring: FiniteRing, add_table, action) -> Bimodule:
    """Symmetric bimodule over a commutative ring from a single action table."""
    order = len(add_table)
    add_table = _as_table(add_table, (order, order), order, "module add")
    action = _as_table(action, (ring.order, order), order, "left action")
    return Bimodule(ring, ring, add_table, action, action.columns, label=f"{ring.label}-module")


class PairingMap:
    """A biadditive balanced pairing M x N -> T between bimodule carriers.

    Used as the composition map of three-step triangular rings. The table has
    shape (|M|, |N|) with values in T's carrier. Validation (biadditivity,
    balance over the middle ring, and linearity over the outer rings) happens
    at the construction site where all three bimodules are in scope.
    """

    def __init__(self, table, label: str = ""):
        self.shape, self.table = _int_table(table, "pairing")
        self.label = label or "pairing"

    @staticmethod
    def zero(m_order: int, n_order: int) -> "PairingMap":
        return PairingMap([[0] * n_order for _ in range(m_order)], label="0")

    def __call__(self, m: int, n: int) -> int:
        return self.table[m][n]


def _validate_pairing(comp: PairingMap, m32: Bimodule, m21: Bimodule, m31: Bimodule) -> _Table:
    """comp : A32 x A21 -> A31 must be biadditive, balanced over the middle
    ring, and linear over the outer rings. Returns its table, checked."""
    if comp.shape != (m32.order, m21.order):
        raise BimoduleError("pairing table shape does not match the bimodules")
    if not all(0 <= v < m31.order for row in comp.table for v in row):
        raise BimoduleError("pairing values out of range for the target bimodule")
    t = _as_table(comp.table, comp.shape, m31.order, "pairing")
    add21, add31, add32 = m21.add_table.columns, m31.add_table.columns, m32.add_table.columns
    a1, a2, a3 = m21.right_ring, m32.right_ring, m32.left_ring
    g32, g21 = m32.additive_generators, m21.additive_generators
    all32, all21 = range(m32.order), range(m21.order)

    # Each law yields both sides as rows over its middle argument; the
    # tables' columns read a fixed last argument.
    def second(us, w):  # comp(u, v + w) = comp(u, v) + comp(u, w), over v
        via = _getter(add21[w])
        return ((_gather(t[u], via), _gather(add31[t[u][w]], t.through[u])) for u in us)

    def first(vs, w):  # comp(u + w, v) = comp(u, v) + comp(w, v), over u
        via = _getter(add32[w])
        return ((_gather(t.columns[v], via), _gather(add31[t.columns[v][w]], t.columns.through[v])) for v in vs)

    def balanced(rs, v):  # comp(u r, v) = comp(u, r v), over u
        return ((_gather(t.columns[v], m32.right_action.columns.through[r]), t.columns[m21.left_action[r][v]])
                for r in rs)

    def left_linear(rs, v):  # comp(r u, v) = r comp(u, v), over u
        via = _getter(t.columns[v])
        return ((_gather(t.columns[v], m32.left_action.through[r]), _gather(m31.left_action[r], via)) for r in rs)

    def right_linear(rs, v):  # comp(u, v r) = comp(u, v) r, over u
        via = _getter(t.columns[v])
        return ((t.columns[m21.right_action[v][r]], _gather(m31.right_action.columns[r], via)) for r in rs)

    # Once the pairing is additive in each argument, which is checked at one
    # argument's generators, the other three laws are tri-additive.
    laws = (  # (name, law, shape, the indices a complete check needs)
        ("additive in its second argument", second,
         (m32.order, m21.order, m21.order), (all32, all21, g21)),
        ("additive in its first argument", first,
         (m21.order, m32.order, m32.order), (all21, all32, g32)),
        ("balanced over the middle ring", balanced,
         (a2.order, m32.order, m21.order), (a2.additive_generators, g32, g21)),
        ("linear over the left outer ring", left_linear,
         (a3.order, m32.order, m21.order), (a3.additive_generators, g32, g21)),
        ("linear over the right outer ring", right_linear,
         (a1.order, m32.order, m21.order), (a1.additive_generators, g32, g21)),
    )
    breaks = _law_breaks([law for _, *law in laws])
    for (name, *_), witness in zip(laws, breaks):
        if witness is not None:
            raise BimoduleError(f"pairing is not {name}")
    return t


# ---------------------------------------------------------------------------
# block constructions


def morita_zero(
    r_ring: FiniteRing,
    s_ring: FiniteRing,
    upper: Bimodule,
    lower: Bimodule,
    *,
    label: str | None = None,
    cap: int | None = None,
) -> FiniteRing:
    """The block ring [[R, M], [N, S]] with both pairings zero.

    upper is an (R, S)-bimodule at position (1, 2); lower is an (S, R)-
    bimodule at position (2, 1). Elements are quadruples (r, m, n, s).
    """
    if upper.left_ring != r_ring or upper.right_ring != s_ring:
        raise BimoduleError("upper bimodule must be (R, S)-sided")
    if lower.left_ring != s_ring or lower.right_ring != r_ring:
        raise BimoduleError("lower bimodule must be (S, R)-sided")

    # (r,m,n,s)(r',m',n',s') = (rr', rm' + ms', nr' + sn', ss')
    def mul_cols(dr, dm, dn, ds):
        return [
            _outer(r_ring.mul_table, dr, dr),
            _lookup(upper.add_table, _outer(upper.left_action, dr, dm), _outer(upper.right_action, dm, ds)),
            _lookup(lower.add_table, _outer(lower.right_action, dn, dr), _outer(lower.left_action, ds, dn)),
            _outer(s_ring.mul_table, ds, ds),
        ]

    return _composite(
        "morita",
        "block ring",
        (r_ring, upper, lower, s_ring),
        mul_cols,
        (r_ring.one, 0, 0, s_ring.one),
        label=label or f"[[{r_ring.label},{upper.label}],[{lower.label},{s_ring.label}]]",
        cap=cap,
        decoder=lambda d: f"[[{r_ring.describe(d[0])},{d[1]}],[{d[2]},{s_ring.describe(d[3])}]]",
    )


def tri2(
    r_ring: FiniteRing,
    s_ring: FiniteRing,
    lower: Bimodule,
    *,
    label: str | None = None,
    cap: int | None = None,
) -> FiniteRing:
    """Lower-triangular [[R, 0], [M, S]]; M is an (S, R)-bimodule.

    The zero-pairing block ring with the upper module zero, on triples
    (r, m, s): its encodings coincide with quadruples (r, 0, m, s).
    """
    if lower.left_ring != s_ring or lower.right_ring != r_ring:
        raise BimoduleError("lower bimodule must be (S, R)-sided")

    # (r,m,s)(r',m',s') = (rr', mr' + sm', ss')
    def mul_cols(dr, dm, ds):
        return [
            _outer(r_ring.mul_table, dr, dr),
            _lookup(lower.add_table, _outer(lower.right_action, dm, dr), _outer(lower.left_action, ds, dm)),
            _outer(s_ring.mul_table, ds, ds),
        ]

    return _composite(
        "tri2",
        "block ring",
        (r_ring, lower, s_ring),
        mul_cols,
        (r_ring.one, 0, s_ring.one),
        label=label or f"T2({r_ring.label};{lower.label};{s_ring.label})",
        cap=cap,
        decoder=lambda d: f"[[{r_ring.describe(d[0])},0],[{d[1]},{s_ring.describe(d[2])}]]",
    )


def tri3(
    a1: FiniteRing,
    a2: FiniteRing,
    a3: FiniteRing,
    m21: Bimodule,
    m31: Bimodule,
    m32: Bimodule,
    comp: PairingMap | None = None,
    *,
    label: str | None = None,
    cap: int | None = None,
) -> FiniteRing:
    """Lower-triangular 3x3 block ring with composition pairing comp.

    Elements are tuples (x1, x21, x2, x31, x32, x3) reading the lower
    triangle row by row; m21 is (A2, A1)-sided, m31 is (A3, A1)-sided,
    m32 is (A3, A2)-sided, and comp : A32 x A21 -> A31 (default zero)
    composes the two off-diagonal steps.
    """
    if m21.left_ring != a2 or m21.right_ring != a1:
        raise BimoduleError("m21 must be an (A2, A1)-bimodule")
    if m31.left_ring != a3 or m31.right_ring != a1:
        raise BimoduleError("m31 must be an (A3, A1)-bimodule")
    if m32.left_ring != a3 or m32.right_ring != a2:
        raise BimoduleError("m32 must be an (A3, A2)-bimodule")
    if comp is None:
        comp = PairingMap.zero(m32.order, m21.order)
    pairing = _validate_pairing(comp, m32, m21, m31)

    def mul_cols(d1, d21, d2, d31, d32, d3):
        return [
            _outer(a1.mul_table, d1, d1),
            _lookup(m21.add_table, _outer(m21.right_action, d21, d1), _outer(m21.left_action, d2, d21)),
            _outer(a2.mul_table, d2, d2),
            _lookup(
                m31.add_table,
                _lookup(m31.add_table, _outer(m31.right_action, d31, d1), _outer(pairing, d32, d21)),
                _outer(m31.left_action, d3, d31),
            ),
            _lookup(m32.add_table, _outer(m32.right_action, d32, d2), _outer(m32.left_action, d3, d32)),
            _outer(a3.mul_table, d3, d3),
        ]

    return _composite(
        "tri3",
        "triangular ring",
        (a1, m21, a2, m31, m32, a3),
        mul_cols,
        (a1.one, 0, a2.one, 0, 0, a3.one),
        label=label or f"T3({a1.label},{a2.label},{a3.label})",
        cap=cap,
    )


def idealization(ring: FiniteRing, module: Bimodule, *, label: str | None = None, cap: int | None = None) -> FiniteRing:
    """Trivial extension R(M): pairs (r, m) with (r,m)(r',m') = (rr', rm' + r'm).

    Requires a commutative base and a symmetric bimodule (left and right
    actions agree), so rm' + r'm is unambiguous.
    """
    if not ring.is_commutative:
        raise ValueError("idealization requires a commutative base ring")
    if not module.is_symmetric():
        raise BimoduleError("idealization requires a symmetric module over the base ring")

    def mul_cols(dr, dm):
        rm = _outer(module.left_action, dr, dm)
        return [_outer(ring.mul_table, dr, dr), _lookup(module.add_table, rm, _transposed(rm, len(dr)))]

    return _composite(
        "idealization",
        "idealization",
        (ring, module),
        mul_cols,
        (ring.one, 0),
        label=label or f"{ring.label}({module.label})",
        cap=cap,
        decoder=lambda d: f"({ring.describe(d[0])},{d[1]})",
        module_add=[list(row) for row in module.add_table],
        module_action=[list(row) for row in module.left_action],
    )


def quotient(
    ring: FiniteRing, ideal, *, label: str | None = None, cap: int | None = None
) -> tuple[FiniteRing, bytes | tuple]:
    """R/I with its projection map (a row sending elements to coset indices).

    Cosets are indexed by their smallest member, in ascending order, so the
    zero coset is index 0. Accepts an IdealSet or a plain member sequence;
    two-sidedness is verified here because well-definedness depends on it.
    """
    members = sorted({int(x) for x in ideal})
    gap = _closure_break(members, ring.add_table, ring.mul_table.columns, ring.mul_table)
    if gap is not None:
        raise ValueError(f"quotient requires a two-sided ideal: {gap}")

    via = _getter(_row(members, ring.order))
    canon = [min(_gather(row, via)) for row in ring.add_table]  # the least member of x + I
    reps = sorted(set(canon))
    index = {r: i for i, r in enumerate(reps)}
    q = len(reps)
    proj = _row([index[c] for c in canon], q)
    at_reps = _getter(_row(reps, ring.order))
    add = _Table(_gather(proj, _gather(ring.add_table[a], at_reps)) for a in reps)
    mul = _Table(_gather(proj, _gather(ring.mul_table[a], at_reps)) for a in reps)

    def decoder(i: int, _reps=reps, _ring=ring) -> str:
        return f"{_ring.describe(_reps[i])}+I"

    quotient_ring = FiniteRing(
        q,
        proj[ring.one],
        add,
        mul,
        label=label or f"{ring.label}/I",
        provenance={
            "kind": "quotient",
            "base_label": ring.label,
            "ideal": members,
            "reps": reps,
        },
        decoder=decoder,
        cap=cap,
    )
    return quotient_ring, proj


def truncated_power_series(base: FiniteRing, k: int, *, label: str | None = None, cap: int | None = None) -> FiniteRing:
    """R[x]/(x^k): length-k coefficient vectors under Cauchy products.

    A finite stand-in for power series over R: x is nilpotent, units are
    exactly the vectors with unit constant term.
    """
    if k < 1:
        raise ValueError("truncation degree must be at least 1")
    _check_components(k, cap, "truncated series ring")

    def mul_cols(*d):
        cols = []
        for i in range(k):
            acc = None
            for j in range(i + 1):
                term = _outer(base.mul_table, d[j], d[i - j])
                acc = term if acc is None else _lookup(base.add_table, acc, term)
            cols.append(acc)
        return cols

    def decoder(coeffs: list[int]) -> str:
        terms = []
        for power, c in enumerate(coeffs):
            if c or power == 0:
                unit = "" if power == 0 else ("x" if power == 1 else f"x^{power}")
                terms.append(f"{base.describe(c)}{unit}" if power == 0 or c != base.one else unit or "1")
        return "+".join(terms)

    return _composite(
        "series",
        "truncated series ring",
        [base] * k,
        mul_cols,
        [base.one] + [0] * (k - 1),
        label=label or f"{base.label}[x]/x^{k}",
        cap=cap,
        decoder=decoder,
        k=k,
        base_order=base.order,
    )


class CornerRing(_Value):
    """The corner e*R*e with its embedding back into the parent ring."""

    ring: FiniteRing
    parent: FiniteRing
    e: int
    carrier: tuple[int, ...]
    position: dict

    def embed(self, i: int) -> int:
        return self.carrier[i]


def corner_ring(ring: FiniteRing, e: int, *, label: str | None = None) -> CornerRing:
    """The subring e*R*e with unity e (e must be idempotent).

    The carrier is closed, since eae + ebe = e(a + b)e and (eae)(ebe) = e(aeb)e.
    """
    if not 0 <= e < ring.order:
        raise ValueError(f"corner element {e} out of range for order {ring.order}")
    if not ring.is_idempotent(e):
        raise ValueError(f"corner_ring requires an idempotent, got {e}")
    exe = _gather(ring.mul_table.columns[e], ring.mul_table[e])  # (e x) e for every x
    carrier = tuple(sorted(set(exe)))
    position = {x: i for i, x in enumerate(carrier)}
    lut = _row([position.get(x, 0) for x in ring.elements], len(carrier))
    at_carrier = _getter(_row(carrier, ring.order))
    add = _Table(_gather(lut, _gather(ring.add_table[a], at_carrier)) for a in carrier)
    mul = _Table(_gather(lut, _gather(ring.mul_table[a], at_carrier)) for a in carrier)
    corner = FiniteRing(
        len(carrier),
        position[e],
        add,
        mul,
        label=label or f"{ring.label}|e={e}",
        provenance={
            "kind": "corner",
            "e": e,
            "base_label": ring.label,
            "carrier": list(carrier),
        },
        decoder=lambda i, _c=carrier, _r=ring: _r.describe(_c[i]),
    )
    return CornerRing(ring=corner, parent=ring, e=e, carrier=carrier, position=position)
