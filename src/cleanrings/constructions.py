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
(the rings and bimodules whose orders are the radices), its product columns
as a function of the digit columns, and the digits of its one; addition is
always componentwise. _digits and _index convert one element.

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
from typing import Callable, Sequence

import numpy as np

from .core import FiniteRing, SizeCapError, size_cap, _abelian_group_violations, _action_breaks
from .core import _as_table, _closure_break, _distinct, _int_table, _law_breaks
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


def _encode_cols(cols: Sequence[np.ndarray], radices: Sequence[int]) -> np.ndarray:
    acc = np.zeros_like(cols[0], dtype=np.int64)
    for col, r in zip(cols, radices):
        acc = acc * r + col
    return acc.astype(np.int32)


def _composite(
    kind: str,
    what: str,
    parts: Sequence,
    mul_cols: Callable[..., list[np.ndarray]],
    one_digits: Sequence[int],
    *,
    label: str,
    cap: int | None,
    decoder: Callable[[list[int]], str] | None = None,
    **provenance,
) -> FiniteRing:
    """The ring on tuples over ``parts`` (rings or bimodules), added componentwise.

    mul_cols takes the digit columns, one length-n array per part, and returns
    the product's digit columns as (n, n) tables; decoder renders an element
    from its digit list. The provenance records kind and radices plus any
    extra fields.
    """
    radices = tuple(p.order for p in parts)
    n = math.prod(radices)
    _check_cap(n, cap, what)
    idx = np.arange(n)
    digits = [(idx // math.prod(radices[c + 1 :]) % r).astype(np.int32) for c, r in enumerate(radices)]
    add = np.zeros((1, 1), dtype=np.int64)
    for p in parts:  # the earlier parts' sums, shifted one digit, plus each pair of this part's
        m, r = len(add), p.order
        add = (add[:, None, :, None] * r + p.add_table[None, :, None, :]).reshape(m * r, m * r)
    return FiniteRing(
        n,
        _index(one_digits, radices),
        add,
        _encode_cols(mul_cols(*digits), radices),
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
    idx = np.arange(n)
    add = (idx[:, None] + idx[None, :]) % n
    mul = (idx[:, None] * idx[None, :]) % n
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
        lambda *d: [f.mul_table[np.ix_(c, c)] for f, c in zip(factors, d)],
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
        vec = np.unravel_index(np.arange(base.order**k), (base.order,) * k)
        dot = base.mul_table[np.ix_(vec[0], vec[0])]
        for l in range(1, k):
            dot = base.add_table[dot, base.mul_table[np.ix_(vec[l], vec[l])]]
        rows = [_encode_cols(d[i * k : (i + 1) * k], [base.order] * k) for i in range(k)]
        cols = [_encode_cols(d[j::k], [base.order] * k) for j in range(k)]
        return [dot[np.ix_(row, col)] for row in rows for col in cols]

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
        violations, _, gens = _abelian_group_violations(self.add_table)
        if violations:
            raise BimoduleError(f"carrier is not an abelian group: {violations[0].axiom}")
        self.additive_generators = gens
        idx = np.arange(self.order)
        L, R = self.left_ring, self.right_ring
        la, ra, madd = self.left_action, self.right_action, self.add_table
        if not np.array_equal(la[L.one], idx):
            raise BimoduleError("left action is not unital")
        if not np.array_equal(ra[:, R.one], idx):
            raise BimoduleError("right action is not unital")
        laws = ("associative over ring multiplication",
                "additive in the module argument", "additive in the ring argument")
        # m s is the left action s m of the opposite ring, whose product is R's transposed
        sides = {"left": (L, L.mul_table, la), "right": (R, R.mul_table.T, ra.T)}
        for side, (ring, ring_mul, act) in sides.items():
            breaks = _action_breaks(ring.add_table, ring_mul, act, madd, (ring.additive_generators, gens))
            for law, witness in zip(laws, breaks):
                if witness is not None:
                    raise BimoduleError(f"{side} action is not {law}")
        # (r m) s = r (m s), tri-additive now that both actions are bi-additive
        commute = (lambda r, m, s: (ra[la[r, m], s], la[r, ra[m, s]]),
                   (L.order, self.order, R.order), (L.additive_generators, gens, R.additive_generators))
        if _law_breaks([commute]) != [None]:
            raise BimoduleError("left and right actions do not commute")

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def left(self, r: int, m: int) -> int:
        return int(self.left_action[r, m])

    def right(self, m: int, s: int) -> int:
        return int(self.right_action[m, s])

    def is_symmetric(self) -> bool:
        """True when left and right rings coincide and r*m = m*r for all r, m."""
        return self.left_ring == self.right_ring and bool(
            np.array_equal(self.left_action, self.right_action.T)
        )


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
    idx = np.arange(m)
    add = (idx[:, None] + idx[None, :]) % m
    left = (np.arange(left_ring.order)[:, None] * idx[None, :]) % m
    right = (idx[:, None] * np.arange(right_ring.order)[None, :]) % m
    return Bimodule(left_ring, right_ring, add, left, right, label=f"Z_{m}")


def module_from_action(ring: FiniteRing, add_table, action) -> Bimodule:
    """Symmetric bimodule over a commutative ring from a single action table."""
    action = np.asarray(action)
    return Bimodule(ring, ring, add_table, action, action.T, label=f"{ring.label}-module")


class PairingMap:
    """A biadditive balanced pairing M x N -> T between bimodule carriers.

    Used as the composition map of three-step triangular rings. The table has
    shape (|M|, |N|) with values in T's carrier. Validation (biadditivity,
    balance over the middle ring, and linearity over the outer rings) happens
    at the construction site where all three bimodules are in scope.
    """

    def __init__(self, table, label: str = ""):
        self.table = _int_table(table, "pairing")
        self.table.setflags(write=False)
        self.label = label or "pairing"

    @staticmethod
    def zero(m_order: int, n_order: int) -> "PairingMap":
        return PairingMap(np.zeros((m_order, n_order), dtype=np.int32), label="0")

    def __call__(self, m: int, n: int) -> int:
        return int(self.table[m, n])


def _validate_pairing(comp: PairingMap, m32: Bimodule, m21: Bimodule, m31: Bimodule) -> None:
    """comp : A32 x A21 -> A31 must be biadditive, balanced over the middle
    ring, and linear over the outer rings."""
    t = comp.table
    if t.shape != (m32.order, m21.order):
        raise BimoduleError("pairing table shape does not match the bimodules")
    if t.size and (t.min() < 0 or t.max() >= m31.order):
        raise BimoduleError("pairing values out of range for the target bimodule")
    add31 = m31.add_table
    a1, a2, a3 = m21.right_ring, m32.right_ring, m32.left_ring
    g32, g21 = m32.additive_generators, m21.additive_generators
    all32, all21 = np.arange(m32.order), np.arange(m21.order)
    # Once the pairing is additive in each argument, which is checked at one
    # argument's generators, the other three laws are tri-additive.
    laws = (  # (law, both sides at (i, j, k), shape, the indices a complete check needs)
        ("additive in its second argument",  # comp(u, v + v') = comp(u, v) + comp(u, v')
         lambda u, v, w: (t[u, m21.add_table[v, w]], add31[t[u, v], t[u, w]]),
         (m32.order, m21.order, m21.order), (all32, all21, g21)),
        ("additive in its first argument",  # comp(u + u', v) = comp(u, v) + comp(u', v)
         lambda v, u, w: (t[m32.add_table[u, w], v], add31[t[u, v], t[w, v]]),
         (m21.order, m32.order, m32.order), (all21, all32, g32)),
        ("balanced over the middle ring",  # comp(u r, v) = comp(u, r v)
         lambda r, u, v: (t[m32.right_action[u, r], v], t[u, m21.left_action[r, v]]),
         (a2.order, m32.order, m21.order), (a2.additive_generators, g32, g21)),
        ("linear over the left outer ring",  # comp(r u, v) = r comp(u, v)
         lambda r, u, v: (t[m32.left_action[r, u], v], m31.left_action[r, t[u, v]]),
         (a3.order, m32.order, m21.order), (a3.additive_generators, g32, g21)),
        ("linear over the right outer ring",  # comp(u, v r) = comp(u, v) r
         lambda r, u, v: (t[u, m21.right_action[v, r]], m31.right_action[t[u, v], r]),
         (a1.order, m32.order, m21.order), (a1.additive_generators, g32, g21)),
    )
    breaks = _law_breaks([law for _, *law in laws])
    for (name, *_), witness in zip(laws, breaks):
        if witness is not None:
            raise BimoduleError(f"pairing is not {name}")


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
            r_ring.mul_table[np.ix_(dr, dr)],
            upper.add_table[upper.left_action[np.ix_(dr, dm)], upper.right_action[np.ix_(dm, ds)]],
            lower.add_table[lower.right_action[np.ix_(dn, dr)], lower.left_action[np.ix_(ds, dn)]],
            s_ring.mul_table[np.ix_(ds, ds)],
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
            r_ring.mul_table[np.ix_(dr, dr)],
            lower.add_table[lower.right_action[np.ix_(dm, dr)], lower.left_action[np.ix_(ds, dm)]],
            s_ring.mul_table[np.ix_(ds, ds)],
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
    _validate_pairing(comp, m32, m21, m31)

    def mul_cols(d1, d21, d2, d31, d32, d3):
        return [
            a1.mul_table[np.ix_(d1, d1)],
            m21.add_table[m21.right_action[np.ix_(d21, d1)], m21.left_action[np.ix_(d2, d21)]],
            a2.mul_table[np.ix_(d2, d2)],
            m31.add_table[
                m31.add_table[m31.right_action[np.ix_(d31, d1)], comp.table[np.ix_(d32, d21)]],
                m31.left_action[np.ix_(d3, d31)],
            ],
            m32.add_table[m32.right_action[np.ix_(d32, d2)], m32.left_action[np.ix_(d3, d32)]],
            a3.mul_table[np.ix_(d3, d3)],
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
        rm = module.left_action[np.ix_(dr, dm)]
        return [ring.mul_table[np.ix_(dr, dr)], module.add_table[rm, rm.T]]

    return _composite(
        "idealization",
        "idealization",
        (ring, module),
        mul_cols,
        (ring.one, 0),
        label=label or f"{ring.label}({module.label})",
        cap=cap,
        decoder=lambda d: f"({ring.describe(d[0])},{d[1]})",
        module_add=[[int(v) for v in row] for row in module.add_table],
        module_action=[[int(v) for v in row] for row in module.left_action],
    )


def quotient(ring: FiniteRing, ideal, *, label: str | None = None, cap: int | None = None) -> tuple[FiniteRing, np.ndarray]:
    """R/I with its projection map (an array sending elements to coset indices).

    Cosets are indexed by their smallest member, in ascending order, so the
    zero coset is index 0. Accepts an IdealSet or a plain member sequence;
    two-sidedness is verified here because well-definedness depends on it.
    """
    members = sorted({int(x) for x in ideal})
    gap = _closure_break(members, ring.add_table, ring.mul_table, ring.mul_table.T)
    if gap is not None:
        raise ValueError(f"quotient requires a two-sided ideal: {gap}")
    m = np.array(members, dtype=np.int32)

    canon = ring.add_table[:, m].min(axis=1)
    reps = _distinct(canon, ring.order)
    proj = np.searchsorted(reps, canon).astype(np.int32)
    q = len(reps)
    add = proj[ring.add_table[np.ix_(reps, reps)]]
    mul = proj[ring.mul_table[np.ix_(reps, reps)]]

    def decoder(i: int, _reps=reps, _ring=ring) -> str:
        return f"{_ring.describe(int(_reps[i]))}+I"

    quotient_ring = FiniteRing(
        q,
        int(proj[ring.one]),
        add,
        mul,
        label=label or f"{ring.label}/I",
        provenance={
            "kind": "quotient",
            "base_label": ring.label,
            "ideal": [int(x) for x in m],
            "reps": [int(r) for r in reps],
        },
        decoder=decoder,
        cap=cap,
    )
    proj.setflags(write=False)
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
                term = base.mul_table[np.ix_(d[j], d[i - j])]
                acc = term if acc is None else base.add_table[acc, term]
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
    exe = ring.mul_table[ring.mul_table[e, :], e]
    carrier = tuple(_distinct(exe, ring.order).tolist())
    position = {x: i for i, x in enumerate(carrier)}
    arr = np.array(carrier, dtype=np.int32)
    lut = np.full(ring.order, -1, dtype=np.int32)
    lut[arr] = np.arange(len(carrier))
    add = lut[ring.add_table[np.ix_(arr, arr)]]
    mul = lut[ring.mul_table[np.ix_(arr, arr)]]
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
            "carrier": [int(c) for c in carrier],
        },
        decoder=lambda i, _c=carrier, _r=ring: _r.describe(_c[i]),
    )
    return CornerRing(ring=corner, parent=ring, e=e, carrier=carrier, position=position)
