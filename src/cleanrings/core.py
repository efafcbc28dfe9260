"""Finite unital rings given by explicit operation tables over element indices.

Elements of a ring of order n are the integers 0..n-1, and index 0 is always
the additive identity. A ring is described by an n x n addition table, an
n x n multiplication table, the index of the multiplicative identity, and an
optional negation table (derived from the addition table when absent).

A table is a tuple of rows, and a row is ``bytes`` when its entries are
indices below 256 and a tuple of ints above that. One primitive, _gather,
reads a row at every index of another: bytes.translate gathers a byte row,
operator.itemgetter a tuple row. Masks are bytes or bytearrays of 0 and 1,
and sets of members are Python sets. No numpy is imported; numpy reads a
table as its int32 array through the array interface.

Validation is complete, never sampled, and accepts in O(n^2 log n). It
takes a greedy additive generating set A, |A| <= log2 n, and checks:
- Light's test: (x + y) + g = x + (y + g) for all x, y and g in A makes a
  commutative addition associative (Clifford & Preston I, 1.2);
- (b + g)a = ba + ga for all a, b and g in A: the g that pass are closed
  under addition, so the product is additive in its left factor, and left
  multiplication by a sum is the sum of the left multiplications;
- g(b + h) = gb + gh for all b and g, h in A: the h that pass are closed
  under addition, so left multiplication by a generator is additive, and
  so is left multiplication by every element, a sum of generators;
- (ab)c = a(bc) on A x A x A: the associator of a bi-additive product is
  tri-additive, so it vanishes once it vanishes on generators.
Tables that fail this check are scanned exhaustively over all element
triples, and only that scan reports violations and witnesses. A hard size
cap (default 256, configurable per call or through the CLEANRINGS_SIZE_CAP
environment variable) bounds that scan: oversized tables are rejected
outright, and axiom checks are never silently skipped. Table entries must
be integers; floats, strings and integers beyond 64 bits are refused. Every
table law goes through one pair of kernels, _law_breaks and _first_break,
and a ring is checked as a left module over itself: its product is a left
action, with the laws of a bimodule's sides.

Rings are immutable value objects: tables are tuples of immutable rows, and
equality/hashing is structural (order, identity index, tables), ignoring the
display label.
"""

from __future__ import annotations

import json
import sys
from array import array
from functools import cached_property, lru_cache
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .limits import DEFAULT_SIZE_CAP, SIZE_CAP_ENV, size_cap
from .records import _Value


class TableFormatError(ValueError):
    """Candidate tables are structurally malformed (shape, range, or type)."""


class SizeCapError(ValueError):
    """The requested ring exceeds the validation size cap."""


class RingValidationError(ValueError):
    """Candidate tables violate at least one ring axiom."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        axioms = ", ".join(sorted({v.axiom for v in report.violations}))
        super().__init__(f"ring axioms violated: {axioms}")


class Violation(_Value):
    """One violated axiom with a witness tuple of element indices."""

    axiom: str
    witness: tuple[int, ...]


class ValidationReport(_Value):
    ok: bool
    trivial: bool
    violations: tuple[Violation, ...]

    def axioms(self) -> set[str]:
        return {v.axiom for v in self.violations}


# -- rows and tables ------------------------------------------------------------


@lru_cache(maxsize=4)
def _ints(order: int) -> tuple[int, ...]:
    """One int object for each index below order."""
    return tuple(range(order))


def _row(values: Iterable[int], order: int):
    """Indices below order as a row: bytes up to order 256, and above it a
    tuple of the shared objects of _ints, so that equal rows compare by
    identity, entry by entry."""
    return bytes(values) if order <= 256 else tuple(map(_ints(order).__getitem__, values))


def _getter(through):
    """through, ready to gather many rows: a tuple row as its itemgetter,
    built once, and any other row as it is."""
    return itemgetter(*through) if type(through) is tuple and len(through) > 1 else through


def _gather(row, through):
    """row[t] for each t in through, as a row of row's kind. A byte row of at
    most 256 entries is the table of through.translate, padded to 256
    entries; any other row gathers by operator.itemgetter, or by the
    itemgetter that _getter built for through."""
    narrow = isinstance(row, (bytes, bytearray))
    if narrow and len(row) <= 256 and type(through) is not itemgetter:
        if not isinstance(through, (bytes, bytearray)):
            through = bytes(through)
        return through.translate(row.ljust(256, b"\0"))
    if type(through) is not itemgetter:
        if len(through) < 2:
            return (bytes if narrow else tuple)(row[t] for t in through)
        through = itemgetter(*through)
    got = through(row)
    return bytes(got) if narrow else got


def _find(row, value: int) -> int:
    """The first index of value in row, or -1."""
    if isinstance(row, (bytes, bytearray)):
        return row.find(value)
    return row.index(value) if value in row else -1


def _first_diff(a, b) -> int:
    """The first index at which two rows of equal length differ."""
    return next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)


def _transpose(rows) -> tuple:
    """The columns of a table of rows, as rows of the same kind."""
    if not rows:
        return ()
    if isinstance(rows[0], (bytes, bytearray)):
        flat, width = b"".join(rows), len(rows[0])
        return tuple(flat[j::width] for j in range(width))
    return tuple(zip(*rows))


class _Table(tuple):
    """A checked table: a tuple of rows of one kind (see _row). It keeps its
    columns and its rows' getters once computed, and numpy reads it as its
    int32 array, np.asarray(table), through the array interface."""

    @cached_property
    def columns(self) -> "_Table":
        return _Table(_transpose(self))

    @cached_property
    def bounds(self) -> tuple[int, int] | None:
        return _bounds(self)

    @cached_property
    def through(self) -> list:
        """Each row ready to gather others through (_getter)."""
        return [_getter(row) for row in self]

    @property
    def __array_interface__(self) -> dict:
        data = array("i", chain.from_iterable(self))
        return {
            "shape": (len(self), len(self[0]) if self else 0),
            "typestr": ("<" if sys.byteorder == "little" else ">") + f"i{data.itemsize}",
            "data": data,
            "version": 3,
        }


def _bounds(rows) -> tuple[int, int] | None:
    """(least, greatest) entry of a list of rows, or None when there is none."""
    rows = [r for r in rows if r]
    if not rows:
        return None
    if all(isinstance(r, (bytes, bytearray)) for r in rows):
        return 0, max(b"".join(rows))  # a byte is never negative
    return min(map(min, rows)), max(map(max, rows))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _nested_shape(table) -> tuple[int, ...]:
    """The shape numpy gives a nested list: its length at each depth, down to
    the first depth at which the items disagree or are not lists."""
    if not isinstance(table, (list, tuple)):
        return ()
    shapes = [_nested_shape(item) for item in table]
    common = 0  # the depth to which every item's shape agrees
    while shapes and all(len(s) > common and s[common] == shapes[0][common] for s in shapes):
        common += 1
    return (len(table), *(shapes[0][:common] if shapes else ()))


def _entries(table, depth: int) -> list:
    """The items of a nested list at the given depth, in row-major order."""
    items = [table]
    for _ in range(depth):
        items = [v for item in items for v in item]
    return items


def _int_table(table, name: str) -> tuple[tuple[int, ...], Sequence]:
    """(shape, entries) of a table of one or two dimensions, refusing any
    entry that is not an integer of at most 64 bits, as numpy's int64 would.
    The entries are a list of rows, or one row. A checked _Table, a bytes
    row and a numpy array of an integer dtype hold integers already."""
    if type(table) is _Table:
        return (len(table), len(table[0]) if table else 0), table
    if isinstance(table, (bytes, bytearray)):
        return (len(table),), table
    dtype = getattr(table, "dtype", None)
    if dtype is not None and hasattr(table, "tolist"):  # a numpy array
        if table.size and dtype.kind not in "iu":
            raise TableFormatError(f"{name} table is not an integer table: {dtype} entries")
        return tuple(table.shape), table.tolist()
    if isinstance(table, (list, tuple)) and table:
        rows = [r for r in table if isinstance(r, (list, tuple, bytes))]
        if len(rows) == len(table) and len({len(r) for r in rows}) == 1:
            lists = [r for r in rows if not isinstance(r, bytes)]
            if all(type(v) is int and -(2**63) <= v < 2**63 for r in lists for v in r):
                return (len(rows), len(rows[0])), rows
        elif not rows and all(type(v) is int and -(2**63) <= v < 2**63 for v in table):
            return (len(table),), table
    # the slow path, as numpy reads a nested list of objects
    shape = _nested_shape(table)
    entries = _entries(table, len(shape))
    bad = [v for v in entries if not (_is_int(v) or _numpy_int(v))]
    if bad:
        raise TableFormatError(f"{name} table is not an integer table: {type(bad[0]).__name__} entries")
    if not all(-(2**63) <= v < 2**63 for v in entries):
        raise TableFormatError(f"{name} table is not an integer table: Python int too large to convert to C long")
    flat = [int(v) for v in entries]
    if len(shape) != 2:
        return shape, flat
    return shape, [flat[i * shape[1] : (i + 1) * shape[1]] for i in range(shape[0])]


def _numpy_int(value) -> bool:
    """Whether value is a numpy integer scalar (never a bool), without numpy."""
    return type(value).__module__ == "numpy" and hasattr(value, "__index__") and type(value).__name__ != "bool"


def _as_table(table, shape: tuple[int, ...], order: int, name: str):
    """table checked and in its kind of rows: one row for one dimension, a
    _Table for two. Integer entries first, then the shape, then every entry
    in 0..order-1; a _Table of the right kind comes back as it is."""
    found, entries = _int_table(table, name)
    if found != shape:
        raise TableFormatError(f"{name} table has shape {found}, expected {shape}")
    bounds = entries.bounds if type(entries) is _Table else _bounds([entries] if len(shape) == 1 else entries)
    if bounds is not None and (bounds[0] < 0 or bounds[1] >= order):
        raise TableFormatError(f"{name} table entries must lie in 0..{order - 1}")
    kind = bytes if order <= 256 else tuple
    if len(shape) == 1:
        return entries if type(entries) is kind else _row(entries, order)
    if type(entries) is _Table and all(type(r) is kind for r in entries):
        return entries
    return _Table(r if type(r) is kind else _row(r, order) for r in entries)


# -- the law kernels ----------------------------------------------------------------
#
# A law is (law, shape, reduced). law(rows, k) yields, for each i of rows, the
# two sides of its equation at (i, j, k) as two rows over every j below
# shape[1]. reduced holds the indices a complete check needs at each position,
# with a range for all of them, or is None when the tables are not yet known to
# allow a reduction; the last position is the one reduced to generators.


def _first_break(law: Callable, shape: tuple[int, int, int]) -> tuple[int, int, int] | None:
    """The first (i, j, k) in row-major order below shape at which the two
    sides of law differ, or None: the exhaustive scan. It takes one k at a
    time, and within it the first i whose rows differ; a later k only needs
    the rows up to the best i found."""
    first = None
    for k in range(shape[2]):
        rows = range(shape[0] if first is None else first[0] + 1)
        for i, (lhs, rhs) in zip(rows, law(rows, k)):
            if lhs != rhs:
                j = _first_diff(lhs, rhs)
                if first is None or (i, j) < first[:2]:
                    first = (i, j, k)
                break
    return first


def _law_breaks(laws) -> list[tuple[int, int, int] | None]:
    """First witnesses, or None, of laws given as (law, shape, reduced).

    When every law holds on its reduced indices, all of them hold
    everywhere; otherwise every law is scanned exhaustively, and the scan
    alone reports witnesses.
    """
    if all(reduced is not None and _holds(law, reduced) for law, _, reduced in laws):
        return [None] * len(laws)
    return _scan_breaks(laws)


def _holds(law: Callable, reduced) -> bool:
    """Whether the two sides of law agree at every triple of reduced indices.

    It takes one index of the last position at a time, a generator, and
    compares the rows of the first position's indices: whole when the middle
    position is a range, else at its indices.
    """
    rows, middle, last = reduced
    whole = type(middle) is range
    for k in last:
        for lhs, rhs in law(rows, k):
            if lhs != rhs if whole else _gather(lhs, middle) != _gather(rhs, middle):
                return False
    return True


def _scan_breaks(laws) -> list[tuple[int, int, int] | None]:
    """The exhaustive scan of every law: the source of all witnesses, and the
    oracle that the reduced check is tested against."""
    return [_first_break(law, shape) for law, shape, _ in laws]


def _span(add, inside: set[int], seeds: Iterable[int]) -> set[int]:
    """The set inside, grown in place to the additive subgroup that 0, the
    subgroup S it holds and the seeds span. A seed s adds its cosets by
    doubling: add T + s for the held T and set s to s + s, until s is held;
    then some 0 < m <= 2^k has ms in S, so every S + js is held. Each held
    element is a sum under add itself, and each step holds its s = add[s][0],
    so the loop ends on any table with that identity."""
    inside.add(0)
    for s in seeds:
        while s not in inside:
            inside.update(_gather(add[s], _row(inside, len(add))))
            s = add[s][s]
    return inside


def _generators(add) -> tuple[int, ...]:
    """A greedy additive generating set of the commutative table add, taken
    before add is known to be associative: each generator is the least
    element outside the _span of the earlier ones, which holds only sums of
    generators under add itself and ends, as add[0][s] = s is checked first.
    A group has at most log2 n of them; the trivial group's one is 0."""
    inside: set[int] = set()
    gens: list[int] = []
    while len(_span(add, inside, gens[-1:])) < len(add):
        gens.append(next(x for x in range(len(add)) if x not in inside))
    return tuple(gens or [0])


def _abelian_group_violations(add: _Table):
    """Check (indices, add) is an abelian group with identity 0.

    Returns the violations and, when there are none, an additive generating
    set (else None). Associativity is accepted by Light's test,
    (x + y) + g = x + (y + g) for the generators g only: in a commutative
    magma this is (x + g) + y = x + (g + y), and the g that pass it are
    closed under addition.
    """
    n = len(add)
    idx = _row(range(n), n)
    cols = add.columns
    out: list[Violation] = []

    if add[0] != idx:
        out.append(Violation("add-identity", (_first_diff(add[0], idx),)))
    if cols != add:
        i = next(i for i in range(n) if add[i] != cols[i])
        out.append(Violation("add-commutative", (i, _first_diff(add[i], cols[i]))))
    if any(_find(row, 0) < 0 for row in add):
        out.append(Violation("add-inverse", (next(x for x, row in enumerate(add) if _find(row, 0) < 0),)))

    def light(rows, g):  # (x + y) + g against x + (y + g), over y
        via = _getter(cols[g])
        return ((_gather(cols[g], add.through[x]), _gather(add[x], via)) for x in rows)

    gens = None if out else _generators(add)
    (witness,) = _law_breaks([(light, (n, n, n), None if gens is None else (range(n), range(n), gens))])
    if witness is not None:
        out.append(Violation("add-associative", witness))
    return out, None if out else gens


def _action_breaks(ring_add: _Table, ring_mul: _Table, act: _Table, mod_add: _Table, gens):
    """First witnesses, or None, of the three laws of a left action act[r][m] of
    the ring (ring_add, ring_mul) on the group mod_add: (r r') m = r (r' m) as
    (r, r', m); r (m + m') = r m + r m' as (r, m, m'); and (r + r') m = r m + r' m
    as (r, r', m), scanning m first. For a ring acting on itself, (add, mul,
    mul, add), they are mul-associativity and left and right distributivity.
    A right action is a left action of the opposite ring: pass the columns
    of ring_mul and act.

    gens, when given, are additive generating sets (ring, module) of the two
    abelian groups, and ring_mul is bi-additive or is act itself. Additivity
    in r then needs r' among the generators only, and the r' that pass are
    closed under addition; it makes r -> (m -> r m) additive, so each r acts
    as a sum of generators, and a sum of additive maps is additive. Additivity
    in m thus needs r and m' among the generators only. Once act is
    bi-additive, (r r') m - r (r' m) is tri-additive and needs generator
    triples only. Each side is a gather of whole rows, and the rows gathered
    through are the tables' own, their getters built once per table.
    """
    rows, cols = len(act), len(mod_add)
    act_cols, madd_cols, radd_cols = act.columns, mod_add.columns, ring_add.columns

    def associative(rs, m):  # (r r') m against r (r' m), over r'
        via = _getter(act_cols[m])
        return ((_gather(act_cols[m], ring_mul.through[r]), _gather(act[r], via)) for r in rs)

    def module_additive(rs, p):  # r (m + p) against r m + r p, over m
        via = _getter(madd_cols[p])
        return ((_gather(act[r], via), _gather(madd_cols[act[r][p]], act.through[r])) for r in rs)

    def ring_additive(ms, s):  # (r + s) m against r m + s m, over r
        via = _getter(radd_cols[s])
        return ((_gather(act_cols[m], via), _gather(madd_cols[act_cols[m][s]], act_cols.through[m])) for m in ms)

    reduced = [None] * 3
    if gens is not None:
        r_gens, m_gens = gens
        reduced = [(r_gens, r_gens, m_gens), (r_gens, range(cols), m_gens), (range(cols), range(rows), r_gens)]
    associative, module_additive, ring_additive = _law_breaks(list(zip(
        (associative, module_additive, ring_additive),
        ((rows, rows, cols), (rows, cols, cols), (cols, rows, rows)),
        reduced,
    )))
    return (
        associative,
        module_additive,
        None if ring_additive is None else (*ring_additive[1:], ring_additive[0]),
    )


def _closure_break(members: Iterable[int], add, *maps) -> str | None:
    """Why members (range-checked, never wrapped) are not a subgroup of add
    closed under each map, every entry of map[x] for every member x (the rows
    of a product table are right multiples, its columns left ones); None
    when they are."""
    n = len(add)
    ms = sorted({int(x) for x in members})
    if ms and (ms[0] < 0 or ms[-1] >= n):
        return f"member {ms[0] if ms[0] < 0 else ms[-1]} lies outside 0..{n - 1}"
    inside = set(ms)
    if 0 not in inside:
        return "0 is not a member"
    if len(ms) == n:  # every element: closed under anything
        return None
    via = _getter(_row(ms, n))
    if not all(inside.issuperset(_gather(add[x], via)) for x in ms):
        return "members are not closed under addition"
    if not all(inside.issuperset(m[x]) for m in maps for x in ms):
        return "members are not closed under the action"
    return None


def validate_ring(
    order: int,
    one: int,
    add_table,
    mul_table,
    neg_table=None,
    *,
    cap: int | None = None,
) -> ValidationReport:
    """Check the ring axioms for candidate tables, completely.

    Structural problems (bad shapes, out-of-range entries, oversize) raise;
    axiom failures are collected into the report, with the first witness of
    the exhaustive scan for each violated axiom. Tables are accepted by the
    generator-based check of the module docstring. The one-element (trivial)
    ring is legal and flagged.
    """
    if not _is_int(order) or order <= 0:
        raise TableFormatError(f"order must be a positive integer, got {order!r}")
    limit = size_cap(cap)
    if order > limit:
        raise SizeCapError(
            f"order {order} exceeds the exhaustive-validation cap {limit}; "
            f"raise the cap explicitly to accept the O(n^3) cost"
        )
    if not _is_int(one) or not (0 <= one < order):
        raise TableFormatError(f"one must be an element index in 0..{order - 1}")
    add = _as_table(add_table, (order, order), order, "add")
    mul = _as_table(mul_table, (order, order), order, "mul")

    violations, gens = _abelian_group_violations(add)
    if neg_table is not None:
        given = _as_table(neg_table, (order,), order, "neg")
        bad = next((x for x in range(order) if add[x][given[x]] != 0), None)
        if bad is not None:
            violations.append(Violation("add-inverse", (bad,)))

    idx = _row(range(order), order)
    if mul[one] != idx or mul.columns[one] != idx:
        side = mul[one] if mul[one] != idx else mul.columns[one]
        violations.append(Violation("one-identity", (_first_diff(side, idx),)))

    # the ring as a left module over itself
    laws = ("mul-associative", "left-distributive", "right-distributive")
    breaks = _action_breaks(add, mul, mul, add, None if gens is None else (gens, gens))
    for axiom, witness in zip(laws, breaks):
        if witness is not None:
            violations.append(Violation(axiom, witness))

    return ValidationReport(
        ok=not violations,
        trivial=(order == 1),
        violations=tuple(violations),
    )


class FiniteRing:
    """A validated finite unital ring over element indices 0..order-1.

    Construction validates completely (a generator-based check accepts, the
    exhaustive scan names what fails) and raises RingValidationError on any
    axiom failure, so every live FiniteRing is a genuine ring. The trivial
    one-element ring (where 0 = 1) is accepted and flagged via is_trivial.
    """

    def __init__(
        self,
        order: int,
        one: int,
        add_table,
        mul_table,
        neg_table=None,
        *,
        label: str = "",
        provenance: dict | None = None,
        decoder: Callable[[int], str] | None = None,
        cap: int | None = None,
    ):
        report = validate_ring(order, one, add_table, mul_table, neg_table, cap=cap)
        if not report.ok:
            raise RingValidationError(report)
        self.order = order
        self.one = one
        self.label = label or f"ring{order}"
        self.add_table = _as_table(add_table, (order, order), order, "add")
        self.mul_table = _as_table(mul_table, (order, order), order, "mul")
        self.neg_table = _row((_find(row, 0) for row in self.add_table), order)
        self.provenance = provenance
        self.decoder = decoder
        self.report = report
        self._hash: int | None = None

    # -- basic structure ---------------------------------------------------

    @property
    def elements(self) -> range:
        return range(self.order)

    @property
    def zero(self) -> int:
        return 0

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def add(self, i: int, j: int) -> int:
        return self.add_table[i][j]

    def mul(self, i: int, j: int) -> int:
        return self.mul_table[i][j]

    def neg(self, i: int) -> int:
        return self.neg_table[i]

    def sub(self, i: int, j: int) -> int:
        return self.add_table[i][self.neg_table[j]]

    def pow(self, i: int, k: int) -> int:
        if k < 0:
            raise ValueError("negative powers are not defined; use inverse()")
        acc = self.one
        for _ in range(k):
            acc = self.mul_table[acc][i]
        return acc

    def sum_of(self, items: Iterable[int]) -> int:
        acc = 0
        for x in items:
            acc = self.add_table[acc][x]
        return acc

    def describe(self, i: int) -> str:
        """Human-readable element rendering (falls back to the raw index)."""
        return self.decoder(i) if self.decoder is not None else str(i)

    @cached_property
    def additive_generators(self) -> tuple[int, ...]:
        """A greedy generating set of the additive group, at most log2(order) long."""
        return _generators(self.add_table)

    # -- units -------------------------------------------------------------

    @cached_property
    def _unit_data(self) -> tuple[bytes, tuple[int, ...]]:
        """(mask, inverses): the first y with xy = 1, or -1. In a finite ring
        xy = 1 forces yx = 1, and the inverse is unique."""
        inverses = tuple(_find(row, self.one) for row in self.mul_table)
        return bytes(y >= 0 for y in inverses), inverses

    @property
    def units_mask(self) -> bytes:
        return self._unit_data[0]

    @cached_property
    def units(self) -> tuple[int, ...]:
        return tuple(x for x, unit in enumerate(self.units_mask) if unit)

    def is_unit(self, i: int) -> bool:
        return bool(self.units_mask[i])

    def inverse(self, i: int) -> int | None:
        j = self._unit_data[1][i]
        return j if j >= 0 else None

    # -- idempotents, center, nilpotents ------------------------------------

    @cached_property
    def idempotents(self) -> tuple[int, ...]:
        return tuple(x for x, row in enumerate(self.mul_table) if row[x] == x)

    def is_idempotent(self, i: int) -> bool:
        return self.mul_table[i][i] == i

    def is_central(self, i: int) -> bool:
        return self.mul_table[i] == self.mul_table.columns[i]

    @cached_property
    def center(self) -> tuple[int, ...]:
        return tuple(i for i in self.elements if self.is_central(i))

    @cached_property
    def is_commutative(self) -> bool:
        return self.mul_table == self.mul_table.columns

    @cached_property
    def has_nonzero_nilpotents(self) -> bool:
        # p[x] = x^(2^t) by squaring every element at once; a nilpotent x has
        # index at most order, so x^(2^t) = 0 once 2^t >= order
        squares = _row((row[x] for x, row in enumerate(self.mul_table)), self.order)
        p = _row(range(self.order), self.order)
        for _ in range(self.order.bit_length()):
            p = _gather(squares, p)
        return 0 in p[1:]

    def is_complete_orthogonal(self, es: Sequence[int]) -> bool:
        """True when es is a pairwise-orthogonal idempotent family summing to 1."""
        es = list(es)
        if not es:
            return False
        for e in es:
            if not self.is_idempotent(e):
                return False
        for a in range(len(es)):
            for b in range(len(es)):
                if a != b and (self.mul(es[a], es[b]) != 0 or self.mul(es[b], es[a]) != 0):
                    return False
        return self.sum_of(es) == self.one

    # -- Jacobson radical ----------------------------------------------------

    @cached_property
    def jacobson_radical(self) -> tuple[int, ...]:
        """J(R) via quasi-regularity: {x : 1 - a*x is a unit for all a}.

        The one-sided test suffices in a finite ring. The result S is then
        cross-checked, completely, for 1 + S in U(R) and for being a
        two-sided ideal; any failure is an internal error. Together these
        prove S inside J(R), and they imply the two-sided and idempotent
        conditions: for x in S, -a*x*b lies in S, so 1 - a*x*b lies in
        1 + S; and a nonzero idempotent e in S would make 1 - e a unit
        idempotent, hence 1 - e = 1.
        """
        # quasi[y]: whether 1 - y is a unit; column x of mul holds every a*x
        quasi = _gather(self.units_mask, _gather(self.add_table[self.one], self.neg_table))
        members = [x for x, ax in enumerate(self.mul_table.columns) if 0 not in _gather(quasi, ax)]
        self._cross_check_radical(members)
        return tuple(members)

    def _cross_check_radical(self, members: list[int]) -> None:
        add, mul = self.add_table, self.mul_table
        if 0 in _gather(self.units_mask, _gather(add[self.one], members)):
            raise RuntimeError("radical cross-check failed: 1 + J not all units")
        gap = _closure_break(members, add, mul.columns, mul)
        if gap is not None:
            raise RuntimeError(f"radical cross-check failed: J is not a two-sided ideal: {gap}")

    # -- value-object protocol ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteRing):
            return NotImplemented
        return (
            self.order == other.order
            and self.one == other.one
            and self.add_table == other.add_table
            and self.mul_table == other.mul_table
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.order, self.one, self.add_table, self.mul_table))
        return self._hash

    def __repr__(self) -> str:
        return f"<FiniteRing {self.label} order={self.order}>"

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        record = {
            "label": self.label,
            "order": self.order,
            "one": self.one,
            "add_table": [list(row) for row in self.add_table],
            "mul_table": [list(row) for row in self.mul_table],
        }
        if self.provenance is not None:
            record["construction"] = self.provenance
        return record

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json_dict(record: dict, *, cap: int | None = None) -> "FiniteRing":
        if not isinstance(record.get("label", ""), str):
            raise TableFormatError(f"label must be a string, got {record['label']!r}")
        if not isinstance(record.get("construction", {}), dict):
            raise TableFormatError(f"construction must be an object, got {record['construction']!r}")
        return FiniteRing(
            record["order"],
            record["one"],
            record["add_table"],
            record["mul_table"],
            record.get("neg_table"),
            label=record.get("label", ""),
            provenance=record.get("construction"),
            cap=cap,
        )

    @staticmethod
    def from_json(text: str, *, cap: int | None = None) -> "FiniteRing":
        return FiniteRing.from_json_dict(json.loads(text), cap=cap)
