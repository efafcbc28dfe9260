"""Finite unital rings given by explicit operation tables over element indices.

Elements of a ring of order n are the integers 0..n-1, and index 0 is always
the additive identity. A ring is described by an n x n addition table, an
n x n multiplication table, the index of the multiplicative identity, and an
optional negation table (derived from the addition table when absent).

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

Rings are immutable value objects: tables are locked after construction and
equality/hashing is structural (order, identity index, tables), ignoring the
display label.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

# The size cap lives in ``limits``, which reading a spec imports without numpy.
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_table(table, name: str) -> np.ndarray:
    """A copy of table as int64, refusing any entry that is not an integer."""
    try:
        if isinstance(table, np.ndarray):
            entries = table
            bad = table.dtype if table.size and table.dtype.kind not in "iu" else None
        else:
            # entry by entry: numpy would cast a bool or a float among integers
            entries = np.array(table, dtype=object)
            bad = next((type(v).__name__ for v in entries.flat
                        if not (_is_int(v) or isinstance(v, np.integer))), None)
        if bad is None:
            return entries.astype(np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise TableFormatError(f"{name} table is not an integer table: {exc}") from None
    raise TableFormatError(f"{name} table is not an integer table: {bad} entries")


def _as_table(table, shape: tuple[int, ...], order: int, name: str) -> np.ndarray:
    arr = _int_table(table, name)
    if arr.shape != shape:
        raise TableFormatError(f"{name} table has shape {arr.shape}, expected {shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= order):
        raise TableFormatError(f"{name} table entries must lie in 0..{order - 1}")
    arr = arr.astype(np.int32)
    arr.setflags(write=False)
    return arr


def _first_break(law: Callable, shape: tuple[int, int, int]) -> tuple[int, int, int] | None:
    """The first (i, j, k) in row-major order below shape at which the two
    sides of law(i, j, k) differ, or None: the exhaustive scan, one row i at
    a time. law takes element indices that broadcast together and returns
    both sides of one equation at every index triple."""
    j, k = np.ix_(np.arange(shape[1]), np.arange(shape[2]))
    for i in range(shape[0]):
        a, b = np.broadcast_arrays(*law(i, j, k))
        if not np.array_equal(a, b):
            return (i, *map(int, np.argwhere(a != b)[0]))
    return None


def _law_breaks(laws) -> list[tuple[int, int, int] | None]:
    """First witnesses, or None, of laws given as (law, shape, reduced).

    reduced holds, per position, the indices a complete check needs (all of
    them, or an additive generating set), or is None when the tables are not
    yet known to allow a reduction. When every law holds on its reduced
    indices, all of them hold everywhere; otherwise every law is scanned
    exhaustively, and the scan alone reports witnesses.
    """
    if all(reduced is not None and _holds(law, reduced) for law, _, reduced in laws):
        return [None] * len(laws)
    return _scan_breaks(laws)


def _holds(law: Callable, reduced) -> bool:
    """Whether the two sides of law agree at every triple of reduced indices.

    It takes one index of the shortest position at a time, usually a
    generator, so no array is larger than a row of the exhaustive scan.
    """
    axis = min(range(3), key=lambda p: len(reduced[p]))
    others = np.ix_(*(r for p, r in enumerate(reduced) if p != axis))
    for v in reduced[axis]:
        at = [*others]
        at.insert(axis, v)
        if not np.array_equal(*np.broadcast_arrays(*law(*at))):
            return False
    return True


def _scan_breaks(laws) -> list[tuple[int, int, int] | None]:
    """The exhaustive scan of every law: the source of all witnesses, and the
    oracle that the reduced check is tested against."""
    return [_first_break(law, shape) for law, shape, _ in laws]


def _distinct(values: np.ndarray, n: int) -> np.ndarray:
    """The distinct element indices (below n) among values, ascending: what
    np.unique returns, without the numpy.ma import it costs."""
    seen = np.zeros(n, dtype=bool)
    seen[values] = True
    return np.flatnonzero(seen)


def _span(add: np.ndarray, inside: np.ndarray, seeds: Iterable[int]) -> np.ndarray:
    """The bool mask inside, grown in place to the additive subgroup that 0,
    the subgroup S it marks and the seeds span. A seed s adds its cosets by
    doubling: mark T + s for the marked T and set s to s + s, until s is
    marked; then some 0 < m <= 2^k has ms in S, so every S + js is marked.
    Each marked element is a sum under add itself, and each step marks its
    s = add[s, 0], so the loop ends on any table with that identity."""
    inside[0] = True
    for s in seeds:
        while not inside[s]:
            inside[add[s][inside]] = True
            s = add[s, s]
    return inside


def _generators(add: np.ndarray) -> np.ndarray:
    """A greedy additive generating set of the commutative table add, taken
    before add is known to be associative: each generator is the least
    element outside the _span of the earlier ones, which marks only sums of
    generators under add itself and ends, as add[0, s] = s is checked first.
    A group has at most log2 n of them; the trivial group's one is 0."""
    inside = np.zeros(len(add), dtype=bool)
    gens: list[int] = []
    while not _span(add, inside, gens[-1:]).all():
        gens.append(int(np.argmin(inside)))
    return np.array(gens or [0], dtype=np.int64)


def _abelian_group_violations(add: np.ndarray):
    """Check (indices, add) is an abelian group with identity 0.

    Returns the violations, the derived negation table (None when some
    element has no additive inverse) and, when there are no violations, an
    additive generating set (else None). Associativity is accepted by
    Light's test, (x + y) + g = x + (y + g) for the generators g only: in a
    commutative magma this is (x + g) + y = x + (g + y), and the g that pass
    it are closed under addition.
    """
    n = add.shape[0]
    idx = np.arange(n)
    out: list[Violation] = []

    if not np.array_equal(add[0], idx):
        bad = int(np.flatnonzero(add[0] != idx)[0])
        out.append(Violation("add-identity", (bad,)))
    if not np.array_equal(add, add.T):
        i, j = map(int, np.argwhere(add != add.T)[0])
        out.append(Violation("add-commutative", (i, j)))

    has_inv = (add == 0).any(axis=1)
    neg: np.ndarray | None = None
    if has_inv.all():
        neg = (add == 0).argmax(axis=1).astype(np.int32)
    else:
        out.append(Violation("add-inverse", (int(np.flatnonzero(~has_inv)[0]),)))

    gens = None if out else _generators(add)
    (witness,) = _law_breaks([(
        lambda x, y, g: (add[add[x, y], g], add[x, add[y, g]]),
        (n, n, n),
        None if gens is None else (idx, idx, gens),
    )])
    if witness is not None:
        out.append(Violation("add-associative", witness))
    return out, neg, None if out else gens


def _action_breaks(ring_add: np.ndarray, ring_mul: np.ndarray, act: np.ndarray, mod_add: np.ndarray, gens):
    """First witnesses, or None, of the three laws of a left action act[r, m] of
    the ring (ring_add, ring_mul) on the group mod_add: (r r') m = r (r' m) as
    (r, r', m); r (m + m') = r m + r m' as (r, m, m'); and (r + r') m = r m + r' m
    as (r, r', m), scanning m first. For a ring acting on itself, (add, mul,
    mul, add), they are mul-associativity and left and right distributivity.
    A right action is a left action of the opposite ring: pass ring_mul.T, act.T.

    gens, when given, are additive generating sets (ring, module) of the two
    abelian groups, and ring_mul is bi-additive or is act itself. Additivity
    in r then needs r' among the generators only, and the r' that pass are
    closed under addition; it makes r -> (m -> r m) additive, so each r acts
    as a sum of generators, and a sum of additive maps is additive. Additivity
    in m thus needs r and m' among the generators only. Once act is
    bi-additive, (r r') m - r (r' m) is tri-additive and needs generator
    triples only.
    """
    rows, cols = act.shape
    reduced = [None] * 3
    if gens is not None:
        r_gens, m_gens = gens
        r_all, m_all = np.arange(rows), np.arange(cols)
        reduced = [(r_gens, r_gens, m_gens), (r_gens, m_all, m_gens), (m_all, r_all, r_gens)]
    associative, module_additive, ring_additive = _law_breaks(list(zip(
        (lambda r, s, m: (act[ring_mul[r, s], m], act[r, act[s, m]]),
         lambda r, m, p: (act[r, mod_add[m, p]], mod_add[act[r, m], act[r, p]]),
         lambda m, r, s: (act[ring_add[r, s], m], mod_add[act[r, m], act[s, m]])),
        ((rows, rows, cols), (rows, cols, cols), (cols, rows, rows)),
        reduced,
    )))
    return (
        associative,
        module_additive,
        None if ring_additive is None else (*ring_additive[1:], ring_additive[0]),
    )


def _closure_break(members: Iterable[int], add: np.ndarray, *actions: np.ndarray) -> str | None:
    """Why members (range-checked, never wrapped) are not a subgroup of add
    closed under each action, act[r, x] for every member x; None when they are."""
    n = len(add)
    ms = sorted({int(x) for x in members})
    if ms and (ms[0] < 0 or ms[-1] >= n):
        return f"member {ms[0] if ms[0] < 0 else ms[-1]} lies outside 0..{n - 1}"
    m = np.array(ms, dtype=np.int64)
    mask = np.zeros(n, dtype=bool)
    mask[m] = True
    if not mask[0]:
        return "0 is not a member"
    if not mask[add[np.ix_(m, m)]].all():
        return "members are not closed under addition"
    if not all(mask[act[:, m]].all() for act in actions):
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

    violations, neg, gens = _abelian_group_violations(add)
    if neg_table is not None:
        given = _as_table(neg_table, (order,), order, "neg")
        if (add[np.arange(order), given] != 0).any():
            bad = int(np.flatnonzero(add[np.arange(order), given] != 0)[0])
            violations.append(Violation("add-inverse", (bad,)))

    idx = np.arange(order)
    if not (np.array_equal(mul[one], idx) and np.array_equal(mul[:, one], idx)):
        row_bad = np.flatnonzero(mul[one] != idx)
        col_bad = np.flatnonzero(mul[:, one] != idx)
        bad = int(row_bad[0]) if row_bad.size else int(col_bad[0])
        violations.append(Violation("one-identity", (bad,)))

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
        neg = (self.add_table == 0).argmax(axis=1).astype(np.int32)
        neg.setflags(write=False)
        self.neg_table = neg
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
        return int(self.add_table[i, j])

    def mul(self, i: int, j: int) -> int:
        return int(self.mul_table[i, j])

    def neg(self, i: int) -> int:
        return int(self.neg_table[i])

    def sub(self, i: int, j: int) -> int:
        return int(self.add_table[i, self.neg_table[j]])

    def pow(self, i: int, k: int) -> int:
        if k < 0:
            raise ValueError("negative powers are not defined; use inverse()")
        acc = self.one
        for _ in range(k):
            acc = int(self.mul_table[acc, i])
        return acc

    def sum_of(self, items: Iterable[int]) -> int:
        acc = 0
        for x in items:
            acc = int(self.add_table[acc, x])
        return acc

    def describe(self, i: int) -> str:
        """Human-readable element rendering (falls back to the raw index)."""
        return self.decoder(i) if self.decoder is not None else str(i)

    @cached_property
    def additive_generators(self) -> np.ndarray:
        """A greedy generating set of the additive group, at most log2(order) long."""
        return _generators(self.add_table)

    # -- units -------------------------------------------------------------

    @cached_property
    def _unit_data(self) -> tuple[np.ndarray, np.ndarray]:
        eq = self.mul_table == self.one
        two_sided = eq & eq.T
        mask = two_sided.any(axis=1)
        inv = np.where(mask, two_sided.argmax(axis=1), -1).astype(np.int32)
        return mask, inv

    @property
    def units_mask(self) -> np.ndarray:
        return self._unit_data[0]

    @cached_property
    def units(self) -> tuple[int, ...]:
        return tuple(int(x) for x in np.flatnonzero(self.units_mask))

    def is_unit(self, i: int) -> bool:
        return bool(self.units_mask[i])

    def inverse(self, i: int) -> int | None:
        j = int(self._unit_data[1][i])
        return j if j >= 0 else None

    # -- idempotents, center, nilpotents ------------------------------------

    @cached_property
    def idempotents(self) -> tuple[int, ...]:
        diag = self.mul_table.diagonal()
        return tuple(int(x) for x in np.flatnonzero(diag == np.arange(self.order)))

    def is_idempotent(self, i: int) -> bool:
        return int(self.mul_table[i, i]) == i

    def is_central(self, i: int) -> bool:
        return bool(np.array_equal(self.mul_table[i, :], self.mul_table[:, i]))

    @cached_property
    def center(self) -> tuple[int, ...]:
        return tuple(i for i in self.elements if self.is_central(i))

    @cached_property
    def is_commutative(self) -> bool:
        return bool(np.array_equal(self.mul_table, self.mul_table.T))

    @cached_property
    def has_nonzero_nilpotents(self) -> bool:
        # powers computed in lockstep: p[i] = i^(k+1); nilpotency index <= order
        idx = np.arange(self.order)
        p = idx.copy()
        for _ in range(self.order):
            p = self.mul_table[p, idx]
            if (p[1:] == 0).any():
                return True
        return False

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
        add, mul, neg = self.add_table, self.mul_table, self.neg_table
        units = self.units_mask
        members = []
        for x in self.elements:
            ax = mul[:, x]
            if units[add[self.one, neg[ax]]].all():
                members.append(x)
        self._cross_check_radical(members)
        return tuple(members)

    def _cross_check_radical(self, members: list[int]) -> None:
        add, mul = self.add_table, self.mul_table
        if not self.units_mask[add[self.one, members]].all():
            raise RuntimeError("radical cross-check failed: 1 + J not all units")
        gap = _closure_break(members, add, mul, mul.T)
        if gap is not None:
            raise RuntimeError(f"radical cross-check failed: J is not a two-sided ideal: {gap}")

    # -- value-object protocol ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteRing):
            return NotImplemented
        return (
            self.order == other.order
            and self.one == other.one
            and np.array_equal(self.add_table, other.add_table)
            and np.array_equal(self.mul_table, other.mul_table)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self.order, self.one, self.add_table.tobytes(), self.mul_table.tobytes())
            )
        return self._hash

    def __repr__(self) -> str:
        return f"<FiniteRing {self.label} order={self.order}>"

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        record = {
            "label": self.label,
            "order": self.order,
            "one": self.one,
            "add_table": [[int(v) for v in row] for row in self.add_table],
            "mul_table": [[int(v) for v in row] for row in self.mul_table],
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
