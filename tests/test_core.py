"""Core ring validation and base queries, checked against modular-arithmetic
oracles computed directly from integer arithmetic (never through the tables
under test)."""

from __future__ import annotations

import contextlib
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cleanrings import (
    Bimodule,
    BimoduleError,
    FiniteRing,
    PairingMap,
    RingValidationError,
    SizeCapError,
    TableFormatError,
    direct_product,
    regular_bimodule,
    tri3,
    validate_ring,
    zn,
    zn_bimodule,
)
from cleanrings import constructions, core
from cleanrings.catalog import build_catalog, catalog_entry
from cleanrings.core import size_cap
from cleanrings.dsl import build, parse


# -- oracles ------------------------------------------------------------------


def zn_units_oracle(n: int) -> set[int]:
    return {k for k in range(n) if math.gcd(k, n) == 1}


def zn_idempotents_oracle(n: int) -> set[int]:
    return {k for k in range(n) if (k * k) % n == k}


def zn_radical_oracle(n: int) -> set[int]:
    if n == 1:
        return {0}
    square_free_part = 1
    m = n
    for p in range(2, n + 1):
        if p * p > m:
            break
        if m % p == 0:
            square_free_part *= p
            while m % p == 0:
                m //= p
    if m > 1:
        square_free_part *= m
    return {k for k in range(n) if k % square_free_part == 0}


def zn_nilpotents_oracle(n: int) -> bool:
    return any(pow(k, n, n) == 0 for k in range(1, n))


# -- construction and tables ---------------------------------------------------


@given(st.integers(min_value=1, max_value=30), st.data())
def test_zn_tables_match_modular_arithmetic(n, data):
    ring = zn(n)
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    j = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert ring.add(i, j) == (i + j) % n
    assert ring.mul(i, j) == (i * j) % n
    assert ring.neg(i) == (-i) % n
    assert ring.sub(i, j) == (i - j) % n


@given(st.integers(min_value=2, max_value=40))
def test_zn_units_idempotents_radical(n):
    ring = zn(n)
    assert set(ring.units) == zn_units_oracle(n)
    assert set(ring.idempotents) == zn_idempotents_oracle(n)
    assert set(ring.jacobson_radical) == zn_radical_oracle(n)
    assert ring.has_nonzero_nilpotents == zn_nilpotents_oracle(n)
    assert ring.is_commutative
    assert set(ring.center) == set(range(n))


def test_zn_one_and_inverse():
    ring = zn(10)
    assert ring.one == 1
    assert ring.inverse(3) == 7  # 3 * 7 = 21 = 1 mod 10
    assert ring.inverse(2) is None
    assert ring.pow(3, 4) == 81 % 10


def test_trivial_ring_is_legal_and_flagged():
    ring = zn(1)
    assert ring.is_trivial
    assert ring.order == 1
    assert ring.one == 0
    assert ring.report.trivial
    assert ring.units == (0,)
    assert ring.idempotents == (0,)
    assert ring.jacobson_radical == (0,)


def test_complete_orthogonal_family():
    ring = zn(6)
    assert ring.is_complete_orthogonal([3, 4])  # 3 + 4 = 1, 3 * 4 = 0
    assert not ring.is_complete_orthogonal([3, 3])
    assert not ring.is_complete_orthogonal([])
    assert ring.is_complete_orthogonal([ring.one])


# -- validation rejections -------------------------------------------------------


def test_tampered_multiplication_is_rejected_with_witnesses():
    z4 = zn(4)
    mul = np.asarray(z4.mul_table).copy()
    mul[2, 2] = 1
    report = validate_ring(4, 1, z4.add_table, mul)
    assert not report.ok
    by_axiom = {v.axiom: v.witness for v in report.violations}
    assert by_axiom == {
        "mul-associative": (2, 2, 3),
        "left-distributive": (2, 1, 1),
        "right-distributive": (1, 1, 2),
    }
    with pytest.raises(RingValidationError):
        FiniteRing(4, 1, z4.add_table, mul)


def test_tampered_addition_is_rejected_with_witnesses():
    z3 = zn(3)
    add = np.asarray(z3.add_table).copy()
    add[1, 2] = 1
    report = validate_ring(3, 1, add, z3.mul_table)
    assert not report.ok
    assert report.axioms() == {
        "add-commutative",
        "add-inverse",
        "add-associative",
        "left-distributive",
        "right-distributive",
    }


def test_bad_identity_index_is_rejected():
    z4 = zn(4)
    report = validate_ring(4, 2, z4.add_table, z4.mul_table)
    assert not report.ok
    assert report.axioms() == {"one-identity"}


def test_structural_errors_raise_not_report():
    z4 = zn(4)
    with pytest.raises(TableFormatError):
        validate_ring(4, 1, z4.add_table[:3], z4.mul_table)
    with pytest.raises(TableFormatError):
        validate_ring(4, 1, z4.add_table, np.full((4, 4), 9))
    with pytest.raises(TableFormatError):
        validate_ring(4, 7, z4.add_table, z4.mul_table)
    with pytest.raises(TableFormatError):
        validate_ring(0, 0, [], [])


def test_wrong_negation_table_is_rejected():
    z4 = zn(4)
    report = validate_ring(4, 1, z4.add_table, z4.mul_table, [0, 1, 2, 3])
    assert not report.ok
    assert "add-inverse" in report.axioms()


@given(st.integers(min_value=2, max_value=12), st.data())
@settings(max_examples=40)
def test_any_single_cell_multiplication_tamper_is_caught(n, data):
    """Perturbing one product in Z_n always breaks an axiom the validator sees.

    In Z_n the whole multiplication table is forced by distributivity from the
    identity row, so no single-cell change can survive exhaustive checking.
    """
    ring = zn(n)
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    j = data.draw(st.integers(min_value=0, max_value=n - 1))
    delta = data.draw(st.integers(min_value=1, max_value=n - 1))
    mul = np.asarray(ring.mul_table).copy()
    mul[i, j] = (mul[i, j] + delta) % n
    report = validate_ring(n, 1 % n, ring.add_table, mul)
    assert not report.ok


# -- the generator check against the exhaustive scan --------------------------------

_SMALL_RINGS = [entry.ring for entry in build_catalog() if entry.ring.order <= 16]


def _table_closure(add: np.ndarray, gens) -> np.ndarray:
    """The mask of 0 and gens closed under the table add: every sum of them,
    bracketed any way. Each round adds the new elements to every member."""
    inside = np.zeros(len(add), dtype=bool)
    inside[0] = True
    frontier = np.array(sorted(set(gens)), dtype=np.int64)
    while frontier.size:
        inside[frontier] = True
        reached = np.zeros(len(add), dtype=bool)
        reached[add[np.ix_(frontier, np.flatnonzero(inside))]] = True
        frontier = np.flatnonzero(reached & ~inside)
    return inside


def _frontier_generators(add: np.ndarray) -> list[int]:
    """The oracle of core._generators, the greedy set it replaced: each
    generator is the least element outside the table closure of the earlier
    ones; the trivial group's one generator is 0."""
    gens: list[int] = []
    while not (inside := _table_closure(add, gens)).all():
        gens.append(int(np.argmin(inside)))
    return gens or [0]


_generators = core._generators  # the kernel, which _checked_against_the_scan replaces by the next


def _generators_against_the_frontier_loop(add: np.ndarray) -> np.ndarray:
    """core._generators, checked against the frontier loop: they agree on an
    associative table, where a span and a closure are one subgroup. On any
    other table the cosets may reach less than the closure, and the set need
    only generate every element as sums under the table."""
    gens = _generators(add)
    add = np.asarray(add)
    if np.array_equal(add[add], add[:, add]):  # (x + y) + z == x + (y + z)
        assert list(gens) == _frontier_generators(add)
    else:
        assert _table_closure(add, list(gens)).all()
    return gens


@contextlib.contextmanager
def _checked_against_the_scan():
    """Within the block every law family is decided by the exhaustive scan,
    core._scan_breaks, and wherever the generator check applies it must
    accept exactly when the scan finds no break; every additive generating
    set is compared with the frontier loop. Yields the generator check's
    verdicts, one for each family it ran on."""
    ran = []

    def scan(laws):
        exact = core._scan_breaks(laws)
        if all(reduced is not None for *_, reduced in laws):
            fast = all(core._holds(law, reduced) for law, _, reduced in laws)
            assert fast == all(w is None for w in exact), exact
            ran.append(fast)
        return exact

    with pytest.MonkeyPatch.context() as mp:
        for module in (core, constructions):
            mp.setattr(module, "_law_breaks", scan)
        mp.setattr(core, "_generators", _generators_against_the_frontier_loop)
        yield ran


def _tamper(data, tables: dict[str, np.ndarray], values: int) -> None:
    """Overwrite one or two drawn cells of the named tables in place; an add
    table may be tampered symmetrically, keeping it commutative."""
    for _ in range(data.draw(st.integers(1, 2), label="cells")):
        name = data.draw(st.sampled_from(sorted(tables)), label="table")
        table = tables[name]
        cell = tuple(data.draw(st.integers(0, size - 1)) for size in table.shape)
        value = data.draw(st.integers(0, values - 1), label="value")
        table[cell] = value
        if name == "add" and data.draw(st.booleans(), label="symmetric"):
            table[cell[::-1]] = value


def _outcome(build):
    try:
        return build()
    except BimoduleError as exc:
        return str(exc)


@given(st.sampled_from(_SMALL_RINGS), st.data())
@settings(max_examples=300, deadline=None)
def test_generator_check_accepts_ring_tables_exactly_when_the_scan_does(ring, data):
    tables = {"add": np.asarray(ring.add_table), "mul": np.asarray(ring.mul_table), "neg": np.asarray(list(ring.neg_table))}
    _tamper(data, tables, ring.order)
    args = (ring.order, ring.one, tables["add"], tables["mul"], tables["neg"])
    with _checked_against_the_scan() as ran:
        exhaustive = validate_ring(*args)
    if np.array_equal(tables["add"], ring.add_table):
        assert ran  # an abelian group has generators, so the ring laws are reduced
    assert validate_ring(*args) == exhaustive


def test_a_product_changed_off_the_generator_rows_is_rejected_with_the_scan_witnesses():
    """Left distributivity is checked at generator rows only. One product of
    M_2(Z_2) changed in row 15, no additive generator, still fails the
    generator check (right distributivity at b = 14, g = 1 sees it), and the
    exhaustive scan names the witnesses it named when left distributivity was
    checked at every row."""
    ring = catalog_entry("matrix2-z2").ring
    assert ring.additive_generators == (1, 2, 4, 8)
    mul = np.asarray(ring.mul_table).copy()
    mul[15, 15] = ring.add(mul[15, 15], 1)
    with _checked_against_the_scan() as ran:
        report = validate_ring(ring.order, ring.one, ring.add_table, mul)
    assert ran == [True, False]  # the addition passes, the product laws do not
    assert report.violations == (
        core.Violation("mul-associative", (1, 15, 15)),
        core.Violation("left-distributive", (15, 1, 14)),
        core.Violation("right-distributive", (1, 14, 15)),
    )


@given(st.integers(1, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_generator_check_decides_random_bilinear_products(k, data):
    """A product on Z_2^k drawn as a bilinear map, c[i][j] on basis vectors,
    is distributive, so associativity alone decides it, over basis triples.
    A drawn term d * a_l * b_i * b_j (or its mirror image) is additive in a
    and breaks additivity in b only at the generators e_i and e_j."""
    n = 2**k
    c = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=k, max_size=k), min_size=k, max_size=k))
    if data.draw(st.booleans(), label="no bilinear part"):
        c = [[0] * k] * k
    idx = np.arange(n)
    bits = [(idx >> (k - 1 - i)) & 1 for i in range(k)]
    mul = np.zeros((n, n), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            mul ^= np.outer(bits[i], bits[j]) * c[i][j]
    if k > 1 and data.draw(st.booleans(), label="quadratic term"):
        i, j = data.draw(st.permutations(range(k)))[:2]
        l, d = data.draw(st.integers(0, k - 1)), data.draw(st.integers(1, n - 1))
        term = np.outer(bits[l], bits[i] & bits[j]) * d
        mul ^= term if data.draw(st.booleans(), label="quadratic in b") else term.T
    args = (n, 1, idx[:, None] ^ idx[None, :], mul)
    with _checked_against_the_scan() as ran:
        exhaustive = validate_ring(*args)
    assert ran
    assert validate_ring(*args) == exhaustive


@given(st.integers(3, 4), st.data())
@settings(max_examples=200, deadline=None)
def test_generator_check_decides_twisted_additions(k, data):
    """x + y = x ^ y ^ d * (x_i x_j y_l + y_i y_j x_l) on indices 0..2^k - 1
    has identity 0, is commutative and has x + x = 0, but it need not be
    associative; Light's test passes at every basis vector off bits i, j, l."""
    n = 2**k
    i, j, l = data.draw(st.permutations(range(k)))[:3]
    d = data.draw(st.integers(0, n - 1))
    idx = np.arange(n)
    bits = [(idx >> (k - 1 - b)) & 1 for b in range(k)]
    twist = np.outer(bits[i] & bits[j], bits[l])
    add = idx[:, None] ^ idx[None, :] ^ (twist ^ twist.T) * d
    args = (n, 0, add, np.zeros((n, n), dtype=np.int64))
    with _checked_against_the_scan() as ran:
        exhaustive = validate_ring(*args)
    assert ran
    assert validate_ring(*args) == exhaustive


_BIMODULES = [
    ("regular Z_6", lambda: regular_bimodule(zn(6))),
    ("regular M_2(Z_2)", lambda: regular_bimodule(next(r for r in _SMALL_RINGS if r.label == "M2(Z_2)"))),
    ("regular T_2(Z_2)", lambda: regular_bimodule(next(r for r in _SMALL_RINGS if r.label.startswith("T2")))),
    ("Z_4 over (Z_8, Z_12)", lambda: zn_bimodule(zn(8), zn(12), 4)),
    ("Z_2 over (Z_4, Z_2)", lambda: zn_bimodule(zn(4), zn(2), 2)),
]


@given(st.sampled_from(_BIMODULES), st.data())
@settings(max_examples=300, deadline=None)
def test_generator_check_accepts_action_tables_exactly_when_the_scan_does(named, data):
    base = named[1]()
    tables = {"add": np.asarray(base.add_table), "left": np.asarray(base.left_action), "right": np.asarray(base.right_action)}
    _tamper(data, tables, base.order)

    def build():
        Bimodule(base.left_ring, base.right_ring, tables["add"], tables["left"], tables["right"])
        return "ok"

    with _checked_against_the_scan():
        exhaustive = _outcome(build)
    assert _outcome(build) == exhaustive


@given(st.sampled_from([2, 4, 6]), st.data())
@settings(max_examples=200, deadline=None)
def test_generator_check_accepts_pairings_exactly_when_the_scan_does(n, data):
    z = zn(n)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    d21, d31, d32 = (data.draw(st.sampled_from(divisors)) for _ in range(3))
    m21, m31, m32 = (zn_bimodule(z, z, d) for d in (d21, d31, d32))
    t = {"pairing": np.zeros((d32, d21), dtype=np.int64)}
    if d21 == d31 == d32 == n and data.draw(st.booleans(), label="product pairing"):
        t["pairing"] = np.array([[u * v % n for v in range(n)] for u in range(n)])
    _tamper(data, t, d31)

    def build():
        try:
            # cap=1: a pairing that passes stops at the size cap, before any ring is built
            tri3(z, z, z, m21, m31, m32, PairingMap(t["pairing"]), cap=1)
        except SizeCapError:
            return "ok"

    with _checked_against_the_scan() as ran:
        exhaustive = _outcome(build)
    assert ran
    assert _outcome(build) == exhaustive


# Modules Z_2^k over products of Z_2, given by k x k matrices over F_2.


def _f2_vectors(k: int) -> np.ndarray:
    """Row x is the bit vector of index x, first bit most significant, as
    in the encoding of a product of Z_2."""
    idx = np.arange(2**k)
    return np.stack([(idx >> (k - 1 - b)) & 1 for b in range(k)], axis=1)


def _f2_action(mats: np.ndarray, k: int) -> np.ndarray:
    """table[r, m]: the index of (sum over i of r_i mats[i]) m."""
    r, m = _f2_vectors(len(mats)), _f2_vectors(k)
    acting = np.einsum("ri,ikl->rkl", r, mats) % 2
    return (np.einsum("rkl,ml->rmk", acting, m) % 2) @ (1 << np.arange(k - 1, -1, -1))


def _f2_projections(data, p: int, k: int, owner: int | None = None) -> np.ndarray:
    """p diagonal orthogonal idempotents summing to the identity, from a
    drawn owner for each coordinate, or the given owner for all of them."""
    owners = [data.draw(st.integers(0, p - 1)) if owner is None else owner for _ in range(k)]
    return np.array([np.diag([int(o == i) for o in owners]) for i in range(p)])


def _f2_module(ring: FiniteRing, k: int, left: np.ndarray, right: np.ndarray) -> Bimodule:
    xor = np.bitwise_xor.outer(np.arange(2**k), np.arange(2**k))
    return Bimodule(ring, ring, xor, _f2_action(left, k), _f2_action(right, k).T)


def _f2_matrix(data, k: int) -> np.ndarray:
    return np.array(data.draw(st.lists(st.integers(0, 1), min_size=k * k, max_size=k * k))).reshape(k, k)


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_generator_check_decides_drawn_f2_bimodules(p, q, k, data):
    """Z_2^k over Z_2^p and Z_2^q, acting by idempotent matrices that sum to
    the identity. A matrix E added to two left ones keeps the action unital
    and additive but breaks associativity at those two generators only;
    conjugating the right ones by an invertible P keeps a right module that
    commutes with the left one only at some generators."""
    left, right = _f2_projections(data, p, k), _f2_projections(data, q, k)
    if p > 1 and data.draw(st.booleans(), label="move two left idempotents"):
        e = _f2_matrix(data, k)
        left[0], left[1] = (left[0] + e) % 2, (left[1] + e) % 2
    conj, inverse = np.eye(k, dtype=np.int64), np.eye(k, dtype=np.int64)
    for a, b in data.draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=4)):
        if a != b:  # I + E_ab is its own inverse over F_2
            step = np.eye(k, dtype=np.int64)
            step[a, b] = 1
            conj, inverse = conj @ step % 2, step @ inverse % 2
    right = np.array([conj @ d @ inverse % 2 for d in right])
    ring_l, ring_r = (direct_product([zn(2)] * c) for c in (p, q))
    xor = np.bitwise_xor.outer(np.arange(2**k), np.arange(2**k))

    def build():
        Bimodule(ring_l, ring_r, xor, _f2_action(left, k), _f2_action(right, k).T)
        return "ok"

    with _checked_against_the_scan():
        exhaustive = _outcome(build)
    assert _outcome(build) == exhaustive


@given(st.integers(1, 2), st.data())
@settings(max_examples=200, deadline=None)
def test_generator_check_decides_drawn_f2_pairings(p, data):
    """A pairing Z_2^k32 x Z_2^k21 -> Z_2^k31 drawn as a bilinear map, with an
    optional term d u_a u_b v_c or d u_a v_c v_e that is additive in one
    argument and breaks additivity in the other only at two generators,
    between modules over Z_2^p acting by diagonal idempotents."""
    ring = direct_product([zn(2)] * p)
    k21, k31, k32 = (data.draw(st.integers(1, 3)) for _ in range(3))
    # A1, A2 or A3 may act through one component only, as scalars, so that
    # the law over that ring holds and the others can break alone
    o1, o2, o3 = (data.draw(st.none() | st.integers(0, p - 1), label=f"A{i} owner") for i in (1, 2, 3))

    def module(k, left_owner, right_owner):
        return _f2_module(ring, k, _f2_projections(data, p, k, left_owner), _f2_projections(data, p, k, right_owner))

    m21, m31, m32 = module(k21, o2, o1), module(k31, o3, o1), module(k32, o3, o2)
    u, v = _f2_vectors(k32), _f2_vectors(k21)
    table = np.zeros((2**k32, 2**k21), dtype=np.int64)
    if data.draw(st.booleans(), label="bilinear part"):
        for a in range(k32):
            for b in range(k21):
                table ^= np.outer(u[:, a], v[:, b]) * data.draw(st.just(0) | st.integers(1, 2**k31 - 1))
    if data.draw(st.booleans(), label="quadratic term"):
        d = data.draw(st.integers(1, 2**k31 - 1))
        a, b = (data.draw(st.permutations(range(k32))) * 2)[:2]  # distinct unless k32 == 1
        c, e = (data.draw(st.permutations(range(k21))) * 2)[:2]
        if data.draw(st.booleans(), label="quadratic in u"):
            table ^= np.outer(u[:, a] & u[:, b], v[:, c]) * d
        else:
            table ^= np.outer(u[:, a], v[:, c] & v[:, e]) * d

    def build():
        try:
            # cap=1: a pairing that passes stops at the size cap, before any ring is built
            tri3(ring, ring, ring, m21, m31, m32, PairingMap(table), cap=1)
        except SizeCapError:
            return "ok"

    with _checked_against_the_scan() as ran:
        exhaustive = _outcome(build)
    assert ran
    assert _outcome(build) == exhaustive


def _off_the_first_generator():
    """Tables that break one law only away from the first generator (index
    1, the last bit), keyed by the axiom or message that names the law; and
    a pairing of trivial groups, whose one generator is 0."""
    x = _f2_vectors(3)
    xor8 = np.bitwise_xor.outer(np.arange(8), np.arange(8))
    quadratic = np.outer(x[:, 2], x[:, 0] & x[:, 1])  # a_2 b_0 b_1: not additive in b at e_0, e_1
    y = _f2_vectors(4)
    twist = np.outer(y[:, 0] & y[:, 1], y[:, 2])
    twisted = np.bitwise_xor.outer(np.arange(16), np.arange(16)) ^ twist ^ twist.T
    z2, z2z2 = zn(2), direct_product([zn(2), zn(2)])
    u0v = np.outer(_f2_vectors(2)[:, 0], [0, 1])

    def scalars(p, k, owner):
        return np.array([np.eye(k, dtype=np.int64) * (i == owner) for i in range(p)])

    def bimodule(left, right):
        def build():
            _f2_module(z2z2, 2, np.array(left), np.array(right))
            return "ok"
        return build

    def pairing(ring, p, k21, k31, k32, table, owners=(0, 0, 0, 0, 0, 0)):
        o = iter(owners)  # left and right owners of m21, m31, m32
        m21, m31, m32 = (_f2_module(ring, k, scalars(p, k, next(o)), scalars(p, k, next(o))) for k in (k21, k31, k32))

        def build():
            try:
                tri3(ring, ring, ring, m21, m31, m32, PairingMap(table), cap=1)
            except SizeCapError:
                return "ok"
        return build

    # e_0 e_0 = e_1 and e_1 e_0 = e_2 on Z_2^3, every other basis product 0
    product = np.outer(x[:, 0], x[:, 0]) * 2 ^ np.outer(x[:, 1], x[:, 0])
    diagonal = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    return {
        "mul-associative": lambda: sorted(validate_ring(8, 1, xor8, product).axioms()),
        "left-distributive": lambda: sorted(validate_ring(8, 1, xor8, quadratic).axioms()),
        "right-distributive": lambda: sorted(validate_ring(8, 1, xor8, quadratic.T).axioms()),
        "add-associative": lambda: sorted(validate_ring(16, 0, twisted, np.zeros((16, 16), dtype=np.int64)).axioms()),
        # e_1 acts by a square-zero matrix that kills the first module generator
        "associative over ring multiplication": bimodule([[[1, 0], [1, 1]], [[0, 0], [1, 0]]], diagonal),
        # the right idempotents are the diagonal ones conjugated by I + E_10
        "do not commute": bimodule(diagonal, [[[1, 0], [1, 0]], [[0, 0], [1, 1]]]),
        "additive in its second argument": pairing(z2, 1, 3, 1, 1, np.outer([0, 1], x[:, 0] & x[:, 1])),
        "additive in its first argument": pairing(z2, 1, 1, 1, 3, np.outer(x[:, 0] & x[:, 1], [0, 1])),
        # one ring acts through r_1 on one side of a law and r_0 on the other,
        # and comp(u, v) = u_0 v vanishes at the first u
        "balanced over the middle ring": pairing(z2z2, 2, 1, 1, 2, u0v, (1, 0, 0, 0, 0, 0)),
        "linear over the left outer ring": pairing(z2z2, 2, 1, 1, 2, u0v, (0, 0, 1, 0, 0, 0)),
        "linear over the right outer ring": pairing(z2z2, 2, 1, 1, 2, u0v, (0, 0, 0, 1, 0, 0)),
        "pairing is not additive": lambda: _outcome(
            lambda: tri3(z2, z2, z2, zn_bimodule(z2, z2, 1), zn_bimodule(z2, z2, 2), zn_bimodule(z2, z2, 1),
                         PairingMap([[1]]), cap=1)
        ),
    }


@pytest.mark.parametrize("law", list(_off_the_first_generator()))
def test_generator_check_sees_a_break_off_the_first_generator(law):
    build = _off_the_first_generator()[law]
    with _checked_against_the_scan() as ran:
        exhaustive = _outcome(build)
    assert ran and not ran[-1]
    assert law in str(exhaustive) and _outcome(build) == exhaustive


@pytest.mark.parametrize("entry", build_catalog(), ids=lambda entry: entry.key)
def test_generators_match_the_frontier_loop_on_the_catalog(entry):
    assert list(_generators(entry.ring.add_table)) == _frontier_generators(np.asarray(entry.ring.add_table))


def test_generators_are_few_and_generate():
    """The greedy set of an abelian group of order n has at most log2 n
    elements, and its closure under addition is the whole group."""
    for ring in [*_SMALL_RINGS, zn(256)]:
        gens = ring.additive_generators
        assert len(gens) <= max(1, math.log2(ring.order))
        reached = {0}
        while True:
            more = reached | {ring.add(x, int(g)) for x in reached for g in gens}
            if more == reached:
                break
            reached = more
        assert reached == set(ring.elements)


# -- size cap ---------------------------------------------------------------------


def test_size_cap_default_and_override(monkeypatch):
    with pytest.raises(SizeCapError):
        zn(300)
    assert zn(300, cap=300).order == 300
    monkeypatch.setenv("CLEANRINGS_SIZE_CAP", "400")
    assert zn(300).order == 300
    monkeypatch.setenv("CLEANRINGS_SIZE_CAP", "100")
    with pytest.raises(SizeCapError):
        zn(128)


# -- value-object protocol ---------------------------------------------------------


def test_structural_equality_ignores_label():
    a = zn(6)
    b = FiniteRing(6, 1, a.add_table, a.mul_table, label="renamed")
    assert a == b
    assert hash(a) == hash(b)
    assert a != zn(7)
    assert a.label != b.label


def test_tables_are_immutable():
    ring = zn(5)
    for table in (ring.add_table, ring.mul_table):
        with pytest.raises(TypeError):
            table[0] = table[1]
        with pytest.raises(TypeError):
            table[0][0] = 1
    with pytest.raises(TypeError):
        ring.neg_table[0] = 1


def test_json_round_trip():
    ring = zn(8)
    clone = FiniteRing.from_json(ring.to_json())
    assert clone == ring
    assert clone.label == "Z_8"
    assert clone.provenance == {"kind": "zn", "n": 8}


@pytest.mark.parametrize(
    "entry",
    [0.9, 0.0, "0", 2**63, 2**70],
    ids=["float", "integral-float", "string", "2^63", "2^70"],
)
def test_non_integer_and_oversized_table_entries_are_refused(entry):
    """A table entry must be an integer: never truncated, parsed or overflowed."""
    record = json.loads(zn(2).to_json())
    record["add_table"][0][0] = entry
    with pytest.raises(TableFormatError, match="add table"):
        FiniteRing.from_json_dict(record)


@pytest.mark.parametrize(
    "key, value",
    [("one", 1.7), ("one", 1.0), ("one", True), ("one", "1"), ("order", "2"), ("order", 2.0), ("order", True)],
    ids=["one-float", "one-integral-float", "one-bool", "one-string", "order-string", "order-float", "order-bool"],
)
def test_non_integer_order_and_identity_are_refused(key, value):
    """order and one must be JSON integers: never truncated, parsed or read from a bool."""
    record = json.loads(zn(2).to_json())
    record[key] = value
    with pytest.raises(TableFormatError, match=key):
        FiniteRing.from_json_dict(record)


@pytest.mark.parametrize("table", ["add_table", "mul_table"])
@pytest.mark.parametrize("entry", [False, True, np.False_], ids=["false", "true", "numpy-false"])
def test_bool_table_entries_are_refused(table, entry):
    """A bool among integer entries is not read as 0 or 1."""
    record = json.loads(zn(2).to_json())
    row = 0 if table == "add_table" else 1
    record[table][row][0] = entry  # the entry there is 0 in add and mul
    with pytest.raises(TableFormatError, match=table.split("_")[0] + " table"):
        FiniteRing.from_json_dict(record)


@pytest.mark.parametrize(
    "key, value",
    [("label", 5), ("label", None), ("construction", "x"), ("construction", [1]), ("construction", None)],
    ids=["label-int", "label-null", "construction-string", "construction-list", "construction-null"],
)
def test_label_and_construction_of_the_wrong_type_are_refused(key, value):
    """label must be a string and construction an object (or absent): a string
    construction would fail later, inside the ideal constructions."""
    record = json.loads(zn(2).to_json())
    record[key] = value
    with pytest.raises(TableFormatError, match=key):
        FiniteRing.from_json_dict(record)


def test_record_without_label_or_construction_is_read():
    record = json.loads(zn(2).to_json())
    del record["label"], record["construction"]
    ring = FiniteRing.from_json_dict(record)
    assert (ring.label, ring.provenance) == ("ring2", None)


def test_size_cap_names_a_malformed_environment_value(monkeypatch):
    monkeypatch.setenv("CLEANRINGS_SIZE_CAP", "abc")
    with pytest.raises(ValueError, match="CLEANRINGS_SIZE_CAP.*'abc'"):
        size_cap()


# -- radical cross-checks ----------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 12, 16, 24])
def test_radical_cross_checks_never_fire_on_real_rings(n):
    # jacobson_radical raises RuntimeError if any internal cross-check fails
    ring = zn(n)
    radical = ring.jacobson_radical
    assert set(radical) == zn_radical_oracle(n)


NEAR_CAP_SPECS = (
    "(matrix 2 (zn 4))",
    "(series (zn 4) 4)",
    "(zn 256)",
    "(product (zn 4) (zn 4) (zn 16))",
)


@functools.cache
def _radical_rings() -> dict[str, FiniteRing]:
    """The four order-256 rings of the near-cap benchmark and two
    non-commutative block rings of the catalog."""
    rings = {spec: build(parse(spec)) for spec in NEAR_CAP_SPECS}
    rings.update((e.key, e.ring) for e in build_catalog() if e.key in ("tri2-z2", "tri3-z2"))
    return rings


def two_sided_radical_oracle(ring: FiniteRing) -> set[int]:
    """{x : 1 - a*x*b is a unit for all a, b}, straight from the definition."""
    add, mul = np.asarray(ring.add_table), np.asarray(ring.mul_table)
    neg, units = np.asarray(list(ring.neg_table)), np.asarray(list(ring.units_mask), dtype=bool)
    return {
        x for x in ring.elements
        if units[add[ring.one, neg[mul[mul[:, x], :]]]].all()
    }


@pytest.mark.parametrize("key", [*NEAR_CAP_SPECS, "tri2-z2", "tri3-z2"])
def test_radical_matches_the_two_sided_definition(key):
    ring = _radical_rings()[key]
    assert set(ring.jacobson_radical) == two_sided_radical_oracle(ring)


@pytest.mark.parametrize("spec", NEAR_CAP_SPECS)
def test_radical_cross_check_refuses_an_ideal_outside_the_radical(spec):
    # R is a two-sided ideal, so only the unit check 1 + J in U(R) can see it
    ring = _radical_rings()[spec]
    with pytest.raises(RuntimeError, match=r"1 \+ J not all units"):
        ring._cross_check_radical(list(ring.elements))


@pytest.mark.parametrize(
    "ring, extra",
    [
        (zn(9), lambda ring: 1),
        (constructions.matrix_ring(zn(4), 2), lambda ring: constructions.matrix_element(ring, [[0, 1], [0, 0]])),
    ],
    ids=["Z_9, 1", "M_2(Z_4), [[0,1],[0,0]]"],
)
def test_radical_cross_check_refuses_a_non_ideal_of_quasi_regular_elements(ring, extra):
    # 1 + x is a unit for every member, so only the ideal check can see it
    x = extra(ring)
    members = sorted({*ring.jacobson_radical, x})
    assert ring.is_unit(ring.add(ring.one, x)) and x not in ring.jacobson_radical
    with pytest.raises(RuntimeError, match="J is not a two-sided ideal"):
        ring._cross_check_radical(members)
