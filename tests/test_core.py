"""Core ring validation and base queries, checked against modular-arithmetic
oracles computed directly from integer arithmetic (never through the tables
under test)."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cleanrings import (
    FiniteRing,
    RingValidationError,
    SizeCapError,
    TableFormatError,
    validate_ring,
    zn,
)
from cleanrings.core import size_cap


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


def test_left_multiples():
    ring = zn(12)
    assert ring.left_multiples(4).tolist() == [0, 4, 8]
    assert ring.left_multiples(5).tolist() == list(range(12))


# -- validation rejections -------------------------------------------------------


def test_tampered_multiplication_is_rejected_with_witnesses():
    z4 = zn(4)
    mul = z4.mul_table.copy()
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
    add = z3.add_table.copy()
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
    mul = ring.mul_table.copy()
    mul[i, j] = (mul[i, j] + delta) % n
    report = validate_ring(n, 1 % n, ring.add_table, mul)
    assert not report.ok


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
    with pytest.raises(ValueError):
        ring.add_table[0, 0] = 1
    with pytest.raises(ValueError):
        ring.mul_table[0, 0] = 1
    with pytest.raises(ValueError):
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
