"""Constructors checked against tuple-semantics oracles: indices are decoded
into component tuples, the expected operation is computed componentwise with
plain integer arithmetic, and the result is re-encoded and compared."""

from __future__ import annotations

import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cleanrings import (
    Bimodule,
    BimoduleError,
    PairingMap,
    RingValidationError,
    TableFormatError,
    cofactor,
    corner_ring,
    det,
    direct_product,
    idealization,
    matrix_element,
    matrix_entries,
    matrix_ring,
    module_from_action,
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
from cleanrings import laws
from cleanrings.catalog import build_catalog


# -- products ----------------------------------------------------------------------


def test_product_matches_componentwise_oracle():
    n1, n2 = 3, 4
    ring = direct_product([zn(n1), zn(n2)])

    def enc(a, b):
        return a * n2 + b

    assert ring.one == enc(1, 1)
    for a, c in itertools.product(range(n1), range(n2)):
        for b, d in itertools.product(range(n1), range(n2)):
            x, y = enc(a, c), enc(b, d)
            assert ring.add(x, y) == enc((a + b) % n1, (c + d) % n2)
            assert ring.mul(x, y) == enc((a * b) % n1, (c * d) % n2)


def test_product_units_and_idempotents_are_componentwise():
    ring = direct_product([zn(2), zn(4)])
    units = {a * 4 + b for a in (1,) for b in (1, 3)}
    idems = {a * 4 + b for a in (0, 1) for b in (0, 1)}
    assert set(ring.units) == units
    assert set(ring.idempotents) == idems
    assert ring.describe(ring.one) == "(1,1)"


def test_product_of_coprime_cyclics_is_cyclic():
    # Z_2 x Z_3 and Z_6 are isomorphic but differently indexed; compare invariants
    p = direct_product([zn(2), zn(3)])
    z6 = zn(6)
    assert len(p.units) == len(z6.units)
    assert len(p.idempotents) == len(z6.idempotents)
    assert p.is_commutative and not p.has_nonzero_nilpotents


# -- matrix rings -------------------------------------------------------------------


def matrix_mul_oracle(n, A, B, k):
    return [[sum(A[i][l] * B[l][j] for l in range(k)) % n for j in range(k)] for i in range(k)]


def matrix_add_oracle(n, A, B, k):
    return [[(A[i][j] + B[i][j]) % n for j in range(k)] for i in range(k)]


_M2 = {n: matrix_ring(zn(n), 2) for n in (2, 3, 4)}


@given(st.data())
@settings(max_examples=80)
def test_matrix_ring_matches_matrix_oracle(data):
    n = data.draw(st.sampled_from([2, 3, 4]))
    ring = _M2[n]
    grid = st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=2), min_size=2, max_size=2)
    A = data.draw(grid)
    B = data.draw(grid)
    x, y = matrix_element(ring, A), matrix_element(ring, B)
    assert matrix_entries(ring, ring.mul(x, y)) == matrix_mul_oracle(n, A, B, 2)
    assert matrix_entries(ring, ring.add(x, y)) == matrix_add_oracle(n, A, B, 2)


def _gathered_matrix_table(base, k):
    """The product table of M_k(base) built entry by entry from k product and
    k - 1 sum gathers of the base tables, one array over every pair at a time."""
    n = base.order ** (k * k)
    idx = np.arange(n)
    d = [idx // base.order ** (k * k - 1 - c) % base.order for c in range(k * k)]
    add, mul = np.asarray(base.add_table), np.asarray(base.mul_table)
    table = np.zeros((n, n), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            acc = None
            for l in range(k):
                term = mul[np.ix_(d[i * k + l], d[l * k + j])]
                acc = term if acc is None else add[acc, term]
            table = table * base.order + acc
    return table


def _entrywise_product(base, k, a, b):
    """Entry (i, j) of AB as the sum over l of a_il b_lj, one base operation at a time."""
    entries = []
    for i in range(k):
        for j in range(k):
            acc = base.zero
            for l in range(k):
                acc = base.add(acc, base.mul(a[i][l], b[l][j]))
            entries.append(acc)
    return [entries[i * k : (i + 1) * k] for i in range(k)]


@pytest.mark.parametrize("n, k", [(6, 1), (4, 2), (6, 2), (2, 3)])
def test_matrix_ring_products_match_the_entrywise_sums(n, k):
    """The dot-table product against the gathered table on every pair, and
    against the entrywise sums on every pair of a seeded draw of 40 rows."""
    base = zn(n)
    ring = matrix_ring(base, k, cap=n ** (k * k))
    assert type(ring.mul_table[0]) is (bytes if ring.order <= 256 else tuple)
    assert np.array_equal(ring.mul_table, _gathered_matrix_table(base, k))
    rows = random.Random(f"matrix-{n}-{k}").sample(range(ring.order), min(40, ring.order))
    grids = [matrix_entries(ring, x) for x in ring.elements]
    for x in rows:
        products = [matrix_element(ring, _entrywise_product(base, k, grids[x], b)) for b in grids]
        assert list(ring.mul_table[x]) == products, x


def test_matrix_ring_known_counts():
    ring = matrix_ring(zn(2), 2)
    assert ring.order == 16
    assert len(ring.units) == 6  # |GL_2(F_2)|
    assert len(ring.idempotents) == 8
    assert not ring.is_commutative
    assert ring.has_nonzero_nilpotents
    e11 = matrix_element(ring, [[1, 0], [0, 0]])
    assert ring.is_idempotent(e11)
    assert ring.describe(ring.one) == "[[1,0],[0,1]]"


def test_matrix_encode_decode_round_trip():
    ring = matrix_ring(zn(3), 2)
    for idx in ring.elements:
        assert matrix_element(ring, matrix_entries(ring, idx)) == idx


@pytest.mark.parametrize(
    "grid",
    [
        [[2, 0], [0, 0]],
        [[-1, 0], [0, 0]],
        [[1, 1, 1], [0, 0, 0], [0, 0, 0]],
        [[1]],
        [[1, 0, 0], [1]],
        [[1], [0, 0, 0]],
        [[1, 0], [1], [0]],
    ],
)
def test_matrix_element_refuses_a_grid_outside_the_layout(grid):
    # an entry outside Z_2, a grid of the wrong size, or a ragged grid of four
    # entries has no index in M_2(Z_2)
    with pytest.raises(ValueError, match="do not fit radices"):
        matrix_element(matrix_ring(zn(2), 2), grid)


@pytest.mark.parametrize(
    "ring, idx",
    [(matrix_ring(zn(3), 2), 81), (matrix_ring(zn(2), 2), -1), (matrix_ring(zn(2), 2), 16)],
)
def test_decoding_refuses_an_index_outside_the_ring(ring, idx):
    with pytest.raises(ValueError, match="out of range"):
        matrix_entries(ring, idx)
    with pytest.raises(ValueError, match="out of range"):
        ring.describe(idx)


# -- determinants and cofactors -------------------------------------------------------


def det_oracle(n, A):
    """Permutation-sum determinant over Z_n, independent of the ring tables."""
    k = len(A)
    total = 0
    for perm in itertools.permutations(range(k)):
        sign = 1
        seen = [False] * k
        # compute permutation parity by cycle counting
        p = list(perm)
        for start in range(k):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = p[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = 1
        for i in range(k):
            term *= A[i][perm[i]]
        total += sign * term
    return total % n


def test_det_2x2_exhaustive_over_z6():
    ring = zn(6)
    for a, b, c, d in itertools.product(range(6), repeat=4):
        A = [[a, b], [c, d]]
        assert det(ring, A) == (a * d - b * c) % 6


@given(st.data())
@settings(max_examples=60)
def test_det_3x3_matches_permutation_oracle(data):
    n = data.draw(st.sampled_from([2, 3, 5, 6]))
    ring = zn(n)
    A = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=3, max_size=3), min_size=3, max_size=3))
    assert det(ring, A) == det_oracle(n, A)


@given(st.data())
@settings(max_examples=40)
def test_laplace_expansion_identity(data):
    """det A = sum_j A[0][j] * cofactor(A, 0, j) ties det and cofactor together."""
    n = data.draw(st.sampled_from([4, 5, 6]))
    k = data.draw(st.sampled_from([2, 3]))
    ring = zn(n)
    A = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=k, max_size=k), min_size=k, max_size=k))
    expansion = 0
    for j in range(k):
        expansion = ring.add(expansion, ring.mul(A[0][j], cofactor(ring, A, 0, j)))
    assert expansion == det(ring, A)


def test_det_rejects_noncommutative_and_oversize():
    m = matrix_ring(zn(2), 2)
    with pytest.raises(ValueError):
        det(m, [[0]])
    with pytest.raises(ValueError):
        det(zn(2), [[0] * 5] * 5)
    with pytest.raises(ValueError):
        det(zn(2), [[0, 1], [0, 1, 1]])


# -- bimodules ---------------------------------------------------------------------


def test_zn_bimodule_validates_exactly_when_modulus_divides():
    assert zn_bimodule(zn(4), zn(4), 2).order == 2
    assert zn_bimodule(zn(6), zn(6), 3).order == 3
    with pytest.raises(BimoduleError):
        zn_bimodule(zn(4), zn(4), 3)
    with pytest.raises(BimoduleError):
        zn_bimodule(zn(2), zn(2), 4)


def test_regular_bimodule_validates():
    b = regular_bimodule(zn(6))
    assert b.order == 6
    assert b.is_symmetric()
    assert b.left(2, 3) == 0 and b.right(3, 5) == 3


def test_zero_bimodule():
    b = zero_bimodule(zn(4), zn(6))
    assert b.order == 1
    assert b.left(3, 0) == 0 and b.right(0, 5) == 0


def test_broken_action_is_rejected():
    z2 = zn(2)
    # left action that ignores the ring element is not unital unless trivial
    bad_left = [[0, 0], [0, 0]]
    with pytest.raises(BimoduleError):
        Bimodule(z2, z2, zn(2).add_table, bad_left, np.transpose(bad_left))


# -- block constructions ---------------------------------------------------------------


def tri2_mul_oracle(r, m, s, r2, m2, s2, n):
    """(r, m, s)(r', m', s') = (r r', m r' + s m', s s') with entries mod n."""
    return ((r * r2) % n, (m * r2 + s * m2) % n, (s * s2) % n)


def test_tri2_matches_triple_oracle():
    n = 2
    z = zn(n)
    ring = tri2(z, z, zn_bimodule(z, z, n))

    def enc(r, m, s):
        return (r * n + m) * n + s

    for t1 in itertools.product(range(n), repeat=3):
        for t2 in itertools.product(range(n), repeat=3):
            expected = tri2_mul_oracle(*t1, *t2, n)
            assert ring.mul(enc(*t1), enc(*t2)) == enc(*expected)
            added = tuple((a + b) % n for a, b in zip(t1, t2))
            assert ring.add(enc(*t1), enc(*t2)) == enc(*added)


def test_tri2_known_idempotents():
    z2 = zn(2)
    ring = tri2(z2, z2, zn_bimodule(z2, z2, 2))
    assert ring.order == 8
    assert ring.idempotents == (0, 1, 3, 4, 5, 6)
    assert ring.one == 5  # (1, 0, 1)
    assert not ring.is_commutative


def morita_mul_oracle(q1, q2, n):
    r, m, nn, s = q1
    r2, m2, n2, s2 = q2
    return ((r * r2) % n, (r * m2 + m * s2) % n, (nn * r2 + s * n2) % n, (s * s2) % n)


def test_morita_zero_matches_quadruple_oracle():
    n = 2
    z = zn(n)
    b = zn_bimodule(z, z, n)
    ring = morita_zero(z, z, b, b)

    def enc(q):
        return ((q[0] * n + q[1]) * n + q[2]) * n + q[3]

    quads = list(itertools.product(range(n), repeat=4))
    for q1 in quads:
        for q2 in quads:
            assert ring.mul(enc(q1), enc(q2)) == enc(morita_mul_oracle(q1, q2, n))


def test_morita_zero_known_counts():
    z2 = zn(2)
    b = zn_bimodule(z2, z2, 2)
    ring = morita_zero(z2, z2, b, b)
    assert ring.order == 16
    assert ring.one == 9  # (1, 0, 0, 1)
    assert len(ring.units) == 4
    assert len(ring.idempotents) == 10


def tri3_mul_oracle(x, y, n):
    x1, x21, x2, x31, x32, x3 = x
    y1, y21, y2, y31, y32, y3 = y
    return (
        (x1 * y1) % n,
        (x21 * y1 + x2 * y21) % n,
        (x2 * y2) % n,
        (x31 * y1 + x32 * y21 + x3 * y31) % n,
        (x32 * y2 + x3 * y32) % n,
        (x3 * y3) % n,
    )


def test_tri3_with_multiplication_pairing_matches_oracle():
    n = 2
    z = zn(n)
    b = zn_bimodule(z, z, n)
    comp = PairingMap((np.arange(n)[:, None] * np.arange(n)[None, :]) % n)
    ring = tri3(z, z, z, b, b, b, comp)

    def enc(t):
        idx = 0
        for d in t:
            idx = idx * n + d
        return idx

    tuples = list(itertools.product(range(n), repeat=6))
    for x in tuples[:16]:
        for y in tuples:
            assert ring.mul(enc(x), enc(y)) == enc(tri3_mul_oracle(x, y, n))


def test_tri3_zero_pairing_drops_cross_term():
    n = 2
    z = zn(n)
    b = zn_bimodule(z, z, n)
    ring = tri3(z, z, z, b, b, b)  # zero pairing by default
    # x32 = 1 and y21 = 1, everything else 0: product must be 0
    x = (0, 0, 0, 0, 1, 0)
    y = (0, 1, 0, 0, 0, 0)

    def enc(t):
        idx = 0
        for d in t:
            idx = idx * n + d
        return idx

    assert ring.mul(enc(x), enc(y)) == 0


def test_pairing_validation_rejects_unbalanced_table():
    n = 2
    z = zn(n)
    b = zn_bimodule(z, z, n)
    # constant-1 pairing is not biadditive: comp(0, v) must be 0
    bad = PairingMap(np.ones((n, n), dtype=int))
    with pytest.raises(BimoduleError):
        tri3(z, z, z, b, b, b, bad)


# -- idealization -----------------------------------------------------------------------


def test_idealization_matches_pair_oracle():
    n = 4
    z = zn(n)
    ring = idealization(z, module_from_action(z, z.add_table, z.mul_table))

    def enc(r, m):
        return r * n + m

    for r, m in itertools.product(range(n), repeat=2):
        for r2, m2 in itertools.product(range(n), repeat=2):
            assert ring.mul(enc(r, m), enc(r2, m2)) == enc((r * r2) % n, (r * m2 + r2 * m) % n)
    assert ring.one == enc(1, 0)
    # (0, m) squares to zero: the module slot is a square-zero ideal
    for m in range(n):
        assert ring.mul(enc(0, m), enc(0, m)) == 0


def test_idealization_requires_commutative_base():
    m = matrix_ring(zn(2), 2)
    with pytest.raises(ValueError):
        idealization(m, regular_bimodule(m))


# -- quotients ----------------------------------------------------------------------------


def test_quotient_of_zn_by_divisor_is_smaller_zn():
    ring = zn(12)
    quot, proj = quotient(ring, [0, 4, 8])
    assert quot == zn(4)
    assert list(proj) == [x % 4 for x in range(12)]


def test_quotient_by_full_ring_is_trivial():
    ring = zn(6)
    quot, _ = quotient(ring, range(6))
    assert quot.is_trivial


def test_quotient_rejects_non_ideals():
    ring = zn(12)
    with pytest.raises(ValueError):
        quotient(ring, [0, 5])
    with pytest.raises(ValueError):
        quotient(ring, [4, 8])


@pytest.mark.parametrize("members", [[0, 4, -4], [0, 4, 12]], ids=["negative", "past-the-end"])
def test_quotient_refuses_members_outside_the_ring(members):
    """An out-of-range member is refused, not wrapped into range or left to crash."""
    with pytest.raises(ValueError, match="outside 0..7"):
        quotient(zn(8), members)


@pytest.mark.parametrize("table", [[[2**70]], [[0.5]], [["0"]]], ids=["2^70", "float", "string"])
def test_pairing_tables_hold_integers(table):
    with pytest.raises(TableFormatError, match="pairing table"):
        PairingMap(table)


def test_module_action_tables_hold_integers():
    z2 = zn(2)
    with pytest.raises(TableFormatError, match="left action table"):
        module_from_action(z2, z2.add_table, [[0.0, 0.0], [0.0, 1.0]])


def test_quotient_of_matrix_ring_by_radical():
    base = _M2[4]
    members = base.jacobson_radical
    quot, proj = quotient(base, members)
    assert quot.order == base.order // len(members)
    assert quot.jacobson_radical == (0,)


# -- truncated power series --------------------------------------------------------------


def test_series_matches_cauchy_product_oracle():
    n, k = 3, 3
    ring = truncated_power_series(zn(n), k)

    def enc(coeffs):
        idx = 0
        for c in coeffs:
            idx = idx * n + c
        return idx

    for a in itertools.product(range(n), repeat=k):
        for b in itertools.product(range(n), repeat=k):
            expected = tuple(
                sum(a[i] * b[d - i] for i in range(d + 1) if i < k and d - i < k) % n
                for d in range(k)
            )
            assert ring.mul(enc(a), enc(b)) == enc(expected)


def test_series_units_have_unit_constant_term():
    ring = truncated_power_series(zn(4), 2)
    # element (a0, a1) encoded as a0 * 4 + a1; units are exactly a0 odd
    expected_units = {a0 * 4 + a1 for a0 in (1, 3) for a1 in range(4)}
    assert set(ring.units) == expected_units
    x = 1  # coefficients (0, 1)
    assert ring.mul(x, x) == 0  # x^2 truncates away
    assert ring.describe(ring.one) == "1"


# -- corner rings --------------------------------------------------------------------------


def test_corner_of_z6_at_idempotent_4():
    corner = corner_ring(zn(6), 4)
    assert corner.carrier == (0, 2, 4)
    assert corner.ring.order == 3
    assert corner.ring.one == corner.position[4]
    assert corner.embed(corner.ring.one) == 4
    assert corner.ring.is_commutative
    assert len(corner.ring.units) == 2  # three-element field


def test_corner_at_one_is_whole_ring():
    ring = zn(6)
    corner = corner_ring(ring, 1)
    assert corner.ring == ring


def test_corner_requires_idempotent():
    with pytest.raises(ValueError):
        corner_ring(zn(6), 2)


def test_corner_of_matrix_ring_at_e11_is_base():
    ring = matrix_ring(zn(3), 2)
    e11 = matrix_element(ring, [[1, 0], [0, 0]])
    corner = corner_ring(ring, e11)
    assert corner.ring.order == 3
    assert corner.ring.is_commutative
    assert len(corner.ring.units) == 2


# -- provenance and labels -------------------------------------------------------------------


def test_provenance_kinds():
    z2 = zn(2)
    b = zn_bimodule(z2, z2, 2)
    assert zn(5).provenance["kind"] == "zn"
    assert direct_product([z2, z2]).provenance["kind"] == "product"
    assert matrix_ring(z2, 2).provenance["kind"] == "matrix"
    assert tri2(z2, z2, b).provenance == {"kind": "tri2", "radices": [2, 2, 2]}
    assert morita_zero(z2, z2, b, b).provenance["kind"] == "morita"
    assert truncated_power_series(z2, 2).provenance["kind"] == "series"
    ideal_prov = idealization(z2, module_from_action(z2, z2.add_table, z2.mul_table)).provenance
    assert ideal_prov["kind"] == "idealization"
    assert ideal_prov["module_add"] == [[0, 1], [1, 0]]
    assert ideal_prov["module_action"] == [[0, 0], [0, 1]]


# -- byte pins over every mixed-radix layout ---------------------------------------------

_PINNED_EXTRAS = {
    "tri2-z4-z6": lambda: tri2(zn(4), zn(6), zn_bimodule(zn(6), zn(4), 2)),
    "series-z3-k1": lambda: truncated_power_series(zn(3), 1),
    "series-z3-k3": lambda: truncated_power_series(zn(3), 3),
    "product-z2xz1xz3": lambda: direct_product([zn(2), zn(1), zn(3)]),
    "idealization-z4-zn2": lambda: idealization(zn(4), zn_bimodule(zn(4), zn(4), 2)),
    "morita-zero-modules": lambda: morita_zero(
        zn(2), zn(3), zero_bimodule(zn(2), zn(3)), zero_bimodule(zn(3), zn(2))
    ),
    "matrix1-z2": lambda: matrix_ring(zn(2), 1),
    "matrix2-z4": laws._m2z4,
    "matrix3-z2": laws._m3z2,
}

# SHA-256 of to_json() and of every element's describe() joined by "|", for
# each catalog ring and a few composites outside it (a radix-1 factor, series
# at k = 1, morita with zero bimodules, a 1x1 matrix ring, an uneven tri2, and
# the two matrix rings the laws build beyond the catalog).
_PINS = {
    "zn-1": ("f5d9b907ada0b5c8adea8f2a675355c9c8bbe341bbcf9889547b81639d8df012", "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9"),
    "zn-2": ("8e2e2a82953906fb42fa27b1e82db09628b8f95f16edf829135748c2c3a7b910", "fff143c4af61e84ccece0b526eb6d505cd6f5cc463ba41b8c54da3e04c455835"),
    "zn-3": ("f8ed191f79d7c3332bf62cba25c5908631fceef66615abb45ced5c2057772d3c", "540efeb2de09e9415cbff4df0439e0c8a4898008b9dc55b1fe5a9451e576b149"),
    "zn-4": ("d875630258085ae9dfe582e40faf7138c2d4c9375f5e9c4f84747cd44e3c3de0", "e681d5e4b7174947b2b8981ee420fc2f4e33bec06c18e289c8753a6d20677d72"),
    "zn-5": ("a6277e4286521f34828ad3948605100a55b376c6dbe82ca8d66d99d3ca0ceb19", "4565c3e4e04dfe3f770b2cad9d5ffa85053fd3ddffd05597f69640922943a00f"),
    "zn-6": ("69fdc74edb838cc2779f0b6253c3bcef2da9ff0439a54de04b8473c3b57fe91b", "87b19a78e87fb010ece6c489f0ec08bb278fd7024a07c3f08cc9052c12ad0996"),
    "zn-7": ("faedb908c676c20990af95a692d6f52adc39542d77d9a39e12a4f625043da05f", "64a2db2fa7c05c1a75e8c328a407b8adacf58eb38e8e746003d3866bc7bf97dc"),
    "zn-8": ("60c1e365ed7b5d02a48fe9ab9551e06defa15fe7da6d2ac74c6e825c88111c14", "043de327b1f022bbdea4f1a36e9a33a5f897d252a8dbfed836c13808a64f1461"),
    "zn-9": ("690885644a3c0f8982ab6033d980ba129b82863ad3106e93709a8095eedac59e", "6e11238ee00a1fe5984d81f872b099428083f80d875a7570bd46804a565bd272"),
    "zn-10": ("847125923225620a3d0ccf8c7d63f9250f1f601b49ca8aec263b8e4a2174ac7b", "2af004ae6547c4c0a0a0ce4af1df0ac5d325ed8fbc1c82eadb86bb726e811513"),
    "zn-11": ("3e298e2a0e48dcb2fb1fc1fd9baf756f6dbe9e14a923e7cab789dadbec670d6a", "5cb2dd119cba04a77680bac63c35a618acd4c57bbcbb853b09eb77ac54b61baa"),
    "zn-12": ("5f2ed4dfe056856049837634028d0bf4c67e1e725bb52ab3dfdcc491cbb8fbbc", "2991bec15b385f8d1a10f89aa7c9670215761a4082e9f30fc421c59c50bf6da0"),
    "zn-16": ("8acb0736f148c367038f1680967f58ddb71ae071476e88352f8674b6dce76ef0", "9de83eacc3812076bc77b159c594edd288ef7406029fe22e7e7f2ba7c6eb4db8"),
    "product-z2xz2": ("60c1987895f3b73d6f09c0522746540d67f8a8f839d35719a5f6e4e76de0df14", "a2ed100ec38e5f74c5956c9059e22cceeace9371a9938c4109729d3f7fdc4065"),
    "product-z2xz4": ("b8651b125d495a39cc6459c4c1f90bf5d1e04c6dfb747c941ad00c2c1595d651", "6db2ef321f48251f463c3d5818d755186b6f5d44a7fb866746a610c55722107c"),
    "matrix2-z2": ("cfdfa1b8c3f5e0f576bc3cae93f69bb82c94b1a8eb1dd997cc349e62b3faaebe", "8a2ea72fbd9a4ed51147a5712aea830e3b98d979fe7bf0b34db1117be61127b4"),
    "matrix2-z3": ("34c108a33314b16829aa9448615e019d336b04996de9f23ed6cef6400f13e6a1", "a70b674ca218e8db0b06a42bf240d79d5c3c0bba3e50cd26e3b1f4500f82af9d"),
    "tri2-z2": ("14bd3af2add0689032e8deb2f2db04a8f34381f9f3b567ad50c709ef72cb64aa", "5b189d2727ac39608335679c6fbdc35125e5e7141866cccaf3d0bbc927edf6d1"),
    "tri3-z2": ("56a196072d301681f58199967d226f6ab90c28d3fcfc9fbba7acce9daa2f8814", "25ecac6b4148015bae9efb5c51ebd66ec8c09a3c7516d5d69015ccedb9a3c62a"),
    "morita-z2": ("990cc2c09fe79bdb016a172f18a8072378b961655e92ea7783576e97aecf8995", "8a2ea72fbd9a4ed51147a5712aea830e3b98d979fe7bf0b34db1117be61127b4"),
    "idealization-z4-z4": ("8c32803627fcd890ba74d6b329b5d34411e2f71fd8da0407559d2ce1466f6cf2", "33ad843269a6161a222419de504da5716d6a6c8a4de112fdf7acbd2bb76e6313"),
    "idealization-z4-z2": ("dea6411b4da7ec88116f84a9092112c6457a9ae87bbcacb21582bfff5ff035b2", "1bec44a26a4ae4a0af3b810aaace6344922e517047f1102cec371e04e46acf30"),
    "series-z2-k2": ("67cc25c773f9410b578d54ab748fd710f426c86ed97fdf6674c395195d7163a4", "2e7131e506d1c61433067da3990f06f5edcfd35b75a8a2b64d66bc02b91bc641"),
    "series-z2-k3": ("f78c5a7258feef4ad1a7ca7f8d358a647902168437076f780acc528bd197f035", "87ccb2760c73620e57495ef9f7953829ccf179f848d515136cba53ee81c35a77"),
    "series-z4-k2": ("dc920442908542759da12a74385592eec1bd81564b85dd956848f13cd756c092", "9c07af5a2a23b4738af5a20d6e7af73ffe892c7de2fb95321902ab59ef2ea351"),
    "series-z4-k3": ("19500e67083b7ef4e58edbfa35c176d20a5b573e3ee622325ba45b42a0508e68", "d843e643e79f14265a10bb9c9a2e94efceea40c44d5db46763d1d2538aec0de8"),
    "zn-4-mod-radical": ("197927b102e70bb4c726631732901b53056d2ff01e8f185f993a244e1a2fbb17", "5463c0aa521e638f8181d94571c944a9cf83fb14cb89adb765c23c089407f2c8"),
    "zn-8-mod-radical": ("ddaaee31eeaa575c5673a79598f891bb14b1b14cd1d202be402561c587cd13aa", "5463c0aa521e638f8181d94571c944a9cf83fb14cb89adb765c23c089407f2c8"),
    "zn-9-mod-radical": ("bfae5caaaea8b984db8b3ee572fc65eb0cce96bb323b55873f981cdce41ba936", "42d2faf2709f8c937bcce29c8613a01c271d9c57a49b45978bce708499315348"),
    "zn-12-mod-radical": ("831b1f86ed7c3d3d14df5453779de6febd8ac99f615600969d8f1e8079099f5a", "d8dbe8c4dafa155508139554d6b0a98049ace048477ebb40669982d3f238d2d4"),
    "zn-16-mod-radical": ("88d7a8a43dfcbdb9ae22e8ddb2685f5230544009d2bc4c2ec16be013a331ff9d", "5463c0aa521e638f8181d94571c944a9cf83fb14cb89adb765c23c089407f2c8"),
    "product-z2xz4-mod-radical": ("7311dc2faa8051ae9ca97f93491eff4994a88e116714f6d3a244dc9737155225", "8c1e3b1ee0b8a0a477c9e673018f45be1a8669cc6e3ef6c018ede37df78ede58"),
    "tri2-z2-mod-radical": ("f78196b164fca153762f2ba9840dd61fa654f7fdbe630bf440b4f2eecfe18728", "6ccbdabbcfa8fb8180d33492c7e6875a493744fe7ebcbc3a90ab872ccde25949"),
    "tri3-z2-mod-radical": ("1340a89a85d66ac576d0ff4fdd054dcf1b2ed45583d973e8affdf1fe48fa274d", "6585740c6b4eab60a5e3ccf72aedc3ac83fee24dad71508aa892bb106c993b54"),
    "morita-z2-mod-radical": ("f7ea320e755e2c8894addcb58440dcedf693d1d38f7c5902a4ae5d7b97b028c3", "6ccbdabbcfa8fb8180d33492c7e6875a493744fe7ebcbc3a90ab872ccde25949"),
    "idealization-z4-z4-mod-radical": ("c28d7fc5e205b036abdb206d6a581d5411fc6181d9fc6cd79cbdf237339aa08d", "3110b566690e2833de46fa7f26d00f36054c7193c954d7a3a7855654d98b1265"),
    "idealization-z4-z2-mod-radical": ("420c8442f73b35e76879779b55d36bdbba32a009c9e2a7a287d8b579b324c34d", "3110b566690e2833de46fa7f26d00f36054c7193c954d7a3a7855654d98b1265"),
    "series-z2-k2-mod-radical": ("098b24f51b40d80c41ee6d33691cfc7b8ffdb23ffb615eceeb9832c11d363825", "5463c0aa521e638f8181d94571c944a9cf83fb14cb89adb765c23c089407f2c8"),
    "series-z2-k3-mod-radical": ("994d8dde5f1959dee3705a6bb15a34b032950c3687c0f71f9d11ef7fdcb95368", "5463c0aa521e638f8181d94571c944a9cf83fb14cb89adb765c23c089407f2c8"),
    "series-z4-k2-mod-radical": ("30aa9b63190b8c0bf0ed1de8c2c2c12475e2dd828def69332de5ed16777b48d0", "5463c0aa521e638f8181d94571c944a9cf83fb14cb89adb765c23c089407f2c8"),
    "series-z4-k3-mod-radical": ("83eca40fd87e48b533a18b6787c9074df2df064dc2c7a1000ca40b00558fa3fe", "5463c0aa521e638f8181d94571c944a9cf83fb14cb89adb765c23c089407f2c8"),
    "tri2-z4-z6": ("03f362b1a025522bbd3fb0f984e106857494776e15829279aa1753c09c6d8b74", "aab31b6390ea2653779dbc885694fff6d93752866e9a4f677a4f78d32bf4fa5f"),
    "series-z3-k1": ("2d91de4227325d06e7a190b84afdd9142b61f3e0c9ec06bfdced2d8229d17266", "540efeb2de09e9415cbff4df0439e0c8a4898008b9dc55b1fe5a9451e576b149"),
    "series-z3-k3": ("aadca32577853b53d00bf5cd681a1b77e98696a6e63962c66f19a8a09fb747ea", "b73b8ed7179cbecb3e463d01d86ebae45e2f2a2524c359332361d52179ad2dd8"),
    "product-z2xz1xz3": ("93ef4b74b398f2d5a440d0ece9f25127cc9617c6b85d35b275c3fb91da6d6fdc", "bdf0f8ea46613949935b8a0649047bc70cb3d5e17a7d21fc8e094bb5d448a15a"),
    "idealization-z4-zn2": ("dea6411b4da7ec88116f84a9092112c6457a9ae87bbcacb21582bfff5ff035b2", "1bec44a26a4ae4a0af3b810aaace6344922e517047f1102cec371e04e46acf30"),
    "morita-zero-modules": ("f5f7e82936a6d4d64cde7099de3c874b3060d3410db3135dde41e9b0fcf84534", "bfa0e8f7cb5db7fabb539021e19cf32019c95df8a6685cfc3042a969186f357e"),
    "matrix1-z2": ("f7182cc92e9eda3362b3e508fa38b93e3fd362878b891095049e8cc20f51e98c", "3beb158d2f3f4de00e8e6ea52e29de129e5e0d5d169219b7868e2bc2d9637e5a"),
    "matrix2-z4": ("fa9acaf18d27e359a323ad7cc643e542fa685eb6ec2366800a8cde1303d4bc91", "3012bcc3cb3f8b0898420f6efb25750c68af7d6a2c70aa7a44a6669ccd8c7ef7"),
    "matrix3-z2": ("e4a3175e9026be4aa23819c8c0558b5cec936ce9c5e96e2d5171093e0803555e", "5722843ea44121a36c32b4cdc2c6cead1849da9f6f69757d9f113752d86819a0"),
}


@pytest.mark.parametrize("key", list(_PINS))
def test_tables_and_renderings_match_the_pins(key):
    entries = {e.key: e.ring for e in build_catalog()}
    ring = entries[key] if key in entries else _PINNED_EXTRAS[key]()
    rendered = "|".join(ring.describe(i) for i in ring.elements)
    assert (
        hashlib.sha256(ring.to_json().encode()).hexdigest(),
        hashlib.sha256(rendered.encode()).hexdigest(),
    ) == _PINS[key]
