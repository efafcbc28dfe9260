"""Table-law checks compared with definition-level oracles.

Each oracle restates the axioms of a ring, a bimodule or a pairing as plain
triple loops over Python lists, with no numpy and nothing shared with the
validators. Hypothesis tampers one or two cells of genuine tables, and the
validator must agree with the oracle: for rings on the first witness of every
axiom, for bimodules and pairings on accept/reject and on the law named.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings, strategies as st

from cleanrings import (
    Bimodule,
    BimoduleError,
    PairingMap,
    SizeCapError,
    direct_product,
    regular_bimodule,
    tri2,
    tri3,
    truncated_power_series,
    validate_ring,
    zn,
    zn_bimodule,
)


def _lists(table) -> list[list[int]]:
    """A table of rows as lists of ints, for the oracles to index and tamper."""
    return [list(row) for row in table]


def _first(cells, broken):
    """The first cell, in scan order, where broken(*cell) holds, else None."""
    return next((cell for cell in cells if broken(*cell)), None)


def _group_oracle(add) -> list[tuple[str, tuple[int, ...]]]:
    n = range(len(add))
    laws = [
        ("add-identity", ((j,) for j in n), lambda j: add[0][j] != j),
        ("add-commutative", itertools.product(n, n), lambda i, j: add[i][j] != add[j][i]),
        ("add-inverse", ((i,) for i in n), lambda i: all(add[i][j] != 0 for j in n)),
        (
            "add-associative",
            itertools.product(n, n, n),
            lambda i, j, k: add[add[i][j]][k] != add[i][add[j][k]],
        ),
    ]
    found = [(axiom, _first(cells, broken)) for axiom, cells, broken in laws]
    return [(axiom, w) for axiom, w in found if w is not None]


def ring_oracle(one, add, mul) -> list[tuple[str, tuple[int, ...]]]:
    """Every violated ring axiom with its first witness.

    Witnesses are the first in lexicographic (i, j, k) order, except that
    right-distributivity scans the right factor i first and reports (j, k, i).
    """
    n = range(len(add))
    out = _group_oracle(add)
    row = [j for j in n if mul[one][j] != j]
    col = [j for j in n if mul[j][one] != j]
    if row or col:
        out.append(("one-identity", ((row or col)[0],)))
    laws = [
        (
            "mul-associative",
            itertools.product(n, n, n),
            lambda i, j, k: mul[mul[i][j]][k] != mul[i][mul[j][k]],
        ),
        (
            "left-distributive",
            itertools.product(n, n, n),
            lambda i, j, k: mul[i][add[j][k]] != add[mul[i][j]][mul[i][k]],
        ),
        (
            "right-distributive",
            ((j, k, i) for i, j, k in itertools.product(n, n, n)),
            lambda j, k, i: mul[add[j][k]][i] != add[mul[j][i]][mul[k][i]],
        ),
    ]
    for axiom, cells, broken in laws:
        witness = _first(cells, broken)
        if witness is not None:
            out.append((axiom, witness))
    return out


_SMALL_RINGS = [zn(n) for n in range(1, 9)] + [
    direct_product([zn(2), zn(2)]),
    direct_product([zn(2), zn(4)]),
    direct_product([zn(2), zn(2), zn(2)]),
    truncated_power_series(zn(2), 2),
    truncated_power_series(zn(2), 3),
    tri2(zn(2), zn(2), regular_bimodule(zn(2))),
]


def _tamper(data, tables: dict[str, list[list[int]]], values: int) -> None:
    """Overwrite one or two drawn cells of the named tables in place."""
    for _ in range(data.draw(st.integers(1, 2))):
        name = data.draw(st.sampled_from(sorted(tables)))
        table = tables[name]
        i = data.draw(st.integers(0, len(table) - 1))
        j = data.draw(st.integers(0, len(table[i]) - 1))
        table[i][j] = data.draw(st.integers(0, values - 1))


@given(st.sampled_from(_SMALL_RINGS), st.data())
@settings(max_examples=300, deadline=None)
def test_validate_ring_reports_the_oracle_witnesses(ring, data):
    tables = {"add": _lists(ring.add_table), "mul": _lists(ring.mul_table)}
    _tamper(data, tables, ring.order)
    report = validate_ring(ring.order, ring.one, tables["add"], tables["mul"])
    expected = dict(ring_oracle(ring.one, tables["add"], tables["mul"]))
    assert {v.axiom: v.witness for v in report.violations} == expected
    assert len(report.violations) == len(expected)
    assert report.ok == (not expected)


def test_ring_oracle_pins_the_known_witnesses():
    """The oracle reproduces the witnesses pinned in test_core."""
    z4 = zn(4)
    mul = _lists(z4.mul_table)
    mul[2][2] = 1
    assert ring_oracle(1, _lists(z4.add_table), mul) == [
        ("mul-associative", (2, 2, 3)),
        ("left-distributive", (2, 1, 1)),
        ("right-distributive", (1, 1, 2)),
    ]


# -- bimodules and pairings ------------------------------------------------------


def bimodule_oracle(left_ring, right_ring, add, la, ra) -> set[str]:
    """The messages of every bimodule law the tables break."""
    M = range(len(add))
    L, R = range(left_ring.order), range(right_ring.order)
    lmul, ladd, rmul, radd = (
        _lists(t)
        for t in (left_ring.mul_table, left_ring.add_table, right_ring.mul_table, right_ring.add_table)
    )
    broken = {f"carrier is not an abelian group: {axiom}" for axiom, _ in _group_oracle(add)}
    laws = {
        "left action is not unital": (((m,) for m in M), lambda m: la[left_ring.one][m] != m),
        "right action is not unital": (((m,) for m in M), lambda m: ra[m][right_ring.one] != m),
        "left action is not associative over ring multiplication": (
            itertools.product(L, L, M),
            lambda r, q, m: la[lmul[r][q]][m] != la[r][la[q][m]],
        ),
        "left action is not additive in the ring argument": (
            itertools.product(L, L, M),
            lambda r, q, m: la[ladd[r][q]][m] != add[la[r][m]][la[q][m]],
        ),
        "left action is not additive in the module argument": (
            itertools.product(L, M, M),
            lambda r, m, k: la[r][add[m][k]] != add[la[r][m]][la[r][k]],
        ),
        "right action is not associative over ring multiplication": (
            itertools.product(M, R, R),
            lambda m, s, t: ra[m][rmul[s][t]] != ra[ra[m][s]][t],
        ),
        "right action is not additive in the ring argument": (
            itertools.product(M, R, R),
            lambda m, s, t: ra[m][radd[s][t]] != add[ra[m][s]][ra[m][t]],
        ),
        "right action is not additive in the module argument": (
            itertools.product(M, M, R),
            lambda m, k, s: ra[add[m][k]][s] != add[ra[m][s]][ra[k][s]],
        ),
        "left and right actions do not commute": (
            itertools.product(L, M, R),
            lambda r, m, s: ra[la[r][m]][s] != la[r][ra[m][s]],
        ),
    }
    broken.update(msg for msg, (cells, test) in laws.items() if _first(cells, test) is not None)
    return broken


def pairing_oracle(t, m32, m21, m31) -> set[str]:
    """The messages of every pairing law the table t : M32 x M21 -> M31 breaks."""
    U, V = range(m32.order), range(m21.order)
    add32, add21, add31 = (_lists(m.add_table) for m in (m32, m21, m31))
    (la32, ra32), (la21, ra21), (la31, ra31) = (
        (_lists(m.left_action), _lists(m.right_action)) for m in (m32, m21, m31)
    )
    laws = {
        "pairing is not additive in its second argument": (
            itertools.product(U, V, V),
            lambda u, v, w: t[u][add21[v][w]] != add31[t[u][v]][t[u][w]],
        ),
        "pairing is not additive in its first argument": (
            itertools.product(U, U, V),
            lambda u, w, v: t[add32[u][w]][v] != add31[t[u][v]][t[w][v]],
        ),
        "pairing is not balanced over the middle ring": (
            itertools.product(range(m32.right_ring.order), U, V),
            lambda r, u, v: t[ra32[u][r]][v] != t[u][la21[r][v]],
        ),
        "pairing is not linear over the left outer ring": (
            itertools.product(range(m32.left_ring.order), U, V),
            lambda r, u, v: t[la32[r][u]][v] != la31[r][t[u][v]],
        ),
        "pairing is not linear over the right outer ring": (
            itertools.product(range(m21.right_ring.order), U, V),
            lambda r, u, v: t[u][ra21[v][r]] != ra31[t[u][v]][r],
        ),
    }
    return {msg for msg, (cells, test) in laws.items() if _first(cells, test) is not None}


# (|L|, |R|, m) with Z_m a (Z_|L|, Z_|R|)-bimodule by reduction mod m
_BIMODULE_SHAPES = [
    (a, b, m) for a in range(2, 7) for b in range(2, 7) for m in range(2, 7) if a % m == 0 and b % m == 0
]


@given(st.sampled_from(_BIMODULE_SHAPES), st.data())
@settings(max_examples=300, deadline=None)
def test_bimodule_accepts_exactly_when_the_oracle_does(shape, data):
    a, b, m = shape
    base = zn_bimodule(zn(a), zn(b), m)
    tables = {
        "add": _lists(base.add_table),
        "left": _lists(base.left_action),
        "right": _lists(base.right_action),
    }
    _tamper(data, tables, m)
    broken = bimodule_oracle(base.left_ring, base.right_ring, tables["add"], tables["left"], tables["right"])
    try:
        Bimodule(base.left_ring, base.right_ring, tables["add"], tables["left"], tables["right"])
    except BimoduleError as exc:
        assert str(exc) in broken
    else:
        assert not broken


@given(st.integers(2, 6), st.data())
@settings(max_examples=300, deadline=None)
def test_tri3_accepts_a_pairing_exactly_when_the_oracle_does(n, data):
    z = zn(n)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    d21, d31, d32 = (data.draw(st.sampled_from(divisors)) for _ in range(3))
    m21, m31, m32 = (zn_bimodule(z, z, d) for d in (d21, d31, d32))
    t = [[0] * d21 for _ in range(d32)]
    if d21 == d31 == d32 == n and data.draw(st.booleans()):
        t = [[u * v % n for v in range(n)] for u in range(n)]
    _tamper(data, {"pairing": t}, d31)
    broken = pairing_oracle(t, m32, m21, m31)
    try:
        # cap=1: a pairing that passes stops at the size cap, before any ring is built
        tri3(z, z, z, m21, m31, m32, PairingMap(t), cap=1)
    except BimoduleError as exc:
        assert str(exc) in broken
    except SizeCapError:
        assert not broken
