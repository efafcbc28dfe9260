"""The numpy kernels that the package's standard-library kernels replaced,
kept here as differential oracles. Each runs on numpy arrays of the same
tables (np.asarray(ring.add_table) and friends) and must agree with its
replacement: verdicts, witnesses, member sets and cases scanned alike."""

from __future__ import annotations

import functools
import itertools
import random

import numpy as np
import pytest

from cleanrings import core, laws, matrix_ring, validate_ring, zn
from cleanrings.analysis import _exchange_masks, _scan_masks
from cleanrings.catalog import build_catalog
from cleanrings.constructions import cofactor, det
from cleanrings.dsl import build, parse
from cleanrings.ideals import ideal_closure, principal_ideals

NEAR_CAP_SPECS = (
    "(matrix 2 (zn 4))",
    "(series (zn 4) 4)",
    "(zn 256)",
    "(product (zn 4) (zn 4) (zn 16))",
)


@functools.cache
def _rings(max_order: int) -> list:
    return [entry.ring for entry in build_catalog() if entry.ring.order <= max_order]


@functools.cache
def _near_cap() -> list:
    return [build(parse(spec)) for spec in NEAR_CAP_SPECS]


def _arrays(ring):
    return np.asarray(ring.add_table), np.asarray(ring.mul_table), np.asarray(list(ring.neg_table))


# -- the table-law kernels -------------------------------------------------------------
#
# A numpy law takes element indices that broadcast together and returns both
# sides of one equation at every index triple.


def np_first_break(law, shape):
    """The first (i, j, k) in row-major order at which the sides differ: one row i at a time."""
    j, k = np.ix_(np.arange(shape[1]), np.arange(shape[2]))
    for i in range(shape[0]):
        a, b = np.broadcast_arrays(*law(i, j, k))
        if not np.array_equal(a, b):
            return (i, *map(int, np.argwhere(a != b)[0]))
    return None


def np_holds(law, reduced) -> bool:
    """Whether the sides agree on reduced indices, one index of the shortest position at a time."""
    axis = min(range(3), key=lambda p: len(reduced[p]))
    others = np.ix_(*(np.asarray(r) for p, r in enumerate(reduced) if p != axis))
    for v in reduced[axis]:
        at = [*others]
        at.insert(axis, v)
        if not np.array_equal(*np.broadcast_arrays(*law(*at))):
            return False
    return True


def np_span(add, inside, seeds):
    """The bool mask inside, grown in place by the cosets of each seed, doubling."""
    inside[0] = True
    for s in seeds:
        while not inside[s]:
            inside[add[s][inside]] = True
            s = add[s, s]
    return inside


def np_generators(add) -> list[int]:
    inside = np.zeros(len(add), dtype=bool)
    gens: list[int] = []
    while not np_span(add, inside, gens[-1:]).all():
        gens.append(int(np.argmin(inside)))
    return gens or [0]


def np_validate(one: int, add, mul, checks: list) -> list[tuple[str, tuple]]:
    """The violations validate_ring reports, as (axiom, witness), with every
    generator check's verdict appended to checks in the order it runs."""
    n = len(add)
    idx = np.arange(n)
    out = []
    if not np.array_equal(add[0], idx):
        out.append(("add-identity", (int(np.flatnonzero(add[0] != idx)[0]),)))
    if not np.array_equal(add, add.T):
        out.append(("add-commutative", tuple(map(int, np.argwhere(add != add.T)[0]))))
    has_inv = (add == 0).any(axis=1)
    if not has_inv.all():
        out.append(("add-inverse", (int(np.flatnonzero(~has_inv)[0]),)))

    def holds(law, reduced):
        checks.append(np_holds(law, reduced))
        return checks[-1]

    def law_breaks(laws):
        if all(reduced is not None and holds(law, reduced) for law, _, reduced in laws):
            return [None] * len(laws)
        return [np_first_break(law, shape) for law, shape, _ in laws]

    gens = None if out else np.array(np_generators(add))
    (light,) = law_breaks([(lambda x, y, g: (add[add[x, y], g], add[x, add[y, g]]), (n, n, n),
                            None if gens is None else (idx, idx, gens))])
    if light is not None:
        out.append(("add-associative", light))
    gens = None if out else gens
    if not (np.array_equal(mul[one], idx) and np.array_equal(mul[:, one], idx)):
        bad = np.flatnonzero(mul[one] != idx)
        out.append(("one-identity", (int(bad[0] if bad.size else np.flatnonzero(mul[:, one] != idx)[0]),)))
    g = gens
    breaks = law_breaks([
        (lambda r, s, m: (mul[mul[r, s], m], mul[r, mul[s, m]]), (n, n, n),
         None if g is None else (g, g, g)),
        (lambda r, m, p: (mul[r, add[m, p]], add[mul[r, m], mul[r, p]]), (n, n, n),
         None if g is None else (g, idx, g)),
        (lambda m, r, s: (mul[add[r, s], m], add[mul[r, m], mul[s, m]]), (n, n, n),
         None if g is None else (idx, idx, g)),
    ])
    if breaks[2] is not None:  # scanned as (m, r, s), reported as (r, s, m)
        breaks[2] = (*breaks[2][1:], breaks[2][0])
    for axiom, witness in zip(("mul-associative", "left-distributive", "right-distributive"), breaks):
        if witness is not None:
            out.append((axiom, witness))
    return out


def _compare_validation(one, add, mul):
    """validate_ring against np_validate: the same violations and witnesses,
    and the generator checks run with the same verdicts."""
    expected_checks, checks = [], []
    expected = np_validate(one, np.asarray(add), np.asarray(mul), expected_checks)

    def holds(law, reduced):
        checks.append(real(law, reduced))
        return checks[-1]

    real = core._holds
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_holds", holds)
        report = validate_ring(len(add), one, add, mul)
    assert [(v.axiom, v.witness) for v in report.violations] == expected
    assert checks == expected_checks
    return report


def _corruptions(ring, count: int, seed: str):
    """count seeded one-cell changes of the product table, then of the addition table."""
    rng = random.Random(seed)
    add, mul, _ = _arrays(ring)
    for table in ("mul", "add"):
        for _ in range(count):
            tables = {"add": add.copy(), "mul": mul.copy()}
            i, j = rng.randrange(ring.order), rng.randrange(ring.order)
            tables[table][i, j] = (tables[table][i, j] + rng.randrange(1, ring.order)) % ring.order
            yield tables["add"], tables["mul"]


@pytest.mark.parametrize("ring", _rings(16), ids=lambda ring: ring.label)
def test_validation_kernels_match_numpy_on_rings_and_one_cell_corruptions(ring):
    add, mul, _ = _arrays(ring)
    assert _compare_validation(ring.one, add, mul).ok
    if ring.order > 1:
        for add, mul in _corruptions(ring, 3, f"oracle-{ring.label}"):
            assert not _compare_validation(ring.one, add, mul).ok


@pytest.mark.parametrize("k, twist", [(3, (0, 1, 2, 5)), (3, (2, 0, 1, 3)), (4, (0, 1, 3, 9)), (4, (3, 2, 0, 15))])
def test_validation_kernels_match_numpy_on_non_associative_additions(k, twist):
    """x + y = x ^ y ^ d * (x_i x_j y_l + y_i y_j x_l): an identity, commutative,
    every x its own inverse, and associative only when d = 0."""
    i, j, l, d = twist
    n = 2**k
    idx = np.arange(n)
    bits = [(idx >> (k - 1 - b)) & 1 for b in range(k)]
    term = np.outer(bits[i] & bits[j], bits[l])
    add = idx[:, None] ^ idx[None, :] ^ (term ^ term.T) * d
    assert not _compare_validation(0, add, np.zeros((n, n), dtype=np.int64)).ok


@pytest.mark.parametrize("spec", ["(zn 256)", "(series (zn 4) 4)"])
def test_validation_kernels_match_numpy_at_order_256(spec):
    """The byte rows of order 256 need no padding; two corruptions each, scanned in full."""
    ring = build(parse(spec))
    for add, mul in _corruptions(ring, 1, f"oracle-{spec}"):
        assert not _compare_validation(ring.one, add, mul).ok


# -- spans, generators, closures ---------------------------------------------------------


@pytest.mark.parametrize("ring", [*_rings(256), *_near_cap()], ids=lambda ring: ring.label)
def test_generators_and_spans_match_numpy(ring):
    add, _, _ = _arrays(ring)
    assert list(core._generators(ring.add_table)) == np_generators(add)
    rng = random.Random(f"span-{ring.label}")
    for _ in range(5):
        start = ideal_closure(ring, [rng.randrange(ring.order)]).members
        seeds = [rng.randrange(ring.order) for _ in range(rng.randrange(1, 4))]
        mask = np.zeros(ring.order, dtype=bool)
        mask[list(start)] = True
        expected = np.flatnonzero(np_span(add, mask, seeds)).tolist()
        assert sorted(core._span(ring.add_table, set(start), seeds)) == expected


def np_ideal_closure(ring, gens) -> tuple[int, ...]:
    add, mul, _ = _arrays(ring)
    seen = np.zeros(ring.order, dtype=bool)
    seen[mul[mul[:, list(gens)], :]] = True
    mask = np_span(add, np.zeros(ring.order, dtype=bool), np.flatnonzero(seen))
    return tuple(np.flatnonzero(mask).tolist())


def np_principal_ideals(ring) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(members, generators) of each <x>, skipping the two-sided unit orbit of an earlier x."""
    _, mul, _ = _arrays(ring)
    units = np.flatnonzero(np.asarray(list(ring.units_mask), dtype=bool))
    covered = np.zeros(ring.order, dtype=bool)
    seen: dict = {}
    for x in ring.elements:
        if covered[x]:
            continue
        covered[mul[np.ix_(mul[units, x], units)]] = True
        seen.setdefault(np_ideal_closure(ring, (x,)), (x,))
    return sorted(seen.items(), key=lambda item: (len(item[0]), item[0]))


@pytest.mark.parametrize("ring", [*_rings(64), *_near_cap()], ids=lambda ring: ring.label)
def test_closures_and_principal_ideals_match_numpy(ring):
    rng = random.Random(f"closure-{ring.label}")
    for _ in range(4):
        gens = [rng.randrange(ring.order) for _ in range(rng.randrange(1, 3))]
        assert ideal_closure(ring, gens).members == np_ideal_closure(ring, gens)
    assert [(i.members, i.generators) for i in principal_ideals(ring)] == np_principal_ideals(ring)


# -- decomposition scans ------------------------------------------------------------------


def np_shifts(ring, members):
    add, _, neg = _arrays(ring)
    idem = np.array(ring.idempotents)
    m = np.array(members)[:, None]
    return add[m, neg[idem]], add[m, idem]


def np_scan_masks(ring, members):
    units = np.asarray(list(ring.units_mask), dtype=bool)
    minus_e, plus_e = np_shifts(ring, members)
    return units[minus_e], units[plus_e]


def np_exchange_masks(ring, members):
    add, mul, neg = _arrays(ring)
    x = np.array(members)
    square = mul[x, x]
    rows = np.arange(len(x))[:, None]
    ys = (add[x, neg[square]], add[x, square])
    ok = np.zeros((len(x), len(ring.idempotents)), dtype=bool)
    for y, shifted in zip(ys, np_shifts(ring, members)):
        multiples = np.zeros((len(x), ring.order), dtype=bool)
        multiples[rows, mul[:, y].T] = True
        ok |= multiples[rows, shifted]
    return ok


@pytest.mark.parametrize("ring", [*_rings(256), *_near_cap()], ids=lambda ring: ring.label)
def test_scan_and_exchange_masks_match_numpy(ring):
    rng = random.Random(f"scan-{ring.label}")
    for members in (list(ring.elements), sorted(rng.sample(range(ring.order), min(5, ring.order)))):
        plus, minus = _scan_masks(ring, members)  # indexed [idempotent, member]
        np_plus, np_minus = np_scan_masks(ring, members)  # indexed [member, idempotent]
        assert np.array_equal(np.array([list(row) for row in plus], dtype=bool).T, np_plus)
        assert np.array_equal(np.array([list(row) for row in minus], dtype=bool).T, np_minus)
        exchange = np.array([list(row) for row in _exchange_masks(ring, members)], dtype=bool)
        assert np.array_equal(exchange, np_exchange_masks(ring, members))


# -- the matrix-ring dot table --------------------------------------------------------------


def np_encode(cols, radices):
    acc = np.zeros_like(cols[0], dtype=np.int64)
    for col, r in zip(cols, radices):
        acc = acc * r + col
    return acc


def np_matrix_tables(base, k):
    """(add, mul) of M_k(base): outer sums of the entries' addition, and the
    product through a dot table of row and column codes."""
    add_b, mul_b, _ = _arrays(base)
    r = base.order
    idx = np.arange(r ** (k * k))
    digits = [idx // r ** (k * k - 1 - c) % r for c in range(k * k)]
    add = np.zeros((1, 1), dtype=np.int64)
    for _ in range(k * k):
        m = len(add)
        add = (add[:, None, :, None] * r + add_b[None, :, None, :]).reshape(m * r, m * r)
    vec = np.unravel_index(np.arange(r**k), (r,) * k)
    dot = mul_b[np.ix_(vec[0], vec[0])]
    for l in range(1, k):
        dot = add_b[dot, mul_b[np.ix_(vec[l], vec[l])]]
    rows = [np_encode(digits[i * k : (i + 1) * k], [r] * k) for i in range(k)]
    cols = [np_encode(digits[j::k], [r] * k) for j in range(k)]
    return add, np_encode([dot[np.ix_(row, col)] for row in rows for col in cols], [r] * (k * k))


@pytest.mark.parametrize("n, k", [(6, 1), (3, 2), (4, 2), (2, 3)])
def test_matrix_tables_match_the_numpy_dot_table(n, k):
    ring = matrix_ring(zn(n), k, cap=n ** (k * k))
    add, mul = np_matrix_tables(zn(n), k)
    assert np.array_equal(ring.add_table, add)
    assert np.array_equal(ring.mul_table, mul)


# -- the determinant-cofactor step ------------------------------------------------------------


def np_det_cofactor(n: int, k: int, cases):
    """The array pass: det once per distinct grid and cofactor once per
    distinct (grid, row, col), every case then checked at once."""
    base, size, cases = zn(n), k * k, list(cases)
    add_b, mul_b, _ = _arrays(base)
    flat, *columns = zip(*cases)
    entries = np.fromiter(itertools.chain.from_iterable(flat), np.int64).reshape(-1, size)
    rows, cols, bumps = (np.fromiter(column, np.int64) for column in columns)
    place, at = n ** np.arange(size - 1, -1, -1), rows * k + cols
    old = entries[np.arange(len(cases)), at]
    grids = entries @ place
    bumped = grids + (add_b[old, bumps] - old) * place[at]

    def once(keys, value):
        distinct = np.array(sorted(set(keys.tolist())), dtype=np.int64)
        grid = (distinct[:, None] // place % n).reshape(-1, k, k).tolist()
        values = np.array([value(*args) for args in zip(grid, distinct.tolist())], dtype=np.int64)
        return values[np.searchsorted(distinct, keys)]

    dets = once(np.concatenate([grids, bumped]), lambda grid, _: laws.det(base, grid))
    minors = once(grids + at * n**size, lambda grid, key: laws.cofactor(base, grid, *divmod(key // n**size, k)))
    lhs, rhs = dets[len(cases) :], add_b[dets[: len(cases)], mul_b[bumps, minors]]
    failed = np.flatnonzero(lhs != rhs)
    if not failed.size:
        return None, len(cases)
    first = int(failed[0])
    grid, i, j, x = cases[first]
    witness = {"modulus": n, "entries": list(grid), "row": i, "col": j, "bump": x}
    return {**witness, "got": int(lhs[first]), "expected": int(rhs[first])}, first + 1


_STREAMS = {
    "Z_6, k=2, exhaustive": (6, 2, lambda: laws._every_case(6, 2)),
    "Z_5, k=3, seeded": (5, 3, lambda: laws._seeded_cases(5, 3, 200)),
}


@pytest.mark.parametrize("fault", ["none", "det", "cofactor"])
@pytest.mark.parametrize("stream", list(_STREAMS))
def test_determinant_cofactor_step_matches_the_numpy_array_pass(monkeypatch, stream, fault):
    """The same first failing case and cases scanned, with det wrong at one
    grid, or cofactor wrong at one (grid, row, col), a third into the stream."""
    n, k, cases = _STREAMS[stream]
    drawn = list(cases())
    target = drawn[len(drawn) // 3]
    if fault != "none":
        real = {"det": det, "cofactor": cofactor}[fault]

        def faulty(base, grid, *rest):
            value = real(base, grid, *rest)
            flat = tuple(v for row in grid for v in row)
            fires = flat == target[0] if fault == "det" else (flat, *rest) == target[:3]
            return (value + 1) % n if fires else value

        monkeypatch.setattr(laws, fault, faulty)
    expected = np_det_cofactor(n, k, drawn)
    assert laws._det_cofactor(n, k, iter(drawn)) == expected
    assert (expected[0] is None) == (fault == "none")


# -- reading tables -------------------------------------------------------------------


def np_as_table(table, shape, order, name):
    """Tables read through numpy: integer entries (an int64 cast), then the
    shape, then every entry in 0..order-1."""
    try:
        if isinstance(table, np.ndarray):
            entries = table
            bad = table.dtype if table.size and table.dtype.kind not in "iu" else None
        else:
            entries = np.array(table, dtype=object)
            bad = next((type(v).__name__ for v in entries.flat
                        if not ((isinstance(v, int) and not isinstance(v, bool)) or isinstance(v, np.integer))), None)
        if bad is None:
            arr = entries.astype(np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise core.TableFormatError(f"{name} table is not an integer table: {exc}") from None
    if bad is not None:
        raise core.TableFormatError(f"{name} table is not an integer table: {bad} entries")
    if arr.shape != shape:
        raise core.TableFormatError(f"{name} table has shape {arr.shape}, expected {shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= order):
        raise core.TableFormatError(f"{name} table entries must lie in 0..{order - 1}")
    return arr


_TABLES = [
    [[0, 1], [1, 0]], ((0, 1), (1, 0)), [[0, 1], [1]], [[0, 1], [1, 0], [0]], [[[0, 1], [1]], [[0], 5]],
    [[0.5, 0], [0, 0]], [["0", 0], [0, 0]], [[True, 0], [0, 0]], [[np.False_, 0], [0, 0]],
    [[np.int64(1), 0], [0, 0]], [[2**63, 0], [0, 0]], [[-(2**70), 0], [0, 0]], [[None, 0], [0, 0]],
    [0, 1], [[[0]]], [[0, 5], [1, 0]], [[0, -1], [1, 0]], 5, "ab", [], [[]],
    np.zeros((2, 2)), np.zeros((2, 3), dtype=int), np.array([[0, 1], [1, 0]], dtype=np.uint8),
]


def _package_as_table(table, shape, order, name):
    read = core._as_table(table, shape, order, name)
    return list(read) if len(shape) == 1 else read  # numpy reads a bytes row as one string


def _read(reader, table, shape):
    try:
        return np.asarray(reader(table, shape, 2, "add")).tolist()
    except core.TableFormatError as exc:
        return str(exc)


@pytest.mark.parametrize("shape", [(2, 2), (2,)], ids=["table", "row"])
@pytest.mark.parametrize("table", _TABLES, ids=repr)
def test_tables_are_read_and_refused_as_numpy_read_them(table, shape):
    """The same entries, or the same TableFormatError text."""
    assert _read(_package_as_table, table, shape) == _read(np_as_table, table, shape)
