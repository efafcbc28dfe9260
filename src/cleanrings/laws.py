"""Executable laws connecting ring structure to clean-style ideal verdicts.

Each law in this module is a runnable check over concrete rings: finite
rings from the built-in catalog plus localizations of the integers. A law
instance ends in one of three verdicts:

* ``pass``    -- the implication, biconditional, or identity held on every
                 element the instance quantified over;
* ``fail``    -- a counterexample exists, and the report carries a witness
                 with enough data to replay it;
* ``skipped`` -- the instance does not satisfy the law's hypothesis, and the
                 report says which hypothesis is unmet.

Reports also carry an ``instance_strength`` tag. Every finite ring is clean,
so on finite instances many of the implications below cannot be falsified:
their conclusions hold for structural reasons and the run only confirms the
machinery. Those instances are tagged ``degenerate``. Instances where at
least one side genuinely varies -- localizations of the integers, uniqueness
checks on rings with noncentral idempotents, counting identities -- are
tagged ``discriminating``.

A law is declared once, as a ``_Law`` holding its id, direction and
description. The declaration decorates the law's public ``law_*`` function,
whose body yields only the per-instance fields; ``_Law.reports`` times each
instance and builds its ``LawReport``. An instance checked in stages yields
``_steps(inputs, steps)``: each step is (witness or None, elements scanned),
and the first witness fails the instance before any later step runs.
``_agree`` is the step that compares two named verdicts. The six laws that
sweep a ring's ideal lattice are declared on their check of one ring
(``_ring_law``), which both the catalog run and ``run_ring`` use.

``run_catalog()`` executes every law and returns the reports sorted by
``(law, inputs)``; ``reports_to_json`` renders them as one JSON object per
line with sorted keys and no timing data, so two runs over the same catalog
produce byte-identical output.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import time
from math import gcd
from typing import Callable, Iterable, Iterator, Sequence

from .analysis import (
    _corner_verdicts,
    _first_decompositions,
    _scan_masks,
    ideal_is_clean,
    ideal_is_uniquely_weakly_clean,
    ideal_is_weakly_clean,
    ideal_is_weakly_exchange,
    is_weakly_clean_element,
    lift_idempotent,
    ring_is_clean,
    ring_is_weakly_clean,
)
from .catalog import _spec_ring, build_catalog, catalog_entry
from .constructions import (
    PairingMap,
    _digits,
    cofactor,
    det,
    direct_product,
    idealization,
    matrix_element,
    matrix_ring,
    quotient,
    regular_bimodule,
    tri3,
    truncated_power_series,
    zn,
    zn_bimodule,
)
from .core import FiniteRing
from .ideals import (
    IdealSet,
    _finite_ideal,
    full_ideal,
    ideal_closure,
    ideal_from_members,
    ideal_inventory,
    ideal_sum,
    idealization_ideal,
    matrix_ideal,
    morita_ideal,
    product_ideal,
    series_ideal,
    tri2_ideal,
    tri3_ideal,
)
from .localized import (
    VALIDATED_MAX_EXPONENT,
    VALIDATED_MAX_PRIME,
    LocalizedIntegers,
    _localized_ideal,
    candidate_stream,
    envelope_ideals,
    ideal_is_clean_analytic,
    ideal_is_uniquely_weakly_clean_analytic,
    ideal_is_weakly_clean_analytic,
    ideal_is_weakly_exchange_analytic,
    is_weakly_exchange_element_exact,
    product_weakly_clean,
    uniqueness_witness_search,
    witness_search,
)
from .records import _Value

__all__ = [
    "LAW_IDS",
    "RING_LAW_IDS",
    "LawReport",
    "reports_to_json",
    "run_catalog",
    "run_law",
    "run_ring",
    "summarize",
]


class LawReport(_Value):
    """Outcome of one law instance.

    ``witness`` is a JSON-serializable dict: on failure it always holds
    enough data to replay the counterexample; on a pass it may hold the
    decisive evidence the run produced (for instance the tuple certifying
    that a product ideal is not weakly clean). ``seconds`` is wall-clock
    time and is deliberately absent from the JSON form and from equality.
    """

    law_id: str
    description: str
    inputs: str
    verdict: str  # "pass" | "fail" | "skipped"
    direction: str  # "forward" | "both" | "equation"
    instance_strength: str  # "degenerate" | "discriminating"
    reason: str = ""
    witness: dict | None = None
    scanned: int = 0
    seconds: float = 0.0

    def _values(self) -> tuple:
        return super()._values()[:-1]

    def to_json_dict(self) -> dict:
        return {
            "law": self.law_id,
            "inputs": self.inputs,
            "verdict": self.verdict,
            "direction": self.direction,
            "instance_strength": self.instance_strength,
            "description": self.description,
            "reason": self.reason,
            "witness": self.witness,
            "scanned": self.scanned,
        }


# ---------------------------------------------------------------------------
# declaring a law


# every (declaration, public law_* function), in declaration order
_DECLARED: list[tuple[_Law, Callable[[], list[LawReport]]]] = []


class _Law(_Value):
    """One law's declaration.

    Used as a decorator on a function that yields (or returns an iterator
    of) per-instance fields, it returns a function that runs it to the end
    and returns the reports, so the law does all of its work when called,
    and registers the law. The laws that sweep a ring's ideal lattice also
    carry their ``check(ring, inputs, ideals, complete)``, which returns the
    fields of the report on one ring.
    """

    law_id: str
    direction: str
    description: str
    check: Callable[..., dict] | None = None

    def __call__(self, body: Callable[[], Iterable[dict]]) -> Callable[[], list[LawReport]]:
        @functools.wraps(body)
        def run() -> list[LawReport]:
            return self.reports(body())

        _DECLARED.append((self, run))
        return run

    def reports(self, instances: Iterable[dict]) -> list[LawReport]:
        """One report per instance, each timed while it is produced."""
        out: list[LawReport] = []
        t0 = time.perf_counter()
        for fields in instances:
            out.append(
                LawReport(
                    law_id=self.law_id,
                    description=self.description,
                    direction=self.direction,
                    seconds=time.perf_counter() - t0,
                    **fields,
                )
            )
            t0 = time.perf_counter()
        return out

    def sweep(self, rings: Iterable[tuple]) -> Iterator[dict]:
        """``check`` on each (ring, inputs, ideals, complete), one at a time."""
        for ring, inputs, ideals, complete in rings:
            yield self.check(ring, inputs, ideals, complete)


def _ring_law(law_id: str, direction: str, description: str) -> Callable[[Callable], _Law]:
    """Declare a law that sweeps a ring's ideal lattice on its check of one ring."""
    return lambda check: _Law(law_id, direction, description, check)


def _verdict(
    inputs: str,
    ok: bool,
    *,
    strength: str = "degenerate",
    reason: str = "",
    witness: dict | None = None,
    scanned: int = 0,
) -> dict:
    """The per-instance fields of an instance the law was checked on."""
    return {
        "inputs": inputs,
        "verdict": "pass" if ok else "fail",
        "instance_strength": strength,
        "reason": reason,
        "witness": witness,
        "scanned": scanned,
    }


def _skipped(inputs: str, reason: str, *, strength: str = "degenerate", scanned: int = 0) -> dict:
    """The per-instance fields of an instance outside the law's hypothesis."""
    fields = _verdict(inputs, True, strength=strength, reason=reason, scanned=scanned)
    return {**fields, "verdict": "skipped"}


def _steps(inputs: str, steps: Iterable[tuple], *, scanned: int = 0, failure=None, **fields) -> dict:
    """The fields of an instance checked step by step, after ``scanned`` elements.

    Each step is (witness or None, elements scanned). The instance fails with
    the witness of the first step that has one, and no later step runs;
    ``failure``, if given, gives the reason of that witness.
    """
    for witness, count in steps:
        scanned += count
        if witness is not None:
            if failure:
                fields["reason"] = failure(witness)
            return _verdict(inputs, False, witness=witness, scanned=scanned, **fields)
    return _verdict(inputs, True, scanned=scanned, **fields)


def _agree(scanned: int, **sides: bool) -> tuple[dict | None, int]:
    """A step: the two named verdicts agree, or else both are the witness."""
    first, second = sides.values()
    return (None if first == second else sides), scanned


def _holds(ring: FiniteRing, ideal: IdealSet, test=None, **where) -> tuple[dict | None, int]:
    """A step: ``ideal`` passes ``test`` (weak cleanness unless given), or else
    its failing element is the witness."""
    v = (test or ideal_is_weakly_clean)(ring, ideal)
    return (None if v.ok else {**where, "ideal": ideal.describe(), "element": v.failing}), v.checked


def _components(pairs: list[tuple[FiniteRing, IdealSet]]) -> tuple[bool, int]:
    """Whether every (ring, ideal) is weakly clean and at most one of them is
    not clean, and the elements scanned."""
    wc = [ideal_is_weakly_clean(r, i) for r, i in pairs]
    cl = [ideal_is_clean(r, i) for r, i in pairs]
    rule = _at_most_one_not_clean([v.ok for v in wc], [v.ok for v in cl])
    return rule, sum(v.checked for v in wc + cl)


def _at_most_one_not_clean(wc: list[bool], cl: list[bool]) -> bool:
    """Every component is weakly clean and at most one of them is not clean."""
    return all(wc) and sum(1 for c in cl if not c) <= 1


def _implication(ring: FiniteRing, ideals: Sequence[IdealSet], hypothesis, conclusion):
    """Steps: ``conclusion`` holds on every ideal where ``hypothesis`` does."""
    for ideal in ideals:
        v_hyp = hypothesis(ring, ideal)
        yield None, v_hyp.checked
        if v_hyp.ok:
            yield _holds(ring, ideal, conclusion)


def _diagonal(inputs: str, ambient: FiniteRing, builder, rings, gens) -> dict:
    """Fields of a block-ring instance: diagonal ideals that are weakly clean, at
    most one not clean, make the block ideal ``builder`` assembles weakly clean."""
    ideals = [_finite_ideal(r, g) for r, g in zip(rings, gens)]
    hypothesis, scanned = _components(list(zip(rings, ideals)))
    if not hypothesis:
        return _skipped(inputs, "diagonal ideals do not satisfy the hypothesis", scanned=scanned)
    return _steps(inputs, [_holds(ambient, builder(ambient, *ideals))], scanned=scanned)


@functools.cache
def _inventory(key: str) -> tuple[tuple[IdealSet, ...], bool]:
    entry = catalog_entry(key)
    ideals, complete = ideal_inventory(entry.ring)
    return tuple(ideals), complete


def _catalog(every_entry: bool = False) -> Iterator[tuple]:
    """(ring, inputs, ideals, complete) for each catalog entry small enough
    for the ideal laws, or for every entry."""
    for entry in build_catalog():
        if every_entry or entry.in_ideal_laws:
            yield (entry.ring, entry.key, *_inventory(entry.key))


def _localized(*cases: tuple[tuple[int, ...], tuple[int, ...] | None]) -> Iterator[tuple]:
    """(ring, ideal, inputs) for each (primes, generators)."""
    for primes, gens in cases:
        ring = LocalizedIntegers(primes)
        ideal = _localized_ideal(ring, gens)
        yield ring, ideal, f"{ring.label} | {ideal.describe()}"


@functools.cache
def _m2z4() -> FiniteRing:
    return matrix_ring(zn(4), 2)


@functools.cache
def _m3z2() -> FiniteRing:
    return matrix_ring(zn(2), 3, cap=512)


# ---------------------------------------------------------------------------
# proper-ideals


@_ring_law(
    "proper-ideals",
    "both",
    "clean and weakly clean verdicts for a ring agree with the"
    " conjunction over all of its proper ideals",
)
def _proper_ideals(ring, inputs, ideals, complete):
    rings = ring_is_clean(ring), ring_is_weakly_clean(ring)
    swept = [True, True]

    def steps():
        for ideal in (i for i in ideals if i.is_proper):
            verdicts = ideal_is_clean(ring, ideal), ideal_is_weakly_clean(ring, ideal)
            failing = [v.failing for v, held in zip(verdicts, rings) if held and not v.ok]
            for k, v in enumerate(verdicts):
                swept[k] &= v.ok
            yield None, sum(v.checked for v in verdicts)
            if failing:
                yield {"ideal": ideal.describe(), "element": failing[0]}, 0
        # a ring that lacks a property has a proper ideal that lacks it too
        yield _agree(0, ring_clean=rings[0], proper_ideals_clean=swept[0])
        yield _agree(0, ring_weakly_clean=rings[1], proper_ideals_weakly_clean=swept[1])

    reason = ""
    if not complete:
        reason = "ideal enumeration hit the size cap; the sweep covers the enumerated ideals"
    return _steps(inputs, steps(), scanned=ring.order, reason=reason)


@_proper_ideals
def law_proper_ideals():
    """Ring-level clean/weakly-clean agree with the sweep over proper ideals."""
    return _proper_ideals.sweep(_catalog(every_entry=True))


# ---------------------------------------------------------------------------
# weakly-clean-implies-weakly-exchange


@_ring_law(
    "weakly-clean-implies-weakly-exchange",
    "forward",
    "every weakly clean ideal is weakly exchange",
)
def _wc_implies_wex(ring, inputs, ideals, complete):
    steps = _implication(ring, ideals, ideal_is_weakly_clean, ideal_is_weakly_exchange)
    return _steps(inputs, steps)


@_wc_implies_wex
def law_weakly_clean_implies_weakly_exchange():
    yield from _wc_implies_wex.sweep(_catalog())
    # Localizations: weak cleanness actually varies here, so the implication
    # is exercised away from the everything-is-clean regime. The analytic
    # verdicts are cross-checked on a member sample against the raw
    # divisibility definition of the exchange property.
    for ring, ideal, inputs in _localized(((3, 5), None), ((3, 5), (3,)), ((2, 3), (3,))):
        if not ideal_is_weakly_clean_analytic(ideal):
            yield _skipped(
                inputs,
                "the ideal is not weakly clean, so the hypothesis is empty",
                strength="discriminating",
            )
            continue
        wex = ideal_is_weakly_exchange_analytic(ideal)
        sample = list(itertools.islice(candidate_stream(ring, ideal, 20), 40))
        definition_ok = all(
            is_weakly_exchange_element_exact(ring, x, ideal=ideal, mode="strict")
            for x in sample
        )
        ok = wex and definition_ok
        yield _verdict(
            inputs,
            ok,
            strength="discriminating",
            reason="analytic verdict cross-checked against the divisibility definition on a member sample",
            witness=None if ok else {"sampled": [str(x) for x in sample]},
            scanned=len(sample),
        )


# ---------------------------------------------------------------------------
# central-equivalence


@_ring_law(
    "central-equivalence",
    "both",
    "when every idempotent in the ideal is central, weakly clean and"
    " weakly exchange verdicts coincide",
)
def _central_equivalence(ring, inputs, ideals, complete):
    noncentral = {e for e in ring.idempotents if not ring.is_central(e)}
    central = [ideal for ideal in ideals if not noncentral & set(ideal.members)]

    def steps():
        for ideal in central:
            v_wc, v_wex = ideal_is_weakly_clean(ring, ideal), ideal_is_weakly_exchange(ring, ideal)
            yield None, v_wc.checked + v_wex.checked
            if v_wc.ok != v_wex.ok:
                yield {"ideal": ideal.describe(), "weakly_clean": v_wc.ok, "weakly_exchange": v_wex.ok}, 0

    skipped = len(ideals) - len(central)
    reason = ""
    if skipped:
        reason = f"{skipped} ideal(s) hold a noncentral idempotent and fall outside the hypothesis"
    return _steps(
        inputs,
        steps(),
        reason=reason,
        failure=lambda w: f"{w['ideal']} holds only central idempotents, and its weakly clean"
        " and weakly exchange verdicts differ",
    )


@_central_equivalence
def law_central_equivalence():
    yield from _central_equivalence.sweep(_catalog())
    # Localized instances: commutative, so the hypothesis always holds, and
    # the biconditional is checked where both sides can be false.
    for _, ideal, inputs in _localized(((3, 5), None), ((2, 3), (3,))):
        wc = ideal_is_weakly_clean_analytic(ideal)
        wex = ideal_is_weakly_exchange_analytic(ideal)
        yield _verdict(
            inputs, wc == wex, strength="discriminating", reason=f"both sides are {wc}", scanned=2
        )


# ---------------------------------------------------------------------------
# reduced-rings


@_ring_law(
    "reduced-rings",
    "forward",
    "in a ring with no nonzero nilpotents, weakly exchange ideals are weakly clean",
)
def _reduced_rings(ring, inputs, ideals, complete):
    if ring.has_nonzero_nilpotents:
        return _skipped(inputs, "the ring has nonzero nilpotent elements")
    steps = _implication(ring, ideals, ideal_is_weakly_exchange, ideal_is_weakly_clean)
    return _steps(inputs, steps)


@_reduced_rings
def law_reduced_rings():
    yield from _reduced_rings.sweep(_catalog())
    # Localizations are integral domains (no nilpotents) where the exchange
    # property genuinely fails on some ideals, so the implication has teeth.
    for _, ideal, inputs in _localized(((3, 5), None), ((2, 3), (6,)), ((2, 3), None)):
        if not ideal_is_weakly_exchange_analytic(ideal):
            yield _skipped(
                inputs,
                "the ideal is not weakly exchange, so the hypothesis is empty",
                strength="discriminating",
            )
            continue
        wc = ideal_is_weakly_clean_analytic(ideal)
        yield _verdict(inputs, wc, strength="discriminating", scanned=2)


# ---------------------------------------------------------------------------
# determinant-cofactor


def _every_case(n: int, k: int) -> Iterator[tuple]:
    """Every k x k grid over Z_n in product order, times every (row, col, bump)."""
    for entries in itertools.product(range(n), repeat=k * k):
        for i, j, x in itertools.product(range(k), range(k), range(n)):
            yield entries, i, j, x


def _seeded_cases(n: int, k: int, samples: int) -> Iterator[tuple]:
    """Seeded (grid, row, col, bump) draws, the grid drawn row-major first."""
    rng = random.Random(f"determinant-cofactor-{n}-{k}")
    for _ in range(samples):
        entries = tuple(rng.randrange(n) for _ in range(k * k))
        yield entries, rng.randrange(k), rng.randrange(k), rng.randrange(n)


def _det_cofactor(n: int, k: int, cases: Iterable[tuple]) -> tuple[dict | None, int]:
    """A step: for each (grid, row, col, bump), adding the bump to that entry
    adds bump times the entry's cofactor to the determinant.

    Grids are flat row-major tuples. det runs once per distinct grid and
    cofactor once per distinct (grid, row, col), each kept by its arguments;
    the cases are checked in stream order, and the first that fails is the
    witness.
    """
    base = zn(n)
    add, mul = base.add_table, base.mul_table
    dets: dict[tuple, int] = {}
    cofactors: dict[tuple, dict] = {}

    def square(entries: tuple) -> list[list[int]]:
        return [list(entries[r * k : (r + 1) * k]) for r in range(k)]

    scanned, grid = 0, None
    for entries, i, j, x in cases:
        scanned += 1
        if entries != grid:  # a stream gives one grid's cases together
            grid = tuple(entries)
            if grid not in dets:
                dets[grid] = det(base, square(grid))
            minors = cofactors.setdefault(grid, {})
        at = i * k + j
        bumped = grid[:at] + (add[grid[at]][x],) + grid[at + 1 :]
        if bumped not in dets:
            dets[bumped] = det(base, square(bumped))
        if (i, j) not in minors:
            minors[i, j] = cofactor(base, square(grid), i, j)
        got, expected = dets[bumped], add[dets[grid]][mul[x][minors[i, j]]]
        if got != expected:
            witness = {"modulus": n, "entries": list(grid), "row": i, "col": j, "bump": x}
            return {**witness, "got": got, "expected": expected}, scanned
    return None, scanned


@_Law(
    "determinant-cofactor",
    "equation",
    "perturbing a single matrix entry shifts the determinant by the"
    " perturbation times the signed cofactor of that entry",
)
def law_determinant_cofactor():
    for inputs, n, k, cases in (
        ("Z_6, k=2, exhaustive", 6, 2, _every_case(6, 2)),
        ("Z_5, k=3, 200 seeded samples", 5, 3, _seeded_cases(5, 3, 200)),
        ("Z_6, k=3, 200 seeded samples", 6, 3, _seeded_cases(6, 3, 200)),
    ):
        yield _steps(inputs, [_det_cofactor(n, k, cases)], strength="discriminating")


# ---------------------------------------------------------------------------
# matrix-ideal


@_Law(
    "matrix-ideal",
    "both",
    "an ideal is clean exactly when the ideal of matrices over it is"
    " weakly clean; every clean member yields a signed diagonal matrix"
    " that decomposes in the matrix ring",
)
def law_matrix_ideal():
    z4 = zn(4)
    z6 = zn(6)
    z2 = zn(2)
    z3 = zn(3)
    instances = [
        (z4, _m2z4(), (2,), 2, "Z_4 | <2>, k=2"),
        (z2, catalog_entry("matrix2-z2").ring, None, 2, "Z_2 | R, k=2"),
        (z3, catalog_entry("matrix2-z3").ring, (), 2, "Z_3 | <0>, k=2"),
        (z6, matrix_ring(z6, 1), (3,), 1, "Z_6 | <3>, k=1"),
        (z2, _m3z2(), None, 3, "Z_2 | R, k=3"),
    ]

    def steps(base, ambient, gens, k):
        ideal = _finite_ideal(base, gens)
        block = matrix_ideal(ambient, ideal, k)
        v_clean = ideal_is_clean(base, ideal)
        v_block = ideal_is_weakly_clean(ambient, block)
        scanned = v_clean.checked + v_block.checked
        yield _agree(scanned, ideal_clean=v_clean.ok, matrix_ideal_weakly_clean=v_block.ok)
        for x in ideal if k >= 2 else ():
            grid = [[base.zero] * k for _ in range(k)]
            grid[0][0] = x
            grid[1][1] = base.neg(x)
            a = matrix_element(ambient, grid)
            yield None, 1
            if not is_weakly_clean_element(ambient, a):
                yield {"element": x, "matrix_index": a}, 0

    for *instance, inputs in instances:
        yield _steps(inputs, steps(*instance))


# ---------------------------------------------------------------------------
# product-ideal


@_Law(
    "product-ideal",
    "both",
    "a product ideal is weakly clean exactly when every component ideal"
    " is weakly clean and at most one component fails to be clean",
)
def law_product_ideal():
    finite_instances = [
        ([zn(4), zn(6)], [(2,), (3,)], "Z_4 x Z_6 | <2> x <3>"),
        ([zn(2), zn(2)], [None, ()], "Z_2 x Z_2 | R x <0>"),
        ([zn(6)], [(2,)], "Z_6 | <2> (singleton)"),
    ]
    for factors, gens, inputs in finite_instances:
        ambient = direct_product(factors)
        ideals = [_finite_ideal(ring, g) for ring, g in zip(factors, gens)]
        v = ideal_is_weakly_clean(ambient, product_ideal(ambient, ideals))
        rule, scanned = _components(list(zip(factors, ideals)))
        step = _agree(scanned + v.checked, product_weakly_clean=v.ok, component_rule=rule)
        yield _steps(inputs, [step])

    # Localizations: two components that are weakly clean but not clean
    # force the product to fail, and the verdict comes with a member tuple
    # whose components admit no shared decomposition sign.
    localized_instances = [
        ((3, 5), (None, None), False, "Z_(3,5) x Z_(3,5) | R x R"),
        ((3, 5), (None, (15,)), True, "Z_(3,5) x Z_(3,5) | R x <15>"),
        ((2, 3), ((3,), None), False, "Z_(2,3) x Z_(2,3) | <3> x R"),
    ]
    for primes, gens, expected, inputs in localized_instances:
        ring = LocalizedIntegers(primes)
        components = [(ring, _localized_ideal(ring, g)) for g in gens]
        verdict = product_weakly_clean(components)
        comp_wc, comp_clean = list(verdict.component_weakly_clean), list(verdict.component_clean)
        rhs = _at_most_one_not_clean(comp_wc, comp_clean)
        witness = None
        if verdict.witness is not None:
            witness = {
                "member_tuple": [str(q) for q in verdict.witness],
                "classes": list(verdict.witness_sign_classes),
            }
        yield _verdict(
            inputs,
            verdict.ok == expected and verdict.ok == rhs,
            strength="discriminating",
            reason=f"component weak cleanness {comp_wc}, cleanness {comp_clean}",
            witness=witness,
            scanned=2 * len(components),
        )


# ---------------------------------------------------------------------------
# uniqueness-forces-central


@_ring_law(
    "uniqueness-forces-central",
    "forward",
    "a uniquely weakly clean ideal contains only central idempotents",
)
def _uniqueness_forces_central(ring, inputs, ideals, complete):
    noncentral = {e for e in ring.idempotents if not ring.is_central(e)}
    held = [noncentral & set(ideal.members) for ideal in ideals]

    def steps():
        for ideal, idempotents in zip(ideals, held):
            v = ideal_is_uniquely_weakly_clean(ring, ideal)
            yield None, v.checked
            if idempotents and v.ok:
                yield {"ideal": ideal.describe(), "noncentral_idempotents": sorted(idempotents)}, 0

    bite = sum(1 for idempotents in held if idempotents)
    reason = ""
    if bite:
        reason = (
            f"{bite} ideal(s) hold a noncentral idempotent; uniqueness failed"
            " on each of them, as the law requires"
        )
    return _steps(
        inputs,
        steps(),
        strength="discriminating" if bite else "degenerate",
        reason=reason,
        failure=lambda w: f"{w['ideal']} holds a noncentral idempotent and is uniquely weakly clean",
    )


@_uniqueness_forces_central
def law_uniqueness_forces_central():
    return _uniqueness_forces_central.sweep(_catalog())


# ---------------------------------------------------------------------------
# morita-ideal (two-corner block rings, including one-sided triangular forms)


@_Law(
    "morita-ideal",
    "forward",
    "in a two-corner block ring with zero pairings, the block ideal built"
    " from two weakly clean diagonal ideals, at most one of them not"
    " clean, is weakly clean",
)
def law_morita_ideal():
    z2 = zn(2)
    z3 = zn(3)
    z4 = zn(4)
    z6 = zn(6)

    instances = [
        (catalog_entry("morita-z2").ring, z2, z2, None, None, morita_ideal, "morita-z2 | R x R"),
        (
            _spec_ring("law morita-ideal", "(morita (zn 4) (zn 6) (znmod 2) (znmod 2))"),
            z4, z6, (2,), (3,), morita_ideal, "[[Z_4,Z_2],[Z_2,Z_6]] | <2>, <3>",
        ),
        (
            _spec_ring("law morita-ideal", "(morita (zn 2) (zn 3) zero zero)"),
            z2, z3, None, (), morita_ideal, "[[Z_2,0],[0,Z_3]] | R, <0>",
        ),
        (catalog_entry("tri2-z2").ring, z2, z2, None, None, tri2_ideal, "tri2-z2 | R x R"),
        (
            _spec_ring("law morita-ideal", "(tri2 (zn 4) (zn 6) (znmod 2))"),
            z4, z6, (2,), (3,), tri2_ideal, "T2(Z_4;Z_2;Z_6) | <2>, <3>",
        ),
    ]
    for ambient, r_ring, s_ring, i_gens, j_gens, builder, inputs in instances:
        yield _diagonal(inputs, ambient, builder, (r_ring, s_ring), (i_gens, j_gens))


# ---------------------------------------------------------------------------
# tri3-ideal and tri3-converse


def _tri3_instances():
    z2 = zn(2)
    plain = catalog_entry("tri3-z2").ring
    mul_pairing = PairingMap([[0, 0], [0, 1]], label="mod-2 multiplication")
    twisted = tri3(
        z2,
        zn(2),
        zn(2),
        zn_bimodule(zn(2), z2, 2),
        zn_bimodule(zn(2), z2, 2),
        zn_bimodule(zn(2), zn(2), 2),
        comp=mul_pairing,
    )
    rings3 = (zn(2), zn(2), zn(2))
    return [
        (plain, rings3, (None, None, None), "tri3-z2 | R, R, R"),
        (plain, rings3, ((), None, ()), "tri3-z2 | <0>, R, <0>"),
        (twisted, rings3, (None, (), None), "tri3-z2 (multiplicative pairing) | R, <0>, R"),
    ]


@_Law(
    "tri3-ideal",
    "forward",
    "a three-step triangular ideal with weakly clean diagonal ideals, at"
    " least two of them clean, is weakly clean",
)
def law_tri3_ideal():
    for ambient, rings3, gens, inputs in _tri3_instances():
        yield _diagonal(inputs, ambient, tri3_ideal, rings3, gens)


@_Law(
    "tri3-converse",
    "forward",
    "when a three-step triangular ideal is weakly clean, each diagonal"
    " ideal extracted from it is weakly clean in its own corner ring",
)
def law_tri3_converse():
    def corners(ambient, rings3, block):
        # Digits 0, 2 and 5 of an element's mixed-radix index are its diagonal.
        digits = [_digits(idx, ambient.provenance["radices"]) for idx in block]
        diagonals = [sorted({d[pos] for d in digits}) for pos in (0, 2, 5)]
        for slot, (ring, members) in enumerate(zip(rings3, diagonals)):
            extracted = ideal_from_members(ring, members)
            yield _holds(ring, extracted, corner=slot)

    for ambient, rings3, gens, inputs in _tri3_instances():
        block = tri3_ideal(ambient, *(_finite_ideal(r, g) for r, g in zip(rings3, gens)))
        v_block = ideal_is_weakly_clean(ambient, block)
        if not v_block.ok:
            yield _skipped(
                inputs,
                "the triangular ideal is not weakly clean, so the hypothesis is empty",
                scanned=v_block.checked,
            )
            continue
        yield _steps(inputs, corners(ambient, rings3, block), scanned=v_block.checked)


# ---------------------------------------------------------------------------
# peirce-corners


@_Law(
    "peirce-corners",
    "forward",
    "for a complete orthogonal set of idempotents, an ideal whose corner"
    " slices are weakly clean with at most one not clean is weakly clean",
)
def law_peirce_corners():
    z6 = catalog_entry("zn-6").ring
    m2 = catalog_entry("matrix2-z2").ring
    z4 = catalog_entry("zn-4").ring
    e11 = matrix_element(m2, [[1, 0], [0, 0]])
    e22 = matrix_element(m2, [[0, 0], [0, 1]])
    instances = [
        (z6, (3, 4), ideal_closure(z6, (2,)), "Z_6, idempotents (3,4) | <2>"),
        (z6, (3, 4), full_ideal(z6), "Z_6, idempotents (3,4) | R"),
        (m2, (e11, e22), full_ideal(m2), "M_2(Z_2), diagonal idempotents | R"),
        (z4, (1,), ideal_closure(z4, (2,)), "Z_4, idempotent (1,) | <2>"),
    ]
    for ring, es, ideal, inputs in instances:
        if not ring.is_complete_orthogonal(es):
            yield _skipped(inputs, "the idempotents are not a complete orthogonal set")
            continue
        verdicts = _corner_verdicts(ring, es, ideal)
        corner_wc, corner_clean = ([v.ok for v in column] for column in zip(*verdicts))
        scanned = sum(v.checked for pair in verdicts for v in pair)
        if not _at_most_one_not_clean(corner_wc, corner_clean):
            yield _skipped(inputs, "corner slices do not satisfy the hypothesis", scanned=scanned)
            continue
        v = ideal_is_weakly_clean(ring, ideal)
        step = None if v.ok else {"element": v.failing}, v.checked
        reason = f"corner weak cleanness {corner_wc}, cleanness {corner_clean}"
        yield _steps(inputs, [step], scanned=scanned, reason=reason)


# ---------------------------------------------------------------------------
# series-ideal


@_Law(
    "series-ideal",
    "both",
    "truncated polynomial rings: the coefficientwise ideal is weakly"
    " clean exactly when the base ideal is, every element's clean and"
    " weakly clean verdicts match its constant term, and all idempotents"
    " are constant",
)
def law_series_ideal():
    instances = [
        (zn(2), None, 3, "Z_2 | R, k=3"),
        (zn(4), (2,), 2, "Z_4 | <2>, k=2"),
        (zn(4), None, 3, "Z_4 | R, k=3"),
        (zn(2), None, 1, "Z_2 | R, k=1"),
    ]

    def steps(base, gens, k):
        ideal = _finite_ideal(base, gens)
        ambient = truncated_power_series(base, k)
        block = series_ideal(ambient, ideal, k)
        v_base = ideal_is_weakly_clean(base, ideal)
        v_block = ideal_is_weakly_clean(ambient, block)
        yield _agree(v_base.checked + v_block.checked, base=v_base.ok, series=v_block.ok)
        weight = base.order ** (k - 1)
        constant = {e * weight for e in base.idempotents}
        yield None, len(ambient.idempotents)
        if set(ambient.idempotents) != constant:
            yield {"unexpected_idempotents": sorted(set(ambient.idempotents) - constant)}, 0

        def verdicts(ring):  # whether each element is weakly clean, and clean
            plus, minus = _scan_masks(ring, ring.elements)
            return {"weakly-clean": [any(ok) for ok in zip(*plus, *minus)], "clean": [any(ok) for ok in zip(*plus)]}

        series, at_base = verdicts(ambient), verdicts(base)
        for f in range(ambient.order):
            c = f // weight
            yield None, 1
            for check in series:
                if series[check][f] != at_base[check][c]:
                    yield {"series_index": f, "constant_term": c, "check": check}, 0

    for *instance, inputs in instances:
        yield _steps(inputs, steps(*instance))


# ---------------------------------------------------------------------------
# idealization-ideal


@_Law(
    "idealization-ideal",
    "both",
    "trivial extensions: a pair is a unit exactly when its ring"
    " coordinate is, an idempotent exactly when the ring coordinate is"
    " idempotent and the module coordinate vanishes, and ideal verdicts"
    " transfer across the extension",
)
def law_idealization_ideal():
    z4 = zn(4)
    z6 = zn(6)
    instances = [
        (z4, regular_bimodule(z4), (2,), (0, 2), "Z_4 with module Z_4 | <2>, N={0,2}"),
        (z6, regular_bimodule(z6), (3,), (0, 3), "Z_6 with module Z_6 | <3>, N={0,3}"),
        (z4, zn_bimodule(z4, z4, 2), (2,), (0, 1), "Z_4 with module Z_2 | <2>, N=all"),
    ]

    def steps(base, module, gens, submodule):
        ambient = idealization(base, module)
        module_order = ambient.order // base.order
        ideal = ideal_closure(base, gens)
        block = idealization_ideal(ambient, ideal, submodule)
        for idx in range(ambient.order):
            r, m = divmod(idx, module_order)
            yield None, 1
            if ambient.is_unit(idx) != base.is_unit(r):
                yield {"index": idx, "check": "unit"}, 0
            if ambient.is_idempotent(idx) != (base.is_idempotent(r) and m == 0):
                yield {"index": idx, "check": "idempotent"}, 0
        v_base = ideal_is_weakly_clean(base, ideal)
        v_block = ideal_is_weakly_clean(ambient, block)
        yield _agree(v_base.checked + v_block.checked, base=v_base.ok, extension=v_block.ok)

    for *instance, inputs in instances:
        yield _steps(inputs, steps(*instance))


# ---------------------------------------------------------------------------
# radical-quotient


@_ring_law(
    "radical-quotient",
    "both",
    "an ideal containing the radical is weakly clean exactly when its"
    " image modulo the radical is; decompositions found downstairs lift"
    " through the projection to decompositions upstairs",
)
def _radical_quotient(ring, inputs, ideals, complete):
    radical = set(ring.jacobson_radical)
    if radical == {ring.zero}:
        return _skipped(inputs, "the radical is zero, so the projection changes nothing")
    qring, proj = quotient(ring, sorted(radical))
    containing = [i for i in ideals if radical <= set(i.members)]
    lifts = {e: lift_idempotent(ring, proj, qring, e) for e in qring.idempotents}

    def steps():
        for ideal in containing:
            image = ideal_from_members(qring, sorted({proj[x] for x in ideal}))
            v_up = ideal_is_weakly_clean(ring, ideal)
            v_down = ideal_is_weakly_clean(qring, image)
            yield None, v_up.checked + v_down.checked
            if v_up.ok != v_down.ok:
                yield {"ideal": ideal.describe(), "upstairs": v_up.ok, "downstairs": v_down.ok}, 0
            firsts = _first_decompositions(qring, [proj[x] for x in ideal])
            for x, first in zip(ideal, firsts):
                e = lifts[first.idempotent]
                shifted = ring.add(x, ring.neg(e)) if first.sign == 1 else ring.add(x, e)
                yield None, 1
                if not ring.is_unit(shifted):
                    lift = {"element": x, "lifted_idempotent": e, "sign": first.sign}
                    yield {"ideal": ideal.describe(), **lift}, 0

    return _steps(inputs, steps(), reason=f"{len(containing)} ideal(s) contain the radical")


@_radical_quotient
def law_radical_quotient():
    return _radical_quotient.sweep(_catalog())


# ---------------------------------------------------------------------------
# radical-sum


@_Law(
    "radical-sum",
    "forward",
    "enlarging a weakly clean ideal by an ideal contained in the radical"
    " preserves weak cleanness",
)
def law_radical_sum():
    z8 = zn(8)
    z4 = zn(4)
    z16 = zn(16)
    z6 = zn(6)
    t2 = catalog_entry("tri2-z2").ring
    instances = [
        (z8, (4,), (2,), "Z_8 | <4> + <2>"),
        (z4, (2,), (2,), "Z_4 | <2> + <2>"),
        (z16, (8,), (4,), "Z_16 | <8> + <4>"),
        (t2, (4,), (2,), "tri2-z2 | <4> + <2>"),
        (z6, (3,), (2,), "Z_6 | <3> + <2>"),
    ]
    for ring, i_gens, j_gens, inputs in instances:
        ideal = ideal_closure(ring, i_gens)
        extra = ideal_closure(ring, j_gens)
        radical = set(ring.jacobson_radical)
        if not set(extra.members) <= radical:
            yield _skipped(inputs, "the added ideal is not contained in the radical")
            continue
        v_i = ideal_is_weakly_clean(ring, ideal)
        if not v_i.ok:
            yield _skipped(
                inputs,
                "the starting ideal is not weakly clean, so the hypothesis is empty",
                scanned=v_i.checked,
            )
            continue
        yield _steps(inputs, [_holds(ring, ideal_sum(ideal, extra))], scanned=v_i.checked)


# ---------------------------------------------------------------------------
# localized-agreement


@_Law(
    "localized-agreement",
    "equation",
    "across the validated envelope, analytic verdicts for localization"
    " ideals agree with bounded witness search for clean, weakly clean,"
    " and uniquely weakly clean",
)
def law_localized_agreement():
    envelope = list(envelope_ideals())
    disagreements: list[dict] = []
    for ring, ideal in envelope:
        analytic = [
            ideal_is_clean_analytic(ideal),
            ideal_is_weakly_clean_analytic(ideal),
            ideal_is_uniquely_weakly_clean_analytic(ideal),
        ]
        search = [
            witness_search(ring, ideal, flavor="clean") is None,
            witness_search(ring, ideal, flavor="weakly-clean") is None,
            uniqueness_witness_search(ring, ideal) is None,
        ]
        if analytic != search:
            where = {"ring": ring.label, "ideal": ideal.describe()}
            disagreements.append({**where, "analytic": analytic, "search": search})
    yield _verdict(
        f"{len(envelope)} ideals, primes up to {VALIDATED_MAX_PRIME},"
        f" exponents up to {VALIDATED_MAX_EXPONENT}",
        not disagreements,
        strength="discriminating",
        witness=None if not disagreements else {"disagreements": disagreements[:3]},
        scanned=3 * len(envelope),
    )


# ---------------------------------------------------------------------------
# units-sanity


@_Law(
    "units-sanity",
    "equation",
    "unit counts match independent formulas: general linear group orders"
    " over small moduli, totients for modular rings, and componentwise"
    " products",
)
def law_units_sanity():
    checks = [
        ("units of M_2(Z_2)", len(catalog_entry("matrix2-z2").ring.units), 6),
        ("units of M_2(Z_3)", len(catalog_entry("matrix2-z3").ring.units), 48),
        ("units of M_2(Z_4)", len(_m2z4().units), 96),
        ("units of M_3(Z_2)", len(_m3z2().units), 168),
    ]

    for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 16):
        ring = catalog_entry(f"zn-{n}").ring
        totient = sum(1 for a in range(n) if gcd(a, n) == 1) if n > 1 else 1
        checks.append((f"units of Z_{n}", len(ring.units), totient))

    prod = catalog_entry("product-z2xz4").ring
    checks.append(("units of Z_2 x Z_4", len(prod.units), 1 * 2))
    prod22 = catalog_entry("product-z2xz2").ring
    checks.append(("units of Z_2 x Z_2", len(prod22.units), 1))

    failures = [
        {"check": name, "measured": got, "expected": want}
        for name, got, want in checks
        if got != want
    ]
    yield _verdict(
        f"{len(checks)} unit-count identities",
        not failures,
        strength="discriminating",
        witness=None if not failures else {"failures": failures},
        scanned=len(checks),
    )


# ---------------------------------------------------------------------------
# registry and runners


LAW_FUNCTIONS: tuple[tuple[str, Callable[[], list[LawReport]]], ...] = tuple(
    (law.law_id, fn) for law, fn in _DECLARED
)

LAW_IDS: tuple[str, ...] = tuple(law_id for law_id, _ in LAW_FUNCTIONS)

# The laws that sweep a ring's ideal lattice, which ``run_ring`` applies.
_RING_LAWS: tuple[_Law, ...] = tuple(law for law, _ in _DECLARED if law.check is not None)

RING_LAW_IDS: tuple[str, ...] = tuple(law.law_id for law in _RING_LAWS)


def run_law(law_id: str) -> list[LawReport]:
    """Reports for a single law, sorted by instance inputs."""
    for known, fn in LAW_FUNCTIONS:
        if known == law_id:
            return sorted(fn(), key=lambda r: r.inputs)
    raise KeyError(f"unknown law: {law_id!r} (choose from {', '.join(LAW_IDS)})")


def run_catalog() -> list[LawReport]:
    """Run every law over the built-in catalog, sorted by (law, inputs)."""
    reports: list[LawReport] = []
    for _, fn in LAW_FUNCTIONS:
        reports.extend(fn())
    reports.sort(key=lambda r: (r.law_id, r.inputs))
    return reports


def run_ring(ring: FiniteRing, label: str = "ring") -> list[LawReport]:
    """The ring-quantified laws applied to one finite ring.

    Runs the six laws that sweep a ring's ideal lattice -- the proper-ideal
    biconditional, the exchange implication and its central/reduced
    refinements, the uniqueness restriction, and the radical projection --
    against the given ring instead of the built-in catalog.
    """
    found, complete = ideal_inventory(ring)
    rings = [(ring, label, tuple(found), complete)]
    reports = [r for law in _RING_LAWS for r in law.reports(law.sweep(rings))]
    reports.sort(key=lambda r: (r.law_id, r.inputs))
    return reports


def summarize(reports: Sequence[LawReport]) -> dict:
    """Aggregate counts for a batch of reports."""
    return {
        "laws": len({r.law_id for r in reports}),
        "reports": len(reports),
        "pass": sum(1 for r in reports if r.verdict == "pass"),
        "fail": sum(1 for r in reports if r.verdict == "fail"),
        "skipped": sum(1 for r in reports if r.verdict == "skipped"),
        "discriminating": sum(
            1 for r in reports if r.instance_strength == "discriminating"
        ),
        "scanned": sum(r.scanned for r in reports),
    }


def reports_to_json(reports: Sequence[LawReport]) -> str:
    """One JSON object per line, sorted keys, no timing data."""
    return "\n".join(
        json.dumps(r.to_json_dict(), sort_keys=True) for r in reports
    ) + "\n"
