"""The three workloads, each a list of cleanrings commands per pass.

A pass is made from (workload, seed, pass index) alone, so the same seed
gives the same commands. Every pass of a workload has the same make-up:
the same number of commands of each kind, and for the localization
searches the same grid sizes, so passes drawn from different seeds cost
about the same and fail the same share of operations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable

import checks


@dataclass(frozen=True)
class Op:
    """One command line and the check of its (exit code, stdout, stderr).

    `known_fault` marks a command that fails today because of a named fault
    in the program; it is counted as failed without making the run wrong.
    """

    argv: tuple[str, ...]
    check: Callable[[int, str, str, dict], list[str]] = field(compare=False)
    known_fault: bool = False


# ---------------------------------------------------------------------------
# catalog: the whole law harness over the built-in catalog


def _catalog_json(rc, out, err, state):
    reference = state.setdefault("catalog_json", out)
    return checks.check_catalog_json(rc, out, err, reference)


def _catalog_text(rc, out, err, state):
    return checks.check_catalog_text(rc, out, err, state.get("catalog_json", ""))


def catalog_pass(seed: int, index: int) -> list[Op]:
    # Nothing in `laws --catalog` takes an input, so the seed changes nothing.
    return [
        Op(("laws", "--catalog", "--json"), _catalog_json),
        Op(("laws", "--catalog"), _catalog_text),
    ]


# ---------------------------------------------------------------------------
# near-cap: the per-ring laws and one audited ideal on order-256 rings

# (spec, the benchmark's own model of the ring, digits of a base generator)
NEAR_CAP = (
    ("(matrix 2 (zn 4))", checks.Matrix2(4), (1, 0, 0, 0)),
    ("(series (zn 4) 4)", checks.Series(4, 4), (0, 1, 0, 0)),
    ("(zn 256)", checks.ZMod(256), (2,)),
    ("(product (zn 4) (zn 4) (zn 16))", checks.Product((4, 4, 16)), (1, 2, 4)),
)


def _random_unit(rng: random.Random, ring) -> int:
    while True:
        u = rng.randrange(ring.order)
        if ring.inverse(u) is not None:
            return u


def _near_cap_ideal(ring, g, rc, out, err, state):
    key = ("ideal", id(ring), g)
    if key not in state:
        state[key] = checks.ideal_of(ring, [g])
    return checks.check_finite_ideal(ring, state[key], rc, out, err)


def near_cap_pass(seed: int, index: int) -> list[Op]:
    """Each generator is u*g0 for a unit u drawn from the seed, so the ideal
    (and with it the work) is the same for every seed: <u*g0> = <g0>."""
    rng = random.Random(f"near-cap:{seed}:{index}")
    ops = []
    for spec, ring, digits in NEAR_CAP:
        g = ring.mul(_random_unit(rng, ring), ring.encode(digits))
        ops.append(
            Op(
                ("laws", "--spec", spec, "--json"),
                lambda rc, out, err, state, spec=spec: checks.check_law_json(
                    rc, out, err, checks.RING_LAW_IDS, inputs=spec
                ),
            )
        )
        ops.append(
            Op(
                ("ideal", spec, "--gens", str(g), "--check", "weakly-clean", "--json"),
                partial(_near_cap_ideal, ring, g),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# localized: analytic verdicts and bounded witness searches on Z_(P)

PRIME_POOL = (2, 3, 5, 7, 11, 13, 17, 19, 23)
MAX_PRIMES = 6
MAX_EXPONENT = 5
# Keeps the benchmark's own residue scan over [0, M) cheap.
MAX_MODULUS = 60_000
# Products d*a +/- b in the program's int64 search grid stay exact below
# 2^63; this margin keeps the generated queries clear of that fault, which
# the two fixed fault commands below exercise on purpose.
SAFE_PRODUCT = 2**62

CHECKS = ("clean", "weakly-clean", "uniquely")

# The searched ("no") queries: a prime set beyond the validated envelope,
# which primes divide the generator (1) and which do not (0), and the check.
# Each runs twice a pass, at grid sizes SMALL_CELLS + k*STEP_CELLS and
# LARGE_CELLS + k*STEP_CELLS for slot k (cells: denominators coprime to M
# times 2*bound + 1 numerators; the bound is derived from the size). The
# seed draws the exponents (1..5) and the generator's unit cofactors. A grid
# cell's cost depends on M and on which primes divide d, so fixing both per
# slot keeps the cost of a pass the same for every seed.
SEARCH_SLOTS = (
    ((2, 3, 5, 7, 11, 13), (1, 1, 0, 0, 1, 0), "clean"),
    ((3, 5, 7, 11, 13), (1, 0, 1, 0, 0), "weakly-clean"),
    ((2, 5, 7, 13, 17), (1, 1, 0, 1, 0), "uniquely"),
    ((7, 11, 13, 17), (0, 1, 0, 1), "clean"),
    ((2, 3, 7, 11, 19), (1, 0, 1, 0, 1), "weakly-clean"),
    ((5, 11, 17, 23), (1, 0, 1, 0), "uniquely"),
    ((3, 7, 13, 19), (0, 1, 1, 0), "clean"),
    ((2, 3, 5, 7, 11, 17), (0, 1, 1, 0, 1, 0), "weakly-clean"),
    ((13, 17, 19), (1, 0, 0), "uniquely"),
    ((2, 5, 11, 13, 19), (1, 0, 1, 1, 0), "clean"),
    ((3, 5, 7, 17, 19), (0, 0, 1, 1, 1), "weakly-clean"),
    ((2, 3, 5, 7, 13, 19), (1, 1, 0, 1, 0, 1), "uniquely"),
)
SMALL_CELLS, LARGE_CELLS, STEP_CELLS = 2e6, 5e6, 2.5e5
# Few cheap commands, so that the median command of a pass is a search and
# not a bare interpreter start, whose time swings most from run to run.
YES_COUNT = 2
ANALYZE_COUNT = 2
MODULUS_COMMANDS = ("units", "radical")
EXAMPLE_TARGETS = (4e6, 8e6)

# Two commands that fail today, kept so that their mending shows:
#  3^40 does not fit in int64, so `num = d * a_vals` raises OverflowError;
#  3^38 * 64 wraps around in int64 and the search prints a wrong witness.
FAULTS = (
    ((3, 5), (40, 0), "clean", False),
    ((3, 5, 7), (38, 0, 0), "weakly-clean", True),
)


def spec_of(primes) -> str:
    return "(localized " + " ".join(map(str, primes)) + ")"


def bound_for(modulus: int, target: float) -> int:
    """Smallest bound >= 64 whose search grid has at least `target` cells."""
    bound, rows = 63, sum(1 for b in range(1, 64) if math.gcd(b, modulus) == 1)
    while True:
        bound += 1
        rows += math.gcd(bound, modulus) == 1
        if rows * (2 * bound + 1) >= target:
            return bound


def _draw_primes(rng: random.Random) -> tuple[int, ...]:
    while True:
        primes = tuple(sorted(rng.sample(PRIME_POOL, rng.randint(1, MAX_PRIMES))))
        if math.prod(primes) <= MAX_MODULUS:
            return primes


def _unit_cofactor(rng: random.Random, modulus: int) -> int:
    while True:
        u = rng.randint(1, 97)
        if math.gcd(u, modulus) == 1:
            return u


def _generator_text(rng: random.Random, primes, exponents) -> str:
    """d*u/v for small units u, v: another generator of <d>."""
    modulus = math.prod(primes)
    d = math.prod(p**e for p, e in zip(primes, exponents))
    return str(Fraction(d * _unit_cofactor(rng, modulus), _unit_cofactor(rng, modulus)))


def _ideal_op(rng, primes, exponents, check, bound, as_json, known_fault=False, gens=None):
    argv = ["ideal", spec_of(primes), "--gens", gens or _generator_text(rng, primes, exponents)]
    argv += ["--check", check]
    if bound is not None:
        argv += ["--bound", str(bound)]
    if as_json:
        argv.append("--json")
    return Op(
        tuple(argv),
        lambda rc, out, err, state: checks.check_localized_ideal(
            primes, exponents, check, as_json, rc, out, err
        ),
        known_fault,
    )


def _search_query(rng, primes, divides, check, target):
    """Exponents and bound for a "no" slot: the residue scan must say no,
    the grid must hold a witness, and d*(bound+1) must stay below 2^62."""
    modulus = math.prod(primes)
    bound = bound_for(modulus, target)
    while True:
        exponents = tuple(rng.randint(1, MAX_EXPONENT) if k else 0 for k in divides)
        d = math.prod(p**e for p, e in zip(primes, exponents))
        if (
            d * (bound + 1) < SAFE_PRODUCT
            and not checks.decide_ideal(modulus, d, check)
            and checks.grid_witness(primes, d, check, bound) is not None
        ):
            return exponents, bound


def _yes_query(rng, check):
    """Primes, exponents and bound of an ideal that has the property."""
    while True:
        primes = _draw_primes(rng)
        exponents = tuple(
            0 if rng.random() < 0.4 else rng.randint(1, MAX_EXPONENT) for _ in primes
        )
        d = math.prod(p**e for p, e in zip(primes, exponents))
        bound = rng.randint(64, 2048)
        if d * (bound + 1) < SAFE_PRODUCT and checks.decide_ideal(math.prod(primes), d, check):
            return primes, exponents, bound


def localized_pass(seed: int, index: int) -> list[Op]:
    rng = random.Random(f"localized:{seed}:{index}")
    ops = []
    for base in (SMALL_CELLS, LARGE_CELLS):
        for k, (primes, divides, check) in enumerate(SEARCH_SLOTS):
            target = base + k * STEP_CELLS
            exponents, bound = _search_query(rng, primes, divides, check, target)
            ops.append(_ideal_op(rng, primes, exponents, check, bound, as_json=k % 2 == 0))
    for k in range(YES_COUNT):
        check = CHECKS[k % 3]
        primes, exponents, bound = _yes_query(rng, check)
        ops.append(_ideal_op(rng, primes, exponents, check, bound, as_json=k % 2 == 1))
    for _ in range(ANALYZE_COUNT):
        primes = _draw_primes(rng)
        modulus = math.prod(primes)
        x = Fraction(rng.randint(-10**6, 10**6), _unit_cofactor(rng, modulus))
        ops.append(
            Op(
                ("analyze", spec_of(primes), f"--element={x}", "--json"),
                partial(_analyze_check, primes, x),
            )
        )
    for command in MODULUS_COMMANDS:
        primes = _draw_primes(rng)
        ops.append(
            Op(
                (command, spec_of(primes), "--json"),
                partial(_modulus_check, command, primes),
            )
        )
    for target in EXAMPLE_TARGETS:
        bound = bound_for(15, target)
        ops.append(Op(("examples", "--bound", str(bound), "--json"), _examples_check))
    for primes, exponents, check, as_json in FAULTS:
        d = math.prod(p**e for p, e in zip(primes, exponents))
        ops.append(
            _ideal_op(rng, primes, exponents, check, None, as_json, known_fault=True, gens=str(d))
        )
    return ops


def _analyze_check(primes, x, rc, out, err, state):
    return checks.check_analyze(primes, x, rc, out, err)


def _modulus_check(command, primes, rc, out, err, state):
    return checks.check_modulus_command(command, primes, rc, out, err)


def _examples_check(rc, out, err, state):
    return checks.check_examples(rc, out, err)


WORKLOADS = {
    "catalog": catalog_pass,
    "near-cap": near_cap_pass,
    "localized": localized_pass,
}

# The catalog compares the bytes of two --json runs, so it needs two passes.
MIN_PASSES = {"catalog": 2}
