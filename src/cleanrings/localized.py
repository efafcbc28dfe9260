"""Subrings of the rationals obtained by allowing every denominator coprime
to a fixed finite set of primes.

For a prime set P with modulus M = prod(P), the ring holds the fractions a/b
(reduced) with gcd(b, M) = 1. It is an integral domain whose units are the
fractions with gcd(a, M) = 1 and whose only idempotents are 0 and 1, so the
decomposition search of the finite-ring analysis collapses to three unit
tests per element: x itself, x - 1, and x + 1. Every nonzero ideal is
principal with a canonical integer generator d = prod(p^e_p), and the
ideal-level properties are decided from the members' residues mod each p
(below), for every prime set and exponent vector. A bounded witness search
supplies the failing members; the localized-agreement law replays the two
against each other over a sweep of small prime sets and valuations.

The search visits the members d*a/b with |a| <= bound and b <= bound coprime
to M, row by row: for each denominator b in ascending order, the multipliers
a = 0, 1, -1, 2, -2, ... With b coprime to M, whether d*a/b, d*a/b - 1 and
d*a/b + 1 are units depends only on the residues of d*a and b mod each p in
P, so "p divides d*a - c" is one residue class of a mod p. A row holds each
test as a bitset over its positions, a Python integer: a class repeats with
period 2p positions, so its bitset is one period times a comb of teeth. The
sign classes of the row are bitwise in those bitsets, the lowest set bit is
the first member, and the search stops at the first row that holds one. With
L the product of the primes that do not divide d, every class of a row
repeats after 2L positions and every row repeats the earlier row with the
same b mod L, so a row holds at most 2L positions and at most phi(L) distinct
rows are visited. The residues are taken on Python integers, so the search
is exact for every generator, and it keeps one row at a time, so its memory
grows with the smaller of the bound and L, not with the grid. The whole grid
is built only by the tests' oracle, ``_search_grid``.

Deciding an ideal. The Jacobson radical of the ring is M*R, and an element
is a unit exactly when it is one mod M*R, that is, mod every p in P. So the
unit flags of x, x - 1 and x + 1 depend only on the residues of x mod the
primes, and by the CRT the members of <d> take every combination of
residues: 0 at each p that divides d (every p, for the zero ideal) and any
residue at the others. Any residue other than 0, 1 and -1 makes all three
units at p, so 0, 1, -1 and 2 stand for every residue. An ideal has a
property exactly when every combination's flags have it in ``SignClasses``.
Weakly exchange coincides with weakly clean at every element: in a domain
e - x in R(x - x^2) forces x - 1 to be a unit or x in {0, e}, and likewise
for the plus form.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from numbers import Rational
from typing import TYPE_CHECKING, Iterable, Iterator, Literal, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "LocalizedIntegers",
    "LocalizedIdeal",
    "SignClasses",
    "SignClassSurvey",
    "clean_flags",
    "is_weakly_exchange_element_exact",
    "ideal_is_clean_analytic",
    "ideal_is_weakly_clean_analytic",
    "ideal_is_uniquely_weakly_clean_analytic",
    "ideal_is_weakly_exchange_analytic",
    "witness_search",
    "uniqueness_witness_search",
    "sign_class_survey",
    "candidate_stream",
    "product_weakly_clean",
    "reproduce_examples",
    "envelope_ideals",
    "DEFAULT_SEARCH_BOUND",
]

DEFAULT_SEARCH_BOUND = 64

# The sweep of the localized-agreement law, which checks the decider against
# the witness search on every ideal it holds (``envelope_ideals``).
VALIDATED_MAX_PRIMES = 3
VALIDATED_MAX_PRIME = 11
VALIDATED_MAX_EXPONENT = 2


# Miller-Rabin with these bases decides primality of every n < 2^64.
_WITNESS_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; n at or above 2^64 is refused."""
    if n >= 1 << 64:
        raise ValueError(f"{n} is too large: localization primes must be below 2^64")
    if n < 2:
        return False
    for a in _WITNESS_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESS_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _Value:
    """An immutable record, as a frozen dataclass is, but built without code
    generation. Its fields are the names its class bodies annotate, bases
    first; a class attribute of that name is the default. It equals only a
    record of its own class, and hashes and prints by its fields."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        own = vars(cls).get("__annotations__", {})
        cls._fields = (*cls._fields, *(name for name in own if name not in cls._fields))

    def __init__(self, *args, **kwargs):
        cls, names = type(self), self._fields
        values = dict(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs or hasattr(cls, name):
                values[name] = kwargs.pop(name) if name in kwargs else getattr(cls, name)
        if len(args) > len(names) or kwargs or len(values) < len(names):
            raise TypeError(f"{cls.__qualname__}() takes the fields {', '.join(names)}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Checks the fields; a record that has conditions overrides it."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class LocalizedIntegers(_Value):
    """The subring of Q with denominators coprime to a finite set of primes."""

    primes: tuple[int, ...]

    def __init__(self, primes: Iterable[int]):
        ps = tuple(primes)
        if not ps:
            raise ValueError("at least one prime is required")
        for p in ps:
            if type(p) is not int:  # bool, float and str are refused
                raise ValueError(f"a prime must be an integer, not {p!r}")
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "primes", tuple(sorted(set(ps))))

    @property
    def modulus(self) -> int:
        out = 1
        for p in self.primes:
            out *= p
        return out

    @property
    def label(self) -> str:
        return "Z_(" + ",".join(str(p) for p in self.primes) + ")"

    # -- membership and arithmetic ------------------------------------------

    def contains(self, q: Fraction) -> bool:
        return math.gcd(q.denominator, self.modulus) == 1

    def element(self, numerator: int | str | Fraction, denominator: int = 1) -> Fraction:
        """Build a member fraction, rejecting denominators that meet P.

        The check runs on the reduced form, so 3/6 is a valid member when
        3 is the only listed prime (it reduces to 1/2).
        """
        for part in (numerator, denominator):
            if isinstance(part, bool) or not isinstance(part, (Rational, str)):
                raise ValueError(f"members are made of integers, fractions or text, not {part!r}")
        q = Fraction(numerator) if denominator == 1 else Fraction(numerator, denominator)
        if not self.contains(q):
            raise ValueError(
                f"{q} lies outside {self.label}: denominator {q.denominator} "
                f"shares a factor with {self.modulus}"
            )
        return q

    def is_unit(self, q: Fraction) -> bool:
        return self.contains(q) and math.gcd(q.numerator, self.modulus) == 1

    @property
    def idempotents(self) -> tuple[Fraction, Fraction]:
        """0 and 1 — the ring is a domain, so e(e - 1) = 0 forces e in {0, 1}."""
        return (Fraction(0), Fraction(1))

    # -- ideals ---------------------------------------------------------------

    def valuations(self, n: int) -> tuple[int, ...]:
        """Exponent of each listed prime in |n| (zero vector for n = 0 by fiat)."""
        out = []
        for p in self.primes:
            e = 0
            m = abs(n)
            while m and m % p == 0:
                m //= p
                e += 1
            out.append(e)
        return tuple(out)

    def ideal(self, valuations: Sequence[int]) -> "LocalizedIdeal":
        return LocalizedIdeal(self, "principal", tuple(valuations))

    def zero_ideal(self) -> "LocalizedIdeal":
        return LocalizedIdeal(self, "zero", tuple(0 for _ in self.primes))

    def full_ideal(self) -> "LocalizedIdeal":
        return LocalizedIdeal(self, "principal", tuple(0 for _ in self.primes))

    def principal_ideal(self, generator: Fraction | int | str) -> "LocalizedIdeal":
        """The ideal generated by one element, normalized to its canonical
        integer generator prod(p^e_p); unit factors are stripped, so a unit
        generator yields the whole ring."""
        return _localized_ideal(self, [generator])


def _localized_ideal(
    ring: LocalizedIntegers, gens: Sequence[Fraction | int | str] | None
) -> "LocalizedIdeal":
    """The ideal the member generators span, with the least exponent of each
    prime over the nonzero ones; no generators at all is the whole ring."""
    if gens is None:
        return ring.full_ideal()
    vectors = [ring.valuations(q.numerator) for q in map(ring.element, gens) if q != 0]
    if not vectors:
        return ring.zero_ideal()
    return ring.ideal(tuple(min(col) for col in zip(*vectors)))


class LocalizedIdeal(_Value):
    """0 or the principal ideal generated by d = prod(p^e_p)."""

    ring: LocalizedIntegers
    kind: Literal["zero", "principal"]
    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.exponents) != len(self.ring.primes) or not all(
            type(e) is int and e >= 0 for e in self.exponents
        ):
            raise ValueError("one non-negative integer exponent per prime is required")
        if self.kind not in ("zero", "principal"):
            raise ValueError(f"unknown ideal kind {self.kind!r}")
        if self.kind == "zero" and any(self.exponents):
            raise ValueError("the zero ideal carries the zero exponent vector")

    @property
    def generator(self) -> Fraction:
        if self.kind == "zero":
            return Fraction(0)
        d = 1
        for p, e in zip(self.ring.primes, self.exponents):
            d *= p**e
        return Fraction(d)

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    @property
    def is_full(self) -> bool:
        return self.kind == "principal" and not any(self.exponents)

    def contains(self, q: Fraction) -> bool:
        if not self.ring.contains(q):
            return False
        if self.kind == "zero":
            return q == 0
        if q == 0:
            return True
        vals = self.ring.valuations(q.numerator)
        return all(v >= e for v, e in zip(vals, self.exponents))

    def describe(self) -> str:
        if self.is_zero:
            return "<0>"
        if self.is_full:
            return "R"
        return f"<{self.generator}>"


# -- element classification ------------------------------------------------------


class SignClasses(_Value):
    """Unit tests behind the three possible decompositions of one element.

    plus: x = u + e is solvable (x or x - 1 a unit);
    minus: x = u - e is solvable (x or x + 1 a unit).
    The flags may also stand for many candidates (element None), as integer
    bitsets or numpy boolean grids: every class is bitwise, and stays a bool
    for bool flags. "a and not b" is written a & (a ^ b), which means the
    same on all three.
    """

    element: Fraction | None
    unit: bool
    shifted_down_unit: bool
    shifted_up_unit: bool

    def __init__(self, element, unit, shifted_down_unit, shifted_up_unit):
        # One per row of a search: spelled out, it builds as fast as a dataclass.
        self.__dict__.update(
            element=element, unit=unit,
            shifted_down_unit=shifted_down_unit, shifted_up_unit=shifted_up_unit,
        )

    @property
    def plus(self) -> bool:
        return self.unit | self.shifted_down_unit

    @property
    def minus(self) -> bool:
        return self.unit | self.shifted_up_unit

    @property
    def is_clean(self) -> bool:
        return self.plus

    @property
    def is_weakly_clean(self) -> bool:
        return self.plus | self.minus

    @property
    def plus_only(self) -> bool:
        return self.plus & (self.plus ^ self.minus)

    @property
    def minus_only(self) -> bool:
        return self.minus & (self.minus ^ self.plus)

    @property
    def is_uniquely_weakly_clean(self) -> bool:
        """Exactly one of the two idempotents supports a decomposition."""
        return self.unit ^ (self.shifted_down_unit | self.shifted_up_unit)

    def to_json_dict(self) -> dict:
        return {
            "element": str(self.element),
            "clean": self.is_clean,
            "weakly_clean": self.is_weakly_clean,
            "plus": self.plus,
            "minus": self.minus,
        }


def clean_flags(ring: LocalizedIntegers, x: Fraction) -> SignClasses:
    x = ring.element(x)
    return SignClasses(
        element=x,
        unit=ring.is_unit(x),
        shifted_down_unit=ring.is_unit(x - 1),
        shifted_up_unit=ring.is_unit(x + 1),
    )


def is_weakly_exchange_element_exact(
    ring: LocalizedIntegers,
    x: Fraction,
    *,
    ideal: LocalizedIdeal | None = None,
    mode: Literal["strict", "relaxed"] = "relaxed",
) -> bool:
    """Definition-faithful test: some idempotent e has e - x in R(x - x^2)
    or e + x in R(x + x^2); strict mode draws e from the given ideal.

    Membership in a principal multiple set R*g is exact division: y in R*g
    iff y = 0, or g != 0 and y/g lies in the ring.
    """
    x = ring.element(x)
    if mode == "strict":
        if ideal is None:
            raise ValueError("strict mode requires the ideal")
        candidates = [e for e in ring.idempotents if ideal.contains(e)]
    else:
        candidates = ring.idempotents

    def in_multiples(y: Fraction, g: Fraction) -> bool:
        if y == 0:
            return True
        return g != 0 and ring.contains(y / g)

    for e in candidates:
        if in_multiples(e - x, x - x * x) or in_multiples(e + x, x + x * x):
            return True
    return False


# -- analytic ideal verdicts -------------------------------------------------------


def envelope_ideals() -> Iterator[tuple[LocalizedIntegers, LocalizedIdeal]]:
    """Every localization ideal in the localized-agreement law's sweep.

    Yields (ring, ideal) for every set of one to VALIDATED_MAX_PRIMES primes
    up to VALIDATED_MAX_PRIME: the zero ideal, then every exponent vector
    bounded by VALIDATED_MAX_EXPONENT.
    """
    primes = [p for p in range(2, VALIDATED_MAX_PRIME + 1) if _is_prime(p)]
    for size in range(1, VALIDATED_MAX_PRIMES + 1):
        for chosen in itertools.combinations(primes, size):
            ring = LocalizedIntegers(chosen)
            yield ring, ring.zero_ideal()
            for exponents in itertools.product(range(VALIDATED_MAX_EXPONENT + 1), repeat=size):
                yield ring, ring.ideal(exponents)


def _decide(ideal: LocalizedIdeal, name: str) -> bool:
    """Whether every member has the SignClasses property ``name``.

    A member's (x, x - 1, x + 1) unit flags are the "and" of its flags at
    each prime, and the members take every combination of residues: 0 at a
    prime that divides the generator, and 0, 1, -1 and 2 (which stand for
    all) at the others (module docstring). ``patterns`` holds the flag
    triples of the primes seen so far.
    """
    patterns = {(True, True, True)}
    for p, e in zip(ideal.ring.primes, ideal.exponents):
        residues = {0} if e or ideal.is_zero else {r % p for r in (0, 1, -1, 2)}
        local = {(r != 0, r != 1 % p, r != -1 % p) for r in residues}
        patterns = {
            (x & y, down & down_p, up & up_p)
            for x, down, up in patterns
            for y, down_p, up_p in local
        }
    return all(getattr(SignClasses(None, *flags), name) for flags in patterns)


def ideal_is_clean_analytic(ideal: LocalizedIdeal) -> bool:
    return _decide(ideal, "is_clean")


def ideal_is_weakly_clean_analytic(ideal: LocalizedIdeal) -> bool:
    return _decide(ideal, "is_weakly_clean")


def ideal_is_uniquely_weakly_clean_analytic(ideal: LocalizedIdeal) -> bool:
    return _decide(ideal, "is_uniquely_weakly_clean")


def ideal_is_weakly_exchange_analytic(ideal: LocalizedIdeal) -> bool:
    return ideal_is_weakly_clean_analytic(ideal)


# -- bounded witness search ---------------------------------------------------------


def _multiplier(k: int) -> int:
    """The numerator multiplier at canonical position k: 0, 1, -1, 2, -2, ..."""
    return (k + 1) // 2 if k % 2 else -(k // 2)


def _rows(ring: LocalizedIntegers, bound: int) -> Iterator[int]:
    """The denominators b of 1..bound coprime to the modulus, ascending."""
    modulus = ring.modulus
    return (b for b in range(1, bound + 1) if math.gcd(b, modulus) == 1)


def _order(ring: LocalizedIntegers, bound: int) -> tuple[list[int], list[int]]:
    """The canonical search order: the multipliers a at positions 0..2*bound
    (``_multiplier``) in each row b (``_rows``)."""
    return [_multiplier(k) for k in range(2 * bound + 1)], list(_rows(ring, bound))


def candidate_stream(
    ring: LocalizedIntegers, ideal: LocalizedIdeal, bound: int
) -> Iterator[Fraction]:
    """Members d*a/b in the canonical search order (``_order``). Duplicates
    from unreduced pairs are not filtered."""
    d = int(ideal.generator)
    a_vals, b_vals = _order(ring, bound)
    for b in b_vals:
        for a in a_vals:
            yield Fraction(d * a, b)


def _search_grid(
    ring: LocalizedIntegers, ideal: LocalizedIdeal, bound: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Non-unit masks over candidates x = d*a/b in canonical order.

    Returns (a_values, b_values, x_non_unit, down_non_unit, up_non_unit)
    where the masks are indexed [b, a] and "down"/"up" refer to x - 1 and
    x + 1. Because b stays coprime to the modulus, a prime p of the set makes
    x, x - 1 or x + 1 a non-unit exactly when d*a is 0, b or -b mod p. The
    residues are taken on Python integers, so the masks are exact for any d.
    The searches never build this grid: it is the tests' oracle for the row
    search, ``_first_members``.
    """
    import numpy as np

    d = int(ideal.generator)
    a_vals, b_vals = _order(ring, bound)
    shape = (len(b_vals), len(a_vals))
    x_non_unit = np.zeros(len(a_vals), dtype=bool)
    down_non_unit = np.zeros(shape, dtype=bool)
    up_non_unit = np.zeros(shape, dtype=bool)
    for p in ring.primes:
        da = np.array([d % p * a % p for a in a_vals], dtype=np.uint64)
        x_non_unit |= da == 0
        down_non_unit |= da == np.array([[b % p] for b in b_vals], dtype=np.uint64)
        up_non_unit |= da == np.array([[-b % p] for b in b_vals], dtype=np.uint64)
    a_arr, b_arr = (np.array(vals, dtype=np.int64) for vals in (a_vals, b_vals))
    return a_arr, b_arr, np.broadcast_to(x_non_unit, shape), down_non_unit, up_non_unit


def _first_hit(
    mask: np.ndarray, a_vals: np.ndarray, b_vals: np.ndarray, d: int
) -> Fraction | None:
    """The member at the first set cell of a grid mask, row by row."""
    import numpy as np

    for row in range(mask.shape[0]):
        hits = np.flatnonzero(mask[row])
        if hits.size:
            a = int(a_vals[hits[0]])
            return Fraction(d * a, int(b_vals[row]))
    return None


def _teeth(period: int, n: int) -> int:
    """The bitset of the positions 0, period, 2*period, ... (and perhaps more
    beyond n)."""
    teeth, width = 1, period
    while width < n:
        teeth |= teeth << width
        width *= 2
    return teeth


def _first_members(
    ring: LocalizedIntegers, ideal: LocalizedIdeal, bound: int, *classes
) -> list[Fraction | None]:
    """The first member d*a/b, in canonical order, of each class, or None.

    A row b holds bitsets over its positions 0..n - 1, bit k standing for
    the multiplier ``_multiplier(k)``. Each class maps the row's SignClasses,
    whose flags are such bitsets, and the bitset of the whole row to the
    bitset of the row's members in the class; its lowest bit is its first
    member. Rows are visited in order until every class has a member.

    With b coprime to the modulus, a prime p that divides d makes every x a
    non-unit and every x - 1 and x + 1 a unit. For any other p, with r = d
    mod p, x, x - 1 and x + 1 are non-units at p exactly when a is 0, b/r or
    -b/r mod p. The residues are taken on Python integers, so the search is
    exact for any d. With L the product of the primes that do not divide d,
    every class repeats after 2L positions, so a row holds n = min(2*bound +
    1, 2L) of them; and a row whose b mod L repeats an earlier row's has that
    row's bitsets, so it is skipped, and the search ends once all phi(L)
    classes of b mod L have been visited.
    """
    d = int(ideal.generator)
    live = [p for p in ring.primes if d % p]
    period = math.prod(live)
    n = min(2 * bound + 1, 2 * period)
    full = (1 << n) - 1
    inverses = {p: pow(d, -1, p) for p in live}
    teeth = {p: _teeth(2 * p, n) for p in live}

    def residue_class(p: int, t: int) -> int:
        """The positions whose multiplier is t mod p: the bits of one period
        of 2p positions, times the teeth that repeat it."""
        pattern = sum(1 << k for k in (2 * (t or p) - 1, 2 * (-t % p)) if k < n)
        return pattern * teeth[p] & full

    x_non_unit = 0 if len(live) == len(ring.primes) else full
    for p in live:
        x_non_unit |= residue_class(p, 0)
    unit = full ^ x_non_unit
    row_classes = math.prod(p - 1 for p in live)
    seen = set()
    found = [None] * len(classes)
    for b in _rows(ring, bound):
        if b % period in seen:
            continue
        seen.add(b % period)
        down_non_unit = up_non_unit = 0
        for p, inverse in inverses.items():
            t = b * inverse % p
            down_non_unit |= residue_class(p, t)
            up_non_unit |= residue_class(p, -t % p)
        flags = SignClasses(None, unit, full ^ down_non_unit, full ^ up_non_unit)
        for i, members_of in enumerate(classes):
            hits = 0 if found[i] is not None else members_of(flags, full)
            if hits:
                found[i] = Fraction(d * _multiplier((hits & -hits).bit_length() - 1), b)
        if None not in found or len(seen) == row_classes:
            break
    return found


def _lacking(name: str):
    """The class of the members whose sign classes lack the property ``name``."""
    return lambda classes, full: full ^ getattr(classes, name)


def witness_search(
    ring: LocalizedIntegers,
    ideal: LocalizedIdeal,
    *,
    bound: int = DEFAULT_SEARCH_BOUND,
    flavor: Literal["clean", "weakly-clean"] = "weakly-clean",
) -> Fraction | None:
    """First ideal member (canonical order) with no decomposition of the
    requested flavor, or None when every sampled member decomposes."""
    good = "is_clean" if flavor == "clean" else "is_weakly_clean"
    return _first_members(ring, ideal, bound, _lacking(good))[0]


def uniqueness_witness_search(
    ring: LocalizedIntegers,
    ideal: LocalizedIdeal,
    *,
    bound: int = DEFAULT_SEARCH_BOUND,
) -> Fraction | None:
    """First member supported by zero or by both idempotents."""
    return _first_members(ring, ideal, bound, _lacking("is_uniquely_weakly_clean"))[0]


class SignClassSurvey(_Value):
    """First representatives of each exclusive sign class within an ideal."""

    first_plus_only: Fraction | None
    first_minus_only: Fraction | None
    first_neither: Fraction | None
    scanned: int


def sign_class_survey(
    ring: LocalizedIntegers,
    ideal: LocalizedIdeal,
    *,
    bound: int = DEFAULT_SEARCH_BOUND,
) -> SignClassSurvey:
    """The first plus-only, minus-only and neither members; ``scanned`` is
    the size of the whole search grid, however early the search stops."""
    if ideal.is_zero:
        return SignClassSurvey(None, None, None, 1)
    plus_only, minus_only, neither = _first_members(
        ring,
        ideal,
        bound,
        lambda classes, full: classes.plus_only,
        lambda classes, full: classes.minus_only,
        _lacking("is_weakly_clean"),
    )
    modulus = ring.modulus
    rows = bound // modulus * math.prod(p - 1 for p in ring.primes)
    rows += sum(1 for _ in _rows(ring, bound % modulus))
    return SignClassSurvey(plus_only, minus_only, neither, rows * (2 * bound + 1))


# -- products --------------------------------------------------------------------


class ProductVerdict(_Value):
    """Weak cleanness of a componentwise ideal inside a finite product."""

    ok: bool
    witness: tuple[Fraction, ...] | None
    witness_sign_classes: tuple[str, ...] | None
    component_weakly_clean: tuple[bool, ...]
    component_clean: tuple[bool, ...]
    detail: str

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "witness": None if self.witness is None else [str(x) for x in self.witness],
            "witness_sign_classes": (
                None
                if self.witness_sign_classes is None
                else list(self.witness_sign_classes)
            ),
            "component_weakly_clean": list(self.component_weakly_clean),
            "component_clean": list(self.component_clean),
            "detail": self.detail,
        }


def product_weakly_clean(
    components: Sequence[tuple[LocalizedIntegers, LocalizedIdeal]],
    *,
    bound: int = DEFAULT_SEARCH_BOUND,
) -> ProductVerdict:
    """Decide weak cleanness of I_1 x ... x I_n inside R_1 x ... x R_n.

    The decomposition sign is shared across components, so the product
    ideal is weakly clean exactly when every component ideal is weakly
    clean and at most one of them fails to be clean. Failure produces an
    explicit member tuple with no shared sign: either one component is not
    weakly clean at all (padded with zeros elsewhere), or two components
    contribute a plus-only and a minus-only member.
    """
    if not components:
        raise ValueError("at least one component is required")
    wc = [ideal_is_weakly_clean_analytic(i) for _, i in components]
    cl = [ideal_is_clean_analytic(i) for _, i in components]
    not_clean = [k for k, flag in enumerate(cl) if not flag]
    if all(wc) and len(not_clean) <= 1:
        return ProductVerdict(
            True, None, None, tuple(wc), tuple(cl), "at most one component is not clean"
        )
    # the (slot, sign class, member) picks of the failing witness
    if not all(wc):
        slot = wc.index(False)
        member = witness_search(*components[slot], bound=bound, flavor="weakly-clean")
        picks = [(slot, "neither", member)]
        detail = f"component {slot} is not weakly clean"
    else:
        first, second = not_clean[:2]
        plus, minus = (sign_class_survey(*components[k], bound=bound) for k in (first, second))
        picks = [
            (first, "plus-only", plus.first_plus_only),
            (second, "minus-only", minus.first_minus_only),
        ]
        detail = (
            f"components {first} and {second} are both weakly clean but not clean, "
            "with opposite exclusive sign classes"
        )
    witness = classes = None
    if all(member is not None for _, _, member in picks):
        witness, classes = [Fraction(0)] * len(components), ["both"] * len(components)
        for slot, sign_class, member in picks:
            witness[slot], classes[slot] = member, sign_class
        witness, classes = tuple(witness), tuple(classes)
    return ProductVerdict(False, witness, classes, tuple(wc), tuple(cl), detail)


# -- end-to-end worked reports -------------------------------------------------------


def reproduce_examples(*, bound: int = DEFAULT_SEARCH_BOUND) -> dict:
    """Two worked demonstrations over Z restricted to the primes {3, 5}.

    First: the principal ideal generated by 2/11 — the generator is a unit,
    so the ideal is the whole ring, which the search confirms is weakly
    clean but not clean, with an explicit non-clean member.

    Second: the same ring squared, with the componentwise ideal generated
    by 2/11 and 4/7 — both generators are units, both components are
    weakly clean but neither is clean, and the shared-sign obstruction
    produces a member tuple that is not weakly clean in the product.
    """
    ring = LocalizedIntegers((3, 5))

    gen1 = ring.element(2, 11)
    ideal1 = ring.principal_ideal(gen1)
    clean = ideal_is_clean_analytic(ideal1)
    weakly = ideal_is_weakly_clean_analytic(ideal1)
    non_clean_witness = witness_search(ring, ideal1, bound=bound, flavor="clean")
    if non_clean_witness is None:
        raise ValueError(f"the search bound {bound} is too small to find a non-clean witness")
    flags = clean_flags(ring, non_clean_witness)
    first = {
        "ring": ring.label,
        "generator": str(gen1),
        "generator_is_unit": ring.is_unit(gen1),
        "ideal": ideal1.describe(),
        "ideal_is_full_ring": ideal1.is_full,
        "weakly_clean": weakly,
        "clean": clean,
        "non_clean_witness": str(non_clean_witness),
        "witness_checks": {
            "x_is_unit": flags.unit,
            "x_minus_one_is_unit": flags.shifted_down_unit,
            "x_plus_one_is_unit": flags.shifted_up_unit,
        },
    }

    gen2 = ring.element(4, 7)
    ideal2 = ring.principal_ideal(gen2)
    verdict = product_weakly_clean([(ring, ideal1), (ring, ideal2)], bound=bound)
    second = {
        "ring": f"{ring.label} x {ring.label}",
        "generators": [str(gen1), str(gen2)],
        "generators_are_units": [ring.is_unit(gen1), ring.is_unit(gen2)],
        "component_ideals": [ideal1.describe(), ideal2.describe()],
        "product": verdict.to_json_dict(),
    }

    return {
        "full_ring_weakly_clean_not_clean": first,
        "product_not_weakly_clean": second,
    }
