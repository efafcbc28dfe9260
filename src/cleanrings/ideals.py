"""Two-sided ideals of finite rings as explicit member sets.

An ideal is the sorted tuple of its member indices plus the generators it
was closed from (when known). Every additive span goes through one kernel,
core._span, which grows a subgroup by the cosets of each seed: in a unital
ring <g> is the span of the products r*g*s, gathered in one lookup, and
I + J is the span of I and the members of J. Closures are checked to be
two-sided ideals, sums through their inputs; 0 and closure under addition
make a subset of a finite group a subgroup, since -x = (ord x - 1)*x.

principal_ideals closes one element of each two-sided unit orbit U*x*U only,
since <u*x*v> = <x>. all_ideals closes the principal ideals under pairwise
sums, and every ideal of a finite ring is a finite sum of principal ideals,
so its lattice is complete. It refuses rings above a configurable cap
(default 64); callers are expected to fall back to principal ideals only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iter_product
from typing import Iterable, Sequence

import numpy as np

from .constructions import _index
from .core import FiniteRing, SizeCapError, _closure_break, _distinct, _span

DEFAULT_IDEAL_ENUM_CAP = 64


@dataclass(frozen=True)
class IdealSet:
    """A two-sided ideal given by its sorted member indices."""

    ring: FiniteRing = field(compare=False)
    members: tuple[int, ...]
    generators: tuple[int, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        members = tuple(sorted(dict.fromkeys(int(m) for m in self.members)))
        if members and not 0 <= members[0] <= members[-1] < self.ring.order:
            raise ValueError(_closure_break(members, self.ring.add_table))  # names the member outside
        object.__setattr__(self, "members", members)

    def __contains__(self, x: int) -> bool:
        return x in set(self.members)

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def is_zero(self) -> bool:
        return self.members == (0,)

    @property
    def is_proper(self) -> bool:
        return len(self.members) < self.ring.order

    def member_mask(self) -> np.ndarray:
        mask = np.zeros(self.ring.order, dtype=bool)
        mask[list(self.members)] = True
        return mask

    def describe(self) -> str:
        if not self.is_proper:
            return "R"
        if self.is_zero:
            return "<0>"
        if self.generators and len(self.generators) <= 4:
            inside = ",".join(str(g) for g in self.generators)
            return f"<{inside}>"
        return "{" + ",".join(str(m) for m in self.members[:8]) + (",..." if len(self.members) > 8 else "") + "}"

    def to_json_dict(self) -> dict:
        return {
            "ring": self.ring.label,
            "members": [int(m) for m in self.members],
            "generators": None if self.generators is None else [int(g) for g in self.generators],
        }


def is_ideal(ring: FiniteRing, members: Iterable[int]) -> bool:
    """Exhaustive two-sided ideal check: 0 present, closed under + and R*x*R."""
    return _closure_break(members, ring.add_table, ring.mul_table, ring.mul_table.T) is None


def ideal_closure(ring: FiniteRing, generators: Sequence[int]) -> IdealSet:
    """Smallest two-sided ideal containing the generators: the additive span
    of R*g*R over the generators g."""
    gens = tuple(dict.fromkeys(int(g) for g in generators))
    for g in gens:
        if not (0 <= g < ring.order):
            raise ValueError(f"generator {g} out of range for order {ring.order}")
    mul = ring.mul_table
    products = _distinct(mul[mul[:, list(gens)], :], ring.order)
    mask = _span(ring.add_table, np.zeros(ring.order, dtype=bool), products)
    result = IdealSet(ring, tuple(np.flatnonzero(mask).tolist()), generators=gens)
    if not is_ideal(ring, result.members):
        raise RuntimeError("closure invariant failed: result is not an ideal")
    return result


def _finite_ideal(ring: FiniteRing, gens: Sequence[int] | None) -> IdealSet:
    """The ideal the generators span; no generators at all is the whole ring."""
    return full_ideal(ring) if gens is None else ideal_closure(ring, gens)


def ideal_from_members(ring: FiniteRing, members: Iterable[int]) -> IdealSet:
    ms = tuple(sorted(dict.fromkeys(int(m) for m in members)))
    if not is_ideal(ring, ms):
        raise ValueError(f"{ms} is not a two-sided ideal of {ring.label}")
    return IdealSet(ring, ms)


def full_ideal(ring: FiniteRing) -> IdealSet:
    return IdealSet(ring, tuple(ring.elements), generators=(ring.one,))


def zero_ideal(ring: FiniteRing) -> IdealSet:
    return IdealSet(ring, (0,), generators=())


def ideal_sum(a: IdealSet, b: IdealSet) -> IdealSet:
    """I + J, the span of I and the members of J. The inputs are checked, not
    the result: x(i + j)y = xiy + xjy, so the span of two ideals is an ideal,
    while the span of a set that is not one could pass for one."""
    if a.ring != b.ring:
        raise ValueError("ideal_sum requires ideals of the same ring")
    ring = a.ring
    for ideal in (a, b):
        gap = _closure_break(ideal.members, ring.add_table, ring.mul_table, ring.mul_table.T)
        if gap is not None:
            raise RuntimeError(f"ideal_sum requires ideals: {gap}")
    mask = _span(ring.add_table, a.member_mask(), b.members)
    gens = None
    if a.generators is not None and b.generators is not None:
        gens = tuple(dict.fromkeys(a.generators + b.generators))
    return IdealSet(ring, tuple(np.flatnonzero(mask).tolist()), generators=gens)


def ideal_intersection(a: IdealSet, b: IdealSet) -> IdealSet:
    if a.ring != b.ring:
        raise ValueError("ideal_intersection requires ideals of the same ring")
    members = sorted(set(a.members) & set(b.members))
    return IdealSet(a.ring, tuple(members))


def principal_ideals(ring: FiniteRing) -> list[IdealSet]:
    """Deduplicated closures <x> for every element x, sorted by (size, members).

    Elements are visited in index order and every x in the two-sided unit
    orbit U*x'*U of an earlier x' is skipped, because <u*x'*v> = <x'>. So the
    generator recorded for each ideal is the least x with that closure.
    """
    mul = ring.mul_table
    units = np.flatnonzero(ring.units_mask)
    covered = np.zeros(ring.order, dtype=bool)
    seen: dict[tuple[int, ...], IdealSet] = {}
    for x in ring.elements:
        if covered[x]:
            continue
        covered[mul[np.ix_(mul[units, x], units)]] = True
        ideal = ideal_closure(ring, (x,))
        seen.setdefault(ideal.members, ideal)
    return sorted(seen.values(), key=lambda i: (len(i.members), i.members))


def all_ideals(ring: FiniteRing, *, cap: int = DEFAULT_IDEAL_ENUM_CAP) -> list[IdealSet]:
    """Every two-sided ideal: the principal ideals, then each sum of an ideal
    with one listed before it that is not listed yet, appended while the
    list is walked. Each pair is spanned on masks and only a new sum goes
    through ideal_sum, so each ideal keeps the generators of the first pair
    that finds it. Refuses orders above the cap (lattices can be huge);
    callers fall back to principal_ideals explicitly.
    """
    if ring.order > cap:
        raise SizeCapError(
            f"ideal enumeration refused for order {ring.order} > cap {cap}; "
            f"fall back to principal_ideals"
        )
    ideals = principal_ideals(ring)
    masks = [ideal.member_mask() for ideal in ideals]
    seen = {mask.tobytes() for mask in masks}
    for i, b in enumerate(ideals):
        for j in range(i):
            if _span(ring.add_table, masks[j].copy(), b.members).tobytes() not in seen:
                ideals.append(ideal_sum(ideals[j], b))
                masks.append(ideals[-1].member_mask())
                seen.add(masks[-1].tobytes())
    return sorted(ideals, key=lambda i: (len(i.members), i.members))


def ideal_inventory(ring: FiniteRing, *, cap: int = DEFAULT_IDEAL_ENUM_CAP) -> tuple[list[IdealSet], bool]:
    """(ideals, complete) where complete=False means principal fallback was used."""
    try:
        return all_ideals(ring, cap=cap), True
    except SizeCapError:
        return principal_ideals(ring), False


# -- ideals induced inside constructed rings ---------------------------------
#
# These rebuild member sets through the same mixed radix encodings the
# constructors use (first component in the most significant position) and
# assert two-sidedness in the ambient ring, which catches any mismatch
# between the claimed ambient and the component data.


def _radices_of(ambient: FiniteRing, kind: str) -> tuple[int, ...]:
    prov = ambient.provenance or {}
    if prov.get("kind") != kind:
        raise ValueError(f"ambient ring {ambient.label} is not a {kind} construction")
    return tuple(int(r) for r in prov["radices"])


def _induced(ambient: FiniteRing, slots: Sequence[Sequence[int]], radices: Sequence[int]) -> IdealSet:
    members = [_index(digits, radices) for digits in iter_product(*slots)]
    result = IdealSet(ambient, tuple(members))
    if not is_ideal(ambient, result.members):
        raise RuntimeError("induced member set is not an ideal of the ambient ring")
    return result


def matrix_ideal(ambient: FiniteRing, ideal: IdealSet, k: int) -> IdealSet:
    """M_k(I) inside M_k(R): matrices with every entry in I."""
    radices = _radices_of(ambient, "matrix")
    if len(radices) != k * k:
        raise ValueError(f"ambient is not a {k}x{k} matrix ring")
    return _induced(ambient, [ideal.members] * (k * k), radices)


def product_ideal(ambient: FiniteRing, ideals: Sequence[IdealSet]) -> IdealSet:
    """I_1 x ... x I_m inside R_1 x ... x R_m."""
    radices = _radices_of(ambient, "product")
    if len(radices) != len(ideals):
        raise ValueError("one ideal per product factor is required")
    return _induced(ambient, [i.members for i in ideals], radices)


def tri2_ideal(ambient: FiniteRing, upper: IdealSet, lower: IdealSet) -> IdealSet:
    """[[I, 0], [M, J]] inside [[R, 0], [M, S]]: full bimodule slot."""
    radices = _radices_of(ambient, "tri2")
    return _induced(ambient, [upper.members, range(radices[1]), lower.members], radices)


def tri3_ideal(ambient: FiniteRing, i1: IdealSet, i2: IdealSet, i3: IdealSet) -> IdealSet:
    """Lower-triangular ideal with diagonal slots I, J, K and full bimodule slots."""
    radices = _radices_of(ambient, "tri3")
    slots = [
        i1.members,
        range(radices[1]),
        i2.members,
        range(radices[3]),
        range(radices[4]),
        i3.members,
    ]
    return _induced(ambient, slots, radices)


def morita_ideal(ambient: FiniteRing, upper: IdealSet, lower: IdealSet) -> IdealSet:
    """[[I, M], [N, J]] inside the zero-pairing Morita context ring."""
    radices = _radices_of(ambient, "morita")
    slots = [upper.members, range(radices[1]), range(radices[2]), lower.members]
    return _induced(ambient, slots, radices)


def series_ideal(ambient: FiniteRing, ideal: IdealSet, k: int) -> IdealSet:
    """Truncated series with every coefficient in I."""
    radices = _radices_of(ambient, "series")
    if len(radices) != k:
        raise ValueError(f"ambient is not truncated at degree {k}")
    return _induced(ambient, [ideal.members] * k, radices)


def idealization_ideal(ambient: FiniteRing, ideal: IdealSet, submodule: Sequence[int]) -> IdealSet:
    """I(N) = {(r, n) : r in I, n in N} inside the idealization R(M).

    N must be a submodule of M; closure under the module action and addition
    is verified against the ambient's construction data.
    """
    radices = _radices_of(ambient, "idealization")
    prov = ambient.provenance or {}
    ns = sorted({int(x) for x in submodule})
    gap = _closure_break(ns, np.asarray(prov["module_add"]), np.asarray(prov["module_action"]))
    if gap is not None:
        raise ValueError(f"{ns} is not a submodule: {gap}")
    return _induced(ambient, [ideal.members, ns], radices)


def corner_ideal(corner, ideal: IdealSet) -> IdealSet:
    """e*I*e viewed inside the corner ring e*R*e.

    Accepts the CornerRing record produced by the corner_ring constructor
    (anything with parent, e, ring and position attributes works).
    """
    parent = corner.parent
    e = corner.e
    members = set()
    for x in ideal.members:
        exe = parent.mul(parent.mul(e, x), e)
        members.add(corner.position[exe])
    result = IdealSet(corner.ring, tuple(sorted(members)))
    if not is_ideal(corner.ring, result.members):
        raise RuntimeError("corner member set is not an ideal of the corner ring")
    return result
