"""Additive decompositions of ring elements into units plus or minus
idempotents, and the derived element, ideal, and ring classifications.

An element x is clean when x = u + e for a unit u and idempotent e, and
weakly clean when x = u + e or x = u - e. It is uniquely weakly clean when
exactly one idempotent admits a decomposition of either sign. An ideal has
one of these properties when every one of its elements does; verdicts record
only counts on success and a full attempted-decomposition trace for the
first failing element, so passing scans stay cheap to serialize. Every
property of an ideal, the exchange property included, and the first
decomposition of each member are read off one gather of x - e and x + e per
ideal (``_shifts``).

The weakly exchange test for x asks for an idempotent e with e - x in
R(x - x^2) or e + x in R(x + x^2). Restricting candidate idempotents to the
ideal under test ("strict") or allowing all of them ("relaxed") selects the
same elements whenever x itself lies in the ideal: a qualifying idempotent
satisfies e = x + r(x - x^2) or e = -x + r(x + x^2), and every term on the
right already belongs to the ideal. Both modes exist so that this
equivalence is itself machine-checked rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .constructions import corner_ring
from .core import FiniteRing
from .ideals import IdealSet, corner_ideal, full_ideal

Sign = Literal[1, -1]


@dataclass(frozen=True)
class Decomposition:
    """x = unit + sign * idempotent, with sign +1 (clean) or -1 (co-clean)."""

    sign: int
    idempotent: int
    unit: int

    def to_json_dict(self) -> dict:
        return {"sign": self.sign, "idempotent": self.idempotent, "unit": self.unit}


@dataclass(frozen=True)
class CleanClass:
    """Full decomposition census for one element."""

    element: int
    decompositions: tuple[Decomposition, ...]

    @property
    def is_clean(self) -> bool:
        return any(d.sign == 1 for d in self.decompositions)

    @property
    def is_weakly_clean(self) -> bool:
        return bool(self.decompositions)

    @property
    def is_uniquely_weakly_clean(self) -> bool:
        return len({d.idempotent for d in self.decompositions}) == 1

    def to_json_dict(self) -> dict:
        return {
            "element": self.element,
            "clean": self.is_clean,
            "weakly_clean": self.is_weakly_clean,
            "uniquely_weakly_clean": self.is_uniquely_weakly_clean,
            "decompositions": [d.to_json_dict() for d in self.decompositions],
        }


def _shifts(ring: FiniteRing, members: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(x - e, x + e) for each member x and idempotent e, indexed [member, idempotent].

    x = u + e exactly when x - e is a unit u, and x = u - e when x + e is.
    """
    idem = np.array(ring.idempotents)
    m = np.array(members)[:, None]
    return ring.add_table[m, ring.neg_table[idem]], ring.add_table[m, idem]


def _scan_masks(ring: FiniteRing, members: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(plus_ok, minus_ok) indexed [member, idempotent]: whether x = u + e and
    x = u - e have a unit u, that is, whether x - e and x + e are units."""
    units = ring.units_mask
    minus_e, plus_e = _shifts(ring, members)
    return units[minus_e], units[plus_e]


def decompositions(ring: FiniteRing, x: int) -> tuple[Decomposition, ...]:
    """Every decomposition x = u + e and x = u - e, sign +1 first, e ascending.

    A pair that works with both signs (only possible when e + e = 0 forces
    u to coincide) is listed once per sign; ordering is deterministic.
    """
    shifted = np.hstack(_shifts(ring, [x]))[0].tolist()
    signed = [(sign, e) for sign in (1, -1) for e in ring.idempotents]
    return tuple(Decomposition(*se, u) for se, u in zip(signed, shifted) if ring.units_mask[u])


def _first_decompositions(
    ring: FiniteRing, members: Sequence[int], *, plus_only: bool = False
) -> list[Decomposition]:
    """For each member, the first decomposition that ``decompositions`` lists,
    of sign +1 only when plus_only. Every finite ring is clean, so there is one."""
    shifted = np.hstack(_shifts(ring, members)[: 1 if plus_only else 2])
    first = ring.units_mask[shifted].argmax(axis=1)
    units = np.take_along_axis(shifted, first[:, None], axis=1)[:, 0].tolist()
    signed = [(sign, e) for sign in (1, -1) for e in ring.idempotents]
    return [Decomposition(*signed[j], u) for j, u in zip(first.tolist(), units)]


def clean_class(ring: FiniteRing, x: int) -> CleanClass:
    return CleanClass(x, decompositions(ring, x))


def is_clean_element(ring: FiniteRing, x: int) -> bool:
    plus_ok, _ = _scan_masks(ring, [x])
    return bool(plus_ok.any())


def is_weakly_clean_element(ring: FiniteRing, x: int) -> bool:
    plus_ok, minus_ok = _scan_masks(ring, [x])
    return bool(plus_ok.any() or minus_ok.any())


def is_uniquely_weakly_clean_element(ring: FiniteRing, x: int) -> bool:
    plus_ok, minus_ok = _scan_masks(ring, [x])
    return int((plus_ok | minus_ok).sum()) == 1


def _exchange_masks(ring: FiniteRing, members: Sequence[int]) -> np.ndarray:
    """Whether e - x lies in R(x - x^2) or e + x in R(x + x^2), indexed
    [member, idempotent] over all of the ring's idempotents.

    R*y is an additive subgroup, so e - x lies in it exactly when x - e does,
    and both tests read the rows of ``_shifts``.
    """
    x = np.array(members)
    square = ring.mul_table[x, x]
    rows = np.arange(len(x))[:, None]
    ys = (ring.add_table[x, ring.neg_table[square]], ring.add_table[x, square])
    ok = np.zeros((len(x), len(ring.idempotents)), dtype=bool)
    for y, shifted in zip(ys, _shifts(ring, members)):
        multiples = np.zeros((len(x), ring.order), dtype=bool)
        multiples[rows, ring.mul_table[:, y].T] = True
        ok |= multiples[rows, shifted]
    return ok


def _exchange_columns(ring: FiniteRing, ideal: IdealSet | None, mode: str) -> list[int]:
    """The idempotents an exchange test probes: all, or in strict mode those in the ideal."""
    if mode != "strict":
        return list(range(len(ring.idempotents)))
    if ideal is None:
        raise ValueError("strict mode requires the ideal")
    return np.flatnonzero(ideal.member_mask()[list(ring.idempotents)]).tolist()


def is_weakly_exchange_element(
    ring: FiniteRing,
    x: int,
    *,
    ideal: IdealSet | None = None,
    mode: Literal["strict", "relaxed"] = "relaxed",
) -> bool:
    """True when some idempotent e has e - x in R(x - x^2) or e + x in R(x + x^2).

    In strict mode the idempotent must additionally belong to the given ideal.
    """
    columns = _exchange_columns(ring, ideal, mode)
    return bool(_exchange_masks(ring, [x])[0, columns].any())


# -- ideal-level verdicts -------------------------------------------------------


@dataclass(frozen=True)
class IdealVerdict:
    """Outcome of scanning every element of an ideal for one property.

    On success only the element count is kept. On failure the first failing
    element is recorded together with the attempted decompositions (or probed
    idempotents, for the exchange property) so the refusal is auditable.
    """

    property_name: str
    ideal_description: str
    ok: bool
    checked: int
    failing: int | None = None
    trace: tuple = ()
    detail: str = ""

    def to_json_dict(self) -> dict:
        record = {
            "property": self.property_name,
            "ideal": self.ideal_description,
            "ok": self.ok,
            "checked": self.checked,
        }
        if not self.ok:
            record["failing_element"] = self.failing
            record["detail"] = self.detail
            record["trace"] = [
                t.to_json_dict() if hasattr(t, "to_json_dict") else t for t in self.trace
            ]
        return record


def _scan_ideal(
    ring: FiniteRing, ideal: IdealSet, name: str, *, plus_only: bool = False, unique: bool = False
) -> IdealVerdict:
    """Count, per member of the ideal, the idempotents that decompose it.

    Decompositions of sign +1 count when plus_only, of either sign otherwise.
    A member passes with at least one working idempotent, or exactly one when
    unique; the first member that does not is the verdict's failing element.
    """
    plus_ok, minus_ok = _scan_masks(ring, ideal.members)
    counts = (plus_ok if plus_only else plus_ok | minus_ok).sum(axis=1)
    failing = np.flatnonzero(counts != 1 if unique else counts == 0)
    if failing.size == 0:
        return IdealVerdict(name, ideal.describe(), True, len(ideal))
    x = ideal.members[int(failing[0])]
    count = int(counts[failing[0]])
    if unique:
        reason = f"{count} distinct idempotents work" if count else "no decomposition"
        detail = f"element {x}: {reason}"
    elif plus_only:
        detail = f"element {x} admits no unit-plus-idempotent decomposition"
    else:
        detail = f"element {x} admits no decomposition of either sign"
    return IdealVerdict(
        name,
        ideal.describe(),
        False,
        len(ideal),
        failing=x,
        trace=decompositions(ring, x) if unique and count else _failure_trace(ring, x),
        detail=detail,
    )


def ideal_is_clean(ring: FiniteRing, ideal: IdealSet) -> IdealVerdict:
    return _scan_ideal(ring, ideal, "clean", plus_only=True)


def ideal_is_weakly_clean(ring: FiniteRing, ideal: IdealSet) -> IdealVerdict:
    return _scan_ideal(ring, ideal, "weakly-clean")


def ideal_is_uniquely_weakly_clean(ring: FiniteRing, ideal: IdealSet) -> IdealVerdict:
    return _scan_ideal(ring, ideal, "uniquely-weakly-clean", unique=True)


def ideal_is_weakly_exchange(
    ring: FiniteRing,
    ideal: IdealSet,
    *,
    mode: Literal["strict", "relaxed"] = "strict",
) -> IdealVerdict:
    columns = _exchange_columns(ring, ideal, mode)
    failing = np.flatnonzero(~_exchange_masks(ring, ideal.members)[:, columns].any(axis=1))
    name = f"weakly-exchange-{mode}"
    if failing.size == 0:
        return IdealVerdict(name, ideal.describe(), True, len(ideal))
    x = ideal.members[int(failing[0])]
    detail = f"element {x}: no probed idempotent lands in R(x-x^2) or R(x+x^2)"
    trace = tuple(ring.idempotents[j] for j in columns)
    return IdealVerdict(name, ideal.describe(), False, len(ideal), x, trace, detail)


def _failure_trace(ring: FiniteRing, x: int, limit: int = 16) -> tuple:
    """For a failing element: which (sign, e) candidates were tried and the
    non-unit each produced."""
    units = ring.units_mask
    minus_e, plus_e = (row[:limit].tolist() for (row,) in _shifts(ring, [x]))
    trace = []
    for e, *candidates in zip(ring.idempotents, minus_e, plus_e):
        for sign, u in zip((1, -1), candidates):
            trace.append(
                {"sign": sign, "idempotent": e, "candidate_unit": u, "is_unit": bool(units[u])}
            )
    return tuple(trace)


# -- ring-level shortcuts ----------------------------------------------------------


def ring_is_clean(ring: FiniteRing) -> bool:
    return ideal_is_clean(ring, full_ideal(ring)).ok


def ring_is_weakly_clean(ring: FiniteRing) -> bool:
    return ideal_is_weakly_clean(ring, full_ideal(ring)).ok


def ring_is_uniquely_weakly_clean(ring: FiniteRing) -> bool:
    return ideal_is_uniquely_weakly_clean(ring, full_ideal(ring)).ok


# -- idempotent lifting --------------------------------------------------------------


def lift_idempotent(ring: FiniteRing, proj: np.ndarray, quot: FiniteRing, ebar: int) -> int:
    """An idempotent of the parent ring that projects onto ebar.

    Lifting along the quotient by the Jacobson radical always succeeds in a
    finite ring, so failure here is an internal error, not a verdict.
    """
    if not quot.is_idempotent(ebar):
        raise ValueError(f"{ebar} is not idempotent in {quot.label}")
    for e in ring.idempotents:
        if int(proj[e]) == ebar:
            return e
    raise RuntimeError(
        f"no idempotent of {ring.label} projects onto {ebar}; "
        f"the quotient is not by a nil ideal"
    )


# -- Peirce corner analysis ------------------------------------------------------------


def _corner_verdicts(
    ring: FiniteRing, es: Sequence[int], ideal: IdealSet
) -> list[tuple[IdealVerdict, IdealVerdict]]:
    """The weakly-clean and clean verdicts of e*I*e inside each corner e*R*e."""
    verdicts = []
    for e in es:
        corner = corner_ring(ring, e)
        sliced = corner_ideal(corner, ideal)
        verdicts.append((ideal_is_weakly_clean(corner.ring, sliced), ideal_is_clean(corner.ring, sliced)))
    return verdicts

