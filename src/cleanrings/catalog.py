"""The built-in collection of validated rings that the law harness runs over.

Each base ring is a spec text, built by the spec language, so
``cleanrings laws --spec '<text>'`` reruns the ring laws on any base entry.
The base list covers cyclic rings, two direct products, two full matrix
rings, lower-triangular and block constructions, two idealizations, and
truncated power-series rings; every base ring with a nonzero Jacobson
radical also contributes its radical quotient as a separate entry. Entries
whose order exceeds the ideal-law ceiling still join ring-level laws (unit
counts, radical checks, lifting) but are excluded from laws that quantify
over a full ideal inventory.
"""

from __future__ import annotations

from functools import lru_cache

from . import dsl
from .constructions import quotient
from .core import FiniteRing, SizeCapError
from .records import _Value

IDEAL_LAW_MAX_ORDER = 64

# (key, spec text, note) of each base ring, in catalog order.
_BASE_SPECS: tuple[tuple[str, str, str], ...] = (
    *((f"zn-{n}", f"(zn {n})", "") for n in (*range(1, 13), 16)),
    ("product-z2xz2", "(product (zn 2) (zn 2))", ""),
    ("product-z2xz4", "(product (zn 2) (zn 4))", ""),
    ("matrix2-z2", "(matrix 2 (zn 2))", ""),
    ("matrix2-z3", "(matrix 2 (zn 3))", "above the ideal-law ceiling"),
    ("tri2-z2", "(tri2 (zn 2) (zn 2) (znmod 2))", ""),
    ("tri3-z2", "(tri3 (zn 2) (zn 2) (zn 2) (znmod 2) (znmod 2) (znmod 2))", ""),
    ("morita-z2", "(morita (zn 2) (zn 2) (znmod 2) (znmod 2))", ""),
    ("idealization-z4-z4", "(idealize (zn 4) regular)", ""),
    ("idealization-z4-z2", "(idealize (zn 4) (znmod 2))", ""),
    ("series-z2-k2", "(series (zn 2) 2)", ""),
    ("series-z2-k3", "(series (zn 2) 3)", ""),
    ("series-z4-k2", "(series (zn 4) 2)", ""),
    ("series-z4-k3", "(series (zn 4) 3)", ""),
)


class CatalogEntry(_Value):
    """One named ring in the built-in catalog."""

    key: str
    ring: FiniteRing
    in_ideal_laws: bool
    note: str = ""


def _entry(key: str, ring: FiniteRing, note: str) -> CatalogEntry:
    return CatalogEntry(key, ring, ring.order <= IDEAL_LAW_MAX_ORDER, note)


def _spec_ring(name: str, spec: str) -> FiniteRing:
    """The ring a built-in spec text describes. A size-cap refusal names the
    ring, since a position in text the user never typed would tell nothing."""
    try:
        return dsl.build(dsl.parse(spec))
    except dsl.SpecSizeError as exc:
        raise SizeCapError(f"{name} {spec}: {exc.message}") from None


@lru_cache(maxsize=1)
def build_catalog() -> tuple[CatalogEntry, ...]:
    """Deterministic catalog: base rings first, then radical quotients of
    every base ring whose radical is nonzero."""
    base = [
        _entry(key, _spec_ring(f"catalog entry {key}", spec), note)
        for key, spec, note in _BASE_SPECS
    ]
    out = list(base)
    for entry in base:
        radical = entry.ring.jacobson_radical
        if len(radical) > 1:
            quot, _ = quotient(
                entry.ring, list(radical), label=f"{entry.ring.label}/J"
            )
            out.append(_entry(f"{entry.key}-mod-radical", quot, f"radical quotient of {entry.key}"))
    return tuple(out)


def catalog_entry(key: str) -> CatalogEntry:
    for entry in build_catalog():
        if entry.key == key:
            return entry
    raise KeyError(f"no catalog entry named {key!r}")
