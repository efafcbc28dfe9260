"""The built-in collection of validated rings that the law harness runs over.

The base list covers cyclic rings, two direct products, two full matrix
rings, lower-triangular and block constructions, two idealizations, and
truncated power-series rings; every base ring with a nonzero Jacobson
radical also contributes its radical quotient as a separate entry. Entries
whose order exceeds the ideal-law ceiling still join ring-level laws (unit
counts, radical checks, lifting) but are excluded from laws that quantify
over a full ideal inventory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .constructions import (
    direct_product,
    idealization,
    matrix_ring,
    morita_zero,
    quotient,
    regular_bimodule,
    tri2,
    tri3,
    truncated_power_series,
    zn,
    zn_bimodule,
)
from .core import FiniteRing

IDEAL_LAW_MAX_ORDER = 64


@dataclass(frozen=True)
class CatalogEntry:
    """One named ring in the built-in catalog."""

    key: str
    ring: FiniteRing
    in_ideal_laws: bool
    note: str = ""


def _entry(key: str, ring: FiniteRing, note: str = "") -> CatalogEntry:
    return CatalogEntry(key, ring, ring.order <= IDEAL_LAW_MAX_ORDER, note)


def _base_entries() -> list[CatalogEntry]:
    z2 = zn(2)
    z4 = zn(4)
    entries = [_entry(f"zn-{n}", zn(n)) for n in (*range(1, 13), 16)]
    entries.append(_entry("product-z2xz2", direct_product([z2, zn(2)])))
    entries.append(_entry("product-z2xz4", direct_product([z2, z4])))
    entries.append(_entry("matrix2-z2", matrix_ring(z2, 2)))
    entries.append(
        _entry("matrix2-z3", matrix_ring(zn(3), 2), "above the ideal-law ceiling")
    )
    entries.append(_entry("tri2-z2", tri2(z2, zn(2), zn_bimodule(zn(2), z2, 2))))
    entries.append(
        _entry(
            "tri3-z2",
            tri3(
                z2,
                zn(2),
                zn(2),
                zn_bimodule(zn(2), z2, 2),
                zn_bimodule(zn(2), z2, 2),
                zn_bimodule(zn(2), zn(2), 2),
            ),
        )
    )
    entries.append(
        _entry(
            "morita-z2",
            morita_zero(
                z2,
                zn(2),
                zn_bimodule(z2, zn(2), 2),
                zn_bimodule(zn(2), z2, 2),
            ),
        )
    )
    entries.append(_entry("idealization-z4-z4", idealization(z4, regular_bimodule(z4))))
    entries.append(_entry("idealization-z4-z2", idealization(z4, zn_bimodule(z4, z4, 2))))
    for base_key, base in (("z2", z2), ("z4", z4)):
        for k in (2, 3):
            entries.append(
                _entry(f"series-{base_key}-k{k}", truncated_power_series(base, k))
            )
    return entries


@lru_cache(maxsize=1)
def build_catalog() -> tuple[CatalogEntry, ...]:
    """Deterministic catalog: base rings first, then radical quotients of
    every base ring whose radical is nonzero."""
    base = _base_entries()
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
