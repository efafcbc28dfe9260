"""The size cap on finite rings, shared by validation and the spec language.

Kept apart from the table code so that reading a spec imports none of it.
"""

from __future__ import annotations

import os

DEFAULT_SIZE_CAP = 256
SIZE_CAP_ENV = "CLEANRINGS_SIZE_CAP"


def size_cap(override: int | None = None) -> int:
    """Effective validation cap: explicit override, else env var, else default."""
    if override is not None:
        return int(override)
    env = os.environ.get(SIZE_CAP_ENV)
    try:
        return int(env) if env else DEFAULT_SIZE_CAP
    except ValueError:
        raise ValueError(f"{SIZE_CAP_ENV} must be an integer, got {env!r}") from None
