"""Run one cleanrings command with a span around every call into each layer.

Usage: PERFBENCH_TRACE_FD=<fd> python traced.py <cleanrings arguments...>

The program is not changed: before the command runs, every public function
of every cleanrings module, the private kernels analysis._scan_masks and
localized._search_grid, and the output helpers of the command line are
replaced by timing wrappers wherever a module (or a registry inside a
module) binds them. The command's stdout, stderr and exit code are those of
`python -m cleanrings.cli`. At exit one JSON object with this process's
per-layer figures is written to the file descriptor named by
PERFBENCH_TRACE_FD.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import sys
import time

import cleanrings

MODULES = [
    importlib.import_module(f"cleanrings.{info.name}")
    for info in pkgutil.iter_modules(cleanrings.__path__)
]
from cleanrings import cli, laws  # noqa: E402  (after the walk above)
from cleanrings.core import FiniteRing  # noqa: E402

# Private functions wrapped as well: the two kernels, and the command-line
# helpers that render output or build per-element witnesses.
PRIVATE = (
    "analysis._scan_masks",
    "localized._search_grid",
    "localized._first_hit",
    "cli._emit",
    "cli._emit_json",
    "cli._finite_witness",
)


class Tracer:
    """Spans (name, duration, parent index) kept in memory, plus counters.

    Counters run after their span has closed; the time they take is added to
    `paused` and subtracted from every span still open, so counting does not
    show up as work of any layer.
    """

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.paused = 0.0
        self.counts: dict[str, float] = {}
        self.closures: set = set()
        self.grid_needed: list[int] = []

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def wrap(self, name: str, fn, counter=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            paused = self.paused
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, end - start - (self.paused - paused), parent)
            if counter is not None:
                begin = clock()
                counter(self, args, kwargs, result)
                self.paused += clock() - begin
            return result

        return wrapper

    # -- aggregation ----------------------------------------------------------

    @functools.cached_property
    def _index(self):
        """(child time of each span, span indices by name); read after the run."""
        children = [0.0] * len(self.spans)
        by_name: dict[str, list[int]] = {}
        for i, (name, duration, parent) in enumerate(self.spans):
            if parent >= 0:
                children[parent] += duration
            by_name.setdefault(name, []).append(i)
        return children, by_name

    def totals(self, names) -> tuple[float, float, int]:
        """(outermost inclusive time, self time, calls) over a set of span names.

        Inclusive time counts only spans with no ancestor in the set, so a
        recursive or nested call is not counted twice.
        """
        children, by_name = self._index
        names = set(names)
        inclusive = own = 0.0
        calls = 0
        for name in names:
            for i in by_name.get(name, ()):
                _, duration, parent = self.spans[i]
                calls += 1
                own += duration - children[i]
                while parent >= 0 and self.spans[parent][0] not in names:
                    parent = self.spans[parent][2]
                if parent < 0:
                    inclusive += duration
        return inclusive, own, calls


# -- counters, run after the span they belong to ---------------------------------


def _validated(tracer, args, kwargs, result):
    tracer.count("core.validated_elements", args[0] if args else kwargs["order"])


def _built(tracer, args, kwargs, result):
    ring = result[0] if isinstance(result, tuple) and result else getattr(result, "ring", result)
    if isinstance(ring, FiniteRing):
        tracer.count("constructions.rings_built")


def _closure(tracer, args, kwargs, result):
    tracer.closures.add((result.ring, result.members))


def _scanned(tracer, args, kwargs, result):
    members = args[1] if len(args) > 1 else kwargs["members"]
    tracer.count("analysis.scan_elements", len(members))


def _grid(tracer, args, kwargs, result):
    cells = int(result[2].size)
    tracer.count("localized.grid_cells", cells)
    tracer.grid_needed.append(0)


def _first_hit(tracer, args, kwargs, result):
    """Cells of the latest grid in front of the first hit (all, if none)."""
    mask = args[0]
    hits = mask.ravel().nonzero()[0]
    needed = int(hits[0]) if hits.size else int(mask.size)
    if tracer.grid_needed:
        tracer.grid_needed[-1] = max(tracer.grid_needed[-1], needed)


COUNTERS = {
    "core.validate_ring": _validated,
    "ideals.ideal_closure": _closure,
    "analysis._scan_masks": _scanned,
    "localized._search_grid": _grid,
    "localized._first_hit": _first_hit,
}


def install(tracer: Tracer) -> None:
    """Rebind every target in every module namespace and registry."""
    wrapped: dict[int, object] = {}
    for module in MODULES:
        short = module.__name__.rsplit(".", 1)[1]
        for attr, value in list(vars(module).items()):
            public = not attr.startswith("_") and callable(value) and not isinstance(value, type)
            if (public and getattr(value, "__module__", None) == module.__name__) or (
                f"{short}.{attr}" in PRIVATE
            ):
                name = f"{short}.{attr}"
                counter = COUNTERS.get(name)
                if counter is None and short == "constructions":
                    counter = _built
                wrapped[id(value)] = tracer.wrap(name, value, counter)

    def rebind(value):
        if id(value) in wrapped:
            return wrapped[id(value)]
        if isinstance(value, tuple):
            items = tuple(rebind(v) for v in value)
            if any(a is not b for a, b in zip(items, value)):
                return items
        return value

    for module in (cleanrings, *MODULES):
        for attr, value in list(vars(module).items()):
            if isinstance(value, dict) and not attr.startswith("__"):
                for key, item in list(value.items()):
                    value[key] = rebind(item)
            elif rebind(value) is not value:
                setattr(module, attr, rebind(value))


def layer_figures(tracer: Tracer, law_functions) -> dict:
    """Per-layer sums of this process; the driver adds them up per pass."""

    def span_names(prefix):
        return {s[0] for s in tracer.spans if s[0].startswith(prefix)}

    def incl(*names):
        return tracer.totals(names)[0]

    def own(*names):
        return tracer.totals(names)[1]

    def calls(*names):
        return tracer.totals(names)[2]

    searches = ("localized.witness_search", "localized.uniqueness_witness_search", "localized.sign_class_survey")
    emit = ("cli._emit", "cli._emit_json", "cli._finite_witness", "laws.reports_to_json", "laws.summarize")
    sums = {
        "core.validate_s": incl("core.validate_ring"),
        "core.validate_calls": calls("core.validate_ring"),
        "core.validated_elements": tracer.counts.get("core.validated_elements", 0),
        "constructions.build_s": own(*span_names("constructions.")),
        "constructions.rings_built": tracer.counts.get("constructions.rings_built", 0),
        "dsl.parse_s": own("dsl.parse"),
        "dsl.size_estimate_s": incl("dsl.size_estimate"),
        "dsl.build_s": own("dsl.build"),
        "catalog.build_s": incl("catalog.build_catalog"),
        "ideals.closure_s": incl("ideals.ideal_closure"),
        "ideals.closure_calls": calls("ideals.ideal_closure"),
        "ideals.principal_s": incl("ideals.principal_ideals"),
        "ideals.lattice_s": own("ideals.all_ideals"),
        "ideals.sum_calls": calls("ideals.ideal_sum"),
        "ideals.is_ideal_s": incl("ideals.is_ideal"),
        "analysis.scan_s": incl("analysis._scan_masks"),
        "analysis.scan_elements": tracer.counts.get("analysis.scan_elements", 0),
        "analysis.decompositions_s": incl("analysis.decompositions"),
        "analysis.decompositions_calls": calls("analysis.decompositions"),
        "analysis.exchange_s": incl("analysis.is_weakly_exchange_element", "analysis.ideal_is_weakly_exchange"),
        "localized.grid_s": incl("localized._search_grid"),
        "localized.grid_cells": tracer.counts.get("localized.grid_cells", 0),
        "localized.searches": calls(*searches),
        "laws.run_ring_s": incl("laws.run_ring"),
        "cli.emit_s": incl(*emit),
        "cli.witness_calls": calls("cli._finite_witness"),
    }
    for law_id, fn in law_functions:
        sums[f"laws.{law_id}_s"] = incl(f"laws.{fn.__name__}")
    return {
        "sums": sums,
        # numerator and denominator of the two ratios, summed per pass
        "ratios": {
            "ideals.closure_yield": [len(tracer.closures), calls("ideals.ideal_closure")],
            "localized.first_hit_share": [sum(tracer.grid_needed), tracer.counts.get("localized.grid_cells", 0)],
        },
        "main_s": incl("cli.main"),
    }


def main() -> None:
    out = os.fdopen(int(os.environ["PERFBENCH_TRACE_FD"]), "w")
    law_functions = laws.LAW_FUNCTIONS
    tracer = Tracer()
    install(tracer)
    try:
        code = cli.main(sys.argv[1:])
    finally:
        with out:
            json.dump(layer_figures(tracer, law_functions), out)
    sys.exit(code)


if __name__ == "__main__":
    main()
