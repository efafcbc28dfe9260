"""The deterministic work counters of the traced benchmark run are pinned.

Each command runs under perfbench/traced.py in a fresh interpreter, as
perfbench/run.py runs it with --trace 1: the tracer writes its per-layer
figures to the file descriptor named by PERFBENCH_TRACE_FD. Timings drift
between machines and runs; these counts do not. A change that does less work
updates a pin on purpose, and a change that does more work says why.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

COUNTERS = (
    "core.validate_calls",
    "core.validated_elements",
    "constructions.rings_built",
    "ideals.closure_calls",
    "ideals.sum_calls",
    "analysis.scan_elements",
    "analysis.decompositions_calls",
    "localized.searches",
)

PINS = {
    # the lattice walk spans each pair on masks and sums only the 10 new ideals
    ("laws", "--catalog", "--json"): (149, 1988, 149, 198, 10, 6528, 32, 1203),
    ("laws", "--spec", "(series (zn 4) 4)", "--json"): (3, 262, 3, 16, 0, 2813, 0, 0),
    ("ideal", "(series (zn 4) 4)", "--gens", "16", "--check", "weakly-clean", "--json"): (
        2, 260, 2, 1, 0, 64, 0, 0,
    ),
}


def _traced(argv) -> dict:
    """The per-layer sums that traced.py reports for one command."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("CLEANRINGS_SIZE_CAP", None)  # the benchmark measures the default cap
    with tempfile.TemporaryFile() as sink:
        env["PERFBENCH_TRACE_FD"] = str(sink.fileno())
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "traced.py"), *argv],
            env=env,
            pass_fds=(sink.fileno(),),
            stdin=subprocess.DEVNULL,
            capture_output=True,
            timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        sink.seek(0)
        return json.loads(sink.read())["sums"]


@pytest.mark.parametrize("argv", list(PINS), ids=lambda argv: " ".join(argv[:2]))
def test_traced_work_counters_are_pinned(argv):
    sums = _traced(argv)
    assert dict(zip(COUNTERS, (sums[name] for name in COUNTERS))) == dict(zip(COUNTERS, PINS[argv]))
