"""tools/replay.py: the fingerprints it prints do not change between runs."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _replay(*argv: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "replay.py"), *argv],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout.splitlines()


def test_two_runs_print_the_same_lines():
    first = _replay("--seeds", "1")
    assert first == _replay("--seeds", "1")
    codes = {}
    for line in first:
        argv, code, out, err = line.split("\t")
        json.loads(argv)
        assert len(out) == len(err) == 64
        codes[code] = codes.get(code, 0) + 1
    # verdicts both ways and diagnostics, but never an internal error
    assert set(codes) == {"0", "1", "2"}
