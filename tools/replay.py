"""Replay cleanrings commands in process and print a fingerprint of each.

    python3 tools/replay.py --seeds 1 2 3 4

Run from the root of a cleanrings checkout. It runs, one after another
through `cleanrings.cli.main` in this process, the `near-cap` and
`localized` commands that `perfbench/workloads.py` makes for each seed
(pass 0), then a fixed list of finite, localized and erroneous commands,
`laws --spec` on each finite spec among them, and prints one line per
command: the argv as JSON, the exit code, and the SHA-256 of stdout and of
stderr, separated by tabs. Two checkouts behave the same on these commands
when `diff` finds no difference between their outputs. The checkout's
`src/` and `perfbench/` are read and nothing is written. Uses the standard
library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FINITE_SPECS = (
    "(zn 6)",
    "(zn 12)",
    "(matrix 2 (zn 2))",
    "(series (zn 4) 3)",
    "(product (zn 2) (zn 3))",
    "(quotient (zn 12) (ideal 4))",
    "(tri2 (zn 2) (zn 2) regular)",
    "(idealize (zn 4) (znmod 2))",
    "(corner (zn 6) 3)",
)
LOCALIZED_SPECS = ("(localized 7)", "(localized 2 3)", "(localized 3 5)", "(localized 2 3 5 7)")
# Valid and invalid elements and generators of each kind.
FINITE_ELEMENTS = ("0", "1", "3", "0x2", "9", "2/3", "x")
LOCALIZED_ELEMENTS = ("0", "3", "3/8", "2/11", "-7/2", "1/5", "1/0", "x")
FINITE_GENS = (None, ("2",), ("2", "3"), ("7",))
LOCALIZED_GENS = (None, ("3",), ("12", "18"), ("0",), ("1/5",))
CHECKS = ("clean", "weakly-clean", "uniquely", "exchange")

ERRORS = (
    ["analyze", "(zn 6", "--element", "1"],
    ["analyze", "(zn 0)", "--element", "0"],
    ["analyze", "(zn 999)", "--element", "1"],
    ["analyze", "(zn @)", "--element", "1"],
    ["analyze", "--element", "1"],
    ["radical"],
    ["radical", "(zn 6)", "--spec-file", "ring.spec"],
    ["radical", "--spec-file", "/nonexistent/ring.spec"],
    ["radical", "(localized 9)"],
    ["units", "(corner (zn 6) 7)"],
    ["ideal", "(zn 6)"],
    ["ideal", "(zn 6)", "--check", "clean", "--bound", "0"],
    ["ideal", "(localized 2 3)", "--check", "weakly-clean", "--bound", "1"],
    ["laws"],
    ["laws", "--spec", "(localized 3 5)"],
    ["laws", "--spec", "(zn 8)", "--law", "no-such-law"],
    ["laws", "--spec", "(zn 8)", "--law", "determinant-cofactor"],
    ["examples", "--bound", "1"],
    [],
)
OTHERS = (
    ["laws", "--spec", "(zn 8)"],
    ["laws", "--spec", "(zn 8)", "--law", "proper-ideals", "--json"],
    ["laws", "--catalog", "--law", "determinant-cofactor"],
    ["laws", "--catalog"],
    ["laws", "--catalog", "--json"],
    ["examples"],
    ["examples", "--json"],
)


def _spec_commands(specs, elements, gens_choices) -> list[list[str]]:
    out = []
    for spec in specs:
        out += [[command, spec] for command in ("radical", "idempotents", "units")]
        out += [["analyze", spec, f"--element={x}"] for x in elements]
        for check in CHECKS:
            for gens in gens_choices:
                argv = ["ideal", spec, "--check", check]
                out.append(argv if gens is None else [*argv, "--gens", *gens])
    return [form for argv in out for form in (argv, [*argv, "--json"])]


def commands(seeds) -> list[list[str]]:
    """The workload commands of each seed, then the fixed list."""
    import workloads

    out = []
    for seed in seeds:
        for name in ("near-cap", "localized"):
            out += [list(op.argv) for op in workloads.WORKLOADS[name](seed, 0)]
    out += _spec_commands(FINITE_SPECS, FINITE_ELEMENTS, FINITE_GENS)
    out += [["laws", "--spec", spec, *form] for spec in FINITE_SPECS for form in ((), ("--json",))]
    out += _spec_commands(LOCALIZED_SPECS, LOCALIZED_ELEMENTS, LOCALIZED_GENS)
    return out + [list(argv) for argv in (*ERRORS, *OTHERS)]


def replay(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one command run through cli.main."""
    from cleanrings import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    for command in commands(args.seeds):
        code, out, err = replay(command)
        print(json.dumps(command), code, _sha(out), _sha(err), sep="\t")
    return 0


if __name__ == "__main__":
    sys.exit(main())
