"""Record perfbench runs in a checked-in file, BENCH_<tag>.json.

    python3 tools/bench_record.py --tag NAME --parent DIR --seeds 1 2 ... 10
                                  [--workloads W ...]

Run from the root of a cleanrings checkout. For every workload and seed it
runs `perfbench/run.py --trace 0` in this checkout and in the checkout of
the parent commit at DIR, alternating which of the two goes first from one
seed to the next so that slow phases of the machine fall on both sides. The
run length is BENCHMARK.json's `run_seconds`; the workloads W default to
BENCHMARK.json's. The file holds every result line with its side, workload
and seed; the median of each end-to-end metric per side and workload; per
workload and metric, the parent's spread between quartiles, the number of
seeds on which the change did better, how much worse the change's median is
than the parent's as a fraction of the parent's (negative when it is
better) and whether that stays within the metric's BENCHMARK.json bound;
and the Python and numpy versions,
CPU count, date, and git revision and source size (the `wc -l` total of
src/cleanrings/*.py) of each side, read before the first run. After the
untraced runs it makes one `--trace 1` run per workload and side, with the
first seed, and stores its per-layer metrics under "traced". Last, it runs the Tier-1 suite
(`python -m pytest -q --continue-on-collection-errors` with src on
PYTHONPATH, as ROADMAP.md gives it) twice per side, in the order parent,
change, change, parent, and stores under "tier1" per side every run's wall
time, exit code, outcome counts and summary line, with the median wall time
and the last run's other figures on top. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path


def revision(root: Path) -> dict:
    """The checkout's git commit, whether its tree differs from it, and the
    line count of its src/cleanrings/*.py files."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)

    src_lines = sum(path.read_bytes().count(b"\n") for path in (root / "src" / "cleanrings").glob("*.py"))
    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return {"commit": None, "dirty": None, "src_lines": src_lines}
    dirty = bool(git("status", "--porcelain").stdout.strip())
    return {"commit": head.stdout.strip(), "dirty": dirty, "src_lines": src_lines}


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """The result line of one perfbench run in the checkout at root."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {root} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_tier1(root: Path) -> dict:
    """Wall time and outcome of one run of the Tier-1 suite in the checkout at root."""
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    summary = lines[-1] if lines else ""
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed)", summary)}
    return {"wall_s": wall, "returncode": proc.returncode, "passed": counts.get("passed", 0),
            "counts": counts, "summary": summary}


def medians(runs: list[dict]) -> dict:
    """Per side and workload: the median of each metric and the failed share."""
    out: dict = {}
    for side in sorted({r["side"] for r in runs}):
        for workload in sorted({r["workload"] for r in runs if r["side"] == side}):
            mine = [r["result"] for r in runs if (r["side"], r["workload"]) == (side, workload)]
            metrics = {
                name: {"value": statistics.median(m["metrics"][name]["value"] for m in mine), "unit": unit["unit"]}
                for name, unit in mine[0]["metrics"].items()
            }
            out.setdefault(side, {})[workload] = {
                "runs": len(mine),
                "correct": all(m["correct"] for m in mine),
                "failed": f"{sum(m['failed'] for m in mine)}/{sum(m['attempted'] for m in mine)}",
                "median": metrics,
            }
    return out


def pairs(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and end-to-end metric: the parent's quartile spread, on
    how many seeds the change did better than the parent, and the no-regression
    gate: `worse_by`, (change median - parent median) / parent median with the
    sign flipped where higher is better, and `within_bound`, whether that is
    at most the metric's bound (null where the metric declares none)."""
    out: dict = {}
    for workload in sorted({r["workload"] for r in runs}):
        by_seed: dict = {}
        for r in runs:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
        for metric in end_to_end:
            name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
            values = [(s["parent"][name]["value"], s["change"][name]["value"]) for s in by_seed.values()]
            q1, _, q3 = statistics.quantiles([p for p, _ in values], n=4)
            parent, change = (statistics.median(side) for side in zip(*values))
            worse, scale, bound = sign * (change - parent), abs(parent), metric.get("bound")
            out.setdefault(workload, {})[name] = {
                "parent_iqr": q3 - q1,
                "change_better": f"{sum(sign * (c - p) < 0 for p, c in values)}/{len(values)}",
                "worse_by": worse / scale if scale else None,
                "within_bound": None if bound is None else worse <= bound * scale,
            }
    return out


def main(argv=None) -> int:
    root = Path.cwd().resolve()
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True, help="the file is BENCH_<tag>.json")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", choices=workloads, default=workloads)
    parser.add_argument("--parent", type=Path, required=True, help="a checkout of the parent commit")
    args = parser.parse_args(argv)

    seconds = benchmark["run_seconds"]
    sides = {"change": root, "parent": args.parent.resolve()}
    # Read before the first run, so that edits made while the runs go on are
    # not taken for the measured trees.
    revisions = {side: revision(path) for side, path in sides.items()}
    runs = []
    for workload in args.workloads:
        for i, seed in enumerate(args.seeds):
            order = list(sides) if i % 2 else list(sides)[::-1]
            for side in order:
                result = run_once(sides[side], workload, seed, seconds)
                runs.append({"side": side, "workload": workload, "seed": seed, "result": result})
                print(json.dumps(runs[-1]), file=sys.stderr)
    traced: dict = {}
    for workload in args.workloads:
        for side, path in sides.items():
            traced.setdefault(side, {})[workload] = run_once(path, workload, args.seeds[0], seconds, trace=1)
            print(json.dumps({"side": side, "workload": workload, "traced": traced[side][workload]}), file=sys.stderr)
    suites: dict = {}
    for side in ("parent", "change", "change", "parent"):
        suites.setdefault(side, []).append(run_tier1(sides[side]))
        print(json.dumps({"side": side, "tier1": suites[side][-1]}), file=sys.stderr)
    tier1 = {
        side: {**mine[-1], "wall_s": statistics.median(r["wall_s"] for r in mine), "runs": mine}
        for side, mine in suites.items()
    }

    record = {
        "tag": args.tag,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "cpus": os.cpu_count(),
        "seconds": seconds,
        "revisions": revisions,
        "runs": runs,
        "medians": medians(runs),
        "pairs": pairs(runs, benchmark["end_to_end"]),
        "traced": traced,
        "tier1": tier1,
    }
    (root / f"BENCH_{args.tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
