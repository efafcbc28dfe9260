"""Benchmark for the cleanrings command line.

    python3 perfbench/run.py --workload {catalog,near-cap,localized}
                             --seed N --seconds S --trace {0,1}

Run from the root of a cleanrings checkout (the program is imported from
./src). Each operation is one fresh `python -m cleanrings.cli ...` process,
run one at a time. The run repeats whole passes over the workload's command
list until S seconds of passes have gone by, checks every output with the
independent checks in checks.py, and prints one JSON object as its last
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 every command runs under
traced.py and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SRC = ROOT / "src"

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("CLEANRINGS_SIZE_CAP", None)  # measure the default size cap
    return env


def spawn(argv, env, pass_fds=()):
    """Run one process to its end; (exit code, stdout, stderr, wall s, rusage)."""
    with tempfile.TemporaryFile(dir=ROOT) as out, tempfile.TemporaryFile(dir=ROOT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, pass_fds=pass_fds
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        decoded = (f.read().decode("utf-8", "replace") for f in (out, err))
        return (proc.returncode, *decoded, wall, usage)


def measure_setup(env) -> float:
    """Wall time of one fresh interpreter that imports cleanrings and exits."""
    code = "import cleanrings, sys; sys.stdout.write(cleanrings.__file__)"
    rc, out, err, wall, _ = spawn([sys.executable, "-c", code], env)
    if rc != 0 or not Path(out).resolve().is_relative_to(SRC):
        raise SystemExit(f"cleanrings does not import from {SRC}: {err.strip()[-300:]}")
    return wall


def run_op(op, env, trace):
    """(timing record, (exit code, stdout, stderr)) of one operation."""
    if not trace:
        rc, out, err, wall, usage = spawn([sys.executable, "-m", "cleanrings.cli", *op.argv], env)
        layers = None
    else:
        with tempfile.TemporaryFile(dir=ROOT) as sink:
            env = dict(env, PERFBENCH_TRACE_FD=str(sink.fileno()))
            argv = [sys.executable, str(HERE / "traced.py"), *op.argv]
            rc, out, err, wall, usage = spawn(argv, env, pass_fds=(sink.fileno(),))
            sink.seek(0)
            layers = json.loads(sink.read() or b"null")
    record = {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "layers": layers,
    }
    return record, (rc, out, err)


def end_to_end(passes, setup_s, units) -> dict:
    per_pass = [
        {
            "wall_s": sum(r["wall"] for r in records),
            "op_median_s": statistics.median(r["wall"] for r in records),
            "cpu_s": sum(r["cpu"] for r in records),
            "peak_rss_mb": max(r["rss_mb"] for r in records),
        }
        for records in passes
    ]
    values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    values["setup_s"] = setup_s
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def per_layer(passes, units) -> dict:
    per_pass = []
    for records in passes:
        layers = [r["layers"] for r in records if r["layers"]]
        figures = {}
        for name in layers[0]["sums"]:
            figures[name] = sum(layer["sums"][name] for layer in layers)
        for name in layers[0]["ratios"]:
            num = sum(layer["ratios"][name][0] for layer in layers)
            den = sum(layer["ratios"][name][1] for layer in layers)
            figures[name] = num / den if den else 0.0
        figures["cli.main_s"] = statistics.median(layer["main_s"] for layer in layers)
        per_pass.append(figures)
    return {
        name: {"value": statistics.median(p[name] for p in per_pass), "unit": unit}
        for name, unit in units.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cleanrings" / "cli.py").is_file():
        print(f"run.py: no cleanrings source under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    # Build: byte-compile the package so that every process, the first one
    # included, starts from the same compiled modules.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "cleanrings")], check=True)
    env = child_env()
    setup_s = measure_setup(env)

    make_pass = workloads.WORKLOADS[args.workload]
    state: dict = {}
    passes, attempted, failed, wrong, known = [], 0, 0, [], {}
    started = time.perf_counter()
    min_passes = workloads.MIN_PASSES.get(args.workload, 1)
    while len(passes) < min_passes or time.perf_counter() - started < args.seconds:
        records = []
        for op in make_pass(args.seed, len(passes)):
            record, result = run_op(op, env, args.trace)
            problems = op.check(*result, state)
            attempted += 1
            if problems:
                failed += 1
                if op.known_fault:
                    known[op.argv] = problems
                else:
                    wrong.append((op.argv, problems))
            records.append(record)
        passes.append(records)

    for argv, problems in known.items():
        print(f"known fault: {' '.join(argv)}: {'; '.join(problems)}", file=sys.stderr)
    for argv, problems in wrong:
        print(f"WRONG: {' '.join(argv)}: {'; '.join(problems)}", file=sys.stderr)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.trace:
        metrics = per_layer(passes, {m["name"]: m["unit"] for m in spec["per_layer"]})
    else:
        metrics = end_to_end(passes, setup_s, {m["name"]: m["unit"] for m in spec["end_to_end"]})
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
