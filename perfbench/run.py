#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
                             [--save DIR] [--spans PATH]
                             [--shard-threads N] [--inject-fault KIND]

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, Release) under $CARGO_TARGET_DIR or
.bench_build; later calls only rebuild what changed. Every metric the run
measured is printed as a table on stdout, and the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics: the end_to_end
metrics of BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.
--save writes the full result (every metric, every check) to DIR for
perfbench/compare.py. With --workload all, each workload runs in turn and the
last line merges them, metric names prefixed by the workload.

Exit status: 0 when every correctness check passed, 1 when a check failed,
2 on bad usage, 3 when the build or the run itself failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail(3, "build failed: " + " ".join(cmd))
    return os.path.join(out, "incbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(binary, args, workload):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--shard-threads", str(args.shard_threads),
           "--inject-fault", args.inject_fault]
    if args.trace:
        spans = args.spans or os.path.join(
            build_dir(), "spans", f"{workload}-seed{args.seed}.tsv")
        os.makedirs(os.path.dirname(os.path.abspath(spans)), exist_ok=True)
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(3, f"{workload}: run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(3, f"{workload}: no result (exit {proc.returncode})")
    if proc.returncode not in (0, 1):
        fail(3, f"{workload}: benchmark exited with {proc.returncode}")
    return result, proc.returncode


def print_table(result):
    print(f"== {result['workload']}  seed={result['seed']} "
          f"trace={result['trace']}  correct={result['correct']}  "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, ok in sorted(result["checks"].items()):
        print(f"   check {name:<40} {'ok' if ok else 'FAILED'}")
    for name, m in sorted(result["metrics"].items()):
        print(f"   {name:<40} {m['value']:>16.6g} {m['unit']}")


def result_line_metrics(result, wanted, fill_zero):
    """The result-line metrics, in BENCHMARK.json order and units. A
    per-layer metric of a layer the workload does not exercise is absent
    from the run's result and reads 0."""
    out = {}
    for spec in wanted:
        name, unit = spec["name"], spec["unit"]
        m = result["metrics"].get(name)
        if m is None and not fill_zero:
            fail(3, f"{result['workload']}: {name} was not measured")
        m = m or {"value": 0, "unit": unit}
        if m["unit"] != unit:
            fail(3, f"{result['workload']}: {name} is in {m['unit']}, "
                    f"BENCHMARK.json says {unit}")
        out[name] = m
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--save", help="directory for the full result JSON")
    p.add_argument("--spans", help="span dump path (--trace 1)")
    p.add_argument("--shard-threads", type=int, default=4)
    p.add_argument("--inject-fault", default="none",
                   choices=("none", "snapshot-byte", "drop-frame"))
    args = p.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        fail(2, f"unknown workload {args.workload!r}; one of {names} or all")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads:
        result, code = run_one(binary, args, workload)
        status = max(status, code)
        print_table(result)
        if args.save:
            os.makedirs(args.save, exist_ok=True)
            path = os.path.join(args.save, f"{workload}-seed{args.seed}-"
                                f"trace{args.trace}.json")
            with open(path, "w") as f:
                json.dump(result, f)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for n, m in result_line_metrics(result, wanted, args.trace).items():
            merged["metrics"][n if len(workloads) == 1 else
                              f"{workload}/{n}"] = m
    print(json.dumps(merged))
    sys.exit(status)


if __name__ == "__main__":
    main()
