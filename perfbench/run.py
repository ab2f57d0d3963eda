#!/usr/bin/env python3
"""Builds the repository benchmark and runs one workload (or all four).

    python3 perfbench/run.py --workload hogwild_dense --seed 1 --seconds 10 --trace 0

Run from the root of the repository. The first run configures and builds
the program and the benchmark from source into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later runs rebuild only what changed.
Each workload runs in its own process with the seed as its argument.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1 (the traced run also
writes <build>/traces/<workload>.trace.json). `--workload all` runs the
four workloads one after another and prints their metrics as
"<workload>.<metric>". The exit code is non-zero when a build fails, a
workload fails an output check, or a run does not finish.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["hogwild_dense", "cluster_dense_tcp", "cluster_sparse", "serve_gate"]
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(root), "perfbench")


def build(out):
    """Configures (once) and builds the benchmark binary; returns its path."""
    cache = os.path.join(out, "CMakeCache.txt")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def run_one(binary, args, workload, trace_dir):
    """Runs one workload; returns (exit code, stdout lines, result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", trace_dir]
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, [], None
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"perfbench: {workload} printed no result", file=sys.stderr)
        return proc.returncode or 1, lines, None
    return proc.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--inject", choices=["wrong_score", "nonfinite_model"],
                        help="corrupt one output to prove the checks trip")
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    trace_dir = os.path.join(out, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    if args.workload != "all":
        code, lines, result = run_one(binary, args, args.workload, trace_dir)
        if result is None:
            sys.exit(code or 1)
        print("\n".join(lines))
        sys.exit(code)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, lines, result = run_one(binary, args, workload, trace_dir)
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        if result is None:
            sys.exit(code or 1)
        worst = worst or code
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()
