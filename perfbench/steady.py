#!/usr/bin/env python3
"""Steadiness summary of the repository benchmark.

    python3 perfbench/steady.py [--first-seed 1] [--out summary.json]
                                [--baseline old.json]

Runs every workload of BENCHMARK.json untraced, for its run_seconds,
once per seed (seeds first-seed .. first-seed + 9) through
perfbench/run.py, then prints for every workload x end-to-end metric the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median beside the metric's bound from BENCHMARK.json. A
spread within a third of the bound is "steady". With --baseline (an
earlier --out file) it also compares medians: a median worse than the
baseline's by more than the bound is a regression. Exits non-zero when
a run fails, a spread exceeds its bound, or a median regresses.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    ok = proc.returncode == 0 and result is not None and result["correct"]
    return ok, result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "values": values}


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write the summary as JSON here")
    parser.add_argument("--baseline", help="an earlier --out file to compare")
    args = parser.parse_args()

    metrics = bench["end_to_end"]
    baseline = None
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)
    summary = {}
    bad = []
    for workload in [w["name"] for w in bench["workloads"]]:
        values = {m["name"]: [] for m in metrics}
        for seed in range(args.first_seed, args.first_seed + RUNS):
            ok, result = run(workload, seed, bench["run_seconds"])
            if not ok:
                bad.append(f"{workload} seed {seed}: run failed")
            if result is None:
                continue
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                for m in metrics), flush=True)
        summary[workload] = {}
        for m in metrics:
            if len(values[m["name"]]) < 2:
                continue
            s = summarize(values[m["name"]])
            summary[workload][m["name"]] = s
            if s["spread"] <= m["bound"] / 3:
                verdict = "steady"
            elif s["spread"] <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                bad.append(f"{workload} {m['name']}: spread {s['spread']:.3f}"
                           f" > bound {m['bound']}")
            line = (f"{workload:18} {m['name']:15} median {s['median']:<12.6g}"
                    f" q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g}"
                    f" spread {s['spread']:6.3f}  bound {m['bound']:<5}"
                    f" {verdict}")
            if baseline and m["name"] in baseline.get(workload, {}):
                base = baseline[workload][m["name"]]["median"]
                change = (s["median"] - base) / base
                worse = change if m["better"] == "lower" else -change
                line += f"  vs baseline {change:+.3f}"
                if worse > m["bound"]:
                    line += " REGRESSED"
                    bad.append(f"{workload} {m['name']}: median moved "
                               f"{change:+.3f} against bound {m['bound']}")
            print(line, flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
    for line in bad:
        print("FAIL: " + line)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
