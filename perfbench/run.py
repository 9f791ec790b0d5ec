#!/usr/bin/env python3
"""Builds the benchmark harness and runs one workload, or checks steadiness.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steadiness RUNS [--seconds S]

The first form prints the harness's report; its last line of standard
output is the JSON result. The second runs every workload RUNS times in
interleaved order (seeds 1..RUNS) and prints, for each end-to-end metric,
its median, quartiles and spread, and the gap between the medians of odd
and even runs, each against the metric's bound in BENCHMARK.json.
Everything is built in and written under .bench_build/ at the repository
root. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("machine_cache", "machine_dispatch", "suite_quick")


def run_step(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"perfbench: {' '.join(cmd[:2])} failed with exit code {result.returncode}")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no repository sources next to perfbench/, nothing to build")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator)
    run_step(["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench_harness", "aql_bench"])


def harness_command(workload, seed, seconds, trace):
    return [
        os.path.join(BUILD, "perfbench_harness"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--aql-bench", os.path.join(BUILD, "aql", "aql_bench"),
        "--goldens", os.path.join(ROOT, "tests", "goldens", "quick"),
        "--work", os.path.join(BUILD, "work", workload),
        "--baseline", os.path.join(HERE, "baseline.json"),
    ]


def spread_report(values):
    """Median, quartiles, IQR over median, and the odd/even median gap."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    gap = abs(statistics.median(values[0::2]) - statistics.median(values[1::2]))
    gap = gap / median if median else 0.0
    return median, q1, q3, spread, gap


def steadiness(runs, seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    values = {w: {m["name"]: [] for m in metrics} for w in WORKLOADS}
    for i in range(runs):
        # Rotate the order each round so no workload always runs first.
        for k in range(len(WORKLOADS)):
            workload = WORKLOADS[(i + k) % len(WORKLOADS)]
            out = subprocess.run(harness_command(workload, i + 1, seconds, 0),
                                 capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"perfbench: {workload} seed {i + 1} failed:\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {i + 1}: correct=false", flush=True)
            for m in metrics:
                values[workload][m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"run {i + 1}/{runs} {workload}: " + ", ".join(
                f"{name}={v['value']:.6g}" for name, v in result["metrics"].items()),
                flush=True)
    print(f"\n{runs} runs per workload, {seconds} s each, seeds 1..{runs}, interleaved\n")
    print("| workload | metric | median | q1 | q3 | spread | odd/even gap | bound | |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for workload in WORKLOADS:
        for m in metrics:
            median, q1, q3, spread, gap = spread_report(values[workload][m["name"]])
            steady = spread <= m["bound"] / 3 and gap <= m["bound"]
            verdict = "ok" if steady else ("within bound" if spread <= m["bound"] else "NOISY")
            print(f"| {workload} | {m['name']} | {median:.6g} | {q1:.6g} | {q3:.6g} "
                  f"| {spread:.3f} | {gap:.3f} | {m['bound']} | {verdict} |")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS")
    args = parser.parse_args()
    if args.steadiness is None and args.workload is None:
        parser.error("give --workload or --steadiness")
    if args.steadiness is not None and args.steadiness < 4:
        parser.error("--steadiness needs at least 4 runs")

    build()
    if args.steadiness is not None:
        steadiness(args.steadiness, args.seconds)
        return 0
    return subprocess.run(harness_command(args.workload, args.seed, args.seconds,
                                          args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
