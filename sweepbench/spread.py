#!/usr/bin/env python3
"""Run the sweep benchmark N times per workload and print each metric's
median, quartiles and spread.

Usage (from the repository root):

    python3 sweepbench/spread.py [--runs N] [--first-seed K] [--seconds S]
                                 [--trace 0|1] [WORKLOAD ...]

Reads the command, workloads, run length and bounds from BENCHMARK.json.
Seeds are K, K+1, ..., K+N-1. The spread of a metric is
(q3 - q1) / median, with the quartiles of statistics.quantiles(n=4);
`ok` marks an end-to-end spread below a third of the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    for workload in workloads:
        results = [run_once(bench["command"], workload, seed, seconds, args.trace)
                   for seed in range(args.first_seed, args.first_seed + args.runs)]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"== {workload}: {args.runs} runs, failed share(s) {shares}, "
              f"all correct: {all(r['correct'] for r in results)}")
        print(f"{'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
              f"{'bound':>6}  ok")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            ok = "" if bound is None or name == "setup_s" else \
                ("yes" if spread < bound / 3 else "NO")
            print(f"{name + ' (' + unit + ')':<36} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {bound if bound is not None else '':>6}  {ok}")


if __name__ == "__main__":
    main()
