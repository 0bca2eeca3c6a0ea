#!/usr/bin/env python3
"""Run every workload repeatedly and report how steady each metric is.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workloads a,b] [--trace 0|1]
                                    [--overhead] [--seconds N]

Run from the repository root. Each run uses its own seed (first-seed,
first-seed+1, ...). For every metric of every workload the script prints
the median, the first and third quartile (statistics.quantiles(n=4)) and
the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json. A spread above the bound fails the check; one above a
third of the bound is flagged, as it leaves little margin for a second
set of runs to land within the bound. setup_s is exempt from both: each
run times one cold set-up, so its spread is that of single samples, and
only its median is meant to be compared between two sets of runs. The
script also checks that every run was correct and that failed/attempted
is exactly the same share in every run of a workload. It exits 1 if any
check fails.

With --trace 1 the runs are traced: the per-layer metrics are summarised,
and the tracing overhead is reported as the median of each end-to-end
metric in the traced runs (the "# end_to_end" line they print) against
the untraced median, which needs an untraced pass with the same seeds
first; --overhead runs both passes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

ROOT = os.getcwd()


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    e2e = None
    for line in lines:
        if line.startswith("# end_to_end "):
            e2e = json.loads(line[len("# end_to_end "):])
    return result, e2e


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--overhead", action="store_true",
                        help="run untraced and traced passes over the same seeds")
    parser.add_argument("--seconds", type=int, default=0,
                        help="run length (default: run_seconds from BENCHMARK.json)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    passes = [0, 1] if args.overhead else [args.trace]
    seeds = range(args.first_seed, args.first_seed + args.runs)

    ok = True
    for workload in workloads:
        e2e_medians = {}
        for trace in passes:
            results, e2es = [], []
            for seed in seeds:
                result, e2e = run_once(workload, seed, seconds, trace)
                results.append(result)
                e2es.append(e2e)
                print(f"  {workload} seed {seed} trace {trace}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            shares = {Fraction(r["failed"], r["attempted"]) for r in results}
            correct = all(r["correct"] for r in results)
            ok &= correct and len(shares) == 1
            print(f"\n{workload} (trace {trace}, {len(results)} runs, {seconds} s): "
                  f"all correct={correct}, failed share={sorted(str(s) for s in shares)}")
            print(f"  {'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
            for name in results[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in results]
                unit = results[0]["metrics"][name]["unit"]
                med, q1, q3, spread = summarise(values)
                bound = bounds.get(name)
                flag = ""
                if bound is not None and name != "setup_s":
                    if spread > bound:
                        flag = "  <-- SPREAD ABOVE BOUND"
                        ok = False
                    elif spread > bound / 3:
                        flag = "  <-- spread above bound/3"
                print(f"  {name + ' [' + unit + ']':36} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                      f"{spread:8.4f} {'' if bound is None else bound:>6}{flag}")
            e2e_medians[trace] = {
                name: statistics.median([e[name]["value"] for e in e2es]) for name in e2es[0]}
        if len(e2e_medians) == 2:
            print(f"\n{workload}: tracing overhead (traced median - untraced median)")
            for name, untraced in e2e_medians[0].items():
                traced = e2e_medians[1][name]
                print(f"  {name:28} untraced {untraced:12.6g} traced {traced:12.6g} "
                      f"diff {traced - untraced:+12.6g} ({(traced - untraced) / untraced:+.1%})")
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
