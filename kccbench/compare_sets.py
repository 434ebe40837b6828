#!/usr/bin/env python3
"""Run the benchmark in sets and report each metric's median and quartiles.

    python3 kccbench/compare_sets.py --workloads cpm_full,serve_mix \\
        --runs 10 --sets 2 --first-seed 1 --trace 0

Each set runs every workload --runs times, one fresh process per run, with
seeds --first-seed .. --first-seed + runs - 1 (the same seeds in every
set). For each workload and metric it prints, per set, the median, the
first and third quartiles (statistics.quantiles(values, n=4)) and the
spread (q3 - q1) / median, then each later set's median relative to the
first set's. Metrics whose bound in BENCHMARK.json is exceeded by the
spread, or by a later set's worsening, are flagged. Raw results go to
.bench_build/compare_sets.json.

To compare two commits, run this script in a checkout of each with the
same arguments; a claimed gain must also hold at a seed not used while
writing the change.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("compare_sets: %s seed %d failed (exit %d)"
                 % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="cpm_full,update_flap,serve_mix")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")

    raw = {}  # workload -> set -> list of result objects
    for s in range(args.sets):
        for w in workloads:
            for i in range(args.runs):
                seed = args.first_seed + i
                result = run_once(w, seed, seconds, args.trace)
                raw.setdefault(w, {}).setdefault(s, []).append(result)
                print("set %d %-11s seed %-3d %s" % (
                    s, w, seed, " ".join("%s=%.6g" % (k, v["value"])
                                         for k, v in result["metrics"].items())),
                      flush=True)
    with open(os.path.join(ROOT, ".bench_build", "compare_sets.json"), "w") as f:
        json.dump(raw, f, indent=1)

    ok = True
    print("\n%-11s %-24s %4s %14s %14s %14s %8s %8s" % (
        "workload", "metric", "set", "median", "q1", "q3", "spread", "vs set0"))
    for w in workloads:
        for metric in raw[w][0][0]["metrics"]:
            first_median = None
            for s in range(args.sets):
                values = [r["metrics"][metric]["value"] for r in raw[w][s]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                spread = (q3 - q1) / med if med else float("nan")
                rel = 0.0 if first_median is None else med / first_median - 1
                if first_median is None:
                    first_median = med
                bound = bounds.get(metric)
                flag = ""
                if bound is not None and spread > bound:
                    flag += " SPREAD>BOUND"
                if bound is not None and s > 0:
                    better = next(m["better"] for m in spec["end_to_end"]
                                  if m["name"] == metric)
                    worse = rel if better == "lower" else -rel
                    if worse > bound:
                        flag += " WORSE>BOUND"
                ok = ok and not flag
                print("%-11s %-24s %4d %14.6g %14.6g %14.6g %8.4f %+8.4f%s" % (
                    w, metric, s, med, q1, q3, spread, rel, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
