#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

    python3 kccbench/selftest.py

On the small test-scale topology, for every workload:
  * a clean run must exit 0 and report correct, failed == 0;
  * a run with --corrupt-oracle (one wrong expected digest or oracle
    answer) must exit non-zero and report correct == false, failed > 0;
  * a traced run must exit 0 and report every per-layer metric named in
    BENCHMARK.json, with fail_ratio 0.
Exits 0 when every case holds. Takes about a minute after the first build.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, corrupt):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--scale", "test"]
    if corrupt:
        cmd.append("--corrupt-oracle")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    per_layer = [m["name"] for m in spec["per_layer"]]
    failures = []

    def expect(cond, what):
        print("%s %s" % ("ok  " if cond else "FAIL", what), flush=True)
        if not cond:
            failures.append(what)

    for w in [x["name"] for x in spec["workloads"]]:
        code, out = run(w, 0, False)
        expect(code == 0 and out and out["correct"] and out["failed"] == 0,
               "%s: clean run passes its checks" % w)
        code, out = run(w, 0, True)
        expect(code != 0 and out is not None and not out["correct"]
               and out["failed"] > 0 and out["failed"] / out["attempted"] > 0,
               "%s: a wrong oracle answer makes fail_ratio > 0 and exit non-zero" % w)
        code, out = run(w, 1, False)
        expect(code == 0 and out is not None
               and sorted(out["metrics"]) == sorted(per_layer)
               and out["metrics"]["fail_ratio"]["value"] == 0,
               "%s: traced run reports every per-layer metric" % w)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
