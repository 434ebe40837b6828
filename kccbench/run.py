#!/usr/bin/env python3
"""Build the kccbench binary from source and run one benchmark workload.

Usage, from the root of the repository:

    python3 kccbench/run.py --workload cpm_full --seed 1 --seconds 10 --trace 0

Workloads: cpm_full, update_flap, serve_mix (README.md says what each one
measures). --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics of a traced run, whose spans go to
.bench_build/traces/<workload>-seed<seed>.jsonl. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit status is 0 only when every checked output was correct.

--scale test runs the small synthetic topology (seconds instead of minutes
of set-up; the self-test uses it) and --corrupt-oracle flips one expected
answer so that the run must fail.

The first run configures and builds the binary and the library it links
(Release, under .bench_build/); later runs rebuild only what changed. Build
output goes to standard error, and only when the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "kccbench")
BINARY = os.path.join(BUILD_DIR, "kccbench")
WORKLOADS = ("cpm_full", "update_flap", "serve_mix")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the binary; exits 2 on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "kccbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("kccbench: build step failed: %s\n" % " ".join(step))
            sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="paper", choices=("paper", "test"))
    parser.add_argument("--corrupt-oracle", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    # Relative paths keep the server's unix socket path short.
    work_dir = os.path.join(".bench_build", "run-%d" % os.getpid())
    traces = os.path.join(".bench_build", "traces")
    os.makedirs(os.path.join(ROOT, traces), exist_ok=True)
    cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace,
           "--scale=" + args.scale, "--work-dir=" + work_dir,
           "--spans-out=" + os.path.join(
               traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    if args.corrupt_oracle:
        cmd.append("--corrupt-oracle")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the binary and waits for it before raising.
        sys.stderr.write("kccbench: run timed out after %d s\n" % RUN_TIMEOUT_S)
        return 3
    finally:
        shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
