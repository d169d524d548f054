#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload point_tx --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/ (which compiles the engine from src/) into .bench_build/
at the repository root on first use, then runs one workload and forwards
its output. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. A traced run (--trace 1) also
writes a sample of its spans to .bench_build/spans/.

Exits non-zero without printing a result when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("point_tx", "kv_open_loop")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            # Build output goes to stderr: stdout carries only the result.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")


def run(cmd):
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(e.stderr or "")
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    return done


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true",
                    help="check that every output check rejects an "
                         "off-by-one tally, then exit")
    args = ap.parse_args()

    if args.self_test:
        build()
        done = run([BINARY, "--self-test"])
        sys.stdout.write(done.stdout)
        sys.exit(done.returncode)

    if args.workload is None or args.seed is None or args.seconds is None \
            or args.trace is None:
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0:
        ap.error("--seed must be a whole number >= 0")
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be in [1, 60]")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, f"{args.workload}-seed{args.seed}.tsv")]
    done = run(cmd)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        fail(f"benchmark exited {done.returncode}")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if not ok:
        sys.stderr.write(done.stdout)
        fail("benchmark did not end with a result line")
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
