#!/usr/bin/env python3
"""Build and run the slidb client benchmark.

    python3 clientbench/run.py --workload tm1_read --seed 1 --seconds 10 --trace 0
    python3 clientbench/run.py --selftest

Run from the root of a checkout. The benchmark and the program's library are
built from source with CMake into $CARGO_TARGET_DIR/clientbench (default
.bench_build/clientbench). The driver's output is passed through; its last
line is the JSON result. With --trace 1 the kept spans are written to
<build dir>/spans/<workload>-<seed>.bin.

Exit status: the driver's (0 ok, 1 a check failed), 2 when the build fails or
the arguments are bad, 3 when the driver does not finish in time.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("tm1_read", "tpcb", "ndbb_open")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "clientbench")


def build(targets):
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4", "--target"] + targets)
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            print("clientbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return out


def selftest():
    out = build(["clientbench_selftest"])
    if out is None:
        return 2
    rc = subprocess.run([os.path.join(out, "clientbench_selftest")],
                        timeout=RUN_TIMEOUT_S, check=False).returncode
    py = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s",
         os.path.join(HERE, "tests"), "-p", "test_*.py"],
        timeout=RUN_TIMEOUT_S, check=False).returncode
    return 0 if rc == 0 and py == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in 1..60")

    out = build(["clientbench"])
    if out is None:
        return 2
    cmd = [os.path.join(out, "clientbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, f"{args.workload}-{args.seed}.bin")]
    sys.stdout.flush()
    try:
        # run() kills the driver and waits for it when the timeout expires.
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        print("clientbench: driver timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
