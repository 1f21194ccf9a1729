#!/usr/bin/env python3
"""Builds and runs the wall-clock benchmark.

    python3 wallbench/run.py --workload kernels|traffic|compile \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
benchmark (and the repository's library it links) under .bench_build/ in
that checkout; later runs only bring the build up to date. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
A traced run also writes its spans to
.bench_build/wallbench/trace-<workload>-<seed>.jsonl. See README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "wallbench")
BINARY = os.path.join(BUILD, "wallbench")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, stdout=None):
    """Runs cmd in its own process group and waits for it. On timeout the
    whole group (make and compiler children too) is killed and reaped.
    Returns the exit code, or None on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if sys.exc_info()[0] is subprocess.TimeoutExpired:
            return None
        raise


def build():
    """Configures once, then brings the build up to date. Returns success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "wallbench",
                  "wallbench_identity_test", "-j", jobs])
    for cmd in steps:
        try:
            code = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        except OSError as err:
            print(f"wallbench: cannot run {cmd[0]}: {err}", file=sys.stderr)
            return False
        if code != 0:
            print(f"wallbench: '{' '.join(cmd)}' "
                  f"{'timed out' if code is None else f'exited {code}'}",
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["kernels", "traffic", "compile"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in 1..600")

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD, f"trace-{args.workload}-{args.seed}.jsonl")]
    code = run_group(cmd, RUN_TIMEOUT_S)
    if code is None:
        print("wallbench: run timed out", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
