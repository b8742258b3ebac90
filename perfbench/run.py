#!/usr/bin/env python3
"""Build and run the vrex closed-loop serving benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload edge-live --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first run configures and builds `perfbench/` (which compiles the
library from `src/`) into `.bench_build/perfbench`; later runs only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is always the benchmark's JSON result. A traced run also writes
its spans to `.bench_build/traces/<workload>-seed<seed>.jsonl`.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("edge-live", "multi-stream", "oversub-resume")


def build():
    """Configure (once) and build the benchmark into BUILD."""
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "engine.hh")):
        sys.exit("perfbench: no vrex sources under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "3"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)

    if args.self_test:
        cmd = [os.path.join(BUILD, "perfbench_self_test")]
    else:
        cmd = [os.path.join(BUILD, "vrex_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(ROOT, ".bench_build", "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
