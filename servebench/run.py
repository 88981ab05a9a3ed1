#!/usr/bin/env python3
"""Builds and runs the qre_serve serving benchmark.

Run from the repository root:

    python3 servebench/run.py --workload sweep-dense --seed 1 --seconds 10 --trace 0
    python3 servebench/run.py --workload all --trace 1      # every workload, both passes

The first run configures and builds the library, qre_serve and the
benchmark from source into .bench_build/servebench (Release); later runs
rebuild incrementally. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. The exit status is the benchmark's:
non-zero when the build, a correctness gate or a regime guard fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
WORKLOADS = ["sweep-dense", "single-mix", "batch-replay"]


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target", "qre_serve", "servebench"],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--corrupt-sample", action="store_true",
                        help="flip one byte of a sampled response (the gate must fail)")
    parser.add_argument("--dump-requests", type=int, default=None, metavar="N",
                        help="print the first N request bodies and exit")
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"servebench: build failed: {e}", file=sys.stderr)
        return 2

    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [os.path.join(BUILD, "servebench"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--server", os.path.join(BUILD, "qre", "qre_serve"),
               "--root", ROOT, "--out", os.path.join(BUILD, "run")]
        if args.corrupt_sample:
            cmd.append("--corrupt-sample")
        if args.dump_requests is not None:
            cmd += ["--dump-requests", str(args.dump_requests)]
        sys.stdout.flush()
        status = max(status, subprocess.run(cmd).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
