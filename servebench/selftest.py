#!/usr/bin/env python3
"""The serving benchmark's own tests. Run from the repository root:

    python3 servebench/selftest.py

1. A minimal-length run of each workload, untraced and traced, passes its
   gates and emits exactly the metrics BENCHMARK.json names, each finite and
   with its unit.
2. Flipping one byte of a sampled response trips the correctness gate.
3. The same seed produces identical request bytes; another seed different
   ones.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
# Every workload the program has, including batch-replay, which
# BENCHMARK.json leaves out of the timed set (README.md, "Steadiness").
WORKLOADS = ["sweep-dense", "single-mix", "batch-replay"]
MIN_SECONDS = "5"


def run(*args):
    return subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True, text=True)


def last_json(proc):
    """The run's JSON result line, or None (with its stderr shown) when absent."""
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        print(proc.stderr[-1500:], file=sys.stderr)
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for name in WORKLOADS:
        for trace, metrics in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            proc = run("--workload", name, "--seed", "7", "--seconds", MIN_SECONDS,
                       "--trace", trace)
            result = last_json(proc)
            check(proc.returncode == 0 and result is not None and result["correct"],
                  f"{name} --trace {trace}: run passes its gates")
            if result is None:
                continue
            expected = {m["name"]: m["unit"] for m in metrics}
            got = result["metrics"]
            check(set(got) == set(expected),
                  f"{name} --trace {trace}: emits exactly the named metrics")
            bad = [k for k, v in got.items()
                   if not isinstance(v.get("value"), (int, float)) or not math.isfinite(v["value"])
                   or v.get("unit") != expected.get(k)]
            check(not bad, f"{name} --trace {trace}: every value finite with its unit {bad or ''}")
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  f"{name} --trace {trace}: attempted >= 1, failed == 0")

    proc = run("--workload", "single-mix", "--seconds", MIN_SECONDS, "--corrupt-sample")
    result = last_json(proc)
    check(proc.returncode != 0 and result is not None and not result["correct"]
          and "differs from api::run" in proc.stdout,
          "a flipped response byte trips the correctness gate")

    for name in WORKLOADS:
        a = run("--workload", name, "--seed", "3", "--dump-requests", "64").stdout
        b = run("--workload", name, "--seed", "3", "--dump-requests", "64").stdout
        c = run("--workload", name, "--seed", "4", "--dump-requests", "64").stdout
        check(a and a == b, f"{name}: the same seed gives identical request bytes")
        check(a != c, f"{name}: another seed gives different request bytes")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
