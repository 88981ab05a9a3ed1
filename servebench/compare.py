#!/usr/bin/env python3
"""Repeats the serving benchmark and summarises each end-to-end metric.

One checkout — run-to-run spread (run i uses seed i):

    python3 servebench/compare.py --change . --workload single-mix --runs 10

Parent against change — pairs alternate which side runs first, and every
pair uses the same seed on both sides:

    python3 servebench/compare.py --parent ../parent --change . --workload sweep-dense

For each end-to-end metric it prints the median and the quartiles of each
side and the spread (interquartile range over median). With a parent it also
prints how many pairs the change won, the median difference against the
parent's own spread, and how much worse the change's median is than the
parent's, as a share of the parent's median, against the metric's bound.
Metric names, units and bounds come from BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(checkout, "servebench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed in {checkout} (seed {seed}, exit {proc.returncode}):\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--change", required=True, help="checkout under test")
    parser.add_argument("--parent", help="checkout to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    sides = {"change": args.change}
    if args.parent:
        sides["parent"] = args.parent
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    for seed in range(1, args.runs + 1):
        order = list(sides) if seed % 2 == 1 else list(reversed(sides))
        for side in order:
            got = run_once(sides[side], args.workload, seed, bench["run_seconds"])
            for m in metrics:
                values[side][m["name"]].append(got[m["name"]])
        print(f"run {seed}/{args.runs} (seed {seed}) done", file=sys.stderr)

    print(f"workload {args.workload}, {args.runs} run(s) per side")
    for m in metrics:
        name = m["name"]
        for side in sides:
            q1, med, q3 = summary(values[side][name])
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:28s} {side:6s} median {med:12.6g} {m['unit']:6s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f} (bound {m['bound']})")
        if args.parent:
            sign = 1 if m["better"] == "higher" else -1
            pairs = zip(values["change"][name], values["parent"][name])
            wins = sum(1 for c, p in pairs if sign * (c - p) > 0)
            q1, pmed, q3 = summary(values["parent"][name])
            cmed = statistics.median(values["change"][name])
            worse = -sign * (cmed - pmed) / pmed if pmed else float("nan")
            print(f"  {'':28s} change wins {wins}/{args.runs} pairs; median difference "
                  f"{cmed - pmed:+.6g} against parent spread {q3 - q1:.6g}; "
                  f"worse by {worse:+.4f} of parent median (bound {m['bound']})")


if __name__ == "__main__":
    main()
