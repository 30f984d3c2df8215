#!/usr/bin/env python3
"""Run one perfbench workload K times and report how steady each metric is.

    python3 perfbench/steady.py --workload churn --runs 10 [--seed0 1]
                                [--seconds S] [--traced N]

Seeds are seed0, seed0+1, ... For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median, the largest deviation from the median as a share of it,
and the metric's bound from BENCHMARK.json. A spread at or above the bound
is marked WIDE (setup_s is exempt from the spread rule and marked "-"), and
the exit code is 1 when any run fails or any spread is WIDE. With
--traced N it also makes N traced runs and prints each end-to-end metric of
the traced runs against the untraced median: the tracing overhead.
"""
import argparse
from fractions import Fraction
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), proc.returncode))
    result = json.loads(lines[-1])
    e2e = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "e2e":
            e2e[parts[1]] = float(parts[2])
    return result, e2e


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--traced", type=int, default=0)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    values = {m["name"]: [] for m in bench["end_to_end"]}
    shares = set()
    for k in range(args.runs):
        seed = args.seed0 + k
        result, _ = one_run(args.workload, seed, args.seconds, 0)
        shares.add(Fraction(result["failed"], result["attempted"]))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.5g" % (n, v[-1]) for n, v in values.items())), flush=True)

    wide = False
    print("\n%-22s %12s %12s %12s %8s %8s %6s  %s" % (
        "metric", "median", "q1", "q3", "spread", "maxdev", "bound", "verdict"))
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        maxdev = max(abs(x - med) for x in v) / med
        if m["name"] == "setup_s":
            verdict = "-"
        elif spread >= m["bound"]:
            verdict, wide = "WIDE", True
        else:
            verdict = "ok" if spread < m["bound"] / 3 else "ok (>1/3 bound)"
        print("%-22s %12.6g %12.6g %12.6g %8.4f %8.4f %6.3f  %s" % (
            m["name"], med, q1, q3, spread, maxdev, m["bound"], verdict))
    print("failed share per run: %s" % ", ".join(str(s) for s in sorted(shares)))

    if args.traced:
        traced = {m["name"]: [] for m in bench["end_to_end"]}
        for k in range(args.traced):
            _, e2e = one_run(args.workload, args.seed0 + k, args.seconds, 1)
            for name in traced:
                traced[name].append(e2e[name])
        print("\ntracing overhead (traced median / untraced median):")
        for name, v in traced.items():
            print("%-22s %12.6g %12.6g  x%.3f" % (
                name, statistics.median(v), statistics.median(values[name]),
                statistics.median(v) / statistics.median(values[name])))
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
