#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload once per seed and prints, for every metric, its median,
first and third quartile and the spread (Q3 - Q1) / median, quartiles as
Python's statistics.quantiles(values, n=4) gives them.  For end-to-end
metrics the spread is compared with the metric's bound in BENCHMARK.json:
"ok" below a third of the bound, "WIDE" above the bound.

    python3 perfbench/steady.py [--workloads paper-sweep,open-traffic]
                                [--seeds 1-10] [--seconds 20] [--trace 0]

Run from the root of a checkout.  Each run goes through perfbench/run.sh.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({out.returncode}):\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"  seed {seed}: correct=false, {result['failed']} of "
              f"{result['attempted']} failed", file=sys.stderr)
    return result


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        seeds = parse_seeds(args.seeds)
        values = {}
        for seed in seeds:
            result = run(workload, seed, args.seconds, args.trace)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append((m["value"], m["unit"]))
        print(f"{workload}: {len(seeds)} runs of {args.seconds} s, seeds {args.seeds}")
        print(f"  {'metric':22} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}  bound")
        for name, vals in values.items():
            xs = [v for v, _ in vals]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name) if args.trace == 0 else None
            verdict = ""
            if bound is not None:
                verdict = ("ok" if spread < bound / 3 else
                           "within" if spread <= bound else "WIDE") + f" ({bound})"
            print(f"  {name:22} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}  {verdict}")


if __name__ == "__main__":
    main()
