#!/usr/bin/env python3
"""Run every workload N times in alternating order and summarise each metric.

    python3 perfbench/repeat.py --runs 10 --seconds 10 [--seeds 1,2,3] [--trace 1]

Round i runs the workloads in forward order when i is even and in reverse
order when it is odd, so slow drift on the machine spreads over all of
them. Seeds cycle through --seeds (default: 42 for every run). For each
workload and metric it prints the median, the first and third quartiles
(Python's statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median. A run that exits non-zero or reports correct = false
makes the script exit 1 after the summary.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--seeds", default="42", help="comma-separated seeds, cycled over runs")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    args = p.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",")

    values = {w: {} for w in workloads}
    units = {}
    bad = 0
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        seed = seeds[i % len(seeds)]
        for w in order:
            result = run_once(w, seed, args.seconds, args.trace)
            if result is None or not result["correct"]:
                bad += 1
                print(f"run {i} {w} seed {seed}: FAILED {result}", file=sys.stderr)
                continue
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            shown = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
            print(f"run {i} {w} seed {seed}: {shown}", file=sys.stderr)

    print(f"{'workload':<18} {'metric':<28} {'unit':<6} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  n")
    for w in workloads:
        for name, vs in values[w].items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else 0.0
            print(f"{w:<18} {name:<28} {units[name]:<6} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f}  {len(vs)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
