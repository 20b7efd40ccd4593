#!/usr/bin/env python3
"""Build the benchmark binary from source and run one workload.

    python3 perfbench/run.py --workload alg1-churn --seed 42 --seconds 10 --trace 0

Run from the repository root. The binary is built in release mode, offline,
into $CARGO_TARGET_DIR (default: .bench_build under the current directory).
The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it gives the
context (machine, parameters, digest, every metric). A failed build exits
non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["alg1-churn", "alg1-audit", "alg2-chaos-event"]


def commit():
    """The checked-out commit, read from .git without leaving the tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[len("ref: "):])) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def build():
    """Build the binary; return its path, or None if the build failed."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(target, "release", "hinet-perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--fault-seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    args = p.parse_args()

    exe = build()
    if exe is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    return subprocess.run([
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--fault-seed", str(args.fault_seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--commit", commit(),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
