#!/usr/bin/env python3
"""Checks that two traced runs with the same seed report identical
per-layer counts (every metric with unit "count"). A count that does not
repeat exactly is a bug in the benchmark.

Run from the repository root:
    python3 perfbench/check_counts.py [--workload W] [--seed N] [--seconds S]
Exits 0 when every workload's counts agree, 1 otherwise.
"""
import argparse
import json
import subprocess
import sys

with open("BENCHMARK.json") as f:
    BENCH = json.load(f)
COMMAND = BENCH["command"]
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def counts(workload, seed, seconds):
    out = subprocess.run(
        COMMAND + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "1"],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] == "count"}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=2)
    args = ap.parse_args()
    ok = True
    for w in [args.workload] if args.workload else WORKLOADS:
        a = counts(w, args.seed, args.seconds)
        b = counts(w, args.seed, args.seconds)
        diff = {k: (a.get(k), b.get(k)) for k in sorted(set(a) | set(b))
                if a.get(k) != b.get(k)}
        print(f"{w}: {len(a)} counts, {'identical' if not diff else f'DIFFER {diff}'}")
        ok &= not diff
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
