#!/usr/bin/env python3
"""Run the benchmark on several seeds and print, per end-to-end metric,
the median and the spread (third minus first quartile, as a share of
the median) -- the steadiness figure the benchmark's bounds are set
against.

    python3 panicbench/spread.py --workload rack_ring --runs 5 [--seconds 15]

Run from the repository root after building the benchmark once.
"""
import argparse
import json
import statistics
import subprocess
import sys

ap = argparse.ArgumentParser()
ap.add_argument("--workload", required=True)
ap.add_argument("--runs", type=int, default=10)
ap.add_argument("--seconds", default="15")
ap.add_argument("--first-seed", type=int, default=1)
args = ap.parse_args()

values = {}
for seed in range(args.first_seed, args.first_seed + args.runs):
    out = subprocess.run(
        ["cargo", "run", "--release", "--offline", "-q",
         "--manifest-path", "panicbench/Cargo.toml", "--",
         "--workload", args.workload, "--seed", str(seed),
         "--seconds", args.seconds, "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"seed {seed}: incorrect result {result}")
    for name, m in result["metrics"].items():
        values.setdefault(name, []).append(m["value"])
    print(f"seed {seed}: " + " ".join(
        f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items())),
        flush=True)

for name, vs in sorted(values.items()):
    q1, med, q3 = statistics.quantiles(vs, n=4)
    print(f"{name:18} median {statistics.median(vs):.6g}  spread {(q3 - q1) / statistics.median(vs):.4f}")
