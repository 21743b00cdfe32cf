#!/usr/bin/env python3
"""Repeatability check: run every workload of BENCHMARK.json N times, each
time with another seed, and print for each end-to-end metric the distance
between the first and third quartile as a share of the median, next to the
metric's bound. Exits non-zero when a spread (setup_s excepted) reaches its
bound or a run is not correct.

Run from the repository root:
    python3 focus-bench/check_spread.py [runs [workload ...]]
"""
import json
import statistics
import subprocess
import sys

runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
miss = False
for workload in sys.argv[2:] or [w["name"] for w in bench["workloads"]]:
    values = {name: [] for name in bounds}
    for seed in range(1, runs + 1):
        cmd = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"{workload} seed {seed}: not correct ({result['failed']} failed)")
            miss = True
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
    for name, xs in values.items():
        q1, _, q3 = statistics.quantiles(xs, n=4)
        median = statistics.median(xs)
        spread = (q3 - q1) / median
        over = name != "setup_s" and spread >= bounds[name]
        miss |= over
        flag = "MISS" if over else ("wide" if spread >= bounds[name] / 3 else "ok")
        print(f"{workload:14s} {name:18s} median {median:12.4f} "
              f"spread {spread:7.4f} bound {bounds[name]:5.2f} {flag}")
sys.exit(1 if miss else 0)
