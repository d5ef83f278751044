#!/usr/bin/env python3
"""Runs one workload once per seed and prints each metric's spread.

Run from the root of a checkout:

    python3 perfbench/steadiness.py --workload batch-small --seeds 1-10 --seconds 20

For every metric of the result objects it prints the median, the first
and third quartiles (`statistics.quantiles(values, n=4)`) and the spread,
(q3 - q1) / median, then one JSON line with the same figures. Any run that
fails makes the script exit non-zero.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    opts = parser.parse_args()

    values = {}
    units = {}
    for seed in opts.seeds:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", opts.workload,
             "--seed", str(seed), "--seconds", opts.seconds, "--trace", opts.trace],
            capture_output=True, text=True)
        last = done.stdout.strip().split("\n")[-1]
        if done.returncode != 0 or not last.startswith("{"):
            sys.stderr.write(done.stdout + done.stderr)
            sys.exit(f"seed {seed}: run failed (exit {done.returncode})")
        result = json.loads(last)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": units[name]}
        print(f"{name:<28} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:.4f}")
    print(json.dumps({"workload": opts.workload, "seeds": opts.seeds, "metrics": summary}))


if __name__ == "__main__":
    main()
