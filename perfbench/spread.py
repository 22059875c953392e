#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed on each workload and
prints, per metric, the median and the interquartile range as a share of
the median (Python's statistics.quantiles(values, n=4)), next to the
metric's bound.

    python3 perfbench/spread.py [--seeds 10] [--workload NAME]...

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for name in names:
        values = {m: [] for m in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0 or not last.startswith("{"):
                sys.exit(f"{name} seed {seed} failed:\n{out.stdout}\n{out.stderr}")
            result = json.loads(last)
            if not result["correct"]:
                sys.exit(f"{name} seed {seed} reported incorrect output:\n{out.stdout}")
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        for m, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            if m != "setup_s":
                worst = max(worst, spread / bounds[m])
            print(f"{name:15} {m:16} median {med:14.4f}  spread {spread:6.3f}  "
                  f"bound {bounds[m]:.2f}  {'ok' if spread < bounds[m] / 3 else 'WIDE'}  "
                  + " ".join(f"{v:.4g}" for v in vs))
    print(f"worst spread / bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
