"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 perfbench/spread.py --seeds 1-10

Runs ``run.py --trace 0`` once per workload of ``BENCHMARK.json`` and seed,
one run at a time, for the ``run_seconds`` given there, and prints for each
metric the median of the runs and their spread: the distance between the
first and third quartile (``statistics.quantiles(n=4)``) as a share of the
median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in seed_range(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(res)
            print(f"{workload} seed {seed}: failed {res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.4f}" for k, v in res["metrics"].items()),
                  flush=True)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            print(f"  {workload} {name}: median {med:.4f}, spread {spread:.4f} "
                  f"(bound {bound}, target < {bound / 3:.4f})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
