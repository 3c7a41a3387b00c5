"""Steadiness check: repeat the benchmark over seeds and report spreads.

Usage, from the root of a checkout:

    python3 perfbench/steady.py

Runs ``run.py --trace 0`` once per seed 1..10 for each workload in
BENCHMARK.json, with the run length from there, and prints per end-to-end
metric the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread (q3 - q1) / median, next to a third of the metric's bound.  A
metric is steady when its spread stays below that third.  ``setup_s`` is
reported the same way but its bound limits the change of the median
between runs, not the spread.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("| workload | metric | median | q1 | q3 | spread | bound/3 | runs |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    unsteady = 0
    for name in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in range(1, RUNS + 1):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} operations failed",
                      file=sys.stderr)
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            limit = metric["bound"] / 3
            if spread >= limit and metric["name"] != "setup_s":
                unsteady += 1
            print(f"| {name} | {metric['name']} | {med:.4f} | {q1:.4f} | "
                  f"{q3:.4f} | {spread:.4f} | {limit:.4f} | {len(vals)} |",
                  flush=True)
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
