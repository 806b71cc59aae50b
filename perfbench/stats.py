"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/stats.py --workload mgs-wide --seeds 1-10

Runs `run.py --trace 0` once per seed, one after another, for the
run_seconds that BENCHMARK.json names, and prints for every end-to-end
metric the median, the first and third quartiles (statistics.quantiles,
n=4), the spread (Q3 - Q1) / median, and the share of failed calls.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    results = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
            capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results.append(result)
        print(json.dumps({"seed": seed, **result}), flush=True)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"{args.workload}: {len(results)} runs, correct "
          f"{all(r['correct'] for r in results)}, failed {failed}/{attempted}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"  {name:24s} median {med:.6g} {first['unit']}  "
              f"Q1 {q1:.6g}  Q3 {q3:.6g}  spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
