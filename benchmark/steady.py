"""Run each workload repeatedly and print each end-to-end metric's spread.

Usage:
    python3 benchmark/steady.py [--workloads a,b]

Run from the repository root. Each workload runs once with each of the seeds
1 to 10, for BENCHMARK.json's run_seconds.
For every end-to-end metric it prints the median, the first and third
quartiles (statistics.quantiles, n=4) and the interquartile range as a share
of the median, which is what the bounds in BENCHMARK.json are set against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    args = parser.parse_args()
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    for workload in names:
        results = []
        for seed in SEEDS:
            start = time.perf_counter()
            result = run_once(workload, seed, seconds)
            results.append(result)
            print(f"{workload} seed {seed}: {time.perf_counter() - start:.1f} s, "
                  f"correct {result['correct']}, failed {result['failed']}/{result['attempted']}",
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: all correct {all(r['correct'] for r in results)}, "
              f"failed shares {sorted(shares)}")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            print(f"  {metric:14s} median {median:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {spread:7.2%}  bound {bounds.get(metric, float('nan')):.0%}  "
                  f"{results[0]['metrics'][metric]['unit']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
