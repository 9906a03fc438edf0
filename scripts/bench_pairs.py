#!/usr/bin/env python3
"""Compare two checkouts on the repository's benchmark, run in alternating pairs.

    python scripts/bench_pairs.py PARENT CHANGE [--pairs N] [--seconds S]
        [--seed N] [--workload NAME ...]

PARENT and CHANGE are the roots of two shotsweep checkouts. For each
workload (by default every one in CHANGE's BENCHMARK.json), the benchmark
command of BENCHMARK.json runs from each checkout N times, and which side
runs first alternates from pair to pair. Every pair's values are printed,
then a table of each end-to-end metric: the parent's median and quartiles,
the change's median, the pairs the change won (a tie counts for neither
side) and a verdict, where the bound is the metric's in BENCHMARK.json:

- gain: the change won at least 9 in 10 of the pairs, and its median is
  better than the parent's by more than the parent's interquartile range;
- regression: the change's median is worse than the parent's by more than
  the bound;
- unresolved: neither, and either side's interquartile range is wider than
  the bound, unless every run of the change is better than every run of
  the parent;
- no regression: otherwise.

Each side's failed operations, its checks and the request and connection
counts its rounds report are printed too. Nothing is written, apart from
the scratch files the benchmark itself makes and removes.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
COUNTS = re.compile(r"requests \d+ over \d+ connections")


def run_benchmark(root: Path, command: list[str], workload: str, seed: int,
                  seconds: float) -> dict:
    """The benchmark's result object for one run from root, with the distinct
    request and connection counts of its rounds under "counts"."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.exit(f"{root}: {' '.join(argv)} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["counts"] = sorted(set(COUNTS.findall(proc.stdout)))
    return result


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, int]:
    """The verdict on a metric's runs, paired by index, and the pairs the change won."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    if wins >= 0.9 * len(parent) and sign * (c_med - p_med) > p_q3 - p_q1:
        return "gain", wins
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "regression", wins
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if max(p_q3 - p_q1, c_q3 - c_q1) > bound * abs(p_med) and not every_run_better:
        return "unresolved", wins
    return "no regression", wins


def compare(roots: dict[str, Path], bench: dict, workload: str, pairs: int, seed: int,
            seconds: float) -> list[str]:
    """Run the pairs of one workload and return its verdicts, printing as it goes."""
    print(f"{workload}: {pairs} pairs, {seconds:g} s each, seed {seed}", flush=True)
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(
                run_benchmark(roots[side], bench["command"], workload, seed, seconds)
            )
        values = ", ".join(
            f"{m['name']} {runs['parent'][-1]['metrics'][m['name']]['value']:.4g}"
            f" -> {runs['change'][-1]['metrics'][m['name']]['value']:.4g}"
            for m in bench["end_to_end"]
        )
        print(f"  pair {i + 1} ({order[0]} first): {values}", flush=True)

    header = f"  {'metric':<14}{'parent median':>15}{'parent q1-q3':>22}"
    print(f"{header}{'change median':>15}{'won':>7}  verdict")
    verdicts = []
    for metric in bench["end_to_end"]:
        name = metric["name"]
        parent, change = ([r["metrics"][name]["value"] for r in runs[side]] for side in SIDES)
        q1, q3 = quartiles(parent)
        result, wins = verdict(parent, change, metric["better"], metric["bound"])
        verdicts.append(result)
        print(f"  {name:<14}{statistics.median(parent):>15.4g}{f'{q1:.4g}-{q3:.4g}':>22}"
              f"{statistics.median(change):>15.4g}{f'{wins}/{pairs}':>7}  {result}"
              f" (bound {metric['bound']:.0%}, {metric['unit']})")
    share = {}
    for side in SIDES:
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        share[side] = failed / max(attempted, 1)
        checks = sum(not r["correct"] for r in runs[side])
        counts = sorted({c for r in runs[side] for c in r["counts"]})
        print(f"  {side}: {failed}/{attempted} operations failed, {checks} runs failed"
              f" a check; rounds: {'; '.join(counts) or 'no request counts'}")
    if share["change"] > share["parent"]:
        verdicts.append("more operations failed")
    return verdicts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="repeatable; default: every one")
    args = parser.parse_args()
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    unknown = sorted(set(args.workload or ()) - set(names))
    if unknown or args.pairs < 1:
        parser.error(f"unknown workload(s) {unknown}" if unknown else "--pairs must be >= 1")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bad = []
    for workload in args.workload or names:
        verdicts = compare(roots, bench, workload, args.pairs, args.seed, seconds)
        bad += [f"{workload}: {v}" for v in verdicts
                if v in ("regression", "more operations failed")]
    print("regressions: " + ("; ".join(bad) if bad else "none"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
