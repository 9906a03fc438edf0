"""Benchmark the shotsweep CLI end to end, or per module with --trace 1.

Usage:
    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each round runs `shotsweep sweep` or
`shotsweep cv` from src/ in a fresh child process against a loopback stub
endpoint (stub.py) and checks every output (checker.py). With --trace 0 the
run repeats whole rounds for about S seconds and reports the median of each
end-to-end metric; with --trace 1 it repeats pairs of one plain and one
traced round for about S seconds and reports the per-module metrics. The
last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from checker import SweepExpectation, check_cv
from planted import CV_MODEL, GRID, SCHEMES, SWEEP_SCHEDULES, read_corpus
from stub import StubEndpoint

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DATA = "data/promise_nfr.csv"
SETUP_PROBES = 16
CHILD_TIMEOUT_S = 120.0

SWEEP_MODELS = tuple(SWEEP_SCHEDULES)
SWEEP_METHODS = ("random", "embedding", "tfidf")
POOL_SIZE = 200
CV_SHOTS = 40
CV_FOLDS = 10


@dataclass(frozen=True)
class Workload:
    command: str  # "sweep" | "cv"
    scheme: str
    warm: bool  # replay a cache primed before timing
    delay_s: float  # stub delay per reply


WORKLOADS = {
    "sweep-warm": Workload("sweep", "frnfr", warm=True, delay_s=0.0),
    "sweep-http": Workload("sweep", "frnfr", warm=False, delay_s=0.002),
    "cv-multiclass": Workload("cv", "promise12", warm=False, delay_s=0.0),
}

END_TO_END_UNITS = {"setup_s": "s", "prompts_per_s": "prompts/s", "cpu_s": "s", "peak_rss_mb": "MB"}

# What one CLI invocation pays before its first prompt.
PROBE = (
    "import sys, shotsweep.cli\n"
    "from shotsweep import ResponseCache, load_corpus, load_scheme\n"
    "load_corpus(sys.argv[1], load_scheme(sys.argv[2]))\n"
    "ResponseCache(sys.argv[3])\n"
)
ENTRY = "import sys\nfrom shotsweep.cli import main\nsys.exit(main())\n"


def child_env() -> dict[str, str]:
    # Bytecode caching stays on, as for an installed CLI; no proxy may take
    # loopback traffic off the machine.
    env = {
        k: v
        for k, v in os.environ.items()
        if "proxy" not in k.lower() and k != "PYTHONDONTWRITEBYTECODE"
    }
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@dataclass(frozen=True)
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(cmd: list[str], log_base: Path) -> Child:
    """Run a child to exit through launch.py, which times it and takes its rusage."""
    report = Path(f"{log_base}.rusage.json")
    report.unlink(missing_ok=True)
    with open(f"{log_base}.out", "w") as out, open(f"{log_base}.err", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launch.py"), str(report), *cmd],
            cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if not report.exists():
        raise BenchError(f"{cmd[1:3]} did not finish within {CHILD_TIMEOUT_S:.0f} s")
    usage = json.loads(report.read_text(encoding="utf-8"))
    return Child(usage["code"], usage["wall_s"], usage["cpu_s"], usage["rss_mb"])


def _last_json(path: Path) -> dict | None:
    lines = [l for l in path.read_text(encoding="utf-8").splitlines() if l.strip()]
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


@dataclass
class Round:
    child: Child
    planned: int  # prompts
    scored: int
    units_planned: int  # cells or folds
    units_done: int
    requests: int  # at the stub
    connections: int
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None
    trace_rows: int = 0
    cells: int = 0
    cache_bytes: int = 0


class Bench:
    def __init__(self, name: str, seed: int, work: Path):
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.corpus = read_corpus(ROOT / DATA)
        self.scheme = SCHEMES[self.wl.scheme]
        self.stub = StubEndpoint(self.corpus, self.scheme, seed, self.wl.delay_s)
        self.config = work / "config.json"
        self.config.write_text(json.dumps(self._config(), indent=2), encoding="utf-8")
        if self.wl.command == "sweep":
            self.expect = SweepExpectation(
                self.corpus, self.scheme, seed, SWEEP_MODELS, SWEEP_METHODS, POOL_SIZE
            )
        self.warm_cache = work / "cache-warm" if self.wl.warm else None
        self.rounds_run = 0
        self.setup_problems: list[str] = []
        self.setup_times: list[float] = []

    def _config(self) -> dict:
        url = self.stub.base_url
        common = {
            "data": DATA,
            "scheme": self.wl.scheme,
            "pool_seed": self.seed,
            "selection_seed": self.seed,
            "provider": "hash:64",
        }
        if self.wl.command == "sweep":
            return {
                **common,
                "models": list(SWEEP_MODELS),
                "methods": list(SWEEP_METHODS),
                "grid": list(GRID),
                "pool_size": POOL_SIZE,
                "split": {"kind": "holdout", "fraction": 0.8, "seed": self.seed},
                "profiles": {m: {"base_url": url} for m in SWEEP_MODELS},
            }
        return {
            **common,
            "model": CV_MODEL,
            "method": "tfidf",
            "k": CV_SHOTS,
            "k_folds": CV_FOLDS,
            "split_seed": self.seed,
            "on_small_class": "allow",
            "profiles": {CV_MODEL: {"base_url": url}},
        }

    def planned(self) -> tuple[int, int]:
        """(prompts, cells or folds) one round must score."""
        if self.wl.command == "cv":
            return len(self.corpus.texts), CV_FOLDS
        classes = Counter(self.corpus.gold(self.scheme))
        test = sum(n - math.floor(0.8 * n + 0.5) for n in classes.values())
        cells = len(SWEEP_MODELS) * len(SWEEP_METHODS) * len(GRID)
        return cells * test, cells

    def setup(self) -> None:
        """Compile bytecode with one untimed probe, and prime the warm cache."""
        self._probe(self.work / "probe-cache")
        if self.warm_cache is not None:
            prime = self.round(traced=False, prime=True)
            self.setup_problems = [f"priming run: {p}" for p in prime.problems]

    def probe_setup(self, n: int) -> None:
        """Time up to n more set-up probes, stopping at SETUP_PROBES in all.

        Probes are spread over the run, between rounds, so that the median
        does not rest on one stretch of machine load; the run tops them up
        to SETUP_PROBES after its last round.
        """
        for _ in range(n):
            i = len(self.setup_times)
            if i < SETUP_PROBES:
                self.setup_times.append(self._probe(self.warm_cache or self.work / f"probe-cache{i}"))

    def _probe(self, cache: Path) -> float:
        child = spawn(
            [sys.executable, "-c", PROBE, DATA, self.wl.scheme, str(cache)],
            self.work / "probe",
        )
        if child.code != 0:
            raise BenchError("setup probe failed: " + (self.work / "probe.err").read_text()[-500:])
        return child.wall_s

    def round(self, traced: bool, prime: bool = False) -> Round:
        n = self.rounds_run
        self.rounds_run += 1
        out = self.work / f"out{n}"
        cache = self.warm_cache or self.work / f"cache{n}"
        args = [self.wl.command, "--config", str(self.config), "--out", str(out),
                "--cache-dir", str(cache), "--json"]
        spans = self.work / f"spans{n}.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans), *args]
        else:
            cmd = [sys.executable, "-c", ENTRY, *args]
        self.stub.take_log()
        requests0, connections0 = self.stub.counters()
        child = spawn(cmd, self.work / f"cli{n}")
        requests1, connections1 = self.stub.counters()
        log = self.stub.take_log()
        planned, units = self.planned()
        result = Round(child, planned, 0, units, 0, requests1 - requests0, connections1 - connections0)
        problems = result.problems
        if child.code != 0:
            tail = (self.work / f"cli{n}.err").read_text(encoding="utf-8")[-300:]
            problems.append(f"exit code {child.code}: {tail.strip()}")
        summary = _last_json(self.work / f"cli{n}.out")
        try:
            if self.wl.command == "sweep":
                if self.warm_cache is None or prime:
                    self.expect.learn_from_log(log, problems)
                elif result.requests:
                    problems.append(f"warm replay sent {result.requests} requests to the endpoint")
                result.scored = self.expect.check_outputs(out, summary, problems)
                result.units_done = (summary or {}).get("n_completed", 0)
            else:
                result.scored = check_cv(
                    self.corpus, self.scheme, self.seed, CV_SHOTS, CV_FOLDS, out, summary, log,
                    problems,
                )
                result.units_done = len(list((out / "folds").glob("fold*.json")))
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            problems.append(f"outputs do not have the documented form: {type(exc).__name__}: {exc}")
        problems.extend(self.stub.take_problems())
        if traced:
            if spans.exists():
                result.trace = json.loads(spans.read_text(encoding="utf-8"))
                spans.unlink()
            else:
                problems.append("the traced child wrote no spans")
                result.trace = {"spans": []}
            result.trace_rows = sum(
                1
                for f in out.rglob("*.jsonl")
                for line in f.read_text(encoding="utf-8").splitlines()
                if '"kind": "prediction"' in line
            )
            result.cells = len(list((out / "cells").glob("*.json")))
            result.cache_bytes = _dir_bytes(cache)
        shutil.rmtree(out, ignore_errors=True)
        if self.warm_cache is None:
            shutil.rmtree(cache, ignore_errors=True)
        return result

    def close(self) -> None:
        self.stub.close()


class BenchError(Exception):
    pass


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


PER_LAYER_TIMED = (
    "corpus.load_corpus", "corpus.make_split", "selection.build_pool", "selection.select",
    "vectorspace.fit_tfidf", "vectorspace.build_embedding_matrix", "vectorspace.knn",
    "promptkit.render_prompt", "gateway.cache_open", "gateway.complete",
    "gateway.parse_label", "evaluation.compute_report", "sweep.run_sweep",
    "reporting.atomic_write",
)
PER_LAYER_CALLS = (
    "selection.build_pool", "selection.select", "vectorspace.fit_tfidf",
    "vectorspace.build_embedding_matrix", "vectorspace.knn", "vectorspace.embed_batch",
    "promptkit.render_prompt", "gateway.complete", "gateway.parse_label",
    "evaluation.compute_report", "reporting.atomic_write",
)


def layer_metrics(traced: Round, overhead_s: float) -> dict[str, dict]:
    """Per-module metrics from the traced round's spans and the stub's counters."""
    trace = traced.trace or {"spans": []}
    spans = trace["spans"]
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)

    def self_time(i: int) -> float:
        start, end = spans[i][1], spans[i][2]
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return end - start - covered

    calls: Counter[str] = Counter()
    self_s: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        calls[span[0]] += 1
        self_s[span[0]] += self_time(i)
    request_ms = sorted((s[2] - s[1]) * 1000.0 for s in spans if s[0] == "gateway.request")
    per_complete = [
        sum(1 for c in children[i] if spans[c][0] == "gateway.request")
        for i, s in enumerate(spans)
        if s[0] == "gateway.complete"
    ]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    for name in PER_LAYER_TIMED:
        m[f"{name}.self_s"] = (self_s[name], "s")
    for name in PER_LAYER_CALLS:
        m[f"{name}.calls"] = (calls[name], "count")
    m["vectorspace.embed_texts_per_unique"] = (
        ratio(trace.get("embedded_texts", 0), trace.get("embedded_unique", 0)), "ratio")
    m["promptkit.render_unique_ratio"] = (
        ratio(trace.get("renders_unique", 0), trace.get("renders", 0)), "ratio")
    m["gateway.backend_requests"] = (traced.requests, "count")
    m["gateway.connections"] = (traced.connections, "count")
    m["gateway.cache_hit_ratio"] = (
        ratio(sum(1 for r in per_complete if r == 0), len(per_complete)), "ratio")
    m["gateway.request_ms.p50"] = (_percentile(request_ms, 0.50), "ms")
    m["gateway.request_ms.p99"] = (_percentile(request_ms, 0.99), "ms")
    m["gateway.retries"] = (sum(max(r - 1, 0) for r in per_complete), "count")
    m["gateway.cache_bytes"] = (traced.cache_bytes, "bytes")
    m["evaluation.trace_rows"] = (traced.trace_rows, "count")
    m["sweep.cells"] = (traced.cells, "count")
    m["reporting.bytes_written"] = (trace.get("bytes_written", 0), "bytes")
    m["trace.overhead_s"] = (overhead_s, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(m.items())}


def end_to_end_metrics(setup_s: float, rounds: list[Round]) -> dict[str, dict]:
    values = {
        "setup_s": setup_s,
        "prompts_per_s": statistics.median(r.scored / r.child.wall_s for r in rounds),
        "cpu_s": statistics.median(r.child.cpu_s for r in rounds),
        "peak_rss_mb": statistics.median(r.child.rss_mb for r in rounds),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def describe(i: int, r: Round, units: str) -> str:
    flag = "traced" if r.trace is not None else "plain"
    return (
        f"round {i} ({flag}): exit {r.child.code}, prompts {r.scored}/{r.planned}, "
        f"{units} {r.units_done}/{r.units_planned}, requests {r.requests} over "
        f"{r.connections} connections, wall {r.child.wall_s:.3f} s, cpu {r.child.cpu_s:.3f} s, "
        f"peak rss {r.child.rss_mb:.1f} MB, problems {len(r.problems)}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in ("src/shotsweep/cli.py", DATA) if not (ROOT / p).is_file()]
    if missing:
        print(f"benchmark: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2

    workroot = BENCH / ".work"
    workroot.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workroot))
    try:
        bench = Bench(args.workload, args.seed, work)
        try:
            bench.setup()
            rounds = []
            started = time.perf_counter()
            if args.trace:
                # Rounds differ by more than the tracing costs, so the
                # overhead is the median over adjacent plain/traced pairs.
                while True:
                    pair_start = time.perf_counter()
                    rounds += [bench.round(traced=False), bench.round(traced=True)]
                    now = time.perf_counter()
                    if now - started + (now - pair_start) > args.seconds:
                        break
                overhead = statistics.median(
                    t.child.wall_s - p.child.wall_s for p, t in zip(rounds[::2], rounds[1::2])
                )
                metrics = layer_metrics(rounds[1], overhead)
            else:
                bench.probe_setup(2)
                while True:
                    round_start = time.perf_counter()
                    rounds.append(bench.round(traced=False))
                    bench.probe_setup(2)
                    now = time.perf_counter()
                    if now - started + (now - round_start) > args.seconds:
                        break
                bench.probe_setup(SETUP_PROBES)
                metrics = end_to_end_metrics(statistics.median(bench.setup_times), rounds)
        finally:
            bench.close()
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = "cells" if WORKLOADS[args.workload].command == "sweep" else "folds"
    problems = bench.setup_problems + [p for r in rounds for p in r.problems]
    for i, r in enumerate(rounds):
        print(describe(i, r, units))
    if bench.setup_times:
        print(f"setup: {len(bench.setup_times)} probes, "
              f"{', '.join(f'{t:.3f}' for t in bench.setup_times)} s")
    for r in rounds:
        if r.trace is not None and r.trace.get("missing"):
            print(f"trace: not in this program, so zero calls: {', '.join(r.trace['missing'])}")
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    result = {
        "correct": not problems,
        "attempted": sum(r.planned for r in rounds),
        "failed": sum(max(r.planned - r.scored, 0) for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
