#!/usr/bin/env python3
"""Build a comparable artifact set of a shotsweep checkout.

    python scripts/artifact_set.py SRC OUT

SRC is the root of a shotsweep checkout; its `src/` is imported and its
`data/promise_nfr.csv` is the corpus. Into OUT (created, must not exist) go,
all from one response cache:

- sweep/   the README sweep config, plus a `mock://constant/Functional` model
- sweep-http/  the same sweep with both models sent over HTTP/1.1 to a
           loopback chat endpoint started by this script, whose reply is a
           pure function of (model, user message); its
           `request_bodies.sha256` lists the sha256 of every request body the
           endpoint received, sorted, so a change to what goes over HTTP
           shows in the diff too
- run/     `run` tfidf k=5, pool 200, holdout split
- cv/      10-fold `cv` at the sweep's optimum (`--shots-from`)
- orderings/<policy>/  for each example ordering other than the default
           ascending (descending, pool_order, shuffle), a mock-gold sweep
           of random and tfidf at k in [0, 5, 20], pool 200, holdout split
- scoring/<policy>/    for strict and first_match, a promise12 3-fold sweep
           of random and tfidf at k in [0, 5], pool 200, over four mocks:
           echo-gold, an alias (`look & feel`), a multi-label answer
           (`Security / Performance`) and an unparseable one; so every
           scoring outcome (a label, an alias, invalid, multi-label under
           either policy) reaches the diff, per fold report and per curve
- scoring/cv/          3-fold promise12 `cv` of the multi-label mock, tfidf
           k=5, under first_match: its fold reports hold such answers
- replay.json          `replay` of run/trace.jsonl under first_match
- report.txt, .csv     `report` over run/report.json and cv/aggregate.json
- cache_rows.jsonl     the cache's rows, sorted, without `created_at` and
                       `latency_ms` (the fields that vary between runs)
- cache_served.tsv     the cache reloaded by SRC's ResponseCache, after a
                       later segment is added that repeats every row with
                       another answer and ends in a torn line: each on-disk
                       row's bucket and key, sorted, with the answer served
                       for it, then `torn_lines`; so the diff covers how a
                       cache is loaded and served too (the first row for a
                       key wins)

Every manifest.json loses its `started_at` and `finished_at`, so two
checkouts that write the same artifacts give an empty `diff -r` of their
OUT directories. The commands run with the corpus copied into a scratch
directory and relative paths, so no path of SRC or OUT reaches an artifact.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

SWEEP = {
    "data": "promise_nfr.csv",
    "scheme": "frnfr",
    "models": ["mock-gold", "mock-constant"],
    "methods": ["random", "embedding", "tfidf"],
    "grid": [0, 5, 10, 20, 40, 80, 120, 160],
    "pool_size": 200,
    "split": {"kind": "holdout", "fraction": 0.8, "seed": 0},
    "profiles": {
        "mock-gold": {"base_url": "mock://echo-gold"},
        "mock-constant": {"base_url": "mock://constant/Functional"},
    },
}
RUN = {
    "data": "promise_nfr.csv",
    "scheme": "frnfr",
    "model": "mock-gold",
    "method": "tfidf",
    "k": 5,
    "pool_size": 200,
    "split": {"kind": "holdout", "fraction": 0.8, "seed": 0},
    "profiles": {"mock-gold": {"base_url": "mock://echo-gold"}},
}
CV = {
    "data": "promise_nfr.csv",
    "scheme": "frnfr",
    "model": "mock-gold",
    "method": "tfidf",
    "k_folds": 10,
    "pool_size": 200,
    "profiles": {"mock-gold": {"base_url": "mock://echo-gold"}},
}
# Every prompt of these sweeps lands in cache_rows.jsonl with its hash, so a
# change in how any ordering places the examples shows in the diff.
ORDERINGS = ("descending", "pool_order", "shuffle")
ORDERING_SWEEP = {
    **SWEEP,
    "models": ["mock-gold"],
    "methods": ["random", "tfidf"],
    "grid": [0, 5, 20],
    "profiles": {"mock-gold": SWEEP["profiles"]["mock-gold"]},
}
# Every scoring outcome: a canonical name, an alias, a multi-label answer
# (scored as its first label only under first_match) and an unparseable one.
SCORING_POLICIES = ("strict", "first_match")
SCORING_MODELS = {
    "mock-gold": "mock://echo-gold",
    "mock-alias": "mock://constant/look & feel",
    "mock-multi": "mock://constant/Security / Performance",
    "mock-unparseable": "mock://unparseable",
}
SCORING_SWEEP = {
    "data": "promise_nfr.csv",
    "scheme": "promise12",
    "models": list(SCORING_MODELS),
    "methods": ["random", "tfidf"],
    "grid": [0, 5],
    "pool_size": 200,
    "split": {"kind": "kfold", "folds": 3, "seed": 0},
    "on_small_class": "allow",
    "profiles": {name: {"base_url": url} for name, url in SCORING_MODELS.items()},
}
SCORING_CV = {
    "data": "promise_nfr.csv",
    "scheme": "promise12",
    "model": "mock-multi",
    "method": "tfidf",
    "k": 5,
    "k_folds": 3,
    "pool_size": 200,
    "on_small_class": "allow",
    "scoring_policy": "first_match",
    "profiles": {"mock-multi": {"base_url": SCORING_MODELS["mock-multi"]}},
}
VARYING_ROW_FIELDS = ("created_at", "latency_ms")
# Run with SRC's shotsweep on the path over a cache directory: every on-disk
# row's bucket and key with the answer ResponseCache serves for it (a record's
# text, a text, or a vector), sorted, then the count of torn lines.
SERVED = """\
import json, sys
from pathlib import Path
from shotsweep import ResponseCache
cache = ResponseCache(sys.argv[1])
buckets = {"completions": (("model", "fingerprint", "content_hash"), cache.get_completion),
           "embeddings": (("tag", "fingerprint", "text"), cache.get_embedding)}
lines = []
for bucket, (fields, get) in buckets.items():
    for segment in sorted(Path(sys.argv[1], bucket).glob("*.jsonl")):
        for line in segment.read_text(encoding="utf-8").splitlines():
            try:
                row = json.loads(line)
            except ValueError:  # the torn line
                continue
            key = [row[name] for name in fields]
            served = get(*key)
            served = getattr(served, "text", served)  # a record, where one is served
            if served is not None and not isinstance(served, str):
                served = list(served)  # a vector
            lines.append("\\t".join(map(json.dumps, [bucket, *key, served])) + "\\n")
sys.stdout.write("".join(sorted(lines)) + f"torn_lines\\t{cache.torn_lines}\\n")
"""
# The endpoint's URL is part of each HTTP cache row's fingerprint and of the
# manifest, so every checkout must see the same one.
HTTP_PORT = 18741


class _ChatHandler(BaseHTTPRequestHandler):
    """An OpenAI-style chat endpoint: the sha256 of (model, user message)
    picks the reply, so every checkout gets the same answer to a prompt. The
    sha256 of each request body goes to the server's body_digests."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # headers and body go out as two writes
    server: "_ChatServer"

    def do_POST(self) -> None:
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.body_digests.append(hashlib.sha256(raw).hexdigest())
        request = json.loads(raw)
        user = next(m["content"] for m in request["messages"] if m["role"] == "user")
        digest = hashlib.sha256(f"{request['model']}\n{user}".encode("utf-8")).digest()
        reply = ("Functional", "Non-Functional")[digest[0] % 2]
        body = json.dumps({"choices": [{"message": {"content": reply}}]}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args: object) -> None:
        pass


class _ChatServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address: tuple[str, int]):
        super().__init__(address, _ChatHandler)
        self.body_digests: list[str] = []  # one per request, in arrival order


def build(src: Path, out: Path) -> None:
    out.mkdir(parents=True)
    # loopback requests go straight to the endpoint, never through a proxy
    env = {**os.environ, "PYTHONPATH": str(src / "src"), "no_proxy": "127.0.0.1",
           "NO_PROXY": "127.0.0.1"}
    server = _ChatServer(("127.0.0.1", HTTP_PORT))
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    base_url = f"http://127.0.0.1:{HTTP_PORT}/v1"
    sweep_http = {**SWEEP, "profiles": {m: {"base_url": base_url} for m in SWEEP["models"]}}
    with tempfile.TemporaryDirectory() as work:
        work_dir = Path(work)
        shutil.copyfile(src / "data" / "promise_nfr.csv", work_dir / "promise_nfr.csv")
        configs = [("sweep", SWEEP), ("sweep-http", sweep_http), ("run", RUN), ("cv", CV)]
        configs += [(f"orderings-{o}", {**ORDERING_SWEEP, "ordering": o}) for o in ORDERINGS]
        configs += [(f"scoring-{p}", {**SCORING_SWEEP, "scoring_policy": p})
                    for p in SCORING_POLICIES]
        configs.append(("scoring-cv", SCORING_CV))
        for name, config in configs:
            (work_dir / f"{name}.json").write_text(json.dumps(config), encoding="utf-8")

        def shotsweep(*argv: str) -> None:
            subprocess.run(
                [sys.executable, "-m", "shotsweep.cli", *argv],
                cwd=work_dir, env=env, check=True, stdout=subprocess.DEVNULL,
            )

        cache = ["--cache-dir", "cache"]
        shotsweep("sweep", "--config", "sweep.json", "--out", str(out / "sweep"), *cache)
        try:
            shotsweep(
                "sweep", "--config", "sweep-http.json", "--out", str(out / "sweep-http"), *cache
            )
        finally:
            server.shutdown()
            server.server_close()
            serving.join()
        (out / "sweep-http" / "request_bodies.sha256").write_text(
            "".join(f"{digest}\n" for digest in sorted(server.body_digests)), encoding="utf-8"
        )
        shotsweep("run", "--config", "run.json", "--out", str(out / "run"), *cache)
        shotsweep(
            "cv", "--config", "cv.json", "--shots-from", str(out / "sweep" / "manifest.json"),
            "--out", str(out / "cv"), *cache,
        )
        for ordering in ORDERINGS:
            shotsweep(
                "sweep", "--config", f"orderings-{ordering}.json",
                "--out", str(out / "orderings" / ordering), *cache,
            )
        for policy in SCORING_POLICIES:
            shotsweep(
                "sweep", "--config", f"scoring-{policy}.json",
                "--out", str(out / "scoring" / policy), *cache,
            )
        shotsweep("cv", "--config", "scoring-cv.json", "--out", str(out / "scoring" / "cv"), *cache)
        shotsweep(
            "replay", "--trace", str(out / "run" / "trace.jsonl"), "--scheme", "frnfr",
            "--policy", "first_match", "--out", str(out / "replay.json"),
        )
        shotsweep(
            "report", "--reports", str(out / "run" / "report.json"),
            str(out / "cv" / "aggregate.json"), "--layout", "binary",
            "--out-base", str(out / "report"),
        )
        rows = []
        for segment in sorted((work_dir / "cache").rglob("*.jsonl")):
            for line in segment.read_text(encoding="utf-8").splitlines():
                row = json.loads(line)
                for field in VARYING_ROW_FIELDS:
                    row.pop(field, None)
                rows.append(f"{segment.parent.name}\t{json.dumps(row, sort_keys=True)}\n")
        (out / "cache_rows.jsonl").write_text("".join(sorted(rows)), encoding="utf-8")
        shadowed = work_dir / "cache-served"
        shutil.copytree(work_dir / "cache", shadowed)
        for bucket in ("completions", "embeddings"):
            repeats = []
            for segment in sorted((shadowed / bucket).glob("*.jsonl")):
                for line in segment.read_text(encoding="utf-8").splitlines():
                    row = json.loads(line)
                    if "vector" in row:
                        row["vector"] = [-x for x in row["vector"]]
                    else:
                        row["text"] = f"repeated {row['text']}"
                    repeats.append(json.dumps(row, sort_keys=True) + "\n")
            if repeats:
                (shadowed / bucket / "seg-99999999.jsonl").write_text(
                    "".join(repeats) + '{"torn', encoding="utf-8"
                )
        served = subprocess.run(
            [sys.executable, "-c", SERVED, str(shadowed)],
            env=env, check=True, capture_output=True, text=True,
        )
        (out / "cache_served.tsv").write_text(served.stdout, encoding="utf-8")

    for manifest in out.rglob("manifest.json"):
        payload = json.loads(manifest.read_text(encoding="utf-8"))
        payload.pop("started_at")
        payload.pop("finished_at")
        manifest.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    for needed in ("src/shotsweep/cli.py", "data/promise_nfr.csv"):
        if not (src / needed).is_file():
            print(f"{src} is not a shotsweep checkout root: no {needed}", file=sys.stderr)
            return 2
    if out.exists():
        print(f"{out} exists; give a new directory", file=sys.stderr)
        return 2
    build(src, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
