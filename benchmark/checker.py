"""Correctness checks for one CLI run; shares no code with shotsweep.

Expected figures come from the planted replies, a plain-counting scorer and
independent brute-force cosine rankings (TF-IDF recomputed over the pool,
hash-bag vectors recomputed per text), or from properties the method must
have. Each check appends a human-readable problem to a list; an empty list
means the run is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from planted import (
    CV_MODEL,
    GRID,
    PLANTED_FLAGGED,
    PLANTED_OPTIMUM,
    Corpus,
    Scheme,
    planted_reply,
)
from stub import Received

F1_TOLERANCE = 1e-12
RANK_TOLERANCE = 1e-9  # float summation order may differ from the harness's
HASH_DIM = 64
_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def plain_scores(
    gold: list[str], predicted: list[str | None], labels: tuple[str, ...]
) -> tuple[float, float]:
    """Weighted and macro F1 by counting; None is a miss for its gold class."""
    f1s, supports = [], []
    for label in labels:
        tp = sum(1 for g, p in zip(gold, predicted) if g == label and p == label)
        fp = sum(1 for g, p in zip(gold, predicted) if g != label and p == label)
        support = sum(1 for g in gold if g == label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / support if support else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        f1s.append(f1)
        supports.append(support)
    total = sum(supports)
    if not total:
        return 0.0, 0.0
    weighted = sum(s / total * f for s, f in zip(supports, f1s))
    return weighted, sum(f1s) / len(labels)


def tfidf_scores(pool_texts: list[str], queries: list[str]) -> np.ndarray:
    """Cosine of each query to each pool text: raw tf, idf ln((1+N)/(1+df))+1."""
    token_lists = [_tokens(t) for t in pool_texts]
    vocab = {t: i for i, t in enumerate(sorted({t for ts in token_lists for t in ts}))}
    df = np.zeros(len(vocab))
    for ts in token_lists:
        for t in set(ts):
            df[vocab[t]] += 1
    idf = np.log((1 + len(pool_texts)) / (1 + df)) + 1.0

    def matrix(lists: list[list[str]]) -> np.ndarray:
        m = np.zeros((len(lists), len(vocab)))
        for row, ts in enumerate(lists):
            for t in ts:
                if t in vocab:
                    m[row, vocab[t]] += 1.0
        m *= idf
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        return np.divide(m, norms, out=np.zeros_like(m), where=norms > 0)

    return matrix([_tokens(q) for q in queries]) @ matrix(token_lists).T


def hashbag(text: str) -> np.ndarray:
    """Signed token-hash bag in HASH_DIM buckets, L2-normalised."""
    vec = np.zeros(HASH_DIM)
    for tok in _tokens(text):
        digest = hashlib.sha256(tok.encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:4], "big") % HASH_DIM
        vec[bucket] += 1.0 if digest[4] & 1 == 0 else -1.0
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


def is_top_k(scores: np.ndarray, chosen: np.ndarray) -> bool:
    """chosen (a boolean mask) holds k best-scoring items, ties either way."""
    if chosen.all() or not chosen.any():
        return True
    return scores[chosen].min() >= scores[~chosen].max() - RANK_TOLERANCE


def _read_json(path: Path, problems: list[str]) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"cannot read {path.name}: {exc}")
        return None


def _close(a: float, b: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= F1_TOLERANCE


class SweepExpectation:
    """What a sweep over the planted stub must report, learned from a cold run.

    The holdout test set is the set of queries the stub saw; the checks on
    the stub's log establish that it is a stratified 20% of the corpus and
    that every prompt was well formed.
    """

    def __init__(self, corpus: Corpus, scheme: Scheme, seed: int, models: tuple[str, ...],
                 methods: tuple[str, ...], pool_size: int):
        self.corpus = corpus
        self.scheme = scheme
        self.gold = corpus.gold(scheme)
        self.seed = seed
        self.models = models
        self.methods = methods
        self.pool_size = pool_size
        self.test: list[int] = []
        self._hashbag = [hashbag(t) for t in corpus.texts]

    def learn_from_log(self, log: list[Received], problems: list[str]) -> None:
        by_model: dict[str, list[Received]] = defaultdict(list)
        for r in log:
            by_model[r.model].append(r)
        if set(by_model) != set(self.models):
            problems.append(f"stub saw models {sorted(by_model)}, planned {list(self.models)}")
            return
        test_sets = {m: sorted({r.query for r in rs if not r.examples}) for m, rs in by_model.items()}
        self.test = test_sets[self.models[0]]
        if any(t != self.test for t in test_sets.values()):
            problems.append("models were evaluated on different test sets")
        counts = Counter(self.gold[q] for q in self.test)
        whole = Counter(self.gold)
        for label in self.scheme.ids:
            want = whole[label] - math.floor(0.8 * whole[label] + 0.5)
            if counts[label] != want:
                problems.append(f"test set has {counts[label]} {label}, stratified 20% is {want}")
        for model in self.models:
            self._check_prompts(model, by_model[model], problems)

    def _check_prompts(self, model: str, log: list[Received], problems: list[str]) -> None:
        test = set(self.test)
        pool = sorted({e for r in log for e in r.examples})
        if len(pool) != self.pool_size:
            problems.append(f"{model}: prompts drew on {len(pool)} pool texts, planned {self.pool_size}")
        if not pool:
            return
        if pool[0] < 0 or test & set(pool):
            problems.append(f"{model}: examples outside the training partition")
            return
        column = {idx: c for c, idx in enumerate(pool)}
        tfidf = tfidf_scores([self.corpus.texts[i] for i in pool],
                             [self.corpus.texts[q] for q in self.test])
        embed = np.stack([self._hashbag[q] for q in self.test]) @ np.stack(
            [self._hashbag[i] for i in pool]).T
        row_of = {q: row for row, q in enumerate(self.test)}
        sets: dict[int, dict[int, set[frozenset[int]]]] = defaultdict(lambda: defaultdict(set))
        for r in log:
            if r.query not in test:
                problems.append(f"{model}: query {r.query} is not in the test set")
                continue
            if r.query in r.examples:
                problems.append(f"{model}: query {r.query} is among its own examples")
            if len(set(r.examples)) != len(r.examples):
                problems.append(f"{model}: query {r.query} has a repeated example")
            sets[r.query][len(r.examples)].add(frozenset(r.examples))
        for q, by_k in sets.items():
            if set(by_k) != {min(k, len(pool)) for k in GRID}:
                problems.append(f"{model}: query {q} had example counts {sorted(by_k)}, planned {list(GRID)}")
                continue
            for k, found in by_k.items():
                if len(found) > len(self.methods):
                    problems.append(f"{model}: query {q} k={k}: {len(found)} distinct example sets")
            for method, scores in (("tfidf", tfidf), ("embedding", embed)):
                if method in self.methods:
                    self._check_ranking(model, method, q, by_k, scores[row_of[q]], column, problems)

    @staticmethod
    def _check_ranking(model, method, q, by_k, scores, column, problems) -> None:
        """Some prompt at each k is a valid top-k, nested in the next k's."""
        reachable: list[frozenset[int]] | None = None
        for k in sorted(k for k in by_k if k > 0):
            valid = []
            for found in by_k[k]:
                mask = np.zeros(len(scores), dtype=bool)
                mask[[column[i] for i in found]] = True
                if is_top_k(scores, mask):
                    valid.append(found)
            if not valid:
                problems.append(f"{model}: query {q} k={k}: no prompt holds a {method} top-k")
                return
            if reachable is not None:
                valid = [b for b in valid if any(a <= b for a in reachable)]
                if not valid:
                    problems.append(f"{model}: query {q} k={k}: {method} examples not nested in k's predecessor")
                    return
            reachable = valid

    def expected(self, model: str, k: int) -> tuple[float, float]:
        predicted = [
            planted_reply(self.scheme, self.seed, model, self.corpus.texts[q], k, self.gold[q]).label
            for q in self.test
        ]
        return plain_scores([self.gold[q] for q in self.test], predicted, self.scheme.ids)

    def check_outputs(self, out_dir: Path, summary: dict | None, problems: list[str]) -> int:
        """Check a sweep's --out tree; returns the number of prompts it scored."""
        n_cells = len(self.models) * len(self.methods) * len(GRID)
        if not self.test:
            problems.append("no holdout test set could be learned from the endpoint's log")
            return 0
        if summary is None or summary.get("n_completed") != n_cells or summary.get("n_failed") != 0:
            problems.append(f"sweep summary {summary}, planned {n_cells} completed cells")
        expected = {(m, k): self.expected(m, k) for m in self.models for k in GRID}
        scored = 0
        for model in self.models:
            for method in self.methods:
                for k in GRID:
                    cell = _read_json(out_dir / "cells" / f"{model}__{method}__k{k}.json", problems)
                    if cell is None:
                        continue
                    scored += cell.get("n_predictions", 0)
                    if cell.get("n_predictions") != len(self.test):
                        problems.append(f"{model} {method} k={k}: {cell.get('n_predictions')} predictions")
                    wf1, mf1 = expected[(model, k)]
                    if not (_close(cell["weighted_f1"], wf1) and _close(cell["macro_f1"], mf1)):
                        problems.append(f"{model} {method} k={k}: F1 {cell['weighted_f1']}/{cell['macro_f1']}, planted {wf1}/{mf1}")
        sweep = _read_json(out_dir / "sweep.json", problems)
        if sweep is not None and sweep.get("failures"):
            problems.append(f"sweep recorded failures: {sweep['failures'][:2]}")
        curves = _read_json(out_dir / "curves.json", problems)
        if curves is None:
            return scored
        seen = set()
        for series in curves.get("series", []):
            model, method = series["model"], series["method"]
            seen.add((model, method))
            if [p["shot_count"] for p in series["points"]] != list(GRID):
                problems.append(f"curve {model} {method}: points at {[p['shot_count'] for p in series['points']]}")
            for point in series["points"]:
                wf1, mf1 = expected[(model, point["shot_count"])]
                if not (_close(point["weighted_f1"], wf1) and _close(point["macro_f1"], mf1)):
                    problems.append(f"curve {model} {method} k={point['shot_count']}: F1 differs from planted")
            planted_best = max(GRID, key=lambda k: (expected[(model, k)][0], -k))
            if planted_best != PLANTED_OPTIMUM[model]:
                problems.append(f"{model}: planted data peak at {planted_best}, schedule says {PLANTED_OPTIMUM[model]}")
            if series["optimal_shots"] != PLANTED_OPTIMUM[model]:
                problems.append(f"curve {model} {method}: optimum {series['optimal_shots']}, planted {PLANTED_OPTIMUM[model]}")
            if series["overprompting"]["flagged"] != PLANTED_FLAGGED[model]:
                problems.append(f"curve {model} {method}: flagged {series['overprompting']['flagged']}, planted {PLANTED_FLAGGED[model]}")
        if seen != {(m, me) for m in self.models for me in self.methods}:
            problems.append(f"curves.json has series {sorted(seen)}")
        return scored


def check_cv(corpus: Corpus, scheme: Scheme, seed: int, k: int, folds: int,
             out_dir: Path, summary: dict | None, log: list[Received],
             problems: list[str]) -> int:
    """Check a `cv` run and the prompts it sent; returns the prompts it scored."""
    gold = corpus.gold(scheme)
    n = len(corpus.texts)
    if summary is None or summary.get("folds") != folds:
        problems.append(f"cv summary {summary}, planned {folds} folds")
    split = _read_json(out_dir / "split.json", problems)
    if split is None:
        return 0
    fold_of = {int(rid): part for rid, part in split["assignments"].items()}
    if sorted(fold_of) != list(range(n)) or set(fold_of.values()) != set(range(folds)):
        problems.append("split.json is not a partition of the corpus into the planned folds")
        return 0
    sizes = Counter(fold_of.values())
    if max(sizes.values()) - min(sizes.values()) > 1:
        problems.append(f"fold sizes {sorted(sizes.values())} differ by more than one")
    for label in scheme.ids:
        per_fold = Counter(fold_of[i] for i in range(n) if gold[i] == label)
        spread = [per_fold.get(f, 0) for f in range(folds)]
        if max(spread) - min(spread) > 1:
            problems.append(f"class {label} is not stratified over folds: {spread}")

    replies = {
        i: planted_reply(scheme, seed, CV_MODEL, corpus.texts[i], k, gold[i]) for i in range(n)
    }
    seen = Counter(r.query for r in log)
    if seen != Counter(range(n)):
        problems.append(f"stub saw {sum(seen.values())} prompts over {len(seen)} queries, planned each of {n} once")
    by_fold: dict[int, list[Received]] = defaultdict(list)
    for r in log:
        if r.model != CV_MODEL:
            problems.append(f"prompt for unplanned model {r.model!r}")
            continue
        by_fold[fold_of[r.query]].append(r)
    for fold, received in sorted(by_fold.items()):
        pool = [i for i in range(n) if fold_of[i] != fold]
        column = {idx: c for c, idx in enumerate(pool)}
        scores = tfidf_scores([corpus.texts[i] for i in pool],
                              [corpus.texts[r.query] for r in received])
        for row, r in enumerate(received):
            if len(r.examples) != min(k, len(pool)) or len(set(r.examples)) != len(r.examples):
                problems.append(f"query {r.query}: {len(r.examples)} examples, planned {min(k, len(pool))}")
                continue
            if any(e not in column for e in r.examples):
                problems.append(f"query {r.query}: example outside its training folds")
                continue
            mask = np.zeros(len(pool), dtype=bool)
            mask[[column[e] for e in r.examples]] = True
            if not is_top_k(scores[row], mask):
                problems.append(f"query {r.query}: examples are not a tfidf top-{k}")

    trace_ids: list[int] = []
    try:
        for line in (out_dir / "trace.jsonl").read_text(encoding="utf-8").splitlines():
            row = json.loads(line)
            if row.get("kind") != "prediction":
                continue
            rid = row["record_id"]
            trace_ids.append(rid)
            if row["gold"] != gold[rid] or row["completion"] != replies[rid].text:
                problems.append(f"trace row {rid} does not match its gold label and planted reply")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable trace.jsonl: {exc}")
    if sorted(trace_ids) != list(range(n)):
        problems.append(f"trace scores {len(trace_ids)} rows over {len(set(trace_ids))} records, planned each of {n} once")

    def check_report(report: dict | None, members: list[int], what: str) -> int:
        if report is None:
            return 0
        predicted = [replies[i].label for i in members]
        wf1, mf1 = plain_scores([gold[i] for i in members], predicted, scheme.ids)
        if report.get("n_predictions") != len(members):
            problems.append(f"{what}: {report.get('n_predictions')} predictions, planned {len(members)}")
        if not (_close(report["weighted_f1"], wf1) and _close(report["macro_f1"], mf1)):
            problems.append(f"{what}: F1 {report['weighted_f1']}/{report['macro_f1']}, planted {wf1}/{mf1}")
        forms = Counter(replies[i].form for i in members)
        if (report.get("n_unparseable"), report.get("n_multilabel")) != (forms["unparseable"], forms["multi"]):
            problems.append(f"{what}: unparseable/multi-label counts differ from planted")
        return report.get("n_predictions", 0)

    scored = check_report(_read_json(out_dir / "aggregate.json", problems), list(range(n)), "aggregate")
    for fold in range(folds):
        members = [i for i in range(n) if fold_of[i] == fold]
        check_report(_read_json(out_dir / "folds" / f"fold{fold:02d}.json", problems), members, f"fold {fold}")
    return scored
