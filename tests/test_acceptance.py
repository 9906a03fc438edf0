"""Acceptance gate: one test per criterion, at its stated tolerance and
runtime budget. Each prints a `[acceptance] criterion N (...): PASS` line
(run with `pytest -s tests/test_acceptance.py` to see them inline).
"""

from __future__ import annotations

import json
import os
import random
import re
import time

import pytest

from shotsweep import (
    BINARY_FRNFR,
    DEFAULT_TEMPLATE,
    Client,
    ConstantBackend,
    EchoGoldBackend,
    HashEmbeddingProvider,
    LabelDef,
    LabelScheme,
    ModelProfile,
    RequirementRecord,
    SweepPlan,
    build_pool,
    embed_query_tfidf,
    fit_tfidf,
    knn,
    load_corpus,
    make_split,
    render_prompt,
    run_sweep,
    score_prediction,
)
from shotsweep.cli import EXIT_OK, main
from shotsweep.corpus import PROMISE_12
from shotsweep.evaluation import ParsedLabel
from shotsweep.gateway import ResponseCache
from shotsweep.reporting import emit_table
from shotsweep.selection import rank
from shotsweep.sweep import CurvePoint, detect_overprompting, find_optimum

from conftest import PROMISE_CSV, evaluate_one_cell, report_of
from hillmock import HILL_SCHEDULE, hill_setup
from oracles import oracle_metrics, oracle_tfidf_ranking, simulate_round_robin

WORDS = [
    "system", "shall", "encrypt", "data", "user", "log", "error", "report",
    "daily", "export", "backup", "scale", "respond", "second", "secure",
    "access", "display", "record", "audit", "notify", "queue", "cache",
]


class Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds
        self.started = time.perf_counter()

    def check(self) -> float:
        elapsed = time.perf_counter() - self.started
        assert elapsed < self.seconds, f"runtime {elapsed:.2f}s over budget {self.seconds}s"
        return elapsed


def _pass(number: int, name: str, elapsed: float) -> None:
    print(f"[acceptance] criterion {number} ({name}): PASS ({elapsed:.2f}s)")


def test_criterion_1_tfidf_oracle_equivalence():
    budget = Budget(10.0)
    rng = random.Random(101)
    for case in range(200):
        n_docs = rng.randint(1, 50)
        texts = [
            " ".join(rng.choices(WORDS, k=rng.randint(1, 12)))
            for _ in range(n_docs)
        ]
        records = [RequirementRecord(i, t, "FR", "acc") for i, t in enumerate(texts)]
        model = fit_tfidf(records)
        query = " ".join(
            rng.choices(WORDS + ["zzoov", "qqoov"], k=rng.randint(1, 10))
        )
        got = knn(model, embed_query_tfidf(model, query), n_docs)
        expected = oracle_tfidf_ranking(texts, query)
        assert [n.record_id for n in got] == [i for i, _ in expected], f"case {case}"
        for neighbor, (_, sim) in zip(got, expected):
            assert abs(neighbor.similarity - sim) < 1e-9
    _pass(1, "TF-IDF oracle equivalence", budget.check())


def test_criterion_2_stratification_property():
    budget = Budget(5.0)
    rng = random.Random(202)
    for case in range(1000):
        n_classes = rng.randint(1, 8)
        sizes = [rng.randint(0, 25) for _ in range(n_classes)]
        scheme = LabelScheme(
            "acc",
            tuple(LabelDef(f"C{i}", f"Klass{i}") for i in range(n_classes)),
            "multiclass" if n_classes != 2 else "binary",
        )
        train = []
        for i, n in enumerate(sizes):
            for j in range(n):
                train.append(
                    RequirementRecord(len(train), f"c{i} row {j}", f"C{i}", "acc")
                )
        size = rng.randint(0, len(train))
        pool = build_pool(train, scheme, size, seed=rng.randint(0, 10_000))
        got = {lid: len(ids) for lid, ids in pool.per_class.items()}
        expected = simulate_round_robin(
            [(f"C{i}", n) for i, n in enumerate(sizes)], size
        )
        assert got == expected, f"case {case}"
        live = [
            got[f"C{i}"] for i, n in enumerate(sizes) if got[f"C{i}"] < n
        ]
        if live:
            assert max(live) - min(live) <= 1, f"case {case}: spread > 1"
    _pass(2, "stratification property", budget.check())


def test_criterion_3_metrics_oracle_equivalence():
    budget = Budget(10.0)
    rng = random.Random(303)
    for case in range(1000):
        n_classes = rng.randint(2, 12)
        labels = [f"C{i}" for i in range(n_classes)]
        scheme = LabelScheme(
            "acc",
            tuple(LabelDef(lid, f"Klass {lid}") for lid in labels),
            "multiclass" if n_classes != 2 else "binary",
        )
        n = rng.randint(1, 200)
        policy = rng.choice(["strict", "first_match"])
        predictions = []
        golds = []
        scored = []
        for i in range(n):
            gold = rng.choice(labels)
            roll = rng.random()
            if roll < 0.08:
                parsed = ParsedLabel("unparseable")
            elif roll < 0.2:
                picked = rng.sample(labels, rng.randint(2, min(3, n_classes)))
                parsed = ParsedLabel("multi_label", tuple(picked))
            else:
                parsed = ParsedLabel("label", (rng.choice(labels),))
            s = score_prediction(parsed, policy)
            predictions.append((gold, s, parsed.kind))
            golds.append(gold)
            scored.append(s)
        report = report_of(scheme, predictions)
        expected = oracle_metrics(golds, scored, labels)
        for lid in labels:
            got = report.per_class[lid]
            want = expected["per_class"][lid]
            assert abs(got.precision - want["precision"]) < 1e-9, f"case {case}"
            assert abs(got.recall - want["recall"]) < 1e-9
            assert abs(got.f1 - want["f1"]) < 1e-9
            assert got.support == want["support"]
        assert abs(report.weighted_f1 - expected["weighted_f1"]) < 1e-9
        assert abs(report.macro_f1 - expected["macro_f1"]) < 1e-9

    # worked binary example: gold FR,FR,NFR,NFR / predicted FR,NFR,NFR,NFR
    worked = [
        ("FR", "FR", "label"),
        ("FR", "NFR", "label"),
        ("NFR", "NFR", "label"),
        ("NFR", "NFR", "label"),
    ]
    report = report_of(BINARY_FRNFR, worked)
    assert abs(report.weighted_f1 - 11 / 15) < 1e-9  # 0.733...
    assert round(report.weighted_f1, 3) == 0.733
    _pass(3, "metrics oracle equivalence", budget.check())


def test_criterion_4_dataset_fidelity():
    budget = Budget(1.0)
    binary = load_corpus(PROMISE_CSV, BINARY_FRNFR)
    assert binary.class_counts == {"FR": 255, "NFR": 370}
    assert len(binary) == 625

    multi = load_corpus(PROMISE_CSV, PROMISE_12)
    # independent count straight off the file
    import csv as _csv

    with open(PROMISE_CSV, newline="", encoding="utf-8") as handle:
        reader = _csv.DictReader(handle)
        file_counts: dict[str, int] = {}
        for row in reader:
            file_counts[row["label"]] = file_counts.get(row["label"], 0) + 1
    assert multi.class_counts == {
        lid: file_counts.get(lid, 0) for lid in PROMISE_12.label_ids
    }
    assert sum(multi.class_counts.values()) == 625

    plan = make_split(binary, "kfold", 10, seed=0)
    assert len(plan.assignments) == 625
    assert set(plan.assignments) == {r.record_id for r in binary.records}
    assert set(plan.assignments.values()) == set(range(10))
    _pass(4, "dataset fidelity", budget.check())


@pytest.fixture(scope="module")
def promise_corpus():
    return load_corpus(PROMISE_CSV, BINARY_FRNFR)


def test_criterion_5_offline_end_to_end(promise_corpus):
    budget = Budget(30.0)
    corpus = promise_corpus
    gold = {r.text: corpus.scheme.canonical_name(r.label) for r in corpus.records}
    client = Client(mocks={"echo-gold": EchoGoldBackend(gold)})
    profile = ModelProfile(name="echo", base_url="mock://echo-gold")
    provider = HashEmbeddingProvider(32)
    split = make_split(corpus, "holdout", 0.8, seed=0)
    for method in ("random", "embedding", "tfidf"):
        for k in (0, 5, 20):
            cfg = {"method": method, "k": k, "pool_size": 200}
            holdout = evaluate_one_cell(corpus, split, profile, cfg, client, provider).report
            assert holdout.weighted_f1 == 1.0, (method, k, "holdout")
            folded = evaluate_one_cell(
                corpus, make_split(corpus, "kfold", 10, 0), profile, cfg, client,
                provider=provider,
            )
            assert folded.report.weighted_f1 == 1.0, (method, k, "kfold")
            assert folded.report.n_predictions == 625

    constant_client = Client(mocks={"constant": ConstantBackend("NFR")})
    constant_profile = ModelProfile(name="const", base_url="mock://constant")
    report = evaluate_one_cell(
        corpus, None, constant_profile, {"method": "random", "k": 0}, constant_client
    ).report
    assert abs(report.per_class["NFR"].precision - 0.592) < 0.001
    assert report.per_class["NFR"].recall == 1.0
    _pass(5, "offline end-to-end", budget.check())


def test_criterion_6_overprompting_detection():
    budget = Budget(30.0)
    # planted hill: .5/.7/.9/.85/.8 at 0/5/10/20/40
    corpus, _, backend = hill_setup(HILL_SCHEDULE)
    client = Client(mocks={"hill": backend})
    profiles = {"hill-model": ModelProfile(name="hill-model", base_url="mock://hill")}
    plan = SweepPlan(
        ("hill-model",), ("tfidf",), tuple(sorted(HILL_SCHEDULE)),
        split_param=0.5, split_seed=0,
    )
    run = run_sweep(plan, corpus, profiles, client)
    assert not run.failures
    curve = run.curves[0]
    assert curve.optimal_shots == 10
    assert curve.overprompting.flagged
    assert abs(curve.overprompting.max_post_peak_decline - 0.100) < 1e-9

    # monotone schedule: no flag, optimum at the last grid point
    monotone = {0: 0.5, 5: 0.7, 10: 0.8, 20: 0.85, 40: 0.9}
    corpus_m, _, backend_m = hill_setup(monotone)
    client_m = Client(mocks={"hill": backend_m})
    run_m = run_sweep(plan, corpus_m, profiles | {}, client_m)
    curve_m = run_m.curves[0]
    assert curve_m.optimal_shots == 40
    assert not curve_m.overprompting.flagged

    # plateau resolves ties to the fewest shots
    plateau = [CurvePoint(10, 0.9, 0.9, 0), CurvePoint(20, 0.9, 0.9, 0), CurvePoint(40, 0.9, 0.9, 0)]
    assert find_optimum(plateau) == 10
    assert not detect_overprompting(plateau, 0.02).flagged
    _pass(6, "over-prompting detection", budget.check())


def test_criterion_7_reproducibility(tmp_path):
    budget = Budget(60.0)
    config = {
        "data": str(PROMISE_CSV),
        "scheme": "frnfr",
        "models": ["mock-gold"],
        "methods": ["random", "tfidf"],
        "grid": [0, 5],
        "pool_size": 100,
        "split": {"kind": "holdout", "fraction": 0.8, "seed": 0},
        "profiles": {"mock-gold": {"base_url": "mock://echo-gold"}},
    }
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", str(config_path), "--out", str(out_a)]) == EXIT_OK
    assert main(["sweep", "--config", str(config_path), "--out", str(out_b)]) == EXIT_OK
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        if rel.name == "manifest.json":
            m_a = json.loads((out_a / rel).read_text())
            m_b = json.loads((out_b / rel).read_text())
            for manifest in (m_a, m_b):
                manifest.pop("started_at")
                manifest.pop("finished_at")
            assert m_a == m_b
        else:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel

    # resume: same plan, cache on disk, fresh client; zero upstream calls
    corpus = load_corpus(PROMISE_CSV, BINARY_FRNFR)
    gold = {r.text: corpus.scheme.canonical_name(r.label) for r in corpus.records}
    plan = SweepPlan(
        ("mock-gold",), ("random", "tfidf"), (0, 5),
        split_param=0.8, split_seed=0, pool_size=100,
    )
    profiles = {"mock-gold": ModelProfile(name="mock-gold", base_url="mock://echo-gold")}
    cache_dir = tmp_path / "cache"
    first_backend = EchoGoldBackend(gold)
    client1 = Client(cache=ResponseCache(cache_dir), mocks={"echo-gold": first_backend})
    first = run_sweep(plan, corpus, profiles, client1)
    assert not first.failures
    assert first_backend.calls > 0
    resumed_backend = EchoGoldBackend(gold)
    client2 = Client(cache=ResponseCache(cache_dir), mocks={"echo-gold": resumed_backend})
    resumed = run_sweep(plan, corpus, profiles, client2)
    assert not resumed.failures
    assert resumed_backend.calls == 0
    assert resumed.curves == first.curves
    _pass(7, "reproducibility", budget.check())


def count_whole(name: str, text: str) -> int:
    pattern = rf"(?<![A-Za-z0-9-]){re.escape(name)}(?![A-Za-z0-9-])"
    return len(re.findall(pattern, text))


def test_criterion_8_prompt_contract():
    budget = Budget(5.0)
    rng = random.Random(808)
    for case in range(500):
        n_classes = rng.randint(2, 6)
        scheme = LabelScheme(
            "acc",
            tuple(
                LabelDef(f"C{i}", f"Kind{case % 7}{i}") for i in range(n_classes)
            ),
            "multiclass" if n_classes != 2 else "binary",
        )
        pool_texts = [
            f"pool item {case} {i} " + " ".join(rng.choices(WORDS, k=4))
            for i in range(rng.randint(1, 12))
        ]
        records = [
            RequirementRecord(i, t, f"C{rng.randrange(n_classes)}", "acc")
            for i, t in enumerate(pool_texts)
        ]
        pool = build_pool(records, scheme, len(records), seed=case)
        k = rng.randint(0, 8)
        ranking = rank(pool, [f"query {case} unique"], "random", k, seed=case)[0]
        prompt = render_prompt(
            DEFAULT_TEMPLATE, scheme, ranking, k, pool, f"query {case} unique"
        )
        blocks = re.findall(r"(?m)^Text: ", prompt.user_message)
        assert len(blocks) == len(prompt.example_provenance) == min(k, len(pool))
        if len(prompt.example_provenance) == 0:
            assert DEFAULT_TEMPLATE.examples_header not in prompt.user_message
        task_block = prompt.user_message.split(DEFAULT_TEMPLATE.examples_header)[0]
        for label in scheme.labels:
            assert count_whole(label.name, task_block) == 1
        query = f"query {case} unique"
        assert prompt.user_message.count(query) == 1
        query_at = prompt.user_message.rindex(query)
        for rid in prompt.example_provenance:
            assert prompt.user_message.index(pool.record(rid).text) < query_at
    _pass(8, "prompt contract", budget.check())


LIVE_BASE = os.environ.get("SHOTSWEEP_LIVE_BASE_URL")
LIVE_MODEL = os.environ.get("SHOTSWEEP_LIVE_MODEL")


@pytest.mark.skipif(
    not (LIVE_BASE and LIVE_MODEL),
    reason="optional live check: set SHOTSWEEP_LIVE_BASE_URL and SHOTSWEEP_LIVE_MODEL "
    "(plus OPENAI_API_KEY) to run",
)
def test_criterion_9_optional_live_api(tmp_path, promise_corpus):
    profile = ModelProfile(
        name=LIVE_MODEL, base_url=LIVE_BASE, rate_limit_per_s=4.0, max_output_tokens=8
    )
    client = Client(cache=ResponseCache(tmp_path / "live-cache"))
    cfg = {"method": "tfidf", "k": 10}
    result = evaluate_one_cell(
        promise_corpus, make_split(promise_corpus, "kfold", 10, 0), profile, cfg, client
    )
    assert result.report.n_predictions == 625
    table = emit_table([result.report], "binary")
    assert "Overall F1" in table.text
    assert result.report.weighted_f1 >= 0.85
    _pass(9, "optional live API", 0.0)
