from __future__ import annotations

import random

import pytest

from shotsweep import (
    BINARY_FRNFR,
    Client,
    ConstantBackend,
    EchoGoldBackend,
    HashEmbeddingProvider,
    LabelDef,
    LabelScheme,
    ModelProfile,
    compute_report,
    evaluate_split,
    make_split,
    score_prediction,
)
from shotsweep.corpus import Corpus, SplitError, SplitPlan
from shotsweep.evaluation import (
    INVALID_COLUMN,
    EvaluationError,
    ExperimentConfig,
    Prediction,
    fold_reports,
    partitions,
)
from shotsweep.gateway import GatewayError, ParsedLabel

from conftest import make_records
from oracles import oracle_metrics


def parsed(label=None, multi=None):
    if multi:
        return ParsedLabel("multi_label", tuple(multi))
    if label:
        return ParsedLabel("label", (label,))
    return ParsedLabel("unparseable")


def prediction(gold, scored, parsed_value=None, rid=0):
    if parsed_value is None:
        parsed_value = parsed(label=scored) if scored else parsed()
    return Prediction(rid, gold, parsed_value, scored, f"hash{rid}")


class TestScorePrediction:
    def test_single_label_both_policies(self):
        p = parsed(label="FR")
        assert score_prediction(p, "strict") == "FR"
        assert score_prediction(p, "first_match") == "FR"

    def test_multi_label_policies_differ(self):
        p = parsed(multi=["PE", "US"])
        assert score_prediction(p, "strict") is None
        assert score_prediction(p, "first_match") == "PE"

    def test_unparseable_both_none(self):
        p = parsed()
        assert score_prediction(p, "strict") is None
        assert score_prediction(p, "first_match") is None

    def test_unknown_policy(self):
        with pytest.raises(EvaluationError):
            score_prediction(parsed(label="FR"), "lenient")


class TestComputeReport:
    def test_all_correct(self):
        preds = [prediction("FR", "FR", rid=0), prediction("NFR", "NFR", rid=1)]
        report = compute_report(preds, BINARY_FRNFR)
        assert report.weighted_f1 == 1.0
        assert report.macro_f1 == 1.0
        for metrics in report.per_class.values():
            assert metrics.f1 == 1.0

    def test_worked_binary_example(self):
        # gold FR,FR,NFR,NFR; predicted FR,NFR,NFR,NFR
        preds = [
            prediction("FR", "FR", rid=0),
            prediction("FR", "NFR", rid=1),
            prediction("NFR", "NFR", rid=2),
            prediction("NFR", "NFR", rid=3),
        ]
        report = compute_report(preds, BINARY_FRNFR)
        fr = report.per_class["FR"]
        nfr = report.per_class["NFR"]
        assert abs(fr.precision - 1.0) < 1e-9
        assert abs(fr.recall - 0.5) < 1e-9
        assert abs(fr.f1 - 2 / 3) < 1e-9
        assert abs(nfr.precision - 2 / 3) < 1e-9
        assert abs(nfr.recall - 1.0) < 1e-9
        assert abs(nfr.f1 - 0.8) < 1e-9
        assert abs(report.weighted_f1 - 11 / 15) < 1e-9
        assert abs(report.macro_f1 - 11 / 15) < 1e-9

    def test_invalid_counts_as_fn_only(self):
        preds = [
            prediction("FR", "FR", rid=0),
            prediction("FR", None, rid=1),  # unparseable, gold FR
            prediction("NFR", "NFR", rid=2),
        ]
        report = compute_report(preds, BINARY_FRNFR)
        assert report.confusion["FR"][INVALID_COLUMN] == 1
        assert report.per_class["FR"].precision == 1.0  # no false positives added
        assert abs(report.per_class["FR"].recall - 0.5) < 1e-9
        assert report.per_class["NFR"].recall == 1.0
        assert report.n_unparseable == 1
        assert report.n_invalid == 1

    def test_confusion_rows_sum_to_support(self):
        rng = random.Random(1)
        labels = ["FR", "NFR"]
        preds = [
            prediction(rng.choice(labels), rng.choice(labels + [None]), rid=i)
            for i in range(60)
        ]
        report = compute_report(preds, BINARY_FRNFR)
        for lid, metrics in report.per_class.items():
            assert sum(report.confusion[lid].values()) == metrics.support
        assert sum(m.support for m in report.per_class.values()) == 60

    def test_permutation_invariance(self):
        rng = random.Random(2)
        labels = ["FR", "NFR"]
        preds = [
            prediction(rng.choice(labels), rng.choice(labels + [None]), rid=i)
            for i in range(40)
        ]
        report_a = compute_report(preds, BINARY_FRNFR)
        shuffled = preds[:]
        rng.shuffle(shuffled)
        report_b = compute_report(shuffled, BINARY_FRNFR)
        assert report_a.per_class == report_b.per_class
        assert report_a.weighted_f1 == report_b.weighted_f1
        assert report_a.confusion == report_b.confusion

    def test_matches_independent_oracle(self):
        rng = random.Random(3)
        for _ in range(100):
            n_classes = rng.randint(2, 12)
            labels = [f"C{i}" for i in range(n_classes)]
            scheme = LabelScheme(
                "multi",
                tuple(LabelDef(lid, f"Class {lid}") for lid in labels),
                "multiclass" if n_classes != 2 else "binary",
            )
            n = rng.randint(1, 200)
            golds = [rng.choice(labels) for _ in range(n)]
            policy = rng.choice(["strict", "first_match"])
            preds = []
            scored = []
            for i, gold in enumerate(golds):
                roll = rng.random()
                if roll < 0.1:
                    p = parsed()
                elif roll < 0.25:
                    p = parsed(multi=rng.sample(labels, min(2, n_classes)))
                else:
                    p = parsed(label=rng.choice(labels))
                s = score_prediction(p, policy)
                preds.append(Prediction(i, gold, p, s, f"h{i}"))
                scored.append(s)
            report = compute_report(preds, scheme)
            expected = oracle_metrics(golds, scored, labels)
            for lid in labels:
                got = report.per_class[lid]
                want = expected["per_class"][lid]
                assert abs(got.precision - want["precision"]) < 1e-9
                assert abs(got.recall - want["recall"]) < 1e-9
                assert abs(got.f1 - want["f1"]) < 1e-9
                assert got.support == want["support"]
            assert abs(report.weighted_f1 - expected["weighted_f1"]) < 1e-9
            assert abs(report.macro_f1 - expected["macro_f1"]) < 1e-9

    def test_empty_predictions_rejected(self):
        with pytest.raises(EvaluationError):
            compute_report([], BINARY_FRNFR)

    def test_gold_outside_scheme_rejected(self):
        with pytest.raises(EvaluationError, match="gold"):
            compute_report([prediction("ZZ", "FR")], BINARY_FRNFR)

    def test_report_json_roundtrip(self):
        from shotsweep.evaluation import EvalReport

        preds = [prediction("FR", "FR", rid=0), prediction("NFR", "FR", rid=1)]
        report = compute_report(preds, BINARY_FRNFR, {"model": "m"})
        import json

        again = EvalReport.from_dict(json.loads(report.to_json()))
        assert again == report


def small_corpus(n_per_class=8):
    rows = []
    for i in range(n_per_class):
        rows.append((f"functional requirement text {i} alpha", "FR"))
        rows.append((f"quality constraint text {i} beta", "NFR"))
    return Corpus(tuple(make_records(rows)), BINARY_FRNFR)


def gold_client(corpus):
    gold = {r.text: corpus.scheme.canonical_name(r.label) for r in corpus.records}
    backend = EchoGoldBackend(gold)
    return Client(mocks={"echo-gold": backend}), backend


def profile_for(backend="echo-gold"):
    return ModelProfile(name=f"mock-{backend}", base_url=f"mock://{backend}")


class TestPartitions:
    def test_holdout_tests_exactly_partition_one(self):
        corpus = small_corpus(10)
        split = make_split(corpus, "holdout", 0.75, seed=3)
        parts, _ = partitions(corpus, split)
        assert len(parts) == 1
        train, test = parts[0]
        assert [r.record_id for r in test] == [
            r.record_id for r in corpus.records if split.assignments[r.record_id] == 1
        ]
        assert [r.record_id for r in train] == [
            r.record_id for r in corpus.records if split.assignments[r.record_id] == 0
        ]

    def test_kfold_tests_cover_every_record_once(self):
        corpus = small_corpus(10)
        split = make_split(corpus, "kfold", 4, seed=1)
        parts, _ = partitions(corpus, split)
        assert len(parts) == 4
        tested = sorted(r.record_id for _, test in parts for r in test)
        assert tested == sorted(r.record_id for r in corpus.records)
        for fold, (train, test) in enumerate(parts):
            assert {split.assignments[r.record_id] for r in test} == {fold}
            assert len(train) + len(test) == len(corpus)
            assert fold not in {split.assignments[r.record_id] for r in train}

    def test_full_tests_every_record_against_all(self):
        corpus = small_corpus(3)
        parts, split_desc = partitions(corpus, None)
        records = list(corpus.records)
        assert parts == [(records, records)]
        assert split_desc == "full"

    def test_descriptions(self):
        corpus = small_corpus(10)
        assert partitions(corpus, make_split(corpus, "holdout", 0.8, 7))[1] == "holdout:0.8:7"
        assert partitions(corpus, make_split(corpus, "kfold", 5, 2))[1] == "kfold:5:2"

    def test_empty_holdout_test_partition_raises(self):
        corpus = small_corpus(3)
        split = SplitPlan("holdout", 0.8, 0, {r.record_id: 0 for r in corpus.records})
        with pytest.raises(EvaluationError, match="test partition is empty"):
            partitions(corpus, split)


class TestRunHoldout:
    @pytest.mark.parametrize("method", ["random", "tfidf", "embedding"])
    @pytest.mark.parametrize("k", [0, 3])
    def test_echo_gold_perfect(self, method, k):
        corpus = small_corpus()
        split = make_split(corpus, "holdout", 0.75, seed=0)
        client, _ = gold_client(corpus)
        cfg = ExperimentConfig(method=method, k=k)
        report = evaluate_split(
            corpus, split, profile_for(), cfg, client, HashEmbeddingProvider(8)
        ).report
        assert report.weighted_f1 == 1.0
        assert report.n_predictions == 4

    def test_constant_label_arithmetic(self):
        corpus = small_corpus(10)  # 10 FR, 10 NFR
        split = make_split(corpus, "holdout", 0.5, seed=1)
        client = Client(mocks={"constant": ConstantBackend("Non-Functional")})
        profile = ModelProfile(name="const", base_url="mock://constant")
        cfg = ExperimentConfig(method="random", k=2)
        report = evaluate_split(corpus, split, profile, cfg, client).report
        assert report.per_class["NFR"].recall == 1.0
        assert abs(report.per_class["NFR"].precision - 0.5) < 1e-9
        assert report.per_class["FR"].f1 == 0.0

    def test_trace_written_and_resumable_after_failure(self, tmp_path):
        corpus = small_corpus(4)
        split = make_split(corpus, "holdout", 0.5, seed=0)

        class FailsOnce:
            def __init__(self, gold):
                self.gold = gold
                self.calls = 0
                self.fail_on = 2

            def respond(self, profile, prompt):
                self.calls += 1
                if self.calls == self.fail_on:
                    raise GatewayError("upstream exploded")
                return self.gold[prompt.query_text]

        gold = {r.text: corpus.scheme.canonical_name(r.label) for r in corpus.records}
        backend = FailsOnce(gold)
        client = Client(mocks={"flaky": backend})
        profile = ModelProfile(name="flaky", base_url="mock://flaky")
        cfg = ExperimentConfig(method="random", k=1)
        trace_path = tmp_path / "trace.jsonl"
        with pytest.raises(GatewayError):
            evaluate_split(corpus, split, profile, cfg, client, trace_path=trace_path)
        lines = trace_path.read_text().splitlines()
        assert len(lines) == 2  # meta + the one prediction that completed
        backend.fail_on = -1  # heal; cached first completion is not re-charged
        report = evaluate_split(
            corpus, split, profile, cfg, client, trace_path=trace_path
        ).report
        assert report.weighted_f1 == 1.0


class TestRunFull:
    def test_constant_nfr_precision_from_class_counts(self, promise_binary):
        client = Client(mocks={"constant": ConstantBackend("NFR")})
        profile = ModelProfile(name="const", base_url="mock://constant")
        cfg = ExperimentConfig(method="random", k=0)
        report = evaluate_split(promise_binary, None, profile, cfg, client).report
        assert report.n_predictions == 625
        assert report.per_class["NFR"].recall == 1.0
        assert abs(report.per_class["NFR"].precision - 370 / 625) < 1e-9

    def test_self_exclusion_keeps_query_out(self):
        corpus = small_corpus(3)

        class AssertNoLeak:
            def __init__(self):
                self.calls = 0

            def respond(self, profile, prompt):
                self.calls += 1
                assert prompt.query_text not in prompt.user_message.split("Input:")[0]
                return "FR"

        backend = AssertNoLeak()
        client = Client(mocks={"checker": backend})
        profile = ModelProfile(name="checker", base_url="mock://checker")
        cfg = ExperimentConfig(method="tfidf", k=5)
        evaluate_split(corpus, None, profile, cfg, client)
        assert backend.calls == len(corpus)


class TestRunKfold:
    def test_echo_gold_all_folds_perfect(self):
        corpus = small_corpus(10)
        client, _ = gold_client(corpus)
        result = evaluate_split(
            corpus, make_split(corpus, "kfold", 5, 0), profile_for(),
            ExperimentConfig("tfidf", 3), client,
        )
        assert result.report.weighted_f1 == 1.0
        assert len(fold_reports(result, corpus.scheme)) == 5
        for fold_report in fold_reports(result, corpus.scheme):
            assert fold_report.weighted_f1 == 1.0

    def test_each_record_scored_exactly_once(self):
        corpus = small_corpus(10)
        client, _ = gold_client(corpus)
        result = evaluate_split(
            corpus, make_split(corpus, "kfold", 4, 0), profile_for(),
            ExperimentConfig("random", 2), client,
        )
        assert result.report.n_predictions == len(corpus)
        total = sum(r.n_predictions for r in fold_reports(result, corpus.scheme))
        assert total == len(corpus)

    def test_aggregate_confusion_is_sum_of_folds(self):
        corpus = small_corpus(9)
        client = Client(mocks={"constant": ConstantBackend("Functional")})
        profile = ModelProfile(name="const", base_url="mock://constant")
        result = evaluate_split(
            corpus, make_split(corpus, "kfold", 3, 0), profile,
            ExperimentConfig("random", 1), client,
        )
        per_fold = fold_reports(result, corpus.scheme)
        for gold in corpus.scheme.label_ids:
            for col in (*corpus.scheme.label_ids, INVALID_COLUMN):
                fold_sum = sum(r.confusion[gold][col] for r in per_fold)
                assert result.report.confusion[gold][col] == fold_sum

    def test_constant_label_matches_single_pass_arithmetic(self):
        corpus = small_corpus(10)
        client = Client(mocks={"constant": ConstantBackend("NFR")})
        profile = ModelProfile(name="const", base_url="mock://constant")
        result = evaluate_split(
            corpus, make_split(corpus, "kfold", 5, 0), profile,
            ExperimentConfig("random", 1), client,
        )
        assert result.report.per_class["NFR"].recall == 1.0
        assert abs(result.report.per_class["NFR"].precision - 0.5) < 1e-9

    def test_fold_count_validated(self):
        corpus = small_corpus(4)
        client, _ = gold_client(corpus)
        with pytest.raises(SplitError):  # make_split validates the fold count
            evaluate_split(
                corpus, make_split(corpus, "kfold", 1, 0), profile_for(),
                ExperimentConfig("random", 1), client,
            )
