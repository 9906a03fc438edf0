from __future__ import annotations

import ast
import random
import zlib
from dataclasses import asdict

import pytest

from shotsweep import (
    BINARY_FRNFR,
    PROMISE_12,
    Client,
    ConstantBackend,
    HashEmbeddingProvider,
    LabelDef,
    LabelScheme,
    ModelProfile,
    SweepPlan,
    compute_report,
    load_corpus,
    make_split,
    run_sweep,
    score_prediction,
)
from shotsweep.corpus import Corpus, SplitError
from shotsweep.evaluation import (
    INVALID_COLUMN,
    SCORING_POLICIES,
    EvaluationError,
    ParsedLabel,
    TraceRow,
    fold_reports,
    score_rows,
)
from shotsweep.gateway import CallableBackend, GatewayError

from conftest import PROMISE_CSV, REPO_ROOT, evaluate_one_cell, make_records, report_of
from oracles import oracle_compute_report, oracle_metrics


def parsed(label=None, multi=None):
    if multi:
        return ParsedLabel("multi_label", tuple(multi))
    if label:
        return ParsedLabel("label", (label,))
    return ParsedLabel("unparseable")


def prediction(gold, scored, parsed_value=None):
    """A (gold, scored label or None, parse kind) triple, as report_of takes."""
    if parsed_value is None:
        parsed_value = parsed(label=scored) if scored else parsed()
    return gold, scored, parsed_value.kind


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
        preds = [prediction("FR", "FR"), prediction("NFR", "NFR")]
        report = report_of(BINARY_FRNFR, preds)
        assert report.weighted_f1 == 1.0
        assert report.macro_f1 == 1.0
        for metrics in report.per_class.values():
            assert metrics.f1 == 1.0

    def test_worked_binary_example(self):
        # gold FR,FR,NFR,NFR; predicted FR,NFR,NFR,NFR
        preds = [
            prediction("FR", "FR"),
            prediction("FR", "NFR"),
            prediction("NFR", "NFR"),
            prediction("NFR", "NFR"),
        ]
        report = report_of(BINARY_FRNFR, preds)
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
            prediction("FR", "FR"),
            prediction("FR", None),  # unparseable, gold FR
            prediction("NFR", "NFR"),
        ]
        report = report_of(BINARY_FRNFR, preds)
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
            prediction(rng.choice(labels), rng.choice(labels + [None]))
            for _ in range(60)
        ]
        report = report_of(BINARY_FRNFR, preds)
        for lid, metrics in report.per_class.items():
            assert sum(report.confusion[lid].values()) == metrics.support
        assert sum(m.support for m in report.per_class.values()) == 60

    def test_permutation_invariance(self):
        rng = random.Random(2)
        labels = ["FR", "NFR"]
        preds = [
            prediction(rng.choice(labels), rng.choice(labels + [None]))
            for _ in range(40)
        ]
        report_a = report_of(BINARY_FRNFR, preds)
        shuffled = preds[:]
        rng.shuffle(shuffled)
        report_b = report_of(BINARY_FRNFR, shuffled)
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
            for gold in golds:
                roll = rng.random()
                if roll < 0.1:
                    p = parsed()
                elif roll < 0.25:
                    p = parsed(multi=rng.sample(labels, min(2, n_classes)))
                else:
                    p = parsed(label=rng.choice(labels))
                s = score_prediction(p, policy)
                preds.append((gold, s, p.kind))
                scored.append(s)
            report = report_of(scheme, preds)
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
            compute_report([], [], [], BINARY_FRNFR)

    @pytest.mark.parametrize(
        "gold, scored, kinds, scheme, needle",
        [([0], [-2], [0], PROMISE_12, r"scored column .* \[-1, 12\)"),
         ([0], [12], [0], PROMISE_12, r"scored column .* \[-1, 12\)"),
         ([2], [0], [0], BINARY_FRNFR, r"gold column .* \[0, 2\)"),
         ([-1], [0], [0], BINARY_FRNFR, r"gold column .* \[0, 2\)"),
         ([0], [0], [7], BINARY_FRNFR, r"kinds column .* \[0, 3\)"),
         ([0, 1], [0], [0], BINARY_FRNFR, "columns of 2, 1 and 1 rows"),
         ([0, 1], [0, 1], [0], BINARY_FRNFR, "columns of 2, 2 and 1 rows")],
        ids=["scored-below", "scored-past-end", "gold-past-end", "gold-negative", "kind",
             "short-scored", "short-kinds"],
    )
    def test_column_out_of_step_or_range_rejected(self, gold, scored, kinds, scheme, needle):
        """An index outside its column's range would be filed under another
        class (a negative one counts from the end) or raise a bare IndexError;
        columns of unequal length would be cut short by zip."""
        with pytest.raises(EvaluationError, match=needle):
            compute_report(gold, scored, kinds, scheme)

    def test_gold_outside_scheme_rejected(self):
        rows = [TraceRow(0, "FR", "FR", "h0"), TraceRow(7, "ZZ", "FR", "h7")]
        with pytest.raises(
            EvaluationError, match="^prediction for record 7: gold 'ZZ' not in scheme 'frnfr'$"
        ):
            score_rows([rows], BINARY_FRNFR, "strict", {})

    def test_report_json_roundtrip(self, tmp_path):
        from shotsweep.reporting import artifact_json, read_report

        preds = [prediction("FR", "FR"), prediction("NFR", "FR")]
        report = report_of(BINARY_FRNFR, preds, {"model": "m"})
        path = tmp_path / "report.json"
        path.write_text(artifact_json(report))
        assert read_report(path) == report

    def test_equals_the_per_prediction_oracle(self):
        """1,002 seeded answer sets under frnfr and promise12, at 20, 125 and
        625 records, with invalid and multi-label answers: the report counted
        from class-index columns is the replaced per-prediction loop's, float
        for float."""
        rng = random.Random(16)
        n_sets = 0
        for scheme in (BINARY_FRNFR, PROMISE_12):
            labels = list(scheme.label_ids)
            for n in (20, 125, 625):
                for _ in range(167):
                    policy = rng.choice(SCORING_POLICIES)
                    accuracy = rng.random()
                    p_unparseable, p_multi = rng.random() / 4, rng.random() / 4
                    outcomes = []
                    for _ in range(n):
                        gold = rng.choice(labels)
                        roll = rng.random()
                        if roll < p_unparseable:
                            answer = parsed()
                        elif roll < p_unparseable + p_multi:
                            answer = parsed(multi=rng.sample(labels, 2))
                        else:
                            answer = parsed(label=gold if rng.random() < accuracy
                                            else rng.choice(labels))
                        outcomes.append((gold, score_prediction(answer, policy), answer.kind))
                    got = asdict(report_of(scheme, outcomes))
                    want = oracle_compute_report(*map(list, zip(*outcomes)), labels)
                    for key in ("per_class", "weighted_f1", "macro_f1", "confusion",
                                "n_predictions", "n_unparseable", "n_multilabel"):
                        assert got[key] == want[key], (scheme.name, n, key)
                    n_sets += 1
        assert n_sets >= 1000

    @pytest.mark.parametrize("policy", SCORING_POLICIES)
    def test_a_scheme_with_more_labels_than_a_byte_holds(self, policy):
        labels = [f"X{i}" for i in range(300)]
        scheme = LabelScheme(
            "wide", tuple(LabelDef(lid, f"Class {i}") for i, lid in enumerate(labels)),
            "multiclass",
        )
        rng = random.Random(300)
        rows, golds, scored, kinds = [], [], [], []
        for rid in range(900):
            gold = rng.choice(labels)
            roll = rng.random()
            if roll < 0.1:
                completion, label, kind = "No idea.", None, "unparseable"
            elif roll < 0.2:
                first, second = rng.sample(labels, 2)
                completion, kind = f"{first}, or maybe {second}", "multi_label"
                label = first if policy == "first_match" else None
            else:
                label = gold if rng.random() < 0.5 else rng.choice(labels)
                completion = rng.choice([label, scheme.canonical_name(label)])
                kind = "label"
            rows.append(TraceRow(rid, gold, completion, f"h{rid}"))
            golds.append(gold)
            scored.append(label)
            kinds.append(kind)
        report = score_rows([rows], scheme, policy, {}).report
        got = asdict(report)
        del got["metadata"]
        assert got == oracle_compute_report(golds, scored, kinds, labels)
        assert report.n_multilabel and report.n_unparseable
        assert report.per_class["X299"].support == golds.count("X299") > 0


def small_corpus(n_per_class=8):
    rows = []
    for i in range(n_per_class):
        rows.append((f"functional requirement text {i} alpha", "FR"))
        rows.append((f"quality constraint text {i} beta", "NFR"))
    return Corpus(tuple(make_records(rows)), BINARY_FRNFR)


def gold_client(corpus):
    """A client whose "echo-gold" backend answers each query's gold label, and
    the list of every prompt it is sent."""
    gold = {r.text: corpus.scheme.canonical_name(r.label) for r in corpus.records}
    prompts = []

    def respond(profile, prompt):
        prompts.append(prompt)
        return gold[prompt.query_text]

    return Client(mocks={"echo-gold": CallableBackend(respond)}), prompts


def profile_for(backend="echo-gold"):
    return ModelProfile(name=f"mock-{backend}", base_url=f"mock://{backend}")


class TestRunHoldout:
    @pytest.mark.parametrize("method", ["random", "tfidf", "embedding"])
    @pytest.mark.parametrize("k", [0, 3])
    def test_echo_gold_perfect(self, method, k):
        corpus = small_corpus()
        split = make_split(corpus, "holdout", 0.75, seed=0)
        client, _ = gold_client(corpus)
        cfg = {"method": method, "k": k}
        report = evaluate_one_cell(
            corpus, split, profile_for(), cfg, client, HashEmbeddingProvider(8)
        ).report
        assert report.weighted_f1 == 1.0
        assert report.n_predictions == 4

    def test_tests_partition_one_against_examples_from_partition_zero(self):
        corpus = small_corpus(10)
        split = make_split(corpus, "holdout", 0.8, seed=7)
        client, prompts = gold_client(corpus)
        run = evaluate_one_cell(corpus, split, profile_for(), {"method": "tfidf", "k": 3}, client)
        assert [p.record_id for p in run.per_partition[0]] == [
            r.record_id for r in corpus.records if split.assignments[r.record_id] == 1
        ]
        examples = {rid for prompt in prompts for rid in prompt.example_provenance}
        assert examples and {split.assignments[rid] for rid in examples} == {0}
        assert run.report.metadata["split"] == "holdout:0.8:7"

    def test_constant_label_arithmetic(self):
        corpus = small_corpus(10)  # 10 FR, 10 NFR
        split = make_split(corpus, "holdout", 0.5, seed=1)
        client = Client(mocks={"constant": ConstantBackend("Non-Functional")})
        profile = ModelProfile(name="const", base_url="mock://constant")
        cfg = {"method": "random", "k": 2}
        report = evaluate_one_cell(corpus, split, profile, cfg, client).report
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
        cfg = {"method": "random", "k": 1}
        trace_path = tmp_path / "trace.jsonl"
        with pytest.raises(GatewayError):
            evaluate_one_cell(corpus, split, profile, cfg, client, trace_path=trace_path)
        assert not trace_path.exists()
        assert len(client.cache) == 1  # the one prediction that completed
        backend.fail_on = -1  # heal; cached first completion is not re-charged
        report = evaluate_one_cell(
            corpus, split, profile, cfg, client, trace_path=trace_path
        ).report
        assert report.weighted_f1 == 1.0
        assert backend.calls == 2 + report.n_predictions - 1
        assert len(trace_path.read_text().splitlines()) == 1 + report.n_predictions


class TestRunFull:
    def test_constant_nfr_precision_from_class_counts(self, promise_binary):
        client = Client(mocks={"constant": ConstantBackend("NFR")})
        profile = ModelProfile(name="const", base_url="mock://constant")
        cfg = {"method": "random", "k": 0}
        report = evaluate_one_cell(promise_binary, None, profile, cfg, client).report
        assert report.n_predictions == 625
        assert report.per_class["NFR"].recall == 1.0
        assert abs(report.per_class["NFR"].precision - 370 / 625) < 1e-9

    def test_self_exclusion_keeps_query_out(self):
        corpus = small_corpus(3)

        class AssertNoLeak:
            def __init__(self):
                self.calls = 0
                self.prompts = []

            def respond(self, profile, prompt):
                self.calls += 1
                self.prompts.append(prompt)
                assert prompt.query_text not in prompt.user_message.split("Input:")[0]
                return "FR"

        backend = AssertNoLeak()
        client = Client(mocks={"checker": backend})
        profile = ModelProfile(name="checker", base_url="mock://checker")
        cfg = {"method": "tfidf", "k": 5}
        run = evaluate_one_cell(corpus, None, profile, cfg, client)
        assert backend.calls == len(corpus)
        assert [p.record_id for p in run.per_partition[0]] == [r.record_id for r in corpus.records]
        assert run.report.metadata["split"] == "full"
        ids = {r.record_id for r in corpus.records}
        for record, prompt in zip(corpus.records, backend.prompts):
            assert prompt.query_text == record.text
            assert set(prompt.example_provenance) == ids - {record.record_id}


class TestRunKfold:
    def test_echo_gold_all_folds_perfect(self):
        corpus = small_corpus(10)
        client, _ = gold_client(corpus)
        result = evaluate_one_cell(
            corpus, make_split(corpus, "kfold", 5, 2), profile_for(),
            {"method": "tfidf", "k": 3}, client,
        )
        assert result.report.weighted_f1 == 1.0
        assert result.report.metadata["split"] == "kfold:5:2"
        assert len(fold_reports(result, corpus.scheme)) == 5
        for fold_report in fold_reports(result, corpus.scheme):
            assert fold_report.weighted_f1 == 1.0

    def test_each_record_scored_exactly_once(self):
        corpus = small_corpus(10)
        split = make_split(corpus, "kfold", 4, 0)
        client, prompts = gold_client(corpus)
        result = evaluate_one_cell(
            corpus, split, profile_for(), {"method": "random", "k": 2}, client,
        )
        assert result.report.n_predictions == len(corpus)
        total = sum(r.n_predictions for r in fold_reports(result, corpus.scheme))
        assert total == len(corpus)
        assert [[p.record_id for p in tested] for tested in result.per_partition] == [
            [r.record_id for r in corpus.records if split.assignments[r.record_id] == fold]
            for fold in range(4)
        ]
        fold_of = {r.text: split.assignments[r.record_id] for r in corpus.records}
        for prompt in prompts:  # each fold is tested against a pool over the others
            examples = {split.assignments[rid] for rid in prompt.example_provenance}
            assert examples and fold_of[prompt.query_text] not in examples

    def test_aggregate_confusion_is_sum_of_folds(self):
        corpus = small_corpus(9)
        client = Client(mocks={"constant": ConstantBackend("Functional")})
        profile = ModelProfile(name="const", base_url="mock://constant")
        result = evaluate_one_cell(
            corpus, make_split(corpus, "kfold", 3, 0), profile,
            {"method": "random", "k": 1}, client,
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
        result = evaluate_one_cell(
            corpus, make_split(corpus, "kfold", 5, 0), profile,
            {"method": "random", "k": 1}, client,
        )
        assert result.report.per_class["NFR"].recall == 1.0
        assert abs(result.report.per_class["NFR"].precision - 0.5) < 1e-9

    def test_fold_count_validated(self):
        corpus = small_corpus(4)
        client, _ = gold_client(corpus)
        with pytest.raises(SplitError):  # make_split validates the fold count
            evaluate_one_cell(
                corpus, make_split(corpus, "kfold", 1, 0), profile_for(),
                {"method": "random", "k": 1}, client,
            )


class TestFoldReports:
    @pytest.mark.parametrize("policy", SCORING_POLICIES)
    def test_each_fold_is_its_partitions_rows_scored_fresh(self, policy):
        """A promise12 3-fold sweep whose answers are canonical names, aliases,
        multi-label and unparseable texts, and wrong labels: each fold report,
        sliced from the cell's columns, is score_rows over that partition's
        rows alone, and the folds' confusions sum to the pooled one."""
        corpus = load_corpus(PROMISE_CSV, PROMISE_12)
        gold = {r.text: corpus.scheme.canonical_name(r.label) for r in corpus.records}

        def respond(profile, prompt):
            pick = zlib.crc32(prompt.user_message.encode("utf-8")) % 5
            return (gold[prompt.query_text], "look & feel", "Security / Performance",
                    "I cannot classify this.", "Usability")[pick]

        client = Client(mocks={"mixed": CallableBackend(respond)})
        plan = SweepPlan(
            ("m",), ("random", "tfidf"), (0, 5), split_kind="kfold", split_param=3,
            on_small_class="allow", pool_size=60, scoring_policy=policy,
        )
        run = run_sweep(plan, corpus, {"m": profile_for("mixed")}, client)
        assert not run.failures
        for outcome in run.outcomes.values():
            metadata = outcome.report.metadata
            folds = fold_reports(outcome, corpus.scheme)
            assert len(folds) == len(outcome.per_partition) == 3
            for fold, (report, rows) in enumerate(zip(folds, outcome.per_partition)):
                fresh = score_rows([rows], corpus.scheme, policy, {**metadata, "fold": fold})
                assert report == fresh.report
            for gold_id in corpus.scheme.label_ids:
                for col in (*corpus.scheme.label_ids, INVALID_COLUMN):
                    fold_sum = sum(r.confusion[gold_id][col] for r in folds)
                    assert outcome.report.confusion[gold_id][col] == fold_sum
            assert outcome.report.n_multilabel and outcome.report.n_unparseable
            assert outcome.report.confusion["LF"]["LF"] > 0  # an alias scores


def test_scoring_imports_nothing_of_the_run_loop():
    """evaluation.py scores, and replay re-scores a trace through it. The run
    loop lives in sweep.py; an import here of selection, prompts, spaces or
    dispatch would tie scoring to it again."""
    tree = ast.parse((REPO_ROOT / "src" / "shotsweep" / "evaluation.py").read_text("utf-8"))
    imported: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module is not None:
            names = {alias.name for alias in node.names}
            imported.setdefault(node.module.split(".")[-1], set()).update(names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):  # import x, from . import x
            for alias in node.names:
                imported.setdefault(alias.name.split(".")[-1], set()).add("*")
    assert not {"selection", "promptkit", "vectorspace", "gateway", "sweep"} & set(imported)
