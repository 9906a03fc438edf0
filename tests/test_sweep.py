from __future__ import annotations

import hashlib
import json
import random
import threading
import time
from dataclasses import replace

import pytest

from shotsweep import (
    DEFAULT_GRID,
    DEFAULT_TEMPLATE,
    Client,
    ConstantBackend,
    EchoGoldBackend,
    HashEmbeddingProvider,
    ModelProfile,
    PromptSpec,
    SelectionConfig,
    SweepPlan,
    build_pool,
    compute_report,
    detect_overprompting,
    find_optimum,
    make_split,
    render_prompt,
    run_sweep,
    tokenize,
)
from shotsweep.corpus import Corpus
from shotsweep.evaluation import CellRun, score_rows
from shotsweep import gateway, vectorspace
from shotsweep.gateway import CallableBackend, GatewayError, ResponseCache, _ConnectionPool
from shotsweep.promptkit import PromptError
from shotsweep.reporting import artifact_json, replay, trace_jsonl
from shotsweep.selection import rank
from shotsweep.sweep import (
    CurvePoint,
    SweepError,
    build_curve,
)

from hillmock import HILL_SCHEDULE, balanced_corpus, hill_setup
from loopback import ChatEndpoint


def points(*pairs):
    return [CurvePoint(k, f1, f1, 0) for k, f1 in pairs]


class TestSweepPlan:
    def test_grid_must_increase(self):
        with pytest.raises(SweepError, match="strictly increasing"):
            SweepPlan(("m",), ("tfidf",), (0, 5, 5))

    def test_unknown_method(self):
        with pytest.raises(SweepError, match="unknown selection method"):
            SweepPlan(("m",), ("nearest",))

    @pytest.mark.parametrize(
        "models, methods, grid, needle",
        [((), ("tfidf",), (0,), "at least one model"),
         (("m",), (), (0,), "at least one method"),
         (("m",), ("tfidf",), (), "empty shot grid"),
         (("m",), ("tfidf",), (-5, 0), "shot counts must be >= 0")],
        ids=["no-models", "no-methods", "empty-grid", "negative-shots"],
    )
    def test_plan_without_cells_or_with_negative_shots_refused(self, models, methods, grid,
                                                               needle):
        with pytest.raises(SweepError, match=needle):
            SweepPlan(models, methods, grid)

    def test_cell_matrix_size(self):
        plan = SweepPlan(
            tuple(f"m{i}" for i in range(7)), ("random", "embedding", "tfidf")
        )
        assert plan.n_cells == 168
        assert len(plan.cells()) == 168


class TestFindOptimum:
    def test_single_point(self):
        assert find_optimum(points((10, 0.5))) == 10

    def test_plateau_resolves_to_fewest(self):
        assert find_optimum(points((10, 0.9), (20, 0.9), (40, 0.9))) == 10

    def test_argmax(self):
        assert find_optimum(points((5, 0.80), (10, 0.95), (20, 0.93))) == 10

    def test_matches_linear_scan_oracle(self):
        rng = random.Random(0)
        for _ in range(200):
            grid = sorted(rng.sample(range(0, 200), rng.randint(1, 9)))
            values = [round(rng.random(), 3) for _ in grid]
            curve = points(*zip(grid, values))
            best = max(values)
            expected = min(k for k, v in zip(grid, values) if v == best)
            assert find_optimum(curve) == expected


class TestDetectOverprompting:
    def test_strictly_increasing_not_flagged(self):
        verdict = detect_overprompting(points((0, 0.5), (5, 0.7), (10, 0.9)), 0.02)
        assert not verdict.flagged
        assert verdict.max_post_peak_decline == 0.0

    def test_hill_flagged(self):
        verdict = detect_overprompting(points((0, 0.5), (5, 0.9), (10, 0.7)), 0.02)
        assert verdict.flagged
        assert verdict.peak_at == 5
        assert abs(verdict.max_post_peak_decline - 0.2) < 1e-12

    def test_small_decline_below_threshold(self):
        verdict = detect_overprompting(
            points((0, 0.90), (5, 0.91), (10, 0.895)), 0.02
        )
        assert not verdict.flagged
        assert abs(verdict.max_post_peak_decline - 0.015) < 1e-12

    def test_dip_then_recovery_still_registers(self):
        verdict = detect_overprompting(
            points((0, 0.5), (5, 0.9), (10, 0.7), (20, 0.85)), 0.02
        )
        assert verdict.flagged
        assert abs(verdict.max_post_peak_decline - 0.2) < 1e-12

    def test_flagged_implies_peak_before_last(self):
        rng = random.Random(7)
        for _ in range(200):
            grid = sorted(rng.sample(range(0, 100), rng.randint(2, 8)))
            values = [round(rng.random(), 2) for _ in grid]
            verdict = detect_overprompting(points(*zip(grid, values)), 0.05)
            if verdict.flagged:
                assert verdict.peak_at < grid[-1]
                assert verdict.max_post_peak_decline >= 0.05

    def test_prepending_strictly_lower_points_is_invariant(self):
        base = points((10, 0.6), (20, 0.9), (40, 0.7))
        verdict = detect_overprompting(base, 0.02)
        extended = points((0, 0.2), (5, 0.3)) + base
        verdict2 = detect_overprompting(extended, 0.02)
        assert verdict2.peak_at == verdict.peak_at
        assert verdict2.max_post_peak_decline == verdict.max_post_peak_decline
        assert verdict2.flagged == verdict.flagged

    def test_needs_two_points(self):
        with pytest.raises(SweepError):
            detect_overprompting(points((0, 0.5)), 0.02)


def echo_gold_client(corpus):
    gold = {r.text: corpus.scheme.canonical_name(r.label) for r in corpus.records}
    backend = EchoGoldBackend(gold)
    return Client(mocks={"echo-gold": backend}), backend


def mock_profiles(names, backend="echo-gold"):
    return {n: ModelProfile(name=n, base_url=f"mock://{backend}") for n in names}


class TestRunSweep:
    def test_echo_gold_flat_curve(self):
        corpus = balanced_corpus(10)
        client, _ = echo_gold_client(corpus)
        plan = SweepPlan(("m1",), ("tfidf",), (0, 5), split_param=0.5)
        run = run_sweep(plan, corpus, mock_profiles(["m1"]), client)
        assert not run.failures
        curve = run.curves[0]
        assert [p.weighted_f1 for p in curve.points] == [1.0, 1.0]
        assert curve.optimal_shots == 0  # tie resolves to fewest shots
        assert not curve.overprompting.flagged

    def test_hill_schedule_detected(self):
        corpus, split, backend = hill_setup()
        client = Client(mocks={"hill": backend})
        profiles = {"hill-model": ModelProfile(name="hill-model", base_url="mock://hill")}
        plan = SweepPlan(
            ("hill-model",),
            ("tfidf",),
            tuple(sorted(HILL_SCHEDULE)),
            split_param=0.5,
            split_seed=0,
        )
        run = run_sweep(plan, corpus, profiles, client)
        assert not run.failures
        curve = run.curves[0]
        got = {p.shot_count: p.weighted_f1 for p in curve.points}
        for k, expected in HILL_SCHEDULE.items():
            assert abs(got[k] - expected) < 1e-9
        assert curve.optimal_shots == 10
        assert curve.overprompting.flagged
        assert abs(curve.overprompting.max_post_peak_decline - 0.1) < 1e-9

    def test_monotone_schedule_not_flagged(self):
        schedule = {0: 0.5, 5: 0.7, 10: 0.8, 20: 0.9, 40: 0.95}
        corpus, split, backend = hill_setup(schedule)
        client = Client(mocks={"hill": backend})
        profiles = {"m": ModelProfile(name="m", base_url="mock://hill")}
        plan = SweepPlan(
            ("m",), ("tfidf",), tuple(sorted(schedule)), split_param=0.5, split_seed=0
        )
        run = run_sweep(plan, corpus, profiles, client)
        curve = run.curves[0]
        assert curve.optimal_shots == 40  # last grid point
        assert not curve.overprompting.flagged

    def test_cell_failures_recorded_and_sweep_continues(self):
        corpus = balanced_corpus(10)
        gold = {r.text: corpus.scheme.canonical_name(r.label) for r in corpus.records}

        class FailsAtK5(EchoGoldBackend):
            def respond(self, profile, prompt):
                if len(prompt.example_provenance) == 5:
                    raise GatewayError("cell-level boom")
                return super().respond(profile, prompt)

        client = Client(mocks={"echo-gold": FailsAtK5(gold)})
        plan = SweepPlan(("m1",), ("random",), (0, 5, 10), split_param=0.5)
        run = run_sweep(plan, corpus, mock_profiles(["m1"]), client)
        assert len(run.failures) == 1
        assert run.failures[0].shot_count == 5
        curve = run.curves[0]
        assert [p.shot_count for p in curve.points] == [0, 10]

    def test_harness_bug_propagates_instead_of_failing_a_cell(self):
        corpus = balanced_corpus(10)

        def respond(profile, prompt):
            if len(prompt.example_provenance) == 5:
                raise KeyError("harness bug")
            return "Functional"

        client = Client(mocks={"echo-gold": CallableBackend(respond)})
        plan = SweepPlan(("m1",), ("random",), (0, 5, 10), split_param=0.5)
        with pytest.raises(KeyError, match="harness bug"):
            run_sweep(plan, corpus, mock_profiles(["m1"]), client)

    @pytest.mark.parametrize("split_kind", ["holdout", "full"])
    def test_sends_what_per_cell_selection_renders(self, split_kind):
        corpus = balanced_corpus(10)
        sent = set()

        def respond(profile, prompt):
            sent.add((profile.name, prompt.content_hash, prompt.example_provenance,
                      prompt.query_text))
            return "Functional"

        client = Client(mocks={"rec": CallableBackend(respond)})
        provider = HashEmbeddingProvider(16)
        plan = SweepPlan(
            ("m1", "m2"), ("random", "embedding", "tfidf"), (0, 2, 5),
            split_kind=split_kind, split_param=0.5,
        )
        run = run_sweep(plan, corpus, mock_profiles(["m1", "m2"], "rec"), client, provider)
        assert not run.failures

        if split_kind == "holdout":
            split = make_split(corpus, "holdout", 0.5, 0)
            train = [r for r in corpus.records if split.assignments[r.record_id] == 0]
            test = [r for r in corpus.records if split.assignments[r.record_id] == 1]
        else:
            train = test = list(corpus.records)
        pool = build_pool(train, corpus.scheme, len(train), 0)
        expected = set()
        for model, method, k in plan.cells():
            for record in test:
                ranking = rank(pool, [record], SelectionConfig(method, k), provider)[0]
                prompt = render_prompt(
                    DEFAULT_TEMPLATE, corpus.scheme, ranking, k, pool, record.text
                )
                expected.add((model, prompt.content_hash, prompt.example_provenance,
                              record.text))
        assert sent == expected
        record_id = {r.text: r.record_id for r in corpus.records}
        assert all(record_id[text] not in provenance for _, _, provenance, text in sent)

    def test_one_model_failing_leaves_other_models_cell_intact(self):
        corpus = balanced_corpus(10)
        gold = {r.text: corpus.scheme.canonical_name(r.label) for r in corpus.records}

        def respond(profile, prompt):
            if profile.name == "m1" and len(prompt.example_provenance) == 5:
                raise GatewayError("m1 is down at k=5")
            return gold[prompt.query_text]

        client = Client(mocks={"rec": CallableBackend(respond)})
        plan = SweepPlan(("m1", "m2"), ("tfidf",), (0, 5), split_param=0.5)
        run = run_sweep(plan, corpus, mock_profiles(["m1", "m2"], "rec"), client)
        assert [(f.model, f.method, f.shot_count) for f in run.failures] == [
            ("m1", "tfidf", 5)
        ]
        alone_client, _ = echo_gold_client(corpus)
        alone = run_sweep(
            replace(plan, models=("m2",)), corpus, mock_profiles(["m2"]), alone_client
        )
        assert run.reports[("m2", "tfidf", 5)] == alone.reports[("m2", "tfidf", 5)]
        assert ("m1", "tfidf", 0) in run.reports

    def test_failures_listed_in_plan_order(self):
        corpus = balanced_corpus(10)

        def respond(profile, prompt):
            # m2 fails at k=2, before m1 fails at k=5 in evaluation order
            if (profile.name, len(prompt.example_provenance)) in {("m1", 5), ("m2", 2)}:
                raise GatewayError("boom")
            return "Functional"

        client = Client(mocks={"rec": CallableBackend(respond)})
        plan = SweepPlan(("m1", "m2"), ("random",), (0, 2, 5), split_param=0.5)
        run = run_sweep(plan, corpus, mock_profiles(["m1", "m2"], "rec"), client)
        assert [(f.model, f.shot_count) for f in run.failures] == [("m1", 5), ("m2", 2)]

    def test_space_failure_fails_only_that_methods_shot_cells(self):
        corpus = balanced_corpus(10)
        client, _ = echo_gold_client(corpus)
        plan = SweepPlan(("m1", "m2"), ("embedding", "tfidf"), (0, 2), split_param=0.5)
        run = run_sweep(plan, corpus, mock_profiles(["m1", "m2"]), client)  # no provider
        assert [(f.model, f.method, f.shot_count) for f in run.failures] == [
            ("m1", "embedding", 2), ("m2", "embedding", 2)
        ]
        assert all("requires an embedding provider" in f.error for f in run.failures)
        assert len(run.reports) == 6

    def test_k_deeper_than_its_ranking_fails_only_that_cell(self, monkeypatch):
        """A ranking too shallow for k fails the cell; it never renders fewer examples."""
        corpus = balanced_corpus(10)  # 10 train records, so 10 are available at k=10
        client, _ = echo_gold_client(corpus)

        def shallow_tfidf(pool, queries, cfg, provider=None):
            depth = min(cfg.k, 5) if cfg.method == "tfidf" else cfg.k
            return rank(pool, queries, replace(cfg, k=depth), provider)

        monkeypatch.setattr("shotsweep.sweep.rank", shallow_tfidf)
        plan = SweepPlan(("m1",), ("random", "tfidf"), (0, 5, 10), split_param=0.5)
        run = run_sweep(plan, corpus, mock_profiles(["m1"]), client)
        assert [(f.model, f.method, f.shot_count, f.error) for f in run.failures] == [
            ("m1", "tfidf", 10, "SelectionError: selection of 10 asked of a ranking of depth 5")
        ]
        assert set(run.reports) == set(plan.cells()) - {("m1", "tfidf", 10)}

    def test_pool_failure_fails_every_cell_in_plan_order(self):
        corpus = balanced_corpus(10)
        client, backend = echo_gold_client(corpus)
        plan = SweepPlan(("m1", "m2"), ("random", "tfidf"), (0, 2), split_param=0.5,
                         pool_size=11)  # 10 train records
        run = run_sweep(plan, corpus, mock_profiles(["m1", "m2"]), client)
        assert [(f.model, f.method, f.shot_count) for f in run.failures] == plan.cells()
        assert all("exceeds train partition size" in f.error for f in run.failures)
        assert not run.curves and backend.calls == 0

    def test_empty_test_partition_fails_every_cell_in_plan_order(self):
        corpus = balanced_corpus(1)  # one FR and one NFR record: 0.8 trains on both
        client, backend = echo_gold_client(corpus)
        plan = SweepPlan(("m1", "m2"), ("random", "tfidf"), (0, 1), split_param=0.8)
        run = run_sweep(plan, corpus, mock_profiles(["m1", "m2"]), client)
        assert [(f.model, f.method, f.shot_count) for f in run.failures] == plan.cells()
        assert {f.error for f in run.failures} == {
            "EvaluationError: holdout test partition is empty"
        }
        assert not run.curves and not run.reports and backend.calls == 0

    def test_zero_shot_prompt_rendered_once_for_every_method(self, monkeypatch):
        corpus = balanced_corpus(10)
        client, _ = echo_gold_client(corpus)
        rendered = []

        def counting_render(*args, **kwargs):
            prompt = render_prompt(*args, **kwargs)
            rendered.append(prompt)
            return prompt

        monkeypatch.setattr("shotsweep.sweep.render_prompt", counting_render)
        plan = SweepPlan(
            ("m1", "m2"), ("random", "embedding", "tfidf"), (0, 2), split_param=0.5
        )
        run = run_sweep(
            plan, corpus, mock_profiles(["m1", "m2"]), client, HashEmbeddingProvider(16)
        )
        assert not run.failures
        zero_shot = [p for p in rendered if not p.example_provenance]
        assert len(zero_shot) == len({p.content_hash for p in zero_shot}) == 10
        assert len(rendered) - len(zero_shot) == 3 * 10
        for method in plan.methods:
            assert run.reports[("m1", method, 0)] == replace(
                run.reports[("m1", "random", 0)],
                metadata={**run.reports[("m1", "random", 0)].metadata, "method": method},
            )

    def test_zero_shot_render_failure_fails_each_methods_zero_shot_cells(self, monkeypatch):
        corpus = balanced_corpus(10)
        client, _ = echo_gold_client(corpus)
        attempts = []

        def render_failing_one_record(template, scheme, ranking, k, pool, query_text, ordering):
            if k == 0 and query_text == "quality constraint number 3":
                attempts.append(query_text)
                raise PromptError("no zero-shot prompt for this record")
            return render_prompt(template, scheme, ranking, k, pool, query_text, ordering)

        monkeypatch.setattr("shotsweep.sweep.render_prompt", render_failing_one_record)
        plan = SweepPlan(("m1", "m2"), ("random", "tfidf"), (0, 2), split_param=0.5)
        run = run_sweep(plan, corpus, mock_profiles(["m1", "m2"]), client)
        assert [(f.model, f.method, f.shot_count) for f in run.failures] == [
            (m, method, 0) for m in ("m1", "m2") for method in ("random", "tfidf")
        ]
        assert all("no zero-shot prompt" in f.error for f in run.failures)
        assert len(attempts) == 1
        assert set(run.reports) == {(m, method, 2) for m in ("m1", "m2")
                                    for method in ("random", "tfidf")}

    def test_missing_profile_aborts(self):
        corpus = balanced_corpus(4)
        client, _ = echo_gold_client(corpus)
        plan = SweepPlan(("ghost",), ("random",), (0,))
        with pytest.raises(SweepError, match="ghost"):
            run_sweep(plan, corpus, {}, client)

    def test_cells_are_keyed_by_the_plans_model_not_its_profiles_name(self):
        corpus = balanced_corpus(4)
        client, backend = echo_gold_client(corpus)
        plan = SweepPlan(("a", "b"), ("random",), (0, 1))
        profile = ModelProfile(name="other", base_url="mock://echo-gold")
        run = run_sweep(plan, corpus, {"a": profile, "b": profile}, client)
        assert not run.failures and backend.calls > 0
        assert list(run.outcomes) == plan.cells()
        assert [curve.model for curve in run.curves] == ["a", "b"]
        assert {cell: report.metadata["model"] for cell, report in run.reports.items()} == {
            cell: cell[0] for cell in plan.cells()
        }

    def test_rerun_hits_cache_only(self):
        corpus = balanced_corpus(6)
        client, backend = echo_gold_client(corpus)
        plan = SweepPlan(("m1",), ("tfidf", "random"), (0, 2), split_param=0.5)
        profiles = mock_profiles(["m1"])
        run_sweep(plan, corpus, profiles, client)
        calls_first = backend.calls
        rerun = run_sweep(plan, corpus, profiles, client)
        assert backend.calls == calls_first
        assert not rerun.failures


class TestKfoldSweep:
    def test_each_record_is_scored_once_per_cell(self, promise_binary):
        client, _ = echo_gold_client(promise_binary)
        plan = SweepPlan(("m1", "m2"), ("random", "tfidf"), (0, 2), split_kind="kfold",
                         split_param=5, split_seed=1, pool_size=40)
        run = run_sweep(plan, promise_binary, mock_profiles(["m1", "m2"]), client)
        assert list(run.outcomes) == plan.cells()
        assert run.split.kind == "kfold" and run.split.param == 5
        record_ids = sorted(r.record_id for r in promise_binary.records)
        for outcome in run.outcomes.values():
            assert len(outcome.per_partition) == 5
            scored = [pred.record_id for preds in outcome.per_partition for pred in preds]
            assert sorted(scored) == record_ids
            assert outcome.report.metadata["split"] == "kfold:5:1"

    def test_each_text_is_tokenized_once(self, promise_binary, monkeypatch):
        """Ten folds refit the tfidf space over mostly the same texts and query
        every record once, yet each distinct text's terms are counted once."""
        calls = []

        def counting_tokenize(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(vectorspace, "tokenize", counting_tokenize)
        vectorspace._term_counts.cache_clear()
        client, _ = echo_gold_client(promise_binary)
        plan = SweepPlan(("m1",), ("tfidf",), (2,), split_kind="kfold", split_param=10)
        run = run_sweep(plan, promise_binary, mock_profiles(["m1"]), client)
        assert not run.failures
        texts = {r.text for r in promise_binary.records}
        assert len(calls) == len(set(calls)) and set(calls) <= texts

    @pytest.mark.parametrize(
        "fields, needle",
        [({"split_kind": "kfold", "split_param": 1}, "k_folds must be >= 2, got 1"),
         ({"on_small_class": "sometimes"}, "on_small_class must be error or allow, got 'sometimes'"),
         ({"split_kind": "leave-one-out"}, "unsupported sweep split kind 'leave-one-out'"),
         ({"split_param": 1.5}, r"holdout fraction must be in \(0, 1\), got 1.5")],
        ids=["folds", "small-class", "kind", "fraction"],
    )
    def test_bad_split_is_refused_by_the_plan(self, fields, needle):
        with pytest.raises(SweepError, match=needle):
            SweepPlan(("m1",), ("random",), (0,), **fields)


class TestOutcomeMatrix:
    @pytest.mark.parametrize("split_kind, split_param", [("holdout", 0.8), ("kfold", 3)])
    def test_each_cells_own_columns_give_its_report(self, promise_binary, split_kind,
                                                   split_param):
        """The README sweep and its 3-fold version: compute_report over a
        cell's own columns is the cell's report, and every cell tests the same
        records in the same order, so the scored columns of a (model, method)
        over k line up as its records x k outcome matrix."""
        gold = {r.text: promise_binary.scheme.canonical_name(r.label)
                for r in promise_binary.records}
        client = Client(mocks={"echo-gold": EchoGoldBackend(gold),
                               "constant": ConstantBackend("Functional")})
        profiles = {"mock-gold": ModelProfile("mock-gold", base_url="mock://echo-gold"),
                    "mock-constant": ModelProfile("mock-constant", base_url="mock://constant")}
        plan = SweepPlan(tuple(profiles), ("random", "embedding", "tfidf"), DEFAULT_GRID,
                         split_kind=split_kind, split_param=split_param, pool_size=200)
        run = run_sweep(plan, promise_binary, profiles, client, HashEmbeddingProvider(64))
        assert len(run.reports) == 48 and not run.failures
        first = next(iter(run.outcomes.values()))
        for outcome in run.outcomes.values():
            assert compute_report(
                outcome.gold, outcome.scored, outcome.kinds, promise_binary.scheme,
                outcome.report.metadata,
            ) == outcome.report
            assert outcome.gold == first.gold
            assert [[row.record_id for row in rows] for rows in outcome.per_partition] == [
                [row.record_id for row in rows] for rows in first.per_partition
            ]
        gold_matrix = [run.outcomes[("mock-gold", "tfidf", k)].scored for k in DEFAULT_GRID]
        assert all(column == first.gold for column in gold_matrix)


class TestBuildCurve:
    def test_annotations_consistent(self):
        corpus = balanced_corpus(6)
        client, _ = echo_gold_client(corpus)
        plan = SweepPlan(("m1",), ("random",), (0, 2, 4), split_param=0.5)
        run = run_sweep(plan, corpus, mock_profiles(["m1"]), client)
        curve = run.curves[0]
        rebuilt = build_curve(
            "m1", "random",
            {k: run.reports[("m1", "random", k)] for k in (0, 2, 4)},
        )
        assert rebuilt.optimal_shots == curve.optimal_shots
        assert rebuilt.points == curve.points


def jitter_reply(model, content_hash):
    replies = ("Functional", "Non-Functional", "Functional or Non-Functional", "unsure")
    return replies[hashlib.sha256(f"{model}|{content_hash}".encode()).digest()[0] % 4]


def jittered_backend(seed):
    """Sleeps 0-2 ms at random, then answers by (model, prompt) alone."""
    rng = random.Random(seed)
    lock = threading.Lock()

    def respond(profile, prompt):
        with lock:
            delay = rng.random() * 0.002
        time.sleep(delay)
        return jitter_reply(profile.name, prompt.content_hash)

    return CallableBackend(respond)


def chat_reply(text):
    return json.dumps({"choices": [{"message": {"content": text}}]}).encode()


class BarrierEndpoint(ChatEndpoint):
    """Answers each query with its gold label, but only while another
    request is being answered too."""

    def __init__(self, gold):
        super().__init__()
        self.gold = gold
        self.barrier = threading.Barrier(2, timeout=5)

    def respond(self, target, headers, body):
        user_message = json.loads(body)["messages"][1]["content"]
        query = user_message.rpartition("Input: ")[2].removesuffix("\nCategory:")
        self.barrier.wait()  # returns only while the other model's request is in flight
        return 200, chat_reply(self.gold[query])


class ScriptedEndpoint(ChatEndpoint):
    """Answers every model "Functional" and logs ("request"|"reply", model)
    in order; a model in fail_first gets a 503 for its first request, and a
    model in slow waits 0.2 s before each reply."""

    def __init__(self, fail_first=(), slow=()):
        super().__init__()
        self.fail_first, self.slow = set(fail_first), set(slow)
        self.events = []

    def respond(self, target, headers, body):
        model = json.loads(body)["model"]
        with self.lock:
            self.events.append(("request", model))
            first = self.events.count(("request", model)) == 1
        if model in self.slow:
            time.sleep(0.2)
        with self.lock:
            self.events.append(("reply", model))
        if first and model in self.fail_first:
            return 503, b"{}"
        return 200, chat_reply("Functional")


def http_profiles(endpoint, names, **fields):
    return {n: ModelProfile(name=n, base_url=endpoint.base_url, **fields) for n in names}


def dispatch(corpus, profiles, client, n_prompts):
    """Sweep the first n_prompts records, unsplit, as zero-shot queries: one
    prompt each, to every profile."""
    first = Corpus(corpus.records[:n_prompts], corpus.scheme)
    plan = SweepPlan(tuple(profiles), ("random",), (0,), split_kind="full")
    return run_sweep(plan, first, profiles, client).outcomes


class TestConcurrentDispatch:
    def test_models_are_sent_each_prompt_at_once(self):
        corpus = balanced_corpus(6)
        gold = {r.text: corpus.scheme.canonical_name(r.label) for r in corpus.records}
        endpoint = BarrierEndpoint(gold)
        try:
            # one attempt: a dispatcher that reads a reply before the next send fails fast
            profiles = http_profiles(endpoint, ("m1", "m2"), max_attempts=1)
            plan = SweepPlan(("m1", "m2"), ("tfidf",), (0, 2), split_param=0.5)
            with Client() as client:
                run = run_sweep(plan, corpus, profiles, client)
        finally:
            endpoint.stop()
        assert not run.failures
        assert all(r.weighted_f1 == 1.0 for r in run.reports.values())

    def test_every_backend_call_runs_on_the_calling_thread(self):
        corpus = balanced_corpus(6)
        callers = []

        def respond(profile, prompt):
            callers.append(threading.get_ident())
            return "Functional"

        threads_before = threading.active_count()
        client = Client(mocks={"rec": CallableBackend(respond)})
        plan = SweepPlan(("m1", "m2"), ("random", "tfidf"), (0, 2), split_param=0.5)
        run = run_sweep(plan, corpus, mock_profiles(["m1", "m2"], "rec"), client)
        assert not run.failures
        assert len(callers) == 2 * 3 * 6  # a k=0 prompt is answered once for both methods
        assert set(callers) == {threading.get_ident()}
        assert threading.active_count() == threads_before

    def test_transport_failure_retried_after_other_models_reply_is_read(self, tmp_path):
        corpus = balanced_corpus(3)
        endpoint = ScriptedEndpoint(fail_first={"m1"}, slow={"m2"})
        try:
            profiles = http_profiles(endpoint, ("m1", "m2"))
            with Client(cache=ResponseCache(tmp_path), sleeper=lambda s: None) as client:
                cells = dispatch(corpus, profiles, client, 1)
        finally:
            endpoint.stop()
        assert all(isinstance(outcome, CellRun) for outcome in cells.values())
        events = endpoint.events
        retry = len(events) - 1 - events[::-1].index(("request", "m1"))
        assert events.count(("request", "m1")) == 2
        assert events.index(("reply", "m2")) < retry
        rows = [
            json.loads(line)
            for segment in (tmp_path / "completions").glob("*.jsonl")
            for line in segment.read_text().splitlines()
        ]
        assert {row["model"]: row["attempts"] for row in rows} == {"m1": 2, "m2": 1}

    def test_rate_limited_models_wait_the_longer_wait_not_the_sum(self):
        corpus = balanced_corpus(3)
        endpoint = ChatEndpoint(reply="Functional")
        sleeps = []

        def sleeper(seconds):
            sleeps.append(seconds)
            time.sleep(seconds)

        try:
            profiles = {
                "m1": ModelProfile(name="m1", base_url=endpoint.base_url, rate_limit_per_s=10),
                "m2": ModelProfile(name="m2", base_url=endpoint.base_url, rate_limit_per_s=5),
            }
            with Client(sleeper=sleeper) as client:
                cells = dispatch(corpus, profiles, client, 2)  # the first prompt waits for none
        finally:
            endpoint.stop()
        assert all(isinstance(outcome, CellRun) for outcome in cells.values())
        # the second prompt waits up to 0.1 s for m1, then what is left of m2's 0.2 s
        assert 0.1 < sum(sleeps) < 0.2

    def test_harness_bug_while_sending_closes_the_unread_connection(self, monkeypatch):
        corpus = balanced_corpus(3)
        endpoint = ChatEndpoint(reply="Functional")
        send, connect = _ConnectionPool.send, gateway._connect
        sends, connects = [], []

        def send_or_fail(pool, *args):
            sends.append(args[0])
            if len(sends) == 2:
                raise KeyError("bug while sending the second model's request")
            return send(pool, *args)

        def counted_connect(*args):
            connects.append(args[0])
            return connect(*args)

        monkeypatch.setattr(_ConnectionPool, "send", send_or_fail)
        monkeypatch.setattr(gateway, "_connect", counted_connect)
        try:
            profiles = http_profiles(endpoint, ("m1", "m2"))
            with Client() as client:
                with pytest.raises(KeyError):
                    dispatch(corpus, profiles, client, 1)
                assert len(connects) == 1
                # m1's reply was never read: its connection was closed, not made idle
                pending = client.start(profiles["m1"], PromptSpec(
                    "system", "Input: another query\nCategory:", (), "hash-2",
                    "another query",
                ))
                text = pending.finish()
        finally:
            endpoint.stop()
        assert text == "Functional" and pending.attempt == 1
        assert len(connects) == 2

    def test_results_do_not_depend_on_response_timing(self):
        corpus = balanced_corpus(10)
        provider = HashEmbeddingProvider(16)
        plan = SweepPlan(
            ("m1", "m2"), ("random", "embedding", "tfidf"), (0, 2, 5), split_param=0.5
        )

        def artifacts(models, seed, **cells):
            profiles = mock_profiles(models, "jitter")
            client = Client(mocks={"jitter": jittered_backend(seed)})
            run = run_sweep(replace(plan, models=models, **cells), corpus, profiles, client,
                            provider)
            for (model, _, _), outcome in run.outcomes.items():
                assert isinstance(outcome, CellRun)
                for row in outcome.per_partition[0]:
                    assert row.completion == jitter_reply(model, row.content_hash)
            reports = {cell: artifact_json(report) for cell, report in run.reports.items()}
            sweep_json = artifact_json({"curves": run.curves, "failures": run.failures})
            return sweep_json, reports, run.outcomes

        first = artifacts(("m1", "m2"), seed=1)
        assert first == artifacts(("m1", "m2"), seed=2)
        _, reports, _ = first
        assert len(reports) == 18
        alone = {**artifacts(("m1",), seed=3)[1], **artifacts(("m2",), seed=4)[1]}
        assert reports == alone
        traces = []
        for seed in (5, 6):
            (outcome,) = artifacts(("m2",), seed, methods=("tfidf",), shot_grid=(5,))[2].values()
            traces.append(trace_jsonl(outcome.report.metadata, outcome.per_partition[0]))
        assert traces[0] == traces[1] and len(traces[0].splitlines()) == 1 + 10

    def test_kept_rows_replay_to_each_cells_report(self, tmp_path):
        """A cell keeps its answers as trace rows: written out and replayed,
        they give the cell's report, and another policy scores them as
        score_rows does."""
        corpus = balanced_corpus(10)
        plan = SweepPlan(
            ("m1", "m2"), ("random", "embedding", "tfidf"), (0, 2, 5), split_param=0.5
        )
        client = Client(mocks={"jitter": jittered_backend(7)})
        run = run_sweep(plan, corpus, mock_profiles(plan.models, "jitter"), client,
                        HashEmbeddingProvider(16))
        rescored = 0
        for (model, method, k), outcome in run.outcomes.items():
            assert isinstance(outcome, CellRun)
            trace = tmp_path / f"{model}-{method}-{k}.jsonl"
            metadata = outcome.report.metadata
            trace.write_text(trace_jsonl(metadata, outcome.per_partition[0]), encoding="utf-8")
            assert replay(trace, corpus.scheme, metadata["scoring_policy"]) == outcome.report
            first = replay(trace, corpus.scheme, "first_match")
            rows = outcome.per_partition[0]
            assert first == score_rows([rows], corpus.scheme, "first_match", metadata).report
            rescored += first != outcome.report
        assert len(run.outcomes) == 18 and rescored > 0

    def test_models_on_one_endpoint_hold_a_connection_each(self):
        endpoint = ChatEndpoint(reply="Functional")
        try:
            corpus = balanced_corpus(6)
            profiles = {
                n: ModelProfile(name=n, base_url=endpoint.base_url) for n in ("m1", "m2")
            }
            plan = SweepPlan(("m1", "m2"), ("random", "tfidf"), (0, 2), split_param=0.5)
            with Client() as client:
                run = run_sweep(plan, corpus, profiles, client)
        finally:
            endpoint.stop()
        assert not run.failures
        assert len(endpoint.targets) == 2 * 3 * 6  # a k=0 prompt is sent once for both methods
        assert endpoint.peak_in_flight == {"m1": 1, "m2": 1}
        assert endpoint.connections <= 2

    def test_identical_prompts_are_sent_once_per_model(self):
        base = balanced_corpus(4)
        records = base.records
        twin = replace(records[1], record_id=len(records))  # tested right after records[1]
        corpus = Corpus((*records[:2], twin, *records[2:]), base.scheme)
        backends = {m: CallableBackend(lambda profile, prompt: "Functional") for m in ("m1", "m2")}
        client = Client(mocks=backends)
        profiles = {m: ModelProfile(name=m, base_url=f"mock://{m}") for m in backends}
        plan = SweepPlan(("m1", "m2"), ("random", "tfidf"), (0, 2), split_kind="full")
        run = run_sweep(plan, corpus, profiles, client)
        assert not run.failures
        for model, backend in backends.items():
            cells = [run.outcomes[(model, method, k)] for method in plan.methods for k in (0, 2)]
            hashes = [pred.content_hash for cell in cells for pred in cell.per_partition[0]]
            assert hashes[1] == hashes[2]  # the twins' zero-shot prompts are one prompt
            assert backend.calls == len(set(hashes))

    def test_one_models_failure_stops_only_its_stream(self):
        corpus = balanced_corpus(6)
        asked = {"m1": [], "m2": []}  # shot count of each prompt a model's backend answers

        def backend(model):
            def respond(profile, prompt):
                asked[model].append(len(prompt.example_provenance))
                if (model, len(prompt.example_provenance), asked[model].count(2)) == ("m1", 2, 3):
                    raise GatewayError("m1 is down")
                return jitter_reply(model, prompt.content_hash)

            return CallableBackend(respond)

        profiles = {m: ModelProfile(name=m, base_url=f"mock://{m}") for m in asked}
        plan = SweepPlan(("m1", "m2"), ("tfidf",), (0, 2, 5), split_param=0.5)
        run = run_sweep(plan, corpus, profiles, Client(mocks={m: backend(m) for m in asked}))
        assert [asked[m].count(k) for m in asked for k in (0, 2, 5)] == [6, 3, 6, 6, 6, 6]
        assert [(f.model, f.method, f.shot_count, f.error) for f in run.failures] == [
            ("m1", "tfidf", 2, "GatewayError: m1 is down")
        ]
        assert list(run.outcomes) == plan.cells()
        for cell, outcome in run.outcomes.items():
            if cell != ("m1", "tfidf", 2):
                assert isinstance(outcome, CellRun) and len(outcome.per_partition[0]) == 6
        alone = run_sweep(replace(plan, models=("m2",)), corpus, profiles,
                          Client(mocks={"m2": backend("m2")}))
        assert {cell: artifact_json(report) for cell, report in alone.reports.items()} == {
            cell: artifact_json(report) for cell, report in run.reports.items()
            if cell[0] == "m2"
        }
