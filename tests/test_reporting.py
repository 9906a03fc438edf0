from __future__ import annotations

import json

import pytest

from shotsweep import (
    BINARY_FRNFR,
    Client,
    ConstantBackend,
    EchoGoldBackend,
    ModelProfile,
    compute_report,
    evaluate_split,
    make_split,
)
from shotsweep.corpus import PROMISE_12
from shotsweep.evaluation import ExperimentConfig, Prediction
from shotsweep.gateway import ParsedLabel
from shotsweep.reporting import (
    ReportingError,
    atomic_write,
    config_digest,
    emit_curve_data,
    emit_table,
    file_digest,
    make_manifest,
    replay,
)
from shotsweep.sweep import CurvePoint, OverpromptingVerdict, SweepCurve

from hillmock import balanced_corpus


def all_correct_report(metadata=None):
    preds = [
        Prediction(0, "FR", ParsedLabel("label", ("FR",)), "FR", "h0"),
        Prediction(1, "NFR", ParsedLabel("label", ("NFR",)), "NFR", "h1"),
    ]
    return compute_report(preds, BINARY_FRNFR, metadata or {"model": "perfect"})


class TestManifest:
    def test_digest_key_order_independent(self):
        a = {"alpha": 1, "nested": {"x": [1, 2], "y": "z"}}
        b = {"nested": {"y": "z", "x": [1, 2]}, "alpha": 1}
        assert config_digest(a) == config_digest(b)

    def test_digest_sensitive_to_values(self):
        assert config_digest({"a": 1}) != config_digest({"a": 2})

    def test_manifest_roundtrip(self, tmp_path):
        manifest = make_manifest(
            {"k": 5}, {"report": "r.json"}, "0.1.0", "t0", "t1"
        )
        path = tmp_path / "manifest.json"
        atomic_write(path, manifest.to_json())
        again = json.loads(path.read_text())
        assert again == {
            "config": manifest.config,
            "digest": manifest.digest,
            "artifacts": manifest.artifacts,
            "tool_version": manifest.tool_version,
            "started_at": manifest.started_at,
            "finished_at": manifest.finished_at,
        }
        assert again["digest"] == config_digest({"k": 5})

    def test_atomic_write_replaces(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write(path, "one\n")
        atomic_write(path, "two\n")
        assert path.read_text() == "two\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_file_digest_stable(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"text,label\na,F\n")
        assert file_digest(path) == file_digest(path)


class TestEmitTable:
    def test_all_correct_binary_row(self):
        table = emit_table([all_correct_report()], "binary")
        row = table.text.splitlines()[2]
        assert row.count("1.00") == 7  # P/R/F1 per class + overall
        assert "Overall F1" in table.text.splitlines()[0]

    def test_constant_nfr_on_promise(self, promise_binary):
        client = Client(mocks={"constant": ConstantBackend("NFR")})
        profile = ModelProfile(name="const", base_url="mock://constant")
        report = evaluate_split(
            promise_binary, None, profile, ExperimentConfig("random", 0), client
        ).report
        table = emit_table([report], "binary")
        row = table.text.splitlines()[2]
        assert "0.59" in row  # NFR precision 370/625
        assert "1.00" in row  # NFR recall

    def test_multiclass_zero_rows_render(self):
        preds = [
            Prediction(0, "PE", ParsedLabel("label", ("PE",)), "PE", "h0"),
            Prediction(1, "US", ParsedLabel("label", ("PE",)), "PE", "h1"),
        ]
        report = compute_report(preds, PROMISE_12, {"model": "sparse"})
        table = emit_table([report], "multiclass")
        row = table.text.splitlines()[2]
        assert "0.00" in row  # absent classes render as zeros
        assert "Ave." in table.text.splitlines()[0]

    def test_csv_roundtrip_recomputes_weighted_f1(self, promise_binary):
        client = Client(mocks={"constant": ConstantBackend("NFR")})
        profile = ModelProfile(name="const", base_url="mock://constant")
        report = evaluate_split(
            promise_binary, None, profile, ExperimentConfig("random", 0), client
        ).report
        table = emit_table([report], "binary")
        import csv
        import io

        header, row = list(csv.reader(io.StringIO(table.csv_text)))
        cols = dict(zip(header, row))
        total = int(cols["FR_support"]) + int(cols["NFR_support"])
        recomputed = (
            float(cols["FR_f1"]) * int(cols["FR_support"])
            + float(cols["NFR_f1"]) * int(cols["NFR_support"])
        ) / total
        assert abs(recomputed - float(cols["weighted_f1"])) < 1e-12
        assert f"{recomputed:.2f}" in table.text

    def test_layout_validation(self):
        with pytest.raises(ReportingError, match="layout"):
            emit_table([all_correct_report()], "wide")

    def test_scheme_mismatch_rejected(self):
        multi = compute_report(
            [Prediction(0, "PE", ParsedLabel("label", ("PE",)), "PE", "h")],
            PROMISE_12,
        )
        with pytest.raises(ReportingError, match="share a label scheme"):
            emit_table([all_correct_report(), multi], "binary")

    def test_binary_layout_needs_two_classes(self):
        multi = compute_report(
            [Prediction(0, "PE", ParsedLabel("label", ("PE",)), "PE", "h")],
            PROMISE_12,
        )
        with pytest.raises(ReportingError, match="exactly 2"):
            emit_table([multi], "binary")


class TestEmitCurveData:
    def curve(self, model="m", method="tfidf"):
        return SweepCurve(
            model=model,
            method=method,
            points=(CurvePoint(0, 0.5, 0.4, 1), CurvePoint(5, 0.9, 0.8, 0)),
            optimal_shots=5,
            peak_weighted_f1=0.9,
            overprompting=OverpromptingVerdict(False, 5, 0.0, 0.02),
        )

    def test_empty_is_valid(self):
        data = emit_curve_data([])
        assert json.loads(data.json_text) == {"series": []}
        assert data.csv_text.splitlines() == [
            "model,method,shot_count,weighted_f1,macro_f1,n_invalid"
        ]

    def test_two_point_series(self):
        data = emit_curve_data([self.curve()])
        rows = data.csv_text.strip().splitlines()
        assert len(rows) == 3
        assert rows[1] == "m,tfidf,0,0.5,0.4,1"
        payload = json.loads(data.json_text)
        series = payload["series"][0]
        assert series["optimal_shots"] == 5
        assert series["overprompting"]["flagged"] is False

    def test_annotations_match_find_optimum(self):
        from shotsweep import find_optimum

        curve = self.curve()
        data = emit_curve_data([curve])
        series = json.loads(data.json_text)["series"][0]
        points = [
            CurvePoint(p["shot_count"], p["weighted_f1"], p["macro_f1"], p["n_invalid"])
            for p in series["points"]
        ]
        assert series["optimal_shots"] == find_optimum(points)


class TestReplay:
    def run_with_trace(self, tmp_path, backend_text=None):
        corpus = balanced_corpus(6)
        if backend_text is None:
            gold = {r.text: corpus.scheme.canonical_name(r.label) for r in corpus.records}
            client = Client(mocks={"b": EchoGoldBackend(gold)})
        else:
            client = Client(mocks={"b": ConstantBackend(backend_text)})
        profile = ModelProfile(name="b", base_url="mock://b")
        split = make_split(corpus, "holdout", 0.5, seed=0)
        trace = tmp_path / "trace.jsonl"
        report = evaluate_split(
            corpus, split, profile, ExperimentConfig("random", 1), client,
            trace_path=trace,
        ).report
        return corpus, trace, report

    def test_replay_reproduces_original_report(self, tmp_path):
        corpus, trace, original = self.run_with_trace(tmp_path)
        replayed = replay(trace, corpus.scheme)
        assert replayed == original

    def test_replay_is_idempotent(self, tmp_path):
        corpus, trace, _ = self.run_with_trace(tmp_path)
        once = replay(trace, corpus.scheme, "strict")
        twice = replay(trace, corpus.scheme, "strict")
        assert once == twice

    def test_policy_change_touches_only_multilabel_rows(self, tmp_path):
        corpus, trace, _ = self.run_with_trace(
            tmp_path, backend_text="Functional or Non-Functional"
        )
        strict = replay(trace, corpus.scheme, "strict")
        lenient = replay(trace, corpus.scheme, "first_match")
        assert strict.n_multilabel == lenient.n_multilabel == strict.n_predictions
        assert strict.n_invalid == strict.n_predictions
        assert lenient.n_invalid == 0
        # first_match scores everything as the first match (FR)
        assert lenient.per_class["FR"].recall == 1.0

    def test_truncated_final_line_reports_line_number(self, tmp_path):
        corpus, trace, _ = self.run_with_trace(tmp_path)
        content = trace.read_text()
        trace.write_text(content[:-20], encoding="utf-8")
        n_lines = len(trace.read_text().splitlines())
        with pytest.raises(ReportingError, match=f"line {n_lines}"):
            replay(trace, corpus.scheme)

    def test_missing_field_reports_line(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text(
            json.dumps({"kind": "meta", "scoring_policy": "strict"})
            + "\n"
            + json.dumps({"kind": "prediction", "record_id": 0, "gold": "FR"})
            + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ReportingError, match="line 2"):
            replay(trace, BINARY_FRNFR)

    def test_missing_trace(self, tmp_path):
        with pytest.raises(ReportingError, match="no such trace"):
            replay(tmp_path / "absent.jsonl", BINARY_FRNFR)
