from __future__ import annotations

import csv
import io
import itertools
import json

import pytest

from shotsweep import (
    BINARY_FRNFR,
    Client,
    ConstantBackend,
    EchoGoldBackend,
    ModelProfile,
    make_split,
)
from shotsweep.corpus import PROMISE_12, LabelDef, LabelScheme
from shotsweep.gateway import CallableBackend
from shotsweep.reporting import (
    ReportingError,
    RunManifest,
    artifact_json,
    atomic_write,
    config_digest,
    curves_csv,
    emit_table,
    file_digest,
    read_report,
    read_trace,
    replay,
    trace_jsonl,
)
from shotsweep.sweep import CurvePoint, OverpromptingVerdict, SweepCurve

from conftest import evaluate_one_cell, report_of
from hillmock import balanced_corpus


def all_correct_report(metadata=None):
    preds = [("FR", "FR", "label"), ("NFR", "NFR", "label")]
    return report_of(BINARY_FRNFR, preds, metadata or {"model": "perfect"})


class TestManifest:
    def test_digest_key_order_independent(self):
        a = {"alpha": 1, "nested": {"x": [1, 2], "y": "z"}}
        b = {"nested": {"y": "z", "x": [1, 2]}, "alpha": 1}
        assert config_digest(a) == config_digest(b)

    def test_digest_sensitive_to_values(self):
        assert config_digest({"a": 1}) != config_digest({"a": 2})

    def test_manifest_roundtrip(self, tmp_path):
        manifest = RunManifest(
            {"k": 5}, {"report": "r.json"}, "0.1.0", "t0", "t1"
        )
        path = tmp_path / "manifest.json"
        atomic_write(path, artifact_json(manifest))
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

    def test_artifact_json_refuses_other_objects(self):
        with pytest.raises(TypeError, match="object is not an artifact"):
            artifact_json({"x": object()})

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
        report = evaluate_one_cell(
            promise_binary, None, profile, {"method": "random", "k": 0}, client
        ).report
        table = emit_table([report], "binary")
        row = table.text.splitlines()[2]
        assert "0.59" in row  # NFR precision 370/625
        assert "1.00" in row  # NFR recall

    def test_multiclass_zero_rows_render(self):
        preds = [("PE", "PE", "label"), ("US", "PE", "label")]
        report = report_of(PROMISE_12, preds, {"model": "sparse"})
        table = emit_table([report], "multiclass")
        row = table.text.splitlines()[2]
        assert "0.00" in row  # absent classes render as zeros
        assert "Ave." in table.text.splitlines()[0]

    def test_csv_roundtrip_recomputes_weighted_f1(self, promise_binary):
        client = Client(mocks={"constant": ConstantBackend("NFR")})
        profile = ModelProfile(name="const", base_url="mock://constant")
        report = evaluate_one_cell(
            promise_binary, None, profile, {"method": "random", "k": 0}, client
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

    def test_csv_fields_parse_back_exactly(self):
        """A model name holding a comma, a quote and a newline, and a label id
        holding a comma, come back from csv.reader as they went in: both CSVs
        quote such fields, the header's too."""
        scheme = LabelScheme("odd", (LabelDef("A,B", "Alpha"), LabelDef("C", "Gamma")), "binary")
        model = 'gpt, "the big one"\nv2'
        report = report_of(scheme, [("A,B", "A,B", "label"), ("C", "A,B", "label")],
                           {"model": model})
        header, row = csv.reader(io.StringIO(emit_table([report], "binary").csv_text))
        assert header == ["model", "A,B_precision", "A,B_recall", "A,B_f1", "A,B_support",
                          "C_precision", "C_recall", "C_f1", "C_support",
                          "weighted_f1", "macro_f1", "n_predictions"]
        a, c = report.per_class["A,B"], report.per_class["C"]
        assert row == [model, *map(str, [a.precision, a.recall, a.f1, a.support,
                                         c.precision, c.recall, c.f1, c.support,
                                         report.weighted_f1, report.macro_f1, 2])]
        assert float(row[1]) == 0.5 and float(row[3]) == 2 / 3  # repr round-trips

        point = CurvePoint(5, 1 / 3, 0.1, 2)
        curve = SweepCurve(model, "tfidf", (point,), 5, 1 / 3,
                           OverpromptingVerdict(False, 5, 0.0, 0.02))
        header, row = csv.reader(io.StringIO(curves_csv([curve])))
        assert header == ["model", "method", "shot_count", "weighted_f1", "macro_f1",
                          "n_invalid"]
        assert row == [model, "tfidf", "5", repr(1 / 3), "0.1", "2"]

    def test_layout_validation(self):
        with pytest.raises(ReportingError, match="layout"):
            emit_table([all_correct_report()], "wide")

    def test_scheme_mismatch_rejected(self):
        multi = report_of(PROMISE_12, [("PE", "PE", "label")])
        with pytest.raises(ReportingError, match="share a label scheme"):
            emit_table([all_correct_report(), multi], "binary")

    def test_binary_layout_needs_two_classes(self):
        multi = report_of(PROMISE_12, [("PE", "PE", "label")])
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
        assert json.loads(artifact_json({"series": []})) == {"series": []}
        assert curves_csv([]).splitlines() == [
            "model,method,shot_count,weighted_f1,macro_f1,n_invalid"
        ]

    def test_two_point_series(self):
        rows = curves_csv([self.curve()]).strip().splitlines()
        assert len(rows) == 3
        assert rows[1] == "m,tfidf,0,0.5,0.4,1"
        payload = json.loads(artifact_json({"series": [self.curve()]}))
        series = payload["series"][0]
        assert series["optimal_shots"] == 5
        assert series["overprompting"]["flagged"] is False

    def test_annotations_match_find_optimum(self):
        from shotsweep import find_optimum

        curve = self.curve()
        series = json.loads(artifact_json({"series": [curve]}))["series"][0]
        points = [
            CurvePoint(p["shot_count"], p["weighted_f1"], p["macro_f1"], p["n_invalid"])
            for p in series["points"]
        ]
        assert series["optimal_shots"] == find_optimum(points)


class TestReadReport:
    def write(self, tmp_path, edit=None):
        payload = json.loads(artifact_json(all_correct_report()))
        if edit is not None:
            keys, value = edit
            *outer, last = keys
            target = payload
            for key in outer:
                target = target[key]
            target[last] = value
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload))
        return path

    def test_round_trips(self, tmp_path):
        assert read_report(self.write(tmp_path)) == all_correct_report()

    @pytest.mark.parametrize(
        "keys, value",
        [
            (("weighted_f1",), "x"),
            (("macro_f1",), True),
            (("per_class", "FR", "precision"), "1.0"),
            (("per_class", "FR", "recall"), None),
            (("per_class", "NFR", "f1"), None),
            (("per_class", "FR", "support"), "9"),
            (("n_predictions",), 2.0),
            (("n_unparseable",), None),
            (("n_multilabel",), False),
            (("confusion",), [[1, 0]]),
            (("confusion", "FR"), [1, 0]),
            (("confusion", "FR", "NFR"), "0"),
            (("metadata",), [1]),
        ],
        ids=["weighted-f1", "macro-f1-bool", "precision", "recall", "f1", "support",
             "n-predictions", "n-unparseable", "n-multilabel-bool", "confusion-list",
             "confusion-row-list", "confusion-cell", "metadata-list"],
    )
    def test_mistyped_value_is_refused(self, tmp_path, keys, value):
        path = self.write(tmp_path, (keys, value))
        with pytest.raises(ReportingError, match=f"^{path}: "):
            read_report(path)


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
        report = evaluate_one_cell(
            corpus, split, profile, {"method": "random", "k": 1}, client,
            trace_path=trace,
        ).report
        return corpus, trace, report

    def test_trace_jsonl_round_trips_through_read_trace(self, tmp_path):
        """Completions holding a newline, quotes, non-ASCII text or nothing
        come back from a trace as they went in, and so does the meta line."""
        corpus = balanced_corpus(6)
        texts = ["Functional\nor not", 'say "NFR"', "Fonctionnel — é ✓ 非", "",
                 "Non-Functional\t\\"]
        answers = itertools.cycle(texts)
        client = Client(mocks={"b": CallableBackend(lambda profile, prompt: next(answers))})
        profile = ModelProfile(name="b", base_url="mock://b")
        split = make_split(corpus, "holdout", 0.5, seed=0)
        trace = tmp_path / "trace.jsonl"
        run = evaluate_one_cell(corpus, split, profile, {"method": "tfidf", "k": 2}, client,
                                trace_path=trace)
        meta, rows = read_trace(trace)
        assert meta == run.report.metadata
        assert rows == run.per_partition[0]
        assert {row.completion for row in rows} == set(texts)
        assert trace_jsonl(meta, rows) == trace.read_text(encoding="utf-8")
        assert replay(trace, corpus.scheme) == run.report

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

    ROW = {"kind": "prediction", "record_id": 0, "gold": "FR", "completion": "FR",
           "content_hash": "h"}

    @pytest.mark.parametrize(
        "rows, needle",
        [([{"kind": "meta"}, {"kind": "meta"}], "line 2: duplicate meta row"),
         ([{"kind": "meta"}, {"kind": "score"}], "line 2: unknown row kind 'score'"),
         ([], "missing meta row"),
         ([{"kind": "meta"}, {**ROW, "completion": 5}], "line 2: mistyped prediction row"),
         ([{"kind": "meta"}, {**ROW, "gold": ["FR"]}], "line 2: mistyped prediction row"),
         ([{"kind": "meta"}, {**ROW, "record_id": True}], "line 2: mistyped prediction row")],
        ids=["two-meta-rows", "unknown-kind", "no-meta-row", "completion-not-text",
             "gold-not-text", "record-id-bool"],
    )
    def test_malformed_trace_refused(self, tmp_path, rows, needle):
        trace = tmp_path / "t.jsonl"
        trace.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        with pytest.raises(ReportingError, match=needle):
            read_trace(trace)
