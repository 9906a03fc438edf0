from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from shotsweep import (
    BINARY_FRNFR,
    PROMISE_12,
    CorpusError,
    LabelDef,
    LabelScheme,
    SplitError,
    SplitPlan,
    load_corpus,
    load_scheme,
    make_split,
)
from shotsweep.corpus import Corpus, RequirementRecord

from conftest import make_records


def write_csv(tmp_path, rows, header="text,label", name="data.csv"):
    path = tmp_path / name
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestLabelScheme:
    def test_resolve_is_case_insensitive_over_all_forms(self):
        assert BINARY_FRNFR.resolve("fr") == "FR"
        assert BINARY_FRNFR.resolve("Functional") == "FR"
        assert BINARY_FRNFR.resolve("NON-functional requirement") == "NFR"
        assert BINARY_FRNFR.resolve("PE") == "NFR"  # subclass code folds to NFR
        assert BINARY_FRNFR.resolve("made-up") is None

    def test_binary_scheme_needs_two_labels(self):
        with pytest.raises(CorpusError):
            LabelScheme("bad", (LabelDef("A", "Alpha"),), "binary")

    def test_ambiguous_alias_rejected(self):
        with pytest.raises(CorpusError, match="ambiguous"):
            LabelScheme(
                "bad",
                (LabelDef("A", "Alpha", ("x",)), LabelDef("B", "Beta", ("X",))),
                "multiclass",
            )

    def test_builtin_scheme_sizes(self):
        assert len(PROMISE_12.labels) == 12
        assert len(load_scheme("iso25010").labels) == 9

    def test_scheme_file_roundtrip(self, tmp_path):
        path = tmp_path / "scheme.json"
        path.write_text(
            '{"name": "demo", "task_kind": "binary", "labels": ['
            '{"id": "P", "name": "Pos", "aliases": ["yes"]},'
            '{"id": "N", "name": "Neg"}]}',
            encoding="utf-8",
        )
        scheme = load_scheme(path)
        assert scheme.resolve("YES") == "P"
        assert scheme.resolve("neg") == "N"

    def test_unknown_scheme_name(self):
        with pytest.raises(CorpusError, match="unknown scheme"):
            load_scheme("nope")


class TestLoadCorpus:
    def test_single_row(self, tmp_path):
        path = write_csv(tmp_path, ["the system shall X,F"])
        corpus = load_corpus(path, BINARY_FRNFR)
        assert len(corpus) == 1
        assert corpus.records[0].label == "FR"
        assert corpus.class_counts == {"FR": 1, "NFR": 0}

    def test_sequential_ids_in_file_order(self, tmp_path):
        path = write_csv(tmp_path, ["a a,F", "b b,NF", "c c,F"])
        corpus = load_corpus(path, BINARY_FRNFR)
        assert [r.record_id for r in corpus.records] == [0, 1, 2]
        assert [r.text for r in corpus.records] == ["a a", "b b", "c c"]

    def test_unknown_label_reports_row_and_value(self, tmp_path):
        path = write_csv(tmp_path, ["fine,F", "broken,Perf"])
        with pytest.raises(CorpusError, match=r"row 3.*'Perf'"):
            load_corpus(path, BINARY_FRNFR)

    def test_empty_text_rejected_with_row(self, tmp_path):
        path = write_csv(tmp_path, ["ok,F", '"   ",NFR'])
        with pytest.raises(CorpusError, match="row 3"):
            load_corpus(path, BINARY_FRNFR)

    def test_duplicate_header_rejected(self, tmp_path):
        path = write_csv(tmp_path, ["a,b,F"], header="text,text,label")
        with pytest.raises(CorpusError, match="duplicate header"):
            load_corpus(path, BINARY_FRNFR)

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, ["a,F"], header="sentence,label")
        with pytest.raises(CorpusError, match="missing column"):
            load_corpus(path, BINARY_FRNFR)

    def test_ragged_row_rejected(self, tmp_path):
        path = write_csv(tmp_path, ["a,F", "b,F,extra"])
        with pytest.raises(CorpusError, match="row 3"):
            load_corpus(path, BINARY_FRNFR)

    def test_quoted_fields_rfc4180(self, tmp_path):
        path = write_csv(tmp_path, ['"has, comma and ""quote""",F'])
        corpus = load_corpus(path, BINARY_FRNFR)
        assert corpus.records[0].text == 'has, comma and "quote"'

    def test_configurable_columns(self, tmp_path):
        path = write_csv(tmp_path, ["hello,F"], header="req,cls")
        corpus = load_corpus(path, BINARY_FRNFR, text_col="req", label_col="cls")
        assert corpus.records[0].text == "hello"

    def test_reload_identical(self, tmp_path):
        path = write_csv(tmp_path, ["a a,F", "b b,NF", "c c,A"])
        one = load_corpus(path, BINARY_FRNFR)
        two = load_corpus(path, BINARY_FRNFR)
        assert one.records == two.records
        assert one.class_counts == two.class_counts

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError, match="no such file"):
            load_corpus(tmp_path / "nope.csv", BINARY_FRNFR)


class TestCorpusInvariants:
    def test_duplicate_record_id_rejected(self):
        records = (
            RequirementRecord(0, "a", "FR", "d"),
            RequirementRecord(0, "b", "NFR", "d"),
        )
        with pytest.raises(CorpusError, match="duplicate record_id"):
            Corpus(records, BINARY_FRNFR)

    def test_label_outside_scheme_rejected(self):
        records = (RequirementRecord(0, "a", "ZZ", "d"),)
        with pytest.raises(CorpusError):
            Corpus(records, BINARY_FRNFR)


def balanced_corpus(n_per_class=5):
    rows = []
    for i in range(n_per_class):
        rows.append((f"functional item {i}", "FR"))
        rows.append((f"quality item {i}", "NFR"))
    return Corpus(tuple(make_records(rows)), BINARY_FRNFR)


class TestHoldout:
    def test_stratified_80_20(self):
        corpus = balanced_corpus(5)
        plan = make_split(corpus, "holdout", 0.8, seed=7)
        for lid in ("FR", "NFR"):
            members = [r for r in corpus.records if r.label == lid]
            train = [r for r in members if plan.assignments[r.record_id] == 0]
            assert len(train) == 4
        total_train = sum(1 for p in plan.assignments.values() if p == 0)
        assert total_train == 8

    def test_partitions_disjoint_and_exhaustive(self):
        corpus = balanced_corpus(7)
        plan = make_split(corpus, "holdout", 0.6, seed=1)
        assert set(plan.assignments) == {r.record_id for r in corpus.records}
        assert set(plan.assignments.values()) <= {0, 1}

    def test_train_size_within_class_count_of_round(self):
        rng = random.Random(4)
        for _ in range(50):
            n_fr = rng.randint(1, 40)
            n_nfr = rng.randint(1, 40)
            rows = [(f"f {i}", "FR") for i in range(n_fr)]
            rows += [(f"n {i}", "NFR") for i in range(n_nfr)]
            corpus = Corpus(tuple(make_records(rows)), BINARY_FRNFR)
            fraction = rng.choice([0.5, 0.7, 0.8, 0.9])
            plan = make_split(corpus, "holdout", fraction, seed=rng.randint(0, 99))
            train = sum(1 for p in plan.assignments.values() if p == 0)
            assert abs(train - round(fraction * len(corpus))) <= 2

    def test_bad_fraction(self):
        with pytest.raises(SplitError):
            make_split(balanced_corpus(), "holdout", 1.0, seed=0)


class TestKfold:
    def test_promise_binary_fold_shape(self, promise_binary):
        plan = make_split(promise_binary, "kfold", 10, seed=3)
        fold_sizes = Counter(plan.assignments.values())
        assert set(fold_sizes) == set(range(10))
        assert sorted(fold_sizes.values()) == [62] * 5 + [63] * 5
        per_fold_class = {f: Counter() for f in range(10)}
        for record in promise_binary.records:
            per_fold_class[plan.assignments[record.record_id]][record.label] += 1
        for f in range(10):
            assert per_fold_class[f]["FR"] in (25, 26)
            assert per_fold_class[f]["NFR"] == 37

    def test_folds_cover_everything_once(self, promise_binary):
        plan = make_split(promise_binary, "kfold", 10, seed=3)
        assert len(plan.assignments) == 625
        assert set(plan.assignments) == {r.record_id for r in promise_binary.records}

    def test_global_fold_sizes_spread_at_most_one(self):
        rng = random.Random(11)
        for _ in range(30):
            sizes = [rng.randint(5, 60) for _ in range(rng.randint(2, 5))]
            labels = tuple(
                LabelDef(f"C{i}", f"Class{i}") for i in range(len(sizes))
            )
            scheme = LabelScheme("multi", labels, "multiclass")
            rows = []
            for i, n in enumerate(sizes):
                rows += [(f"c{i} item {j}", f"C{i}") for j in range(n)]
            corpus = Corpus(tuple(make_records(rows)), scheme)
            k = rng.randint(2, 5)
            plan = make_split(corpus, "kfold", k, seed=rng.randint(0, 999))
            fold_sizes = Counter(plan.assignments.values())
            assert max(fold_sizes.values()) - min(fold_sizes.values()) <= 1
            for lid in scheme.label_ids:
                per_fold = Counter(
                    plan.assignments[r.record_id]
                    for r in corpus.records
                    if r.label == lid
                )
                counts = [per_fold.get(f, 0) for f in range(k)]
                assert max(counts) - min(counts) <= 1

    def test_small_class_reported(self):
        rows = [("only one,", "FR")] + [(f"n {i}", "NFR") for i in range(20)]
        corpus = Corpus(tuple(make_records(rows)), BINARY_FRNFR)
        with pytest.raises(SplitError, match="FR"):
            make_split(corpus, "kfold", 5, seed=0)
        plan = make_split(corpus, "kfold", 5, seed=0, on_small_class="allow")
        assert len(plan.assignments) == 21

    def test_determinism_byte_identical(self, promise_binary):
        one = make_split(promise_binary, "kfold", 10, seed=42)
        two = make_split(promise_binary, "kfold", 10, seed=42)
        assert one.to_json() == two.to_json()
        different = make_split(promise_binary, "kfold", 10, seed=43)
        assert different.assignments != one.assignments

    def test_plan_json_roundtrip(self, promise_binary):
        plan = make_split(promise_binary, "holdout", 0.8, seed=5)
        payload = json.loads(plan.to_json())
        again = SplitPlan(
            kind=payload["kind"],
            param=payload["param"],
            seed=payload["seed"],
            assignments={int(k): int(v) for k, v in payload["assignments"].items()},
        )
        assert again == plan
