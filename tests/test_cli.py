from __future__ import annotations

import argparse
import ast
import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from shotsweep.cli import (
    EXIT_BUG,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_TRANSPORT,
    main,
)

from shotsweep import BINARY_FRNFR, HashEmbeddingProvider, build_embedding_matrix, build_pool
from shotsweep.reporting import artifact_json

from conftest import PROMISE_CSV, REPO_ROOT, report_of
from loopback import CannedEndpoint, ChatEndpoint
from oracles import oracle_knn_embedding


def write_config(tmp_path, name="config.json", **payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def manifest_without_timestamps(path: Path) -> dict:
    payload = json.loads(path.read_text())
    payload.pop("started_at", None)
    payload.pop("finished_at", None)
    return payload


class TestIngest:
    def test_promise_distribution(self, capsys):
        code = main(["ingest", "--data", str(PROMISE_CSV), "--scheme", "frnfr"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "255" in out and "370" in out

    def test_json_mode(self, capsys):
        code = main(
            ["ingest", "--data", str(PROMISE_CSV), "--scheme", "frnfr", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["class_counts"] == {"FR": 255, "NFR": 370}
        assert payload["records"] == 625

    def test_missing_file_exits_data_code(self, capsys):
        code = main(["ingest", "--data", "/nope/missing.csv", "--scheme", "frnfr"])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert "missing.csv" in err

    def test_scheme_mismatch_names_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("text,label\nfine,F\nbroken,WAT\n", encoding="utf-8")
        code = main(["ingest", "--data", str(bad), "--scheme", "frnfr"])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert "row 3" in err and "WAT" in err

    def test_unknown_scheme_exits_data_code(self, capsys):
        code = main(["ingest", "--data", str(PROMISE_CSV), "--scheme", "wat"])
        assert code == EXIT_DATA

    @pytest.mark.parametrize(
        "scheme",
        [b"[]", b'{"name": "s", "task_kind": "binary", "labels": ["FR", "NFR"]}',
         b'{"name": "\xff"}'],
        ids=["list", "string-labels", "not-utf8"],
    )
    def test_malformed_scheme_file_exits_data_code(self, tmp_path, capsys, scheme):
        path = tmp_path / "scheme.json"
        path.write_bytes(scheme)
        code = main(["ingest", "--data", str(PROMISE_CSV), "--scheme", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA, err
        assert "data error" in err and str(path) in err


class TestPoolSelect:
    def test_pool_counts(self, capsys):
        code = main(
            ["pool", "--data", str(PROMISE_CSV), "--scheme", "promise12",
             "--size", "24", "--seed", "3", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["size"] == 24
        # 12 classes: full round of 12, a round of 11 (PO exhausted), then F
        assert payload["per_class"]["F"] == 3
        assert payload["per_class"]["A"] == 2
        assert payload["per_class"]["PO"] == 1

    def test_select_tfidf(self, capsys):
        code = main(
            ["select", "--data", str(PROMISE_CSV), "--scheme", "frnfr",
             "--method", "tfidf", "--k", "3",
             "--query", "The system shall encrypt all stored data.", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["k_delivered"] == 3
        sims = [c["similarity"] for c in payload["chosen"]]
        assert sims == sorted(sims, reverse=True)

    def test_select_embedding_matches_oracle(self, capsys, promise_binary):
        query = "The system shall encrypt all stored data."
        code = main(
            ["select", "--data", str(PROMISE_CSV), "--scheme", "frnfr",
             "--method", "embedding", "--k", "3", "--hash-dim", "16",
             "--query", query, "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        pool = build_pool(list(promise_binary.records), promise_binary.scheme,
                          len(promise_binary), 0)
        provider = HashEmbeddingProvider(16)
        matrix = build_embedding_matrix(pool.candidates, provider)
        expected = oracle_knn_embedding(matrix, provider.embed_batch([query])[0], 3)
        assert [(c["record_id"], c["similarity"]) for c in payload["chosen"]] == expected

    def test_select_random_smaller_k_is_a_prefix(self, capsys):
        ids = {}
        for k in (2, 5):
            code = main(
                ["select", "--data", str(PROMISE_CSV), "--scheme", "frnfr", "--method",
                 "random", "--k", str(k), "--query", "The system shall log in.", "--json"]
            )
            assert code == EXIT_OK
            ids[k] = [c["record_id"] for c in json.loads(capsys.readouterr().out)["chosen"]]
        assert len(ids[5]) == 5
        assert ids[5][:2] == ids[2]

    def test_select_negative_k_is_a_config_error(self, capsys):
        code = main(
            ["select", "--data", str(PROMISE_CSV), "--scheme", "frnfr",
             "--method", "random", "--k", "-1", "--query", "whatever"]
        )
        assert code == EXIT_CONFIG
        assert "config error: shot count must be >= 0, got -1" in capsys.readouterr().err

    def test_select_random_zero_shot(self, capsys):
        code = main(
            ["select", "--data", str(PROMISE_CSV), "--scheme", "frnfr",
             "--method", "random", "--k", "0", "--query", "whatever", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["chosen"] == []


class TestRun:
    def test_echo_gold_run_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        config = write_config(
            tmp_path,
            data=str(PROMISE_CSV),
            scheme="frnfr",
            model="mock-gold",
            method="tfidf",
            k=5,
            pool_size=200,
            split={"kind": "holdout", "fraction": 0.9, "seed": 1},
            profiles={"mock-gold": {"base_url": "mock://echo-gold"}},
        )
        code = main(["run", "--config", config, "--out", str(out_dir), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["weighted_f1"] == 1.0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["n_predictions"] == 62  # 25 FR + 37 NFR test rows at 0.9
        assert (out_dir / "trace.jsonl").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["dataset_sha256"]

    def run_config(self, tmp_path):
        return write_config(
            tmp_path, data=str(PROMISE_CSV), scheme="frnfr", model="mock-gold",
            method="random", k=2, pool_size=40,
            profiles={"mock-gold": {"base_url": "mock://echo-gold"}},
        )

    def test_harness_bug_exits_with_bug_code(self, tmp_path, capsys, monkeypatch):
        import shotsweep.cli

        def broken_run_sweep(*args, **kwargs):
            raise KeyError("bug")

        monkeypatch.setattr(shotsweep.cli, "run_sweep", broken_run_sweep)
        code = main(["run", "--config", self.run_config(tmp_path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_BUG
        assert code != EXIT_PARTIAL
        assert "Traceback" in err and "KeyError: 'bug'" in err

    def test_torn_cache_lines_warned_once(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        (cache / "completions").mkdir(parents=True)
        (cache / "completions" / "00.jsonl").write_text('{"content_hash": "00\n{"torn')
        code = main(["run", "--config", self.run_config(tmp_path), "--out",
                     str(tmp_path / "o"), "--cache-dir", str(cache)])
        err = capsys.readouterr().err
        assert code == EXIT_OK
        assert err.count("warning:") == 1
        assert "2 torn line(s)" in err

    def test_torn_line_warning_names_its_segments(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        (cache / "completions").mkdir(parents=True)
        (cache / "completions" / "00.jsonl").write_text('{"torn\n')
        (cache / "completions" / "01.jsonl").write_text("")
        (cache / "embeddings").mkdir()
        (cache / "embeddings" / "seg-1.jsonl").write_text('{"torn')
        code = main(["run", "--config", self.run_config(tmp_path), "--out",
                     str(tmp_path / "o"), "--cache-dir", str(cache)])
        err = capsys.readouterr().err
        assert code == EXIT_OK
        warning = next(line for line in err.splitlines() if line.startswith("warning:"))
        assert str(cache / "completions" / "00.jsonl") in warning
        assert str(cache / "embeddings" / "seg-1.jsonl") in warning
        assert "01.jsonl" not in warning

    def test_cache_line_that_is_not_utf8_is_warned_not_a_bug(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        (cache / "completions").mkdir(parents=True)
        (cache / "completions" / "00.jsonl").write_bytes(b'\xff\xfe{"x": 1}\n')
        code = main(["run", "--config", self.run_config(tmp_path), "--out",
                     str(tmp_path / "o"), "--cache-dir", str(cache)])
        err = capsys.readouterr().err
        assert code == EXIT_OK, err
        assert err.count("warning:") == 1
        assert "1 torn line(s)" in err and str(cache / "completions" / "00.jsonl") in err

    def test_cache_row_from_a_newer_version_is_warned_not_a_bug(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        (cache / "completions").mkdir(parents=True)
        row = {"content_hash": "00", "text": "FR", "latency_ms": 1.0, "attempts": 1,
               "model": "mock-gold", "created_at": "t", "fingerprint": "f", "extra": 1}
        (cache / "completions" / "00.jsonl").write_text(json.dumps(row) + "\n5\n")
        code = main(["run", "--config", self.run_config(tmp_path), "--out",
                     str(tmp_path / "o"), "--cache-dir", str(cache)])
        err = capsys.readouterr().err
        assert code == EXIT_OK
        warning = next(line for line in err.splitlines() if line.startswith("warning:"))
        assert "2 torn line(s)" in warning
        assert str(cache / "completions" / "00.jsonl") in warning

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = write_config(
            tmp_path, data=str(PROMISE_CSV), scheme="frnfr", model="m",
            method="tfidf", k=1, out_dir=str(tmp_path / "o"), typo_key=True,
        )
        code = main(["run", "--config", config])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "typo_key" in err

    def test_missing_required_key(self, tmp_path, capsys):
        config = write_config(tmp_path, data=str(PROMISE_CSV), scheme="frnfr")
        code = main(["run", "--config", config])
        assert code == EXIT_CONFIG

    def test_null_is_the_same_as_leaving_the_key_out(self, tmp_path, capsys):
        nulls = dict.fromkeys([
            "pool_size", "pool_seed", "selection_seed", "scoring_policy", "template",
            "ordering", "provider", "split", "cache_dir", "text_col",
        ])
        printed = []
        for name, extra in (("plain.json", {}), ("nulls.json", nulls)):
            config = write_config(
                tmp_path, name, data=str(PROMISE_CSV), scheme="frnfr", model="mock-gold",
                method="random", k=1, profiles=GOLD_PROFILES, **extra,
            )
            argv = ["run", "--config", config, "--out", str(tmp_path / "o"), "--dry-run"]
            assert main(argv) == EXIT_OK
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    def test_profile_override_keeps_builtin_fields(self):
        from shotsweep.cli import _build_profiles

        spec = {"gpt-3.5-turbo": {"base_url": "http://localhost:8000/v1"}}
        profile = _build_profiles({"profiles": spec})["gpt-3.5-turbo"]
        assert profile.base_url == "http://localhost:8000/v1"
        assert profile.context_window == 16384

    def test_profile_provider_matches_hash_provider(self, tmp_path, capsys):
        payload = dict(
            data=str(PROMISE_CSV), scheme="frnfr", model="mock-gold", method="embedding",
            k=3, pool_size=200, profiles={
                **GOLD_PROFILES, "emb": {"kind": "embedding", "base_url": "mock://hash64"}
            },
        )
        via_profile = write_config(tmp_path, "profile.json", provider="profile:emb", **payload)
        via_hash = write_config(tmp_path, "hash.json", provider="hash:64", **payload)
        cache = tmp_path / "cache"
        for out in ("profile", "again"):
            argv = ["run", "--config", via_profile, "--out", str(tmp_path / out),
                    "--cache-dir", str(cache)]
            assert main(argv) == EXIT_OK
            if out == "profile":
                (segment,) = (cache / "embeddings").glob("*.jsonl")
                assert len(segment.read_text().splitlines()) == 325  # 200 pool + 125 test
        assert list((cache / "embeddings").glob("*.jsonl")) == [segment]  # all hits
        assert main(["run", "--config", via_hash, "--out", str(tmp_path / "hash")]) == EXIT_OK
        trace = (tmp_path / "profile" / "trace.jsonl").read_bytes()
        assert trace == (tmp_path / "hash" / "trace.jsonl").read_bytes()

    def test_embedding_profile_may_send_another_name(self, tmp_path, capsys):
        payload = dict(data=str(PROMISE_CSV), scheme="frnfr", model="mock-gold",
                       method="embedding", k=3, pool_size=200)
        emb = {"kind": "embedding", "name": "text-embedding-3-small", "base_url": "mock://hash64"}
        aliased = write_config(tmp_path, "aliased.json", provider="profile:emb",
                               profiles={**GOLD_PROFILES, "emb": emb}, **payload)
        via_hash = write_config(tmp_path, "hash.json", provider="hash:64",
                                profiles=GOLD_PROFILES, **payload)
        for config, out in ((aliased, "aliased"), (via_hash, "hash")):
            code = main(["run", "--config", config, "--out", str(tmp_path / out)])
            assert code == EXIT_OK, capsys.readouterr().err
        trace = (tmp_path / "aliased" / "trace.jsonl").read_bytes()
        assert trace == (tmp_path / "hash" / "trace.jsonl").read_bytes()

    @pytest.mark.parametrize("mock", ["constant/Functional", "unparseable"])
    def test_documented_mock_backends(self, tmp_path, capsys, mock):
        config = write_config(
            tmp_path, data=str(PROMISE_CSV), scheme="frnfr", model="m", method="random",
            k=0, profiles={"m": {"base_url": f"mock://{mock}"}},
        )
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["n_predictions"] == 125
        if mock == "unparseable":
            assert report["n_unparseable"] == report["n_predictions"]
        else:  # every prediction is FR, the label named Functional
            assert sum(row["FR"] for row in report["confusion"].values()) == 125

    def test_unknown_profile_field_rejected(self, tmp_path, capsys):
        config = write_config(
            tmp_path, data=str(PROMISE_CSV), scheme="frnfr", model="gpt-4o",
            method="tfidf", k=1, profiles={"gpt-4o": {"context_windw": 10}},
        )
        code = main(["run", "--config", config, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "context_windw" in err


def listed_and_on_disk(out_dir: Path) -> tuple[list[str], list[str]]:
    """The manifest's artifact paths and the files under out_dir but the manifest."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    listed = sorted(manifest["artifacts"].values())
    on_disk = sorted(
        p.relative_to(out_dir).as_posix()
        for p in out_dir.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    )
    return listed, on_disk


GOLD_PROFILES = {"mock-gold": {"base_url": "mock://echo-gold"}}


class TestManifestArtifacts:
    @pytest.mark.parametrize("split", [{"kind": "holdout", "fraction": 0.8}, {"kind": "full"}])
    def test_run(self, tmp_path, capsys, split):
        config = write_config(
            tmp_path, data=str(PROMISE_CSV), scheme="frnfr", model="mock-gold",
            method="tfidf", k=2, pool_size=40, split=split, profiles=GOLD_PROFILES,
        )
        out_dir = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out_dir)]) == EXIT_OK
        listed, on_disk = listed_and_on_disk(out_dir)
        assert listed == on_disk
        assert ("split.json" in listed) == (split["kind"] == "holdout")

    def test_cv(self, tmp_path, capsys):
        config = write_config(
            tmp_path, data=str(PROMISE_CSV), scheme="frnfr", model="mock-gold",
            method="random", k_folds=3, pool_size=40, profiles=GOLD_PROFILES,
        )
        out_dir = tmp_path / "out"
        code = main(["cv", "--config", config, "--shots", "2", "--out", str(out_dir)])
        assert code == EXIT_OK
        listed, on_disk = listed_and_on_disk(out_dir)
        assert listed == on_disk
        assert "folds/fold02.json" in listed and "trace.jsonl" in listed

    def test_sweep(self, tmp_path, capsys):
        config = write_config(
            tmp_path, data=str(PROMISE_CSV), scheme="frnfr", models=["mock-gold"],
            methods=["random", "tfidf"], grid=[0, 2], pool_size=40,
            profiles=GOLD_PROFILES,
        )
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out_dir)]) == EXIT_OK
        listed, on_disk = listed_and_on_disk(out_dir)
        assert listed == on_disk
        assert len(listed) == 3 + 4  # curves.json, curves.csv, sweep.json, 4 cells

    def test_rerun_removes_what_the_previous_manifest_listed_and_it_does_not(self, tmp_path,
                                                                             capsys):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "notes.txt").write_text("not an artifact")
        for folds in (5, 3):
            config = one_cell_or_sweep_config(tmp_path, "cv", k_folds=folds)
            code = main(["cv", "--config", config, "--shots", "1", "--out", str(out_dir)])
            assert code == EXIT_OK
        listed, on_disk = listed_and_on_disk(out_dir)
        assert "folds/fold02.json" in listed and "folds/fold03.json" not in listed
        assert on_disk == sorted([*listed, "notes.txt"])

    def test_rerun_removes_nothing_outside_out_and_keeps_its_manifest(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        outside = tmp_path / "outside.txt"
        absolute = out_dir / "absolute.txt"  # inside --out, but listed by absolute path
        for kept in (outside, absolute):
            kept.write_text("kept")
        old = {"a": "../outside.txt", "b": str(outside), "c": str(absolute),
               "d": "folds/../../outside.txt", "e": "manifest.json", "f": ["x"]}
        (out_dir / "manifest.json").write_text(json.dumps({"artifacts": old}))
        config = one_cell_or_sweep_config(tmp_path, "run")
        assert main(["run", "--config", config, "--out", str(out_dir)]) == EXIT_OK
        assert outside.read_text() == "kept" and absolute.read_text() == "kept"
        listed, on_disk = listed_and_on_disk(out_dir)
        assert on_disk == sorted([*listed, "absolute.txt"])
        assert json.loads((out_dir / "manifest.json").read_text())["config"]["k"] == 1

    @pytest.mark.parametrize("old", ["{", "[]", '{"artifacts": [1]}'])
    def test_rerun_over_a_manifest_that_does_not_parse(self, tmp_path, capsys, old):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "manifest.json").write_text(old)
        config = one_cell_or_sweep_config(tmp_path, "run")
        assert main(["run", "--config", config, "--out", str(out_dir)]) == EXIT_OK
        listed, on_disk = listed_and_on_disk(out_dir)
        assert listed == on_disk


CURVES = {"artifacts": {"curves_json": "curves.json"}}


def shots_from(tmp_path, manifest, curves=None) -> list[str]:
    if curves is not None:
        (tmp_path / "curves.json").write_text(json.dumps(curves))
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return ["--shots-from", str(path)]


class TestConfigErrors:
    """A bad config value exits with the config code and names its key; it is
    never reported as a bug in shotsweep."""

    @pytest.mark.parametrize(
        "command, extra, manifest, needle",
        [
            ("run", {"provider": "hash:abc"}, None, "provider"),
            (
                "run",
                {"profiles": {**GOLD_PROFILES, "emb": {"base_url": "mock://hashx"}}},
                None,
                "base_url",
            ),
            ("run", {"pool_seed": "x"}, None, "pool_seed"),
            ("run", {"split": {"kind": "holdout", "fraction": "a"}}, None, "fraction"),
            ("run", {"k": "five"}, None, "k: expected int"),
            (
                "cv",
                {},
                ({"artifacts": {"curves_json": "curves.json"}}, {"curves": []}),
                "'series'",
            ),
            ("cv", {}, (["not", "a", "manifest"], None), "'artifacts'"),
            ("cv", {}, ({"artifacts": {"curves_json": 5}}, None), "sweep manifest"),
            ("cv", {}, (CURVES, {"series": [{"method": "random", "optimal_shots": 1}]}),
             "'model'"),
            ("cv", {}, (CURVES, {"series": [{"model": "mock-gold", "optimal_shots": 1}]}),
             "'method'"),
            ("cv", {}, (CURVES, {"series": [{"model": "mock-gold", "method": "random"}]}),
             "'optimal_shots'"),
            (
                "cv",
                {},
                (CURVES, {"series": [
                    {"model": "mock-gold", "method": "random", "optimal_shots": "x"}
                ]}),
                "optimal_shots: expected int",
            ),
            ("run", {"pool_size": "x"}, None, "pool_size: expected int"),
            ("cv", {"pool_size": "x"}, None, "pool_size: expected int"),
            ("sweep", {"pool_size": "x"}, None, "pool_size: expected int"),
            ("sweep", {"grid": 5}, None, "grid: expected a list"),
            ("sweep", {"models": "mock-gold"}, None, "models: expected a list"),
            ("run", {"provider": "profile:nope"}, None, "provider profile 'nope' not found"),
            ("run", {"provider": "bert"}, None, "unknown provider spec 'bert'"),
            ("run", {"profiles": {"mock-gold": {"base_url": "mock://nope"}}}, None,
             "unknown mock backend 'nope'"),
            ("run", {"provider": "hash128"}, None, "unknown provider spec 'hash128'"),
            ("run", {"provider": "hashfoo"}, None, "unknown provider spec 'hashfoo'"),
            ("run", {"split": {}}, None, "split must be an object with a 'kind'"),
        ],
        ids=[
            "provider", "mock-dim", "pool-seed", "fraction", "k", "no-series", "list",
            "curves-path", "series-model", "series-method", "series-shots",
            "series-shots-type", "run-pool-size", "cv-pool-size", "sweep-pool-size",
            "sweep-grid", "sweep-models", "provider-profile-missing", "provider-unknown",
            "mock-unknown", "provider-hash-no-colon", "provider-hash-suffix", "split-empty",
        ],
    )
    def test_bad_value_is_a_config_error(self, tmp_path, capsys, command, extra,
                                         manifest, needle):
        payload = dict(
            data=str(PROMISE_CSV), scheme="frnfr", model="mock-gold", method="random",
            k=1, pool_size=20, profiles=GOLD_PROFILES,
        )
        if command == "cv":
            payload["k_folds"] = 2
        if command == "sweep":
            payload.update(models=[payload.pop("model")], methods=[payload.pop("method")],
                           grid=[0, 1])
            del payload["k"]
        payload.update(extra)
        argv = [command, "--config", write_config(tmp_path, **payload),
                "--out", str(tmp_path / "out")]
        if manifest is not None:
            argv += shots_from(tmp_path, *manifest)
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, err
        assert "config error" in err and needle in err
        assert "internal error" not in err

    @pytest.mark.parametrize(
        "command, extra, manifest, needle",
        [
            ("run", {"k": 2.7}, None, "k: expected int, got 2.7"),
            ("run", {"k": True}, None, "k: expected int, got True"),
            ("run", {"pool_size": 20.5}, None, "pool_size: expected int"),
            ("run", {"pool_seed": True}, None, "pool_seed: expected int"),
            ("run", {"selection_seed": 0.5}, None, "selection_seed: expected int"),
            ("run", {"split": {"kind": "holdout", "seed": 1.5}}, None, "split.seed: expected int"),
            ("cv", {"k": 1.5}, None, "k: expected int"),
            ("cv", {"k_folds": 2.5}, None, "k_folds: expected int"),
            ("cv", {"split_seed": False}, None, "split_seed: expected int"),
            ("sweep", {"grid": [0, 1.5]}, None, "grid: expected int"),
            ("sweep", {"grid": [0, True]}, None, "grid: expected int"),
            ("sweep", {"selection_seed": 0.5}, None, "selection_seed: expected int"),
            ("cv", {}, (CURVES, {"series": [
                {"model": "mock-gold", "method": "random", "optimal_shots": 2.7}
            ]}), "optimal_shots: expected int, got 2.7"),
            ("cv", {}, (CURVES, {"series": [
                {"model": "mock-gold", "method": "random", "optimal_shots": True}
            ]}), "optimal_shots: expected int, got True"),
            ("cv", {}, (CURVES, {"series": 5}), "curves.json: 'series' must be a list"),
            ("cv", {}, (CURVES, {"series": [5]}), "curves.json: expected a JSON object"),
        ],
        ids=[
            "run-k-fraction", "run-k-bool", "run-pool-size", "run-pool-seed",
            "run-selection-seed", "run-split-seed", "cv-k", "cv-k-folds", "cv-split-seed",
            "sweep-grid-fraction", "sweep-grid-bool", "sweep-selection-seed",
            "series-shots-fraction", "series-shots-bool", "series-not-a-list",
            "series-entry-not-an-object",
        ],
    )
    def test_fraction_bool_or_malformed_series_is_a_config_error(
        self, tmp_path, capsys, command, extra, manifest, needle
    ):
        self.test_bad_value_is_a_config_error(tmp_path, capsys, command, extra, manifest, needle)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_attempts", 0), ("max_attempts", "3"), ("rate_limit_per_s", 0),
            ("timeout_s", -1), ("backoff_base_s", -1), ("kind", "video"),
            ("context_window", 0), ("base_url", 5),
        ],
        ids=["attempts-zero", "attempts-string", "rate-limit", "timeout", "backoff", "kind",
             "context-window", "base-url"],
    )
    def test_bad_profile_value_sends_no_request(self, tmp_path, capsys, field, value):
        config = write_config(
            tmp_path, data=str(PROMISE_CSV), scheme="frnfr", model="mock-gold",
            method="random", k=1, pool_size=20,
            profiles={"mock-gold": {**GOLD_PROFILES["mock-gold"], field: value}},
        )
        cache_dir = tmp_path / "cache"
        code = main(["run", "--config", config, "--out", str(tmp_path / "out"),
                     "--cache-dir", str(cache_dir)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, err
        assert "config error: profile 'mock-gold':" in err and field in err
        assert not list(cache_dir.rglob("*.jsonl"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field, value",
        [("context_window", float("nan")), ("temperature", "hot"), ("max_output_tokens", -5),
         ("embedding_dim", "x"), ("base_url", "ftp://x"), ("timeout_s", float("inf"))],
        ids=["window-nan", "temperature", "output-tokens", "embedding-dim", "scheme",
             "timeout-inf"],
    )
    def test_profile_value_it_cannot_send_is_refused_by_a_dry_run(self, tmp_path, capsys,
                                                                  field, value):
        """A JSON config may hold NaN and Infinity: a NaN window would switch
        the context guard off, an infinite timeout would abort the run at its
        first request with exit 5, and each other value would fail every cell
        at send time."""
        config = write_config(
            tmp_path, data=str(PROMISE_CSV), scheme="frnfr", model="mock-gold",
            method="random", k=160, profiles={"mock-gold": {**GOLD_PROFILES["mock-gold"],
                                                            field: value}},
        )
        code = main(["run", "--config", config, "--out", str(tmp_path / "out"), "--dry-run"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, err
        assert f"config error: profile 'mock-gold': {field} must be" in err

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("run", "data", 5), ("run", "scheme", 5), ("run", "text_col", 5),
            ("run", "out_dir", 5), ("run", "cache_dir", 5), ("run", "model", ["mock-gold"]),
            ("sweep", "models", [["a"]]), ("sweep", "methods", ["random", 5]),
            ("cv", "on_small_class", 5),
        ],
        ids=["data", "scheme", "text-col", "out-dir", "cache-dir", "model", "models",
             "methods", "on-small-class"],
    )
    def test_wrongly_typed_value_sends_no_request(self, tmp_path, capsys, monkeypatch,
                                                   command, key, value):
        payload = dict(
            data=str(PROMISE_CSV), scheme="frnfr", pool_size=20, profiles=GOLD_PROFILES,
            out_dir=str(tmp_path / "out"), cache_dir=str(tmp_path / "cache"),
        )
        if command == "sweep":
            payload.update(models=["mock-gold"], methods=["random"], grid=[0, 1])
        else:
            payload.update(model="mock-gold", method="random", k=1)
        if command == "cv":
            payload["k_folds"] = 2
        payload[key] = value
        config = write_config(tmp_path, **payload)
        monkeypatch.chdir(tmp_path)  # a path of 5 would land here
        code = main([command, "--config", config])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, err
        assert f"config error: {key}: expected" in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]  # no out, no cache

    @pytest.mark.parametrize(
        "argv", [["sweep", "--dry-run"], ["sweep"], ["run"], ["cv", "--shots", "1"]],
        ids=["sweep-dry-run", "sweep", "run", "cv"],
    )
    def test_unknown_scoring_policy_sends_no_request(self, tmp_path, capsys, argv):
        payload = dict(
            data=str(PROMISE_CSV), scheme="frnfr", pool_size=20, profiles=GOLD_PROFILES,
            scoring_policy="strickt",
        )
        if argv[0] == "sweep":
            payload.update(models=["mock-gold"], methods=["random"], grid=[0, 1])
        else:
            payload.update(model="mock-gold", method="random", k=1)
        cache_dir = tmp_path / "cache"
        code = main([*argv, "--config", write_config(tmp_path, **payload),
                     "--out", str(tmp_path / "out"), "--cache-dir", str(cache_dir)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, err
        assert "unknown scoring policy 'strickt'" in err
        assert not list(cache_dir.rglob("*.jsonl"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["", "dry-run"])
    @pytest.mark.parametrize(
        "argv, extra, needle",
        [
            (["run"], {"split": {"kind": "holdout", "fracton": 0.5}},
             "unknown holdout split key(s): fracton"),
            (["sweep"], {"split": {"kind": "holdout", "fracton": 0.5}},
             "unknown holdout split key(s): fracton"),
            (["run"], {"split": {"kind": "full", "fraction": 0.5}},
             "unknown full split key(s): fraction"),
            (["sweep"], {"split": {"kind": "full", "fraction": 0.5}},
             "unknown full split key(s): fraction"),
            (["cv", "--shots", "1"], {"on_small_class": "sometimes"},
             "on_small_class must be error or allow, got 'sometimes'"),
            *[([command], {"split": {"kind": "holdout", "fraction": fraction}},
               f"holdout fraction must be in (0, 1), got {float(fraction)}")
              for command in ("run", "sweep") for fraction in (0, 1.5)],
            *[(argv, {"pool_size": -1}, "pool size must be >= 0, got -1")
              for argv in (["run"], ["cv", "--shots", "1"], ["sweep"])],
            *[(["sweep"], {"overprompting_threshold": threshold},
               f"overprompting_threshold must be finite and > 0, got {float(threshold)}")
              for threshold in (0, -1, float("nan"))],
            (["sweep"], {"ordering": "sideways"}, "unknown ordering policy 'sideways'"),
            (["run"], {"provider": "profile:m",
                       "profiles": {**GOLD_PROFILES, "m": {"base_url": "mock://echo-gold"}}},
             "provider profile 'm' is not an embedding profile"),
            (["run"], {"profiles": {"mock-gold": {"base_url": "mock://hash64"}}},
             "profile 'mock-gold': mock://hash64 answers embedding profiles"),
            (["run"], {"provider": "profile:e", "profiles": {
                **GOLD_PROFILES, "e": {"kind": "embedding", "base_url": "mock://echo-gold"}}},
             "profile 'e': mock://echo-gold answers chat profiles"),
            (["run"], {"profiles": {"mock-gold": {"base_url": "mock://nosuch"}}},
             "unknown mock backend 'nosuch'"),
        ],
        ids=["run-split-typo", "sweep-split-typo", "run-full-fraction",
             "sweep-full-fraction", "cv-on-small-class", "run-fraction-0",
             "run-fraction-1.5", "sweep-fraction-0", "sweep-fraction-1.5",
             "run-pool-size", "cv-pool-size", "sweep-pool-size", "threshold-0",
             "threshold-negative", "threshold-nan", "ordering", "provider-chat-profile",
             "chat-profile-on-hash", "embedding-profile-on-echo-gold", "mock-unknown"],
    )
    def test_bad_split_or_plan_setting_sends_no_request(
        self, tmp_path, capsys, argv, extra, needle, dry_run
    ):
        payload = {"data": str(PROMISE_CSV), "scheme": "frnfr", "pool_size": 20,
                   "profiles": GOLD_PROFILES, **extra}
        if argv[0] == "sweep":
            payload.update(models=["mock-gold"], methods=["random"], grid=[0, 1])
        else:
            payload.update(model="mock-gold", method="random", k=1)
        cache_dir = tmp_path / "cache"
        code = main([*argv, *dry_run, "--config", write_config(tmp_path, **payload),
                     "--out", str(tmp_path / "out"), "--cache-dir", str(cache_dir)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, err
        assert f"config error: {needle}" in err
        assert not cache_dir.exists()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [["run"], ["run", "--dry-run"], ["cv", "--shots", "1"], ["cv", "--shots", "1", "--dry-run"]],
        ids=["run", "run-dry-run", "cv", "cv-dry-run"],
    )
    def test_unknown_method_sends_no_request(self, tmp_path, capsys, argv):
        config = write_config(
            tmp_path, data=str(PROMISE_CSV), scheme="frnfr", model="mock-gold",
            method="nearest", k=1, pool_size=20, profiles=GOLD_PROFILES,
        )
        cache_dir = tmp_path / "cache"
        code = main([*argv, "--config", config, "--out", str(tmp_path / "out"),
                     "--cache-dir", str(cache_dir)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, err
        assert "unknown selection method 'nearest'" in err
        assert not list(cache_dir.rglob("*.jsonl"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["", "dry-run"])
    @pytest.mark.parametrize("command", ["run", "cv", "sweep"])
    def test_model_without_a_profile_sends_no_request(self, tmp_path, capsys, command, dry_run):
        model = {"models": ["m"]} if command == "sweep" else {"model": "m"}
        config = one_cell_or_sweep_config(tmp_path, command, profiles={}, **model)
        cache_dir = tmp_path / "cache"
        code = main([command, *dry_run, "--config", config, "--out", str(tmp_path / "out"),
                     "--cache-dir", str(cache_dir)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, err
        assert "config error: no profile for model(s): m" in err
        assert not cache_dir.exists() and not (tmp_path / "out").exists()

    def test_config_file_not_utf8_is_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"k": "\xff"}')
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, err
        assert "config error" in err and str(config) in err and "not UTF-8" in err

    @pytest.mark.parametrize(
        "content, needle",
        [(None, "no such config file"), ("{", "invalid JSON"),
         ("[]", "config must be a JSON object")],
        ids=["missing", "invalid-json", "list"],
    )
    def test_config_file_that_is_no_json_object_is_a_config_error(self, tmp_path, capsys,
                                                                  content, needle):
        config = tmp_path / "config.json"
        if content is not None:
            config.write_text(content, encoding="utf-8")
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, err
        assert "config error" in err and str(config) in err and needle in err

    @pytest.mark.parametrize("argv", [["run"], ["run", "--dry-run"]], ids=["run", "run-dry-run"])
    def test_template_that_is_not_a_string_is_a_config_error(self, tmp_path, capsys, argv):
        config = write_config(
            tmp_path, data=str(PROMISE_CSV), scheme="frnfr", model="mock-gold",
            method="random", k=1, pool_size=20, profiles=GOLD_PROFILES, template=5,
        )
        code = main([*argv, "--config", config, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, err
        assert "config error: template: expected str" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content", [None, b"[system]\n\xff\xfe\n"],
                             ids=["missing", "not-utf8"])
    def test_unreadable_template_is_a_config_error(self, tmp_path, capsys, content):
        template = tmp_path / "template.txt"
        if content is not None:
            template.write_bytes(content)
        config = write_config(
            tmp_path, data=str(PROMISE_CSV), scheme="frnfr", model="mock-gold",
            method="random", k=1, pool_size=20, profiles=GOLD_PROFILES,
            template=str(template),
        )
        code = main(["run", "--config", config, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, err
        assert "config error" in err and str(template) in err

    @pytest.mark.parametrize(
        "task, input_block, message",
        [('{classes} as {"label": x}', "{text}", r"task block: .*literal brace is written \{\{"),
         ("{classes} }", "{text}", r"task block: .*literal brace is written \{\{"),
         ("{{classes}}", "{text}", r"task block must contain the \{classes\} placeholder"),
         ("{classes}", "{{text}}", r"input block must contain the \{text\} placeholder")],
        ids=["json-braces", "stray-close", "doubled-classes", "doubled-text"],
    )
    def test_template_that_cannot_render_is_refused_by_a_dry_run(self, tmp_path, capsys, task,
                                                                 input_block, message):
        template = tmp_path / "template.txt"
        template.write_text(
            f"[system]\nrole\n[task]\n{task}\n[example]\n{{text}} {{label}}\n"
            f"[input]\n{input_block}\n"
        )
        config = one_cell_or_sweep_config(tmp_path, "run", template=str(template))
        code = main(["run", "--dry-run", "--config", config, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, err
        assert re.search(f"config error: {message}", err), err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_model_with_an_embedding_profile_is_refused_by_a_dry_run(self, tmp_path, capsys,
                                                                      command):
        model = {"models": ["mock-gold", "emb"]} if command == "sweep" else {"model": "emb"}
        emb = {"kind": "embedding", "base_url": "http://127.0.0.1:9"}
        profiles = {**GOLD_PROFILES, "emb": emb}
        config = one_cell_or_sweep_config(tmp_path, command, profiles=profiles, **model)
        code = main([command, "--dry-run", "--config", config, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, err
        assert "config error: model(s) emb: an embedding profile cannot classify" in err

    def test_integral_float_is_an_int(self, tmp_path, capsys):
        config = write_config(
            tmp_path, data=str(PROMISE_CSV), scheme="frnfr", model="mock-gold",
            method="random", k=2.0, pool_size=20.0, profiles=GOLD_PROFILES,
        )
        out_dir = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out_dir)]) == EXIT_OK
        assert json.loads((out_dir / "report.json").read_text())["metadata"]["k"] == 2
        k = json.loads((out_dir / "manifest.json").read_text())["config"]["k"]
        assert k == 2 and type(k) is int

    def test_every_run_sweep_cv_flag_is_a_config_key_its_command_reads(self):
        from shotsweep.cli import _KEYS, build_parser

        control = {"config", "json", "dry_run", "shots_from"}
        (commands,) = [a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        for command in ("run", "sweep", "cv"):
            for action in commands.choices[command]._actions:
                if isinstance(action, argparse._HelpAction) or action.dest in control:
                    continue
                assert command in _KEYS.get(action.dest, (None, ()))[1], (command, action.dest)


class TestUnusablePaths:
    """An input that cannot be read, or an output path that cannot become a
    directory, is reported against the layer that owns it, never as a bug."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["ingest", "--data", "<not-utf8>", "--scheme", "frnfr"], EXIT_DATA),
            (["ingest", "--data", "<dir>", "--scheme", "frnfr"], EXIT_DATA),
            (["ingest", "--data", str(PROMISE_CSV), "--scheme", "<dir>"], EXIT_DATA),
            (["run", "--config", "<dir>", "--out", "<out>"], EXIT_CONFIG),
            (["run", "--config", "<profiles-dir-config>", "--out", "<out>"], EXIT_CONFIG),
            (["replay", "--trace", "<not-utf8>", "--scheme", "frnfr"], EXIT_DATA),
            (["replay", "--trace", "<dir>", "--scheme", "frnfr"], EXIT_DATA),
            (["report", "--reports", "<dir>", "--layout", "binary"], EXIT_DATA),
            (["cv", "--config", "<cv-config>", "--shots-from", "<not-utf8>", "--out", "<out>"],
             EXIT_CONFIG),
        ],
        ids=["ingest-data-not-utf8", "ingest-data-dir", "scheme-dir", "run-config-dir",
             "profiles-dir", "replay-trace-not-utf8", "replay-trace-dir", "report-dir",
             "cv-shots-from-not-utf8"],
    )
    def test_unreadable_input_is_a_data_or_config_error(self, tmp_path, capsys, argv, code):
        directory = tmp_path / "dir"
        directory.mkdir()
        not_utf8 = tmp_path / "latin1.txt"
        not_utf8.write_bytes(b"text,label\n\xe9t\xe9,FR\n")
        made = {
            "<dir>": lambda: str(directory),
            "<not-utf8>": lambda: str(not_utf8),
            "<out>": lambda: str(tmp_path / "out"),
            "<profiles-dir-config>": lambda: one_cell_or_sweep_config(
                tmp_path, "run", profiles=str(directory)),
            "<cv-config>": lambda: one_cell_or_sweep_config(tmp_path, "cv"),
        }
        got = main([made[arg]() if arg in made else arg for arg in argv])
        err = capsys.readouterr().err
        assert got == code, err
        assert ("config error" if code == EXIT_CONFIG else "data error") in err
        assert "internal error" not in err and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["", "dry-run"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    @pytest.mark.parametrize("flag, key", [("--out", "out_dir"), ("--cache-dir", "cache_dir")])
    @pytest.mark.parametrize("command", ["run", "cv", "sweep"])
    def test_out_or_cache_dir_on_a_file_is_refused_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, flag, key, below, dry_run
    ):
        monkeypatch.setattr("shotsweep.cli.run_sweep", None)  # a call would exit as a bug
        a_file = tmp_path / "file"
        a_file.write_text("kept\n")
        paths = {"--out": tmp_path / "out", "--cache-dir": tmp_path / "cache"}
        paths[flag] = a_file / "sub" if below else a_file
        config = one_cell_or_sweep_config(tmp_path, command)
        code = main([command, *dry_run, "--config", config,
                     *(str(arg) for item in paths.items() for arg in item)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, err
        assert f"config error: {key} {paths[flag]}: {a_file} is not a directory" in err
        assert a_file.read_text() == "kept\n"
        assert not (tmp_path / "out").exists() and not (tmp_path / "cache").exists()

    @pytest.fixture(scope="class")
    def finished_run(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("finished")
        config = one_cell_or_sweep_config(tmp, "run")
        assert main(["run", "--config", config, "--out", str(tmp / "run")]) == EXIT_OK
        return tmp / "run"

    @pytest.mark.parametrize(
        "argv, directory",
        [
            (["replay", "--trace", "<trace>", "--scheme", "frnfr", "--out", "out.json"],
             "out.json"),
            (["replay", "--trace", "<trace>", "--scheme", "frnfr", "--out", "file/out.json"],
             None),
            (["report", "--reports", "<report>", "--layout", "binary", "--out-base", "out"],
             "out.txt"),
            (["report", "--reports", "<report>", "--layout", "binary", "--out-base", "out"],
             "out.csv"),
            (["report", "--reports", "<report>", "--layout", "binary", "--out-base", "file/out"],
             None),
        ],
        ids=["replay-out-dir", "replay-out-below-file", "report-txt-dir", "report-csv-dir",
             "report-out-base-below-file"],
    )
    def test_replay_or_report_output_that_cannot_be_written_is_refused_before_any_work(
        self, finished_run, tmp_path, capsys, monkeypatch, argv, directory
    ):
        monkeypatch.setattr("shotsweep.cli.replay", None)  # a call would exit as a bug
        monkeypatch.setattr("shotsweep.cli.read_report", None)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("kept\n")
        if directory is not None:
            (tmp_path / directory).mkdir()
        before = sorted(tmp_path.rglob("*"))
        inputs = {"<trace>": finished_run / "trace.jsonl",
                  "<report>": finished_run / "report.json"}
        code = main([str(inputs.get(arg, arg)) for arg in argv])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, err
        assert f"config error: {argv[-2]} " in err and "internal error" not in err
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "file").read_text() == "kept\n"


class TestSweep:
    def sweep_config(self, tmp_path, **extra):
        payload = dict(
            data=str(PROMISE_CSV),
            scheme="frnfr",
            models=["mock-gold"],
            methods=["random", "tfidf"],
            grid=[0, 2],
            pool_size=60,
            split={"kind": "holdout", "fraction": 0.9, "seed": 0},
            profiles={"mock-gold": {"base_url": "mock://echo-gold"}},
        )
        payload.update(extra)
        return write_config(tmp_path, **payload)

    def test_dry_run_prints_168_cells(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            data=str(PROMISE_CSV),
            scheme="frnfr",
            models=[
                "gpt-4o", "gpt-3.5-turbo", "deepseek-v3", "gemma-3-4b",
                "mistral-7b-instruct", "llama-3.1-8b-instruct", "llama-3.2-3b-instruct",
            ],
            methods=["random", "embedding", "tfidf"],
            grid=[0, 5, 10, 20, 40, 80, 120, 160],
        )
        code = main(["sweep", "--config", config, "--out", str(tmp_path / "o"), "--dry-run"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "168 cells" in out
        assert out.count("tfidf") == 56  # 7 models x 8 shots

    def test_offline_mock_sweep_writes_curves(self, tmp_path, capsys):
        config = self.sweep_config(tmp_path)
        out_dir = tmp_path / "out"
        code = main(["sweep", "--config", config, "--out", str(out_dir), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["n_failed"] == 0
        curves = json.loads((out_dir / "curves.json").read_text())
        assert len(curves["series"]) == 2
        assert (out_dir / "curves.csv").exists()
        cells = sorted(p.name for p in (out_dir / "cells").iterdir())
        assert cells == [
            "mock-gold__random__k0.json",
            "mock-gold__random__k2.json",
            "mock-gold__tfidf__k0.json",
            "mock-gold__tfidf__k2.json",
        ]

    def test_cell_failures_reflected_in_exit_code(self, tmp_path, capsys):
        from shotsweep.cli import EXIT_PARTIAL

        config = self.sweep_config(
            tmp_path,
            profiles={
                "mock-gold": {"base_url": "mock://echo-gold", "context_window": 50}
            },
        )
        code = main(["sweep", "--config", config, "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert code == EXIT_PARTIAL
        assert "FAILED" in out

    def test_empty_test_partition_fails_every_cell(self, tmp_path, capsys):
        data = tmp_path / "two.csv"
        data.write_text("text,label\nThe system shall log users in.,F\n"
                        "The system shall respond within 1 s.,PE\n", encoding="utf-8")
        config = self.sweep_config(tmp_path, data=str(data),
                                   split={"kind": "holdout", "fraction": 0.8, "seed": 0})
        code = main(["sweep", "--config", config, "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert code == EXIT_PARTIAL
        assert "sweep: 0/4 cells completed, 4 failed" in out
        assert out.count("EvaluationError: holdout test partition is empty") == 4

    @pytest.mark.parametrize(
        "key, repeated",
        [("models", ["mock-gold", "mock-gold"]), ("methods", ["tfidf", "random", "tfidf"])],
        ids=["models", "methods"],
    )
    def test_repeated_model_or_method_is_a_config_error(self, tmp_path, capsys, key,
                                                        repeated):
        config = self.sweep_config(tmp_path, **{key: repeated})
        out_dir = tmp_path / "out"
        code = main(["sweep", "--config", config, "--out", str(out_dir), "--json"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG, captured.out
        assert f"repeated {key[:-1]}" in captured.err
        assert not out_dir.exists()

    def test_run_dry_run_validates_without_artifacts(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            data=str(PROMISE_CSV),
            scheme="frnfr",
            model="mock-gold",
            method="tfidf",
            k=3,
            profiles={"mock-gold": {"base_url": "mock://echo-gold"}},
        )
        out_dir = tmp_path / "never-created"
        code = main(["run", "--config", config, "--out", str(out_dir), "--dry-run"])
        assert code == EXIT_OK
        assert not out_dir.exists()

    def test_artifact_key_sets(self, tmp_path, capsys):
        """The JSON keys are the dataclass fields; renaming a field changes the
        format, so the key sets are pinned here."""
        config = self.sweep_config(
            tmp_path,
            models=["mock-gold", "mock-tiny"],
            profiles={
                "mock-gold": {"base_url": "mock://echo-gold"},
                "mock-tiny": {"base_url": "mock://echo-gold", "context_window": 50},
            },
        )
        out_dir = tmp_path / "out"
        argv = ["sweep", "--config", config, "--out", str(out_dir),
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == EXIT_PARTIAL
        report = json.loads((out_dir / "cells" / "mock-gold__tfidf__k2.json").read_text())
        assert set(report) == {
            "per_class", "weighted_f1", "macro_f1", "confusion", "n_predictions",
            "n_unparseable", "n_multilabel", "metadata",
        }
        assert set(report["per_class"]["FR"]) == {"precision", "recall", "f1", "support"}
        series = json.loads((out_dir / "curves.json").read_text())["series"]
        assert [s["model"] for s in series] == ["mock-gold", "mock-gold"]
        assert set(series[0]) == {
            "model", "method", "points", "optimal_shots", "peak_weighted_f1",
            "overprompting",
        }
        assert set(series[0]["points"][0]) == {
            "shot_count", "weighted_f1", "macro_f1", "n_invalid",
        }
        assert set(series[0]["overprompting"]) == {
            "flagged", "peak_at", "max_post_peak_decline", "threshold",
        }
        sweep = json.loads((out_dir / "sweep.json").read_text())
        assert set(sweep) == {"curves", "failures"} and sweep["curves"] == series
        assert len(sweep["failures"]) == 4
        assert set(sweep["failures"][0]) == {"model", "method", "shot_count", "error"}
        (segment,) = (tmp_path / "cache" / "completions").glob("*.jsonl")
        row = json.loads(segment.read_text().splitlines()[0])
        assert set(row) == {
            "content_hash", "text", "latency_ms", "attempts", "model", "created_at",
            "fingerprint",
        }

    def test_double_run_byte_identical_modulo_timestamps(self, tmp_path, capsys):
        config = self.sweep_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["sweep", "--config", config, "--out", str(out_a)]) == EXIT_OK
        assert main(["sweep", "--config", config, "--out", str(out_b)]) == EXIT_OK
        capsys.readouterr()
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            if rel.name == "manifest.json":
                assert manifest_without_timestamps(out_a / rel) == (
                    manifest_without_timestamps(out_b / rel)
                )
            else:
                assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()


class TestCv:
    def cv_config(self, tmp_path, **extra):
        payload = dict(
            data=str(PROMISE_CSV),
            scheme="frnfr",
            model="mock-gold",
            method="tfidf",
            k_folds=10,
            pool_size=80,
            profiles={"mock-gold": {"base_url": "mock://echo-gold"}},
        )
        payload.update(extra)
        return write_config(tmp_path, **payload)

    def test_echo_gold_ten_fold_table_shows_perfect(self, tmp_path, capsys):
        config = self.cv_config(tmp_path)
        out_dir = tmp_path / "cv"
        code = main(
            ["cv", "--config", config, "--shots", "4", "--out", str(out_dir), "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["weighted_f1"] == 1.0
        table = (out_dir / "table.txt").read_text()
        assert "1.00" in table
        folds = sorted((out_dir / "folds").iterdir())
        assert len(folds) == 10
        aggregate = json.loads((out_dir / "aggregate.json").read_text())
        assert aggregate["n_predictions"] == 625

    def test_split_is_made_once(self, tmp_path, capsys, monkeypatch):
        import shotsweep.sweep
        from shotsweep.corpus import make_split

        calls = []

        def counting_make_split(*args, **kwargs):
            calls.append(args[1:])
            return make_split(*args, **kwargs)

        monkeypatch.setattr(shotsweep.sweep, "make_split", counting_make_split, raising=False)
        config = self.cv_config(tmp_path, k_folds=5, pool_size=40)
        out_dir = tmp_path / "cv"
        code = main(["cv", "--config", config, "--shots", "2", "--out", str(out_dir)])
        assert code == EXIT_OK
        assert calls == [("kfold", 5, 0, "error")]
        split = json.loads((out_dir / "split.json").read_text())
        assert split["kind"] == "kfold" and len(split["assignments"]) == 625

    def test_invalid_fold_count_rejected(self, tmp_path, capsys):
        config = self.cv_config(tmp_path, k_folds=1)
        code = main(["cv", "--config", config, "--shots", "2", "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG

    def test_shots_from_sweep_manifest(self, tmp_path, capsys):
        sweep_config = write_config(
            tmp_path,
            name="sweep.json",
            data=str(PROMISE_CSV),
            scheme="frnfr",
            models=["mock-gold"],
            methods=["tfidf"],
            grid=[0, 2],
            pool_size=40,
            split={"kind": "holdout", "fraction": 0.9, "seed": 0},
            profiles={"mock-gold": {"base_url": "mock://echo-gold"}},
        )
        sweep_out = tmp_path / "sweep-out"
        assert main(["sweep", "--config", sweep_config, "--out", str(sweep_out)]) == EXIT_OK
        capsys.readouterr()
        cv_config = self.cv_config(tmp_path, name="cv.json", k_folds=5)
        out_dir = tmp_path / "cv2"
        code = main(
            ["cv", "--config", cv_config, "--shots-from",
             str(sweep_out / "manifest.json"), "--out", str(out_dir), "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        aggregate = json.loads((out_dir / "aggregate.json").read_text())
        assert aggregate["metadata"]["k"] == 0  # echo-gold ties resolve to fewest shots


def one_cell_or_sweep_config(tmp_path, command, **extra):
    payload = dict(data=str(PROMISE_CSV), scheme="frnfr", pool_size=20, profiles=GOLD_PROFILES)
    if command == "sweep":
        payload.update(models=["mock-gold"], methods=["random"], grid=[0, 1])
    else:
        payload.update(model="mock-gold", method="random", k=1)
    if command == "cv":
        payload["k_folds"] = 5
    payload.update(extra)
    return write_config(tmp_path, **payload)


class TestOneRoute:
    @pytest.mark.parametrize("command", ["run", "cv", "sweep"])
    def test_each_evaluating_command_calls_run_sweep_once(self, tmp_path, capsys,
                                                         monkeypatch, command):
        import shotsweep.cli

        calls = []
        run_sweep = shotsweep.cli.run_sweep

        def counting_run_sweep(*args, **kwargs):
            calls.append(args[0].n_cells)
            return run_sweep(*args, **kwargs)

        monkeypatch.setattr(shotsweep.cli, "run_sweep", counting_run_sweep)
        config = one_cell_or_sweep_config(tmp_path, command)
        code = main([command, "--config", config, "--out", str(tmp_path / "out")])
        assert code == EXIT_OK, capsys.readouterr().err
        assert calls == [2 if command == "sweep" else 1]

    def test_kfold_sweep_cell_equals_cv_aggregate(self, tmp_path, capsys):
        split = {"kind": "kfold", "folds": 5, "seed": 1}
        shared = {"pool_seed": 3, "selection_seed": 4, "scoring_policy": "first_match",
                  "ordering": "shuffle"}
        for settings in ({}, shared):  # the defaults, then a value of each shared setting
            base = tmp_path / ("shared" if settings else "defaults")
            base.mkdir()
            sweep = one_cell_or_sweep_config(base, "sweep", methods=["tfidf"], grid=[0, 2],
                                             split=split, **settings)
            assert main(["sweep", "--config", sweep, "--out", str(base / "s")]) == EXIT_OK
            cv = one_cell_or_sweep_config(base, "cv", method="tfidf", split_seed=1, **settings)
            argv = ["cv", "--config", cv, "--shots", "2", "--out", str(base / "cv")]
            assert main(argv) == EXIT_OK
            cell = json.loads((base / "s" / "cells" / "mock-gold__tfidf__k2.json").read_text())
            aggregate = json.loads((base / "cv" / "aggregate.json").read_text())
            assert cell == aggregate
            assert cell["n_predictions"] == 625 and cell["metadata"]["split"] == "kfold:5:1"
            assert {key: cell["metadata"][key] for key in settings} == settings

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["", "dry-run"])
    @pytest.mark.parametrize("command", ["run", "cv", "sweep"])
    def test_profile_named_other_than_its_key_runs_under_its_key(
        self, tmp_path, capsys, command, dry_run
    ):
        model = {"models": ["m"]} if command == "sweep" else {"model": "m"}
        profiles = {"m": {"name": "other", "base_url": "mock://echo-gold"}}
        config = one_cell_or_sweep_config(tmp_path, command, profiles=profiles, **model)
        out, cache_dir = tmp_path / "out", tmp_path / "cache"
        code = main([command, *dry_run, "--config", config, "--out", str(out),
                     "--cache-dir", str(cache_dir)])
        assert code == EXIT_OK, capsys.readouterr().err
        if dry_run:
            assert not cache_dir.exists() and not out.exists()
            return
        reports = {"run": ["report.json"], "cv": ["aggregate.json"],
                   "sweep": ["cells/m__random__k0.json", "cells/m__random__k1.json"]}[command]
        for name in reports:  # the cell is the plan's model ...
            report = json.loads((out / name).read_text())
            assert report["metadata"]["model"] == "m" and report["weighted_f1"] == 1.0
        rows = [json.loads(line) for segment in (cache_dir / "completions").glob("*.jsonl")
                for line in segment.read_text().splitlines()]
        assert rows and {row["model"] for row in rows} == {"other"}  # ... sent as its name

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_kfold_split_over_promise12_takes_on_small_class(self, tmp_path, capsys, command):
        config = one_cell_or_sweep_config(  # promise12's class PO has one record
            tmp_path, command, scheme="promise12", on_small_class="allow",
            split={"kind": "kfold", "folds": 5, "seed": 0},
        )
        out = tmp_path / "out"
        code = main([command, "--config", config, "--out", str(out)])
        assert code == EXIT_OK, capsys.readouterr().err
        reports = [out / "report.json"] if command == "run" else list((out / "cells").iterdir())
        assert len(reports) == (1 if command == "run" else 2)
        assert all(json.loads(path.read_text())["n_predictions"] == 625 for path in reports)

    @pytest.mark.parametrize(
        "argv, needle",
        [(["run", "--k", "0"], "holdout test partition is empty"),
         (["cv", "--shots", "0", "--folds", "2"], "fewer than 2 records")],
        ids=["run", "cv"],
    )
    def test_split_without_test_records_is_a_data_error_and_leaves_no_cache(
        self, tmp_path, capsys, argv, needle
    ):
        data = tmp_path / "two.csv"  # one FR and one NFR record
        data.write_text("text,label\nThe system shall log users in.,F\n"
                        "The system shall respond within 1 s.,PE\n", encoding="utf-8")
        config = write_config(tmp_path, data=str(data), scheme="frnfr", model="mock-gold",
                              method="random", profiles=GOLD_PROFILES)
        cache_dir = tmp_path / "cache"
        code = main([*argv, "--config", config, "--out", str(tmp_path / "out"),
                     "--cache-dir", str(cache_dir)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA, err
        assert "data error: " in err and needle in err
        assert not cache_dir.exists() and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "cv"])
    def test_pool_larger_than_the_train_partition_leaves_no_out(self, tmp_path, capsys,
                                                               command):
        config = one_cell_or_sweep_config(tmp_path, command, pool_size=900)
        out = tmp_path / "out"
        code = main([command, "--config", config, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, err
        assert "config error: pool size 900 exceeds train partition size 500" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "cv"])
    def test_unreachable_embeddings_endpoint_is_a_transport_error(self, tmp_path, capsys,
                                                                  command):
        with socket.socket() as sock:  # a loopback port that nothing listens on
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        embedder = {"kind": "embedding", "base_url": f"http://127.0.0.1:{port}/v1",
                    "max_attempts": 1}
        config = one_cell_or_sweep_config(tmp_path, command, method="embedding",
                                          provider="profile:e",
                                          profiles={**GOLD_PROFILES, "e": embedder})
        out = tmp_path / "out"
        code = main([command, "--config", config, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_TRANSPORT, err
        assert "transport error: " in err
        assert not out.exists()

    def test_run_takes_a_kfold_split(self, tmp_path, capsys):
        config = one_cell_or_sweep_config(tmp_path, "run",
                                          split={"kind": "kfold", "folds": 5, "seed": 1})
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "report.json").read_text())["n_predictions"] == 625
        assert json.loads((out / "split.json").read_text())["param"] == 5

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_kfold_split_takes_folds_not_fraction(self, tmp_path, capsys, command):
        config = one_cell_or_sweep_config(tmp_path, command,
                                          split={"kind": "kfold", "fraction": 0.5})
        code = main([command, "--config", config, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "config error: unknown kfold split key(s): fraction" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class Unavailable(ChatEndpoint):
    """Answers every request 503."""

    def respond(self, target, headers, body):
        return 503, b"{}"


class TestTransportFailure:
    @pytest.mark.parametrize("argv", [["run"], ["cv", "--folds", "5"]], ids=["run", "cv"])
    def test_503_exits_transport_and_later_folds_send_nothing(self, tmp_path, capsys,
                                                              monkeypatch, argv):
        for scheme in ("http", "https", "all", "no"):
            monkeypatch.delenv(f"{scheme}_proxy", raising=False)
            monkeypatch.delenv(f"{scheme.upper()}_PROXY", raising=False)
        endpoint = Unavailable()
        try:
            profile = {"base_url": endpoint.base_url, "max_attempts": 2, "backoff_base_s": 0}
            config = one_cell_or_sweep_config(tmp_path, argv[0], profiles={"remote": profile},
                                              model="remote")
            out = tmp_path / "out"
            code = main([*argv, "--config", config, "--out", str(out)])
        finally:
            endpoint.stop()
        err = capsys.readouterr().err
        assert code == EXIT_TRANSPORT, err
        assert err.startswith("transport error:")
        assert not (out / "manifest.json").exists()
        assert len(endpoint.targets) == 2

    def test_give_up_names_the_endpoint_and_the_reason(self, tmp_path, capsys, monkeypatch):
        for scheme in ("http", "https", "all", "no"):
            monkeypatch.delenv(f"{scheme}_proxy", raising=False)
            monkeypatch.delenv(f"{scheme.upper()}_PROXY", raising=False)
        profile = {"base_url": "http://127.0.0.1:9/v1", "max_attempts": 1, "backoff_base_s": 0}
        config = one_cell_or_sweep_config(tmp_path, "run", profiles={"remote": profile},
                                          model="remote")
        code = main(["run", "--config", config, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_TRANSPORT, err
        assert "gave up after 1 attempts; last: " in err
        assert "127.0.0.1:9" in err and "unreachable" in err


class Relapsing(ChatEndpoint):
    """Answers "Functional" to its first `good` requests and HTTP 400 to the
    rest; None answers every request."""

    def __init__(self, good: int | None):
        super().__init__(reply="Functional")
        self.good = good

    def respond(self, target, headers, body):
        if self.good is not None and len(self.targets) > self.good:
            return 400, b'{"error": "bad request"}'
        return super().respond(target, headers, body)


class TestFailedOneCellRun:
    @pytest.mark.parametrize(
        "argv, good", [(["run"], 40), (["cv", "--folds", "3"], 300)], ids=["run", "cv"]
    )
    def test_writes_nothing_and_a_rerun_sends_only_what_was_never_answered(
        self, tmp_path, capsys, monkeypatch, argv, good
    ):
        """A 400 fails the cell (cv: in its second fold), so --out is never
        made; the answers before it are cached, and once the endpoint heals a
        rerun sends every other prompt and writes a clean run's trace."""
        for scheme in ("http", "https", "all", "no"):
            monkeypatch.delenv(f"{scheme}_proxy", raising=False)
            monkeypatch.delenv(f"{scheme.upper()}_PROXY", raising=False)
        endpoint = Relapsing(None)
        sent: list[list[bytes]] = []  # the request bodies of each run

        def run(out: str, cache: str) -> int:
            before = len(endpoint.received)
            code = main([*argv, "--config", config, "--out", str(tmp_path / out),
                         "--cache-dir", str(tmp_path / cache)])
            sent.append([body for _, body in endpoint.received[before:]])
            return code

        try:
            config = one_cell_or_sweep_config(
                tmp_path, argv[0], profiles={"remote": {"base_url": endpoint.base_url}},
                model="remote",
            )
            assert run("clean", "clean-cache") == EXIT_OK
            endpoint.good = len(endpoint.received) + good
            assert run("out", "cache") == EXIT_TRANSPORT
            assert "transport error: HTTP 400" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()
            endpoint.good = None
            assert run("out", "cache") == EXIT_OK
        finally:
            endpoint.stop()
        clean, failed, rerun = sent
        assert len(failed) == good + 1  # the last one was refused, so not cached
        assert sorted(clean) == sorted(failed[:good] + rerun)
        trace = (tmp_path / "out" / "trace.jsonl").read_bytes()
        assert trace == (tmp_path / "clean" / "trace.jsonl").read_bytes()


class TestProtocolFailure:
    def test_reply_that_is_not_utf8_fails_only_its_models_cells(self, tmp_path, capsys,
                                                               monkeypatch):
        for scheme in ("http", "https", "all", "no"):
            monkeypatch.delenv(f"{scheme}_proxy", raising=False)
            monkeypatch.delenv(f"{scheme.upper()}_PROXY", raising=False)
        endpoint = CannedEndpoint(200, b'{"choices": [{"message": {"content": "FR\xff"}}]}')
        try:
            profiles = {"remote": {"base_url": endpoint.base_url},
                        "mock-constant": {"base_url": "mock://constant/Functional"}}
            config = one_cell_or_sweep_config(tmp_path, "sweep", profiles=profiles,
                                              models=["remote", "mock-constant"])
            out, cache = tmp_path / "out", tmp_path / "cache"
            code = main(["sweep", "--config", config, "--out", str(out),
                         "--cache-dir", str(cache)])
        finally:
            endpoint.stop()
        printed = capsys.readouterr().out
        assert code == EXIT_PARTIAL, printed
        assert "sweep: 2/4 cells completed, 2 failed" in printed
        assert printed.count("FAILED remote random") == 2
        assert printed.count("ProtocolError: non-JSON response") == 2
        assert len(endpoint.targets) == 2  # one request per cell, none retried
        cells = sorted(path.name for path in (out / "cells").glob("*.json"))
        assert cells == ["mock-constant__random__k0.json", "mock-constant__random__k1.json"]
        rows = [json.loads(line) for segment in sorted(cache.rglob("*.jsonl"))
                for line in segment.read_text().splitlines()]
        assert rows and {row["model"] for row in rows} == {"mock-constant"}


class TestReportReplay:
    def test_report_formats_stored_reports(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            data=str(PROMISE_CSV),
            scheme="frnfr",
            model="mock-gold",
            method="random",
            k=2,
            pool_size=40,
            split={"kind": "holdout", "fraction": 0.8, "seed": 0},
            profiles={"mock-gold": {"base_url": "mock://echo-gold"}},
        )
        out_dir = tmp_path / "run"
        assert main(["run", "--config", config, "--out", str(out_dir)]) == EXIT_OK
        capsys.readouterr()
        code = main(
            ["report", "--reports", str(out_dir / "report.json"), "--layout", "binary",
             "--out-base", str(tmp_path / "table")]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "Overall F1" in out
        assert (tmp_path / "table.csv").exists()

    def test_replay_after_run(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            data=str(PROMISE_CSV),
            scheme="frnfr",
            model="mock-gold",
            method="random",
            k=1,
            pool_size=40,
            split={"kind": "holdout", "fraction": 0.8, "seed": 0},
            profiles={"mock-gold": {"base_url": "mock://echo-gold"}},
        )
        out_dir = tmp_path / "run"
        assert main(["run", "--config", config, "--out", str(out_dir)]) == EXIT_OK
        capsys.readouterr()
        code = main(
            ["replay", "--trace", str(out_dir / "trace.jsonl"), "--scheme", "frnfr",
             "--policy", "first_match", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["weighted_f1"] == 1.0
        assert payload["scoring_policy"] == "first_match"

    @pytest.mark.parametrize(
        "text, needle",
        [
            ("{not json", "not a report"),
            ("[1, 2]", "not a report"),
            ('{"weighted_f1": 1.0}', "per_class"),
            ('{"per_class": {}, "weighted_f1": 1.0}', "macro_f1"),
            ('{"per_class": {}, "bogus": 1}', "bogus"),
        ],
        ids=["not-json", "not-object", "no-per-class", "missing-field", "unknown-field"],
    )
    def test_malformed_report_is_data_error(self, tmp_path, capsys, text, needle):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = main(["report", "--reports", str(path), "--layout", "binary"])
        err = capsys.readouterr().err
        assert code == EXIT_DATA, err
        assert str(path) in err and needle in err

    def test_mistyped_report_value_is_a_data_error_and_writes_no_table(self, tmp_path,
                                                                      capsys):
        payload = json.loads(artifact_json(report_of(BINARY_FRNFR, [("FR", "FR", "label")])))
        payload["per_class"]["FR"]["support"] = "9"
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload))
        code = main(["report", "--reports", str(path), "--layout", "binary",
                     "--out-base", str(tmp_path / "table")])
        err = capsys.readouterr().err
        assert code == EXIT_DATA, err
        assert f"data error: {path}: a score is not a number, or a count not an integer" in err
        assert not (tmp_path / "table.csv").exists()

    def test_replay_non_object_line_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind": "meta"}\n[1]\n')
        code = main(["replay", "--trace", str(path), "--scheme", "frnfr"])
        err = capsys.readouterr().err
        assert code == EXIT_DATA, err
        assert "line 2" in err

    def test_replay_missing_trace_is_data_error(self, tmp_path, capsys):
        code = main(
            ["replay", "--trace", str(tmp_path / "nope.jsonl"), "--scheme", "frnfr"]
        )
        assert code == EXIT_DATA


_NUMPY_PROBE = (
    "import contextlib, io, json, sys\n"
    "from shotsweep.cli import main\n"
    "seen = []\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        code = main(argv)\n"
    "    seen.append([argv[0], code, 'numpy' in sys.modules])\n"
    "print(json.dumps(seen))\n"
)


def numpy_loaded_after(commands: list[list[str]]) -> list[list]:
    """[command, exit code, numpy loaded yet] after each command, run in turn
    in one fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, json.dumps(commands)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(result.stdout)


def test_numpy_loads_with_the_first_fitted_space(tmp_path):
    """Commands that fit no TF-IDF or embedding space never import numpy."""
    data = ["--data", str(PROMISE_CSV), "--scheme", "frnfr"]
    profiles = {"mock-gold": {"base_url": "mock://echo-gold"}}
    run = write_config(
        tmp_path, "run.json", data=str(PROMISE_CSV), scheme="frnfr", model="mock-gold",
        method="random", k=2, pool_size=40, profiles=profiles,
    )
    sweep = write_config(
        tmp_path, "sweep.json", data=str(PROMISE_CSV), scheme="frnfr",
        models=["mock-gold"], methods=["random", "embedding", "tfidf"], grid=[0, 2],
        profiles=profiles,
    )
    out = tmp_path / "o"
    commands = [
        ["ingest", *data],
        ["pool", *data, "--size", "10"],
        ["select", *data, "--method", "random", "--k", "2", "--query", "The system shall"],
        ["run", "--config", run, "--out", str(out)],
        ["sweep", "--config", sweep, "--out", str(tmp_path / "s"), "--dry-run"],
        ["report", "--reports", str(out / "report.json"), "--layout", "binary"],
        ["replay", "--trace", str(out / "trace.jsonl"), "--scheme", "frnfr"],
    ]
    assert numpy_loaded_after(commands) == [[argv[0], EXIT_OK, False] for argv in commands]
    for method in ("tfidf", "embedding"):
        select = ["select", *data, "--method", method, "--k", "2", "--query", "The system shall"]
        assert numpy_loaded_after([select]) == [["select", EXIT_OK, True]]


def test_only_run_plan_runs_a_sweep_or_writes_artifacts():
    """run, cv and sweep share one lifecycle in _run_plan. A reference to
    run_sweep or _write_artifacts anywhere else in cli.py would fork it again."""
    tree = ast.parse((REPO_ROOT / "src" / "shotsweep" / "cli.py").read_text(encoding="utf-8"))
    users: dict[str, set] = {"run_sweep": set(), "_write_artifacts": set()}
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and name in users:
                users[name].add(owner)
    assert users == {"run_sweep": {"_run_plan"}, "_write_artifacts": {"_run_plan"}}


def test_every_catch_all_handler_re_raises():
    """A handler of Exception or BaseException may clean up, but it ends in a
    bare raise: relabelling any error there would report a failure against
    the wrong layer, or record a harness bug as a failed cell. The one
    exception is cli.main's last resort, which reports a bug."""

    def caught(handler: ast.ExceptHandler) -> set:
        if handler.type is None:  # a bare except
            return {"BaseException"}
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        return {getattr(node, "id", None) for node in types}

    checked, relabelling = [], []
    for path in sorted((REPO_ROOT / "src" / "shotsweep").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = None
        if path.name == "cli.py":
            (main_fn,) = [n for n in tree.body if getattr(n, "name", None) == "main"]
            (guarded,) = [n for n in main_fn.body if isinstance(n, ast.Try)]
            exempt = guarded.handlers[-1]
            assert caught(exempt) == {"Exception"}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ExceptHandler) and node is not exempt
                    and caught(node) & {"Exception", "BaseException"}):
                checked.append(f"{path.name}:{node.lineno}")
                last = node.body[-1]
                if not (isinstance(last, ast.Raise) and last.exc is None):
                    relabelling.append(f"{path.name}:{node.lineno}")
    assert checked  # atomic_write, _connect and _write close what they opened
    assert relabelling == []
