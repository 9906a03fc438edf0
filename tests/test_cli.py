from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from shotsweep.cli import (
    EXIT_BUG,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    EXIT_PARTIAL,
    main,
)

from conftest import PROMISE_CSV


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

        def broken_evaluate_split(*args, **kwargs):
            raise KeyError("bug")

        monkeypatch.setattr(shotsweep.cli, "evaluate_split", broken_evaluate_split)
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
        assert profile.provider_tag == "gpt-3.5-turbo"

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
        ],
        ids=[
            "provider", "mock-dim", "pool-seed", "fraction", "k", "no-series", "list",
            "curves-path", "series-model", "series-method", "series-shots",
            "series-shots-type", "run-pool-size", "cv-pool-size", "sweep-pool-size",
            "sweep-grid", "sweep-models", "provider-profile-missing", "provider-unknown",
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

    def test_config_file_not_utf8_is_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"k": "\xff"}')
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, err
        assert "config error" in err and str(config) in err and "not UTF-8" in err

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
        import shotsweep.cli
        from shotsweep.corpus import make_split

        calls = []

        def counting_make_split(*args, **kwargs):
            calls.append(args[1:])
            return make_split(*args, **kwargs)

        monkeypatch.setattr(shotsweep.cli, "make_split", counting_make_split, raising=False)
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
