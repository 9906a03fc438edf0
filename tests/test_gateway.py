from __future__ import annotations

import ast
import base64
import dataclasses
import gc
import hashlib
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from shotsweep import (
    BINARY_FRNFR,
    Client,
    ConstantBackend,
    EchoGoldBackend,
    HashEmbeddingProvider,
    ModelProfile,
    PromptSpec,
    ResponseCache,
    parse_label,
)
from shotsweep import gateway
from shotsweep.corpus import PROMISE_12, LabelDef, LabelScheme, normalize_completion
from shotsweep.gateway import (
    ContextOverflowError,
    GatewayEmbeddingProvider,
    GatewayError,
    ProtocolError,
    TransportError,
)

from conftest import REPO_ROOT
from loopback import (
    TLS_CERT,
    CannedEndpoint,
    ChatEndpoint,
    ClosingListener,
    ForwardingProxy,
    SlowEndpoint,
)
from oracles import (
    oracle_chat_body,
    oracle_embeddings_body,
    oracle_load_completions,
    oracle_resolve_route,
)


def prompt_for(text="classify this", content_hash=None):
    return PromptSpec(
        system_message="You are a software requirements analyst.",
        user_message=f"Input: {text}\nCategory:",
        example_provenance=(),
        content_hash=content_hash or f"hash-{text}",
        query_text=text,
    )


def mock_profile(name="mock-model", backend="test", **kwargs):
    return ModelProfile(name=name, base_url=f"mock://{backend}", **kwargs)


# Hand-applied rule table over a fixture of realistic completions.
# Pipeline: lowercase, strip punctuation/markdown, whole-word match of
# canonical names / aliases / ids, longest match wins on overlap.
BINARY_FIXTURE = [
    ("FR", "label", ("FR",)),
    ("NFR", "label", ("NFR",)),
    ("functional", "label", ("FR",)),
    ("Non-Functional", "label", ("NFR",)),
    ("non functional", "label", ("NFR",)),
    ("NONFUNCTIONAL", "label", ("NFR",)),
    ("**Functional**", "label", ("FR",)),
    ("`NFR`", "label", ("NFR",)),
    ("The answer is: non-functional requirement.", "label", ("NFR",)),
    ("Category: Functional", "label", ("FR",)),
    ("F", "label", ("FR",)),
    ("NF", "label", ("NFR",)),
    ("SE", "label", ("NFR",)),  # subclass code folds into NFR
    ("I'd call this one PE.", "label", ("NFR",)),
    ("Functional, no wait, Non-Functional.", "multi_label", ("FR", "NFR")),
    ("Either functional or nonfunctional.", "multi_label", ("FR", "NFR")),
    ("This is a tough one.", "label", ("NFR",)),  # bare article hits alias "A"
    ("I cannot classify this.", "unparseable", ()),
    ("", "unparseable", ()),
    ("   \n\t ", "unparseable", ()),
    ("The requirement describes encryption.", "unparseable", ()),
]

MULTICLASS_FIXTURE = [
    ("PE", "label", ("PE",)),
    ("Performance", "label", ("PE",)),
    ("This is PE, possibly US", "multi_label", ("PE", "US")),
    ("Usability", "label", ("US",)),
    ("fault tolerance", "label", ("FT",)),
    ("Fault-Tolerance", "label", ("FT",)),
    ("Look and feel", "label", ("LF",)),
    ("LF and PE overlap here", "multi_label", ("LF", "PE")),
    ("Security. Definitely Security.", "label", ("SE",)),
    ("Maybe Legal, maybe Operational, maybe Performance.", "multi_label", ("L", "O", "PE")),
    ("No idea whatsoever.", "unparseable", ()),
]


class TestParseLabel:
    @pytest.mark.parametrize("completion,kind,labels", BINARY_FIXTURE)
    def test_binary_fixture(self, completion, kind, labels):
        parsed = parse_label(completion, BINARY_FRNFR)
        assert parsed.kind == kind
        assert parsed.labels == labels

    @pytest.mark.parametrize("completion,kind,labels", MULTICLASS_FIXTURE)
    def test_multiclass_fixture(self, completion, kind, labels):
        parsed = parse_label(completion, PROMISE_12)
        assert parsed.kind == kind
        assert parsed.labels == labels

    def test_total_on_arbitrary_text(self):
        rng = random.Random(0)
        alphabet = "abcXYZ ,.!-*#\n\t{}()" + "fr nfr functional"
        for _ in range(300):
            text = "".join(rng.choices(alphabet, k=rng.randint(0, 40)))
            parsed = parse_label(text, BINARY_FRNFR)
            assert parsed.kind in ("label", "multi_label", "unparseable")
            if parsed.kind == "label":
                assert len(parsed.labels) == 1
            if parsed.kind == "multi_label":
                assert len(parsed.labels) >= 2

    def test_overlapping_forms_resolve_longest_first(self):
        scheme = LabelScheme(
            "overlap",
            (LabelDef("A", "alpha beta"), LabelDef("B", "beta gamma delta")),
            "binary",
        )
        # a leftmost-first alternation would return A here
        parsed = parse_label("alpha beta gamma delta", scheme)
        assert parsed.kind == "label"
        assert parsed.labels == ("B",)

    def test_normalization(self):
        assert normalize_completion("**Non-Functional!**") == "non functional"
        assert normalize_completion("  ") == ""


class TestCompleteAndCache:
    def test_same_prompt_served_from_cache(self):
        backend = ConstantBackend("FR")
        client = Client(mocks={"test": backend})
        profile = mock_profile()
        prompt = prompt_for("one")
        first = client.start(profile, prompt).finish()
        second = client.start(profile, prompt).finish()
        assert backend.calls == 1
        assert first == second == "FR"

    def test_distinct_hashes_distinct_entries(self):
        backend = ConstantBackend("FR")
        client = Client(mocks={"test": backend})
        profile = mock_profile()
        client.start(profile, prompt_for("one")).finish()
        client.start(profile, prompt_for("two")).finish()
        assert backend.calls == 2

    def test_cache_keyed_by_model_too(self):
        backend = ConstantBackend("FR")
        client = Client(mocks={"test": backend})
        prompt = prompt_for("one")
        client.start(mock_profile(name="m1"), prompt).finish()
        client.start(mock_profile(name="m2"), prompt).finish()
        assert backend.calls == 2

    def test_disk_cache_survives_reopen(self, tmp_path):
        backend = ConstantBackend("NFR")
        client = Client(cache=ResponseCache(tmp_path), mocks={"test": backend})
        profile = mock_profile()
        client.start(profile, prompt_for("persisted")).finish()
        reopened = Client(cache=ResponseCache(tmp_path), mocks={"test": backend})
        assert reopened.start(profile, prompt_for("persisted")).finish() == "NFR"
        assert backend.calls == 1

    @pytest.mark.parametrize(
        "change",
        [{"temperature": 0.7}, {"max_output_tokens": 64}, {"base_url": "mock://other"}],
    )
    def test_changed_request_is_a_miss(self, change):
        backend = ConstantBackend("FR")
        client = Client(mocks={"test": backend, "other": backend})
        profile = mock_profile()
        client.start(profile, prompt_for("one")).finish()
        client.start(dataclasses.replace(profile, **change), prompt_for("one")).finish()
        assert backend.calls == 2

    def test_other_endpoint_under_same_name_gets_its_own_answer(self, tmp_path):
        client = Client(
            cache=ResponseCache(tmp_path),
            mocks={
                "constant/Functional": ConstantBackend("Functional"),
                "constant/Non-Functional": ConstantBackend("Non-Functional"),
            },
        )
        first = mock_profile(backend="constant/Functional")
        second = mock_profile(backend="constant/Non-Functional")
        assert client.start(first, prompt_for()).finish() == "Functional"
        assert client.start(second, prompt_for()).finish() == "Non-Functional"
        reopened = Client(cache=ResponseCache(tmp_path))
        assert reopened.start(second, prompt_for()).finish() == "Non-Functional"

    def test_rows_without_fingerprint_are_misses(self, tmp_path):
        legacy = {
            "content_hash": "hash-one", "text": "stale", "latency_ms": 1.0,
            "attempts": 1, "model": "mock-model", "created_at": "2025-01-01T00:00:00",
        }
        (tmp_path / "completions").mkdir()
        (tmp_path / "completions" / "ha.jsonl").write_text(json.dumps(legacy) + "\n")
        (tmp_path / "embeddings").mkdir()
        (tmp_path / "embeddings" / "ha.jsonl").write_text(
            json.dumps({"tag": "t", "text": "a", "vector": [1.0]}) + "\n"
        )
        cache = ResponseCache(tmp_path)
        assert (len(cache), cache.torn_lines) == (0, 0)  # skipped, not torn
        backend = ConstantBackend("FR")
        client = Client(cache=cache, mocks={"test": backend})
        assert client.start(mock_profile(), prompt_for("one")).finish() == "FR"
        assert backend.calls == 1

    def test_torn_final_line_counted_and_skipped(self, tmp_path):
        backend = ConstantBackend("NFR")
        client = Client(cache=ResponseCache(tmp_path), mocks={"test": backend})
        client.start(mock_profile(), prompt_for("kept")).finish()
        segment = next((tmp_path / "completions").glob("*.jsonl"))
        with segment.open("a", encoding="utf-8") as handle:
            handle.write('{"content_hash": "hash-torn", "te')
        reopened = ResponseCache(tmp_path)
        assert reopened.torn_lines == 1
        assert len(reopened) == 1
        assert ResponseCache(tmp_path / "fresh").torn_lines == 0

    def test_echo_gold_returns_wired_label(self):
        backend = EchoGoldBackend({"classify this": "Functional"})
        client = Client(mocks={"gold": backend})
        assert client.start(mock_profile(backend="gold"), prompt_for()).finish() == "Functional"

    def test_context_overflow_refused_locally(self):
        backend = ConstantBackend("FR")
        client = Client(mocks={"test": backend})
        profile = mock_profile(context_window=10)
        big = prompt_for("x" * 1000)
        with pytest.raises(ContextOverflowError):
            client.start(profile, big).finish()
        assert backend.calls == 0

    def test_unknown_mock_name(self):
        client = Client()
        with pytest.raises(GatewayError, match="no mock backend"):
            client.start(mock_profile(backend="ghost"), prompt_for()).finish()

    def test_chat_profile_required(self):
        client = Client(mocks={"test": ConstantBackend("x")})
        profile = mock_profile(kind="embedding")
        with pytest.raises(GatewayError, match="not a chat profile"):
            client.start(profile, prompt_for()).finish()


def cached_row(content_hash, text="FR"):
    """A completions row as the cache writes it."""
    return {"attempts": 1, "content_hash": content_hash, "created_at": "2025-01-01T00:00:00",
            "fingerprint": "f" * 16, "latency_ms": 1.0, "model": "mock-model", "text": text}


def put_row(cache, content_hash, text="FR"):
    """Put cached_row's answer; put_completion stamps created_at itself."""
    row = cached_row(content_hash, text)
    del row["created_at"]
    cache.put_completion(**row)


class TestCacheSegments:
    def test_row_put_after_a_torn_tail_is_served_on_reload(self, tmp_path):
        first = ResponseCache(tmp_path)
        put_row(first, "ab" + "0" * 62, "kept")
        del first  # its run is over
        (segment,) = (tmp_path / "completions").glob("*.jsonl")
        with segment.open("a", encoding="utf-8") as handle:
            handle.write('{"content_hash": "ab11", "te')  # a write torn mid-row
        resumed = ResponseCache(tmp_path)
        assert resumed.torn_lines == 1
        # same leading hash byte as the torn row, so a shard per byte would glue it on
        put_row(resumed, "ab" + "2" * 62, "resumed")
        del resumed
        reloaded = ResponseCache(tmp_path)
        assert reloaded.torn_lines == 1
        assert reloaded.get_completion("mock-model", "f" * 16, "ab" + "2" * 62) == "resumed"
        assert reloaded.get_completion("mock-model", "f" * 16, "ab" + "0" * 62) == "kept"

    @pytest.mark.parametrize("bucket, line", [
        ("completions", json.dumps({**cached_row("ab" * 32), "extra": 1})),
        ("completions", json.dumps({**cached_row("ab" * 32), "model": ["m"]})),
        ("completions", "5"),
        ("completions", "[1, 2]"),
        ("completions", '"a string"'),
        ("embeddings", json.dumps({"fingerprint": "f", "text": "a", "vector": [1.0]})),
        ("embeddings", json.dumps({"fingerprint": "f", "text": "a", "tag": "t"})),
        ("embeddings", json.dumps({"fingerprint": "f", "text": "a", "tag": "t", "vector": 5})),
        ("embeddings", "5"),
        ("embeddings", json.dumps({"fingerprint": "f", "text": "a", "tag": "t", "vector": "ab"})),
        ("embeddings", json.dumps({"fingerprint": "f", "text": "a", "tag": "t",
                                   "vector": ["a", "b"]})),
        ("embeddings", json.dumps({"fingerprint": "f", "text": "a", "tag": "t",
                                   "vector": [True, 1]})),
        ("embeddings", '{"fingerprint": "f", "text": "a", "tag": "t", "vector": [1%s]}'
         % ("0" * 400)),
        ("embeddings", '{"fingerprint": "f", "text": "a", "tag": "t", "vector": [NaN, 1.0]}'),
        ("embeddings", '{"fingerprint": "f", "text": "a", "tag": "t", '
                       '"vector": [Infinity, 1.0]}'),
        ("embeddings", '{"fingerprint": "f", "text": "a", "tag": "t", "vector": [1e400, 1.0]}'),
        ("embeddings", json.dumps({"fingerprint": "f", "text": "a", "tag": "t", "vector": []})),
    ], ids=["unknown-field", "unhashable-model", "int", "list", "string",
            "no-tag", "no-vector", "vector-int", "embedding-int", "vector-string",
            "vector-of-strings", "vector-with-bool", "vector-past-float", "vector-nan",
            "vector-infinity", "vector-float-past-range", "vector-empty"])
    def test_json_line_that_is_not_a_row_counts_as_torn(self, tmp_path, bucket, line):
        (tmp_path / bucket).mkdir()
        segment = tmp_path / bucket / "00.jsonl"
        kept = json.dumps(cached_row("cd" * 32, "kept"))
        segment.write_text(line + "\n" + (kept + "\n" if bucket == "completions" else ""))
        loaded = ResponseCache(tmp_path)
        assert (loaded.torn_lines, loaded.torn_segments) == (1, [segment])
        assert len(loaded) == (1 if bucket == "completions" else 0)  # the row after it loads

    def test_line_that_is_not_utf8_counts_as_torn(self, tmp_path):
        (tmp_path / "completions").mkdir()
        segment = tmp_path / "completions" / "00.jsonl"
        rows = [json.dumps(cached_row(h * 32, "kept")) for h in ("ab", "cd")]
        segment.write_bytes(
            (rows[0] + "\n").encode() + b'\xff\xfe{"x": 1}\n' + (rows[1] + "\n").encode()
        )
        loaded = ResponseCache(tmp_path)
        assert (loaded.torn_lines, loaded.torn_segments) == (1, [segment])
        for h in ("ab", "cd"):
            assert loaded.get_completion("mock-model", "f" * 16, h * 32) == "kept"

    def test_puts_go_to_one_segment_per_bucket(self, tmp_path):
        cache = ResponseCache(tmp_path)
        hashes = [f"{i:02x}" + "0" * 62 for i in range(40)]
        for content_hash in hashes:
            put_row(cache, content_hash)
        for text in ("alpha", "beta", "gamma"):
            cache.put_embedding("hashbag-4-v1", "f" * 16, text, [1.0, 0.0, 0.0, 0.0])
        cache.close()
        (segment,) = (tmp_path / "completions").glob("*.jsonl")
        assert len(segment.read_text(encoding="utf-8").splitlines()) == 40
        assert len(list((tmp_path / "embeddings").glob("*.jsonl"))) == 1
        reloaded = ResponseCache(tmp_path)
        assert len(reloaded) == 43
        assert all(reloaded.get_completion("mock-model", "f" * 16, h) for h in hashes)

    def test_segments_sort_in_write_order_and_first_row_wins(self, tmp_path):
        (tmp_path / "completions").mkdir()
        # a shard named by the older per-hash-byte layout sorts first
        (tmp_path / "completions" / "ff.jsonl").write_text(
            json.dumps(cached_row("9" * 64, "oldest")) + "\n"
        )
        first, second = ResponseCache(tmp_path), ResponseCache(tmp_path)
        put_row(first, "9" * 64, "first")  # already held by ff.jsonl
        put_row(first, "1" * 64, "first")
        put_row(second, "1" * 64, "second")
        put_row(second, "2" * 64, "second")
        first.close()
        second.close()
        names = sorted(p.name for p in (tmp_path / "completions").glob("*.jsonl"))
        assert names == ["ff.jsonl", "seg-00000001.jsonl", "seg-00000002.jsonl"]
        reloaded = ResponseCache(tmp_path)
        texts = {h[0]: reloaded.get_completion("mock-model", "f" * 16, h)
                 for h in ("9" * 64, "1" * 64, "2" * 64)}
        assert texts == {"9": "oldest", "1": "first", "2": "second"}

    def test_client_close_closes_the_segment(self, tmp_path):
        client = Client(cache=ResponseCache(tmp_path), mocks={"test": ConstantBackend("FR")})
        client.start(mock_profile(), prompt_for("one")).finish()
        client.close()
        client.start(mock_profile(), prompt_for("two")).finish()  # a closed segment stays closed
        client.close()
        assert len(list((tmp_path / "completions").glob("*.jsonl"))) == 2
        assert len(ResponseCache(tmp_path)) == 2

    def test_unclosed_cache_collected_without_a_resource_warning(self, tmp_path, monkeypatch):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            cache = ResponseCache(tmp_path)
            put_row(cache, "0" * 64)
            del cache
            gc.collect()
        assert unraisable == []
        assert len(ResponseCache(tmp_path)) == 1

    def test_new_and_reloaded_answers_share_one_string_per_text(self, tmp_path):
        """A cache repeats a few labels over many rows; new and reloaded
        answers keep one string of each, and every row keeps its seven fields."""
        profiles = [mock_profile(name) for name in ("model-a", "model-b")]
        backend = gateway.CallableBackend(  # a new string object per answer
            lambda profile, prompt: "".join(("N" if int(prompt.query_text) % 2 else "", "FR"))
        )
        with Client(cache=ResponseCache(tmp_path), mocks={"test": backend}) as client:
            pending = [client.start(profile, prompt_for(str(i)))
                       for profile in profiles for i in range(20)]
            written = [p.finish() for p in pending]
        (segment,) = (tmp_path / "completions").glob("*.jsonl")
        rows = [json.loads(line) for line in segment.read_text(encoding="utf-8").splitlines()]
        assert len(rows) == 40
        assert [row["text"] for row in rows] == written
        for i, row in enumerate(rows):
            assert set(row) == set(cached_row("")) and row["created_at"]
            assert (row["model"], row["fingerprint"]) == (
                profiles[i // 20].name, profiles[0].request_fingerprint)
            assert row["content_hash"] == f"hash-{i % 20}"
            assert (row["attempts"], row["latency_ms"]) == (1, pending[i].latency_ms)
        reloaded = ResponseCache(tmp_path)
        loaded = [reloaded.get_completion(r["model"], r["fingerprint"], r["content_hash"])
                  for r in rows]
        assert loaded == written
        for answers in (written, loaded):
            assert len({id(text) for text in answers}) == 2


def write_segments(directory, segments):
    """Write each {name: [line, ...]} segment under directory/completions."""
    (directory / "completions").mkdir(parents=True)
    for name, lines in segments.items():
        (directory / "completions" / name).write_bytes(
            b"".join(line if isinstance(line, bytes) else (line + "\n").encode() for line in lines)
        )


def row_line(content_hash, text="FR", drop=(), **changes):
    """A completions row as one JSON line, with changed fields and without dropped ones."""
    row = {**cached_row(content_hash, text), **changes}
    return json.dumps({name: value for name, value in row.items() if name not in drop})


# Segment sets of a completions bucket, named by what they hold.
CRAFTED_SEGMENTS = {
    "duplicates-across-segments": {
        "ab.jsonl": [row_line("1" * 64, "oldest")],
        "seg-00000001.jsonl": [row_line("1" * 64, "first"), row_line("2" * 64, "first")],
        "seg-00000002.jsonl": [row_line("2" * 64, "second"), row_line("3" * 64, "second"),
                               row_line("3" * 64, "second again", model="model-b")],
    },
    "torn-tail": {
        "seg-00000001.jsonl": [row_line("1" * 64), b'{"content_hash": "22", "te'],
        "seg-00000002.jsonl": [row_line("2" * 64, "after")],
    },
    "unknown-or-missing-fields": {
        "seg-00000001.jsonl": [
            row_line("1" * 64, extra=1), row_line("2" * 64, drop=["created_at"]),
            row_line("3" * 64, drop=["latency_ms"]), row_line("4" * 64, drop=["model"]),
            row_line("5" * 64, drop=["text"]), row_line("6" * 64, drop=["content_hash"]),
            row_line("1" * 64, "after the torn one"), row_line("7" * 64),
        ],
    },
    "non-string-fields": {
        "seg-00000001.jsonl": [
            row_line("1" * 64, model=5), row_line("2" * 64, model=["m"]),
            row_line("3" * 64, 7), row_line("4" * 64, None),
            row_line("5" * 64, fingerprint=5), row_line("6" * 64, fingerprint=["f"]),
            row_line(7), row_line(["8"]), row_line("9" * 64, attempts="1", latency_ms="x"),
        ],
    },
    "null-fingerprint": {
        "seg-00000001.jsonl": [
            row_line("1" * 64, "stale", fingerprint=None),
            row_line("2" * 64, fingerprint=None, extra=1),
            row_line("3" * 64, drop=["fingerprint"]), '{"text": 5}', "{}",
            row_line("1" * 64, "fresh"),
        ],
    },
    "not-objects": {
        "seg-00000001.jsonl": ["5", "[1, 2]", '"a string"', "null", "true", "", "1.5"],
        "seg-00000002.jsonl": [row_line("1" * 64), b"\xff\xfe{}\n", "[]"],
    },
}


class TestCacheIndex:
    @staticmethod
    def probe_keys(directory):
        """Every (model, fingerprint, content hash) of string fields in the
        bucket's object rows, torn or not."""
        keys = set()
        for segment in (directory / "completions").glob("*.jsonl"):
            for line in segment.read_bytes().splitlines():
                try:
                    row = json.loads(line)
                except ValueError:
                    continue
                fields = [row.get(n) if isinstance(row, dict) else None
                          for n in ("model", "fingerprint", "content_hash")]
                if all(isinstance(value, str) for value in fields):
                    keys.add(tuple(fields))
        return keys

    def assert_served_as_by_record_loader(self, directory):
        served, torn_lines, torn_segments = oracle_load_completions(directory)
        assert served  # every set holds a row that loads
        cache = ResponseCache(directory)
        assert (cache.torn_lines, cache.torn_segments) == (torn_lines, torn_segments)
        assert len(cache) == len(served)
        for key in self.probe_keys(directory) | set(served):
            assert cache.get_completion(*key) == served.get(key), key

    @pytest.mark.parametrize("name", list(CRAFTED_SEGMENTS))
    def test_crafted_segments_served_as_by_the_record_loader(self, tmp_path, name):
        write_segments(tmp_path, CRAFTED_SEGMENTS[name])
        self.assert_served_as_by_record_loader(tmp_path)

    def test_mixed_segments_served_as_by_the_record_loader(self, tmp_path):
        rng = random.Random(29)
        lines = [line for segments in CRAFTED_SEGMENTS.values()
                 for segment in segments.values() for line in segment if isinstance(line, str)]
        segments = {f"seg-{n:08d}.jsonl": rng.choices(lines, k=40) for n in range(1, 6)}
        write_segments(tmp_path, segments)
        self.assert_served_as_by_record_loader(tmp_path)

    def test_rows_written_by_put_are_the_record_rows(self, tmp_path):
        cache = ResponseCache(tmp_path)
        put_row(cache, "1" * 64, "kept")
        put_row(cache, "1" * 64, "dropped")  # the key has its answer
        cache.close()
        (segment,) = (tmp_path / "completions").glob("*.jsonl")
        (line,) = segment.read_text(encoding="utf-8").splitlines()
        row = json.loads(line)
        assert list(row) == sorted(cached_row(""))
        assert {**row, "created_at": None} == {**cached_row("1" * 64, "kept"), "created_at": None}
        self.assert_served_as_by_record_loader(tmp_path)


def traced_bytes(load):
    """The bytes held, by tracemalloc's count, by what load() returns, on a
    second call, so that caches a first call fills are not counted."""
    load()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = load()
        return tracemalloc.get_traced_memory()[0] - before, held
    finally:
        tracemalloc.stop()


class TestCacheFootprint:
    def test_a_loaded_completion_costs_at_most_200_bytes(self, tmp_path):
        rows = [row_line(hashlib.sha256(b"%d" % i).hexdigest(), ("FR", "NFR")[i % 2],
                         model=("model-a", "model-b")[i // 2500]) for i in range(5000)]
        write_segments(tmp_path, {"seg-00000001.jsonl": rows})
        del rows
        size, cache = traced_bytes(lambda: ResponseCache(tmp_path))
        assert (len(cache), cache.torn_lines) == (5000, 0)
        assert size / 5000 <= 200

    def test_a_cached_1536_dim_vector_costs_at_most_16_kb(self, tmp_path):
        rng = random.Random(1536)
        vectors = {f"requirement {i}": [rng.uniform(-1.0, 1.0) for _ in range(1536)]
                   for i in range(10)}
        (tmp_path / "embeddings").mkdir()
        (tmp_path / "embeddings" / "seg-00000001.jsonl").write_text("".join(
            json.dumps({"fingerprint": "f" * 16, "tag": "e", "text": text, "vector": vector})
            + "\n" for text, vector in vectors.items()
        ))
        size, cache = traced_bytes(lambda: ResponseCache(tmp_path))
        assert (len(cache), cache.torn_lines) == (10, 0)
        for text, vector in vectors.items():
            assert list(cache.get_embedding("e", "f" * 16, text)) == vector
        assert size / 10 <= 16 * 1024


class FlakyHandler(BaseHTTPRequestHandler):
    fail_first = 2
    fail_status = 429
    seen = 0
    payload: dict = {}

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length) or b"{}")
        type(self).payload = body
        type(self).seen += 1
        if type(self).seen <= type(self).fail_first:
            self.send_response(type(self).fail_status)
            self.end_headers()
            return
        if self.path.endswith("/chat/completions"):
            out = {"choices": [{"message": {"content": "FR"}}]}
        else:
            out = {
                "data": [
                    {"index": i, "embedding": [float(i), 1.0]}
                    for i in range(len(body.get("input", [])))
                ]
            }
        raw = json.dumps(out).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


@pytest.fixture()
def http_server():
    FlakyHandler.seen = 0
    FlakyHandler.fail_first = 2
    FlakyHandler.fail_status = 429
    server = HTTPServer(("127.0.0.1", 0), FlakyHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1"
    server.shutdown()
    server.server_close()


def answer_and_attempts(client, profile, prompt):
    """A completion's answer text and the attempts its request took."""
    pending = client.start(profile, prompt)
    return pending.finish(), pending.attempt


class TestHttpTransport:
    def test_retry_after_429_succeeds_with_attempt_count(self, http_server):
        client = Client(sleeper=lambda s: None)
        profile = ModelProfile(
            name="retry-model", base_url=http_server, backoff_base_s=0.0
        )
        assert answer_and_attempts(client, profile, prompt_for("retry me")) == ("FR", 3)
        assert FlakyHandler.payload["temperature"] == 0.0

    def test_exhausted_retries_raise_transport_error(self, http_server):
        FlakyHandler.fail_first = 99
        client = Client(sleeper=lambda s: None)
        profile = ModelProfile(
            name="retry-model", base_url=http_server, max_attempts=3, backoff_base_s=0.0
        )
        with pytest.raises(TransportError, match="3 attempts") as err:
            client.start(profile, prompt_for("never works")).finish()
        assert len(err.value.attempts) == 3

    def test_unreachable_endpoint(self):
        client = Client(sleeper=lambda s: None)
        profile = ModelProfile(
            name="m", base_url="http://127.0.0.1:1/v1", max_attempts=2, backoff_base_s=0.0
        )
        with pytest.raises(TransportError):
            client.start(profile, prompt_for()).finish()

    def test_unsupported_scheme_refused_without_retry(self):
        with pytest.raises(GatewayError, match="base_url must be http") as err:
            ModelProfile(name="m", base_url="ftp://127.0.0.1/v1")  # refused before any send
        assert not isinstance(err.value, TransportError)

    def test_http_embeddings(self, http_server):
        FlakyHandler.fail_first = 0
        client = Client(sleeper=lambda s: None)
        profile = ModelProfile(
            name="embedder", kind="embedding", base_url=http_server, backoff_base_s=0.0
        )
        vectors = client.embed_batch(profile, ["a", "b"])
        assert vectors == [[0.0, 1.0], [1.0, 1.0]]

    def test_http_embeddings_retried_after_503(self, http_server):
        FlakyHandler.fail_first, FlakyHandler.fail_status = 1, 503
        waits = []
        client = Client(sleeper=waits.append)
        profile = ModelProfile(
            name="embedder", kind="embedding", base_url=http_server, backoff_base_s=0.5
        )
        vectors = client.embed_batch(profile, ["a", "b"])
        assert vectors == [[0.0, 1.0], [1.0, 1.0]]
        assert FlakyHandler.seen == 2
        assert len(waits) == 1 and 0.5 <= waits[0] <= 0.625  # the first backoff, jittered


@pytest.fixture()
def loopback():
    """Start loopback servers on demand; every one is stopped at teardown."""
    servers = []

    def start(cls, **kwargs):
        server = cls(**kwargs)
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.stop()


@pytest.fixture()
def clean_proxy_env(monkeypatch):
    for scheme in ("http", "https", "all", "no"):
        monkeypatch.delenv(f"{scheme}_proxy", raising=False)
        monkeypatch.delenv(f"{scheme.upper()}_PROXY", raising=False)
    return monkeypatch


class TestConnectionReuse:
    def test_sequential_completions_share_one_connection(self, loopback):
        endpoint = loopback(ChatEndpoint)
        profile = ModelProfile(name="m", base_url=endpoint.base_url)
        with Client() as client:
            texts = [client.start(profile, prompt_for(f"q{i}")).finish() for i in range(5)]
        assert texts == ["FR"] * 5
        assert endpoint.targets == ["/v1/chat/completions"] * 5
        assert endpoint.connections == 1

    def test_chat_and_embeddings_share_one_connection(self, loopback, monkeypatch):
        endpoint = loopback(ChatEndpoint)
        connect, made = gateway._connect, []

        def recorded_connect(*args):
            made.append(connect(*args))
            return made[-1]

        monkeypatch.setattr(gateway, "_connect", recorded_connect)
        chat = ModelProfile(name="m", base_url=endpoint.base_url)
        embedder = ModelProfile(name="e", kind="embedding", base_url=endpoint.base_url)
        with Client() as client:
            assert client.start(chat, prompt_for("q1")).finish() == "FR"
            assert client.embed_batch(embedder, ["a", "b"]) == [[0.0, 1.0], [1.0, 1.0]]
            assert client.start(chat, prompt_for("q2")).finish() == "FR"
        assert endpoint.targets == [
            "/v1/chat/completions", "/v1/embeddings", "/v1/chat/completions"
        ]
        assert endpoint.connections == 1
        assert [conn.sock.fileno() for conn in made] == [-1]  # closed by Client.close()

    def test_dropped_keepalive_resent_without_counting_an_attempt(self, loopback):
        endpoint = loopback(ChatEndpoint, drop_after_reply=True)
        waits = []
        profile = ModelProfile(name="m", base_url=endpoint.base_url)
        with Client(sleeper=waits.append) as client:
            answers = [answer_and_attempts(client, profile, prompt_for(f"q{i}")) for i in range(4)]
        assert answers == [("FR", 1)] * 4
        assert waits == []
        assert len(endpoint.targets) == 4
        assert endpoint.connections == 4

    def test_reused_connection_takes_the_timeout_of_its_new_profile(self, loopback):
        endpoint = loopback(SlowEndpoint, delay_s=0.5)
        patient = ModelProfile(name="a", base_url=endpoint.base_url, timeout_s=5.0)
        hasty = ModelProfile(name="b", base_url=endpoint.base_url, timeout_s=0.2,
                             max_attempts=1)
        with Client() as client:
            assert client.start(patient, prompt_for("q1")).finish() == "FR"
            began = time.monotonic()
            with pytest.raises(TransportError, match="b: gave up after 1 attempts"):
                client.start(hasty, prompt_for("q2")).finish()
            assert time.monotonic() - began < 2.5
        assert endpoint.connections == 1

    def test_fresh_connection_closed_before_a_status_line_is_a_failed_attempt(
            self, loopback):
        listener = loopback(ClosingListener)
        profile = ModelProfile(name="m", base_url=listener.base_url, max_attempts=2)
        waits = []
        with Client(sleeper=waits.append) as client:
            with pytest.raises(TransportError, match="m: gave up after 2 attempts"):
                client.start(profile, prompt_for("q")).finish()
        assert len(waits) == 1
        assert listener.connections == 2

    def test_http_proxy_carries_requests(self, loopback, clean_proxy_env):
        endpoint = loopback(ChatEndpoint, reply="NFR")
        proxy = loopback(ForwardingProxy)
        clean_proxy_env.setenv("http_proxy", proxy.url.replace("//", "//user:p%40ss@"))
        profile = ModelProfile(name="m", base_url=endpoint.base_url)
        with Client() as client:
            assert client.start(profile, prompt_for("via proxy")).finish() == "NFR"
        assert proxy.targets == [endpoint.base_url + "/chat/completions"]
        assert proxy.credentials == ["Basic " + base64.b64encode(b"user:p@ss").decode()]
        assert endpoint.targets == ["/v1/chat/completions"]

        clean_proxy_env.setenv("no_proxy", "127.0.0.1")
        with Client() as client:
            assert client.start(profile, prompt_for("direct")).finish() == "NFR"
        assert len(proxy.targets) == 1
        assert len(endpoint.targets) == 2


def embeddings_reply(*vectors: bytes) -> bytes:
    rows = (b'{"index": %d, "embedding": %s}' % (i, v) for i, v in enumerate(vectors))
    return b'{"data": [%s]}' % b", ".join(rows)


class TestBadReplies:
    @pytest.mark.parametrize(
        "kind, status, raw, needle",
        [("chat", 404, b"no such model", "HTTP 404"),
         ("chat", 200, b"<html>busy</html>", "non-JSON response"),
         ("chat", 200, b'{"choices": [{"message": {}}]}', "malformed chat response"),
         ("embedding", 200, b'{"data": [{"embedding": [1.0]}, {"embedding": [2.0]}]}',
          "malformed embeddings response"),
         ("chat", 200, b'{"choices": [{"message": {"content": null}}]}',
          "malformed chat response"),
         ("chat", 200, b'{"choices": [{"message": {"content": 7}}]}', "malformed chat response"),
         ("chat", 200, b'{"choices": [{"message": {"content": ["FR"]}}]}',
          "malformed chat response"),
         ("chat", 200, b'{"choices": [{"message": {"content": "FR\xff"}}]}',
          "non-JSON response"),
         ("embedding", 200, embeddings_reply(b"[1.0]", b'[2.0, "\xff"]'), "non-JSON response"),
         ("embedding", 200, embeddings_reply(b'"12"', b'"34"'), "malformed embeddings response"),
         ("embedding", 200, embeddings_reply(b"[1.0, true]", b"[2.0, 1.0]"),
          "malformed embeddings response"),
         ("embedding", 200, embeddings_reply(b"[1%s]" % (b"0" * 400), b"[2]"),
          "malformed embeddings response"),
         ("chat", 200, b"[" * 100_000 + b"]" * 100_000, "non-JSON response"),
         ("embedding", 200, embeddings_reply(b"[%s]" % b", ".join([b"0.5"] * 5000), b'"x"'),
          "malformed embeddings response"),
         ("chat", 200, b'{"choices": [{"message": {"content": "FR"}}], "score": NaN}',
          "non-JSON response"),
         ("chat", 200, b'{"choices": [{"message": {"content": "FR"}}], "score": -Infinity}',
          "non-JSON response"),
         ("embedding", 200, embeddings_reply(b"[NaN, Infinity]", b"[1.0, 2.0]"),
          "non-JSON response"),
         ("embedding", 200, embeddings_reply(b"[1.0, 2.0]", b"[-Infinity, 1.0]"),
          "non-JSON response"),
         ("embedding", 200, embeddings_reply(b"[1e400, 1.0]", b"[1.0, 2.0]"),
          "malformed embeddings response"),
         ("embedding", 200, embeddings_reply(b"[]", b"[]"), "malformed embeddings response"),
         ("chat", 200, '{"choices": [{"message": {"content": "FR"}}]}'.encode("utf-16"),
          "non-JSON response"),
         ("embedding", 200, embeddings_reply(b"[1.0]", b"[2.0]").decode().encode("utf-32"),
          "non-JSON response")],
        ids=["404", "not-json", "no-content", "no-index", "null-content", "number-content",
             "list-content", "chat-not-utf8", "embeddings-not-utf8", "digit-string-embedding",
             "bool-in-embedding", "embedding-past-float", "nested-too-deep",
             "long-and-malformed", "nan-beside-chat", "minus-infinity-beside-chat",
             "nan-and-infinity-embedding", "minus-infinity-embedding",
             "float-past-range-embedding", "empty-embeddings", "chat-utf16", "embeddings-utf32"],
    )
    def test_refused_after_one_request(self, loopback, tmp_path, kind, status, raw, needle):
        endpoint = loopback(CannedEndpoint, status=status, raw=raw)
        waits = []
        profile = ModelProfile(name="m", kind=kind, base_url=endpoint.base_url, max_attempts=3)
        cache = ResponseCache(tmp_path / "cache")
        with Client(cache=cache, sleeper=waits.append) as client, \
                pytest.raises(ProtocolError, match=needle) as err:
            if kind == "chat":
                client.start(profile, prompt_for()).finish()
            else:
                client.embed_batch(profile, ["a", "b"])
        assert len(str(err.value)) < 500  # the reply is quoted up to its first 200 bytes
        assert len(endpoint.targets) == 1 and waits == []
        assert len(cache) == 0 and not (tmp_path / "cache").exists()

    def test_500_is_retried_max_attempts_times(self, loopback):
        endpoint = loopback(CannedEndpoint, status=500, raw=b"oops")
        profile = ModelProfile(name="m", base_url=endpoint.base_url, max_attempts=3,
                               backoff_base_s=0.0)
        with Client(sleeper=lambda s: None) as client:
            with pytest.raises(TransportError, match="gave up after 3 attempts") as err:
                client.start(profile, prompt_for()).finish()
        assert len(err.value.attempts) == 3 and "HTTP 500" in err.value.attempts[0]
        assert len(endpoint.targets) == 3

    def test_reply_after_a_utf8_bom_is_read(self, loopback):
        raw = b'\xef\xbb\xbf{"choices": [{"message": {"content": "FR"}}]}'
        endpoint = loopback(CannedEndpoint, status=200, raw=raw)
        with Client() as client:
            assert answer_and_attempts(
                client, ModelProfile(name="m", base_url=endpoint.base_url), prompt_for()
            ) == ("FR", 1)


class FirstAttemptFails(ChatEndpoint):
    """Answers every odd-numbered request 500, and the next as ChatEndpoint does."""

    def respond(self, target, headers, body):
        if len(self.targets) % 2:
            return 500, b"{}"
        return super().respond(target, headers, body)


TRICKY = 'Der "Login" muss \\ in \u2264 2 s gelingen\tna\u00efve\n\u65e5\u672c\u8a9e \U0001f600'


class TestWireBytes:
    @pytest.mark.parametrize("kind", ["chat", "embedding"])
    def test_a_retry_resends_the_bytes_json_dumps_gives(self, loopback, kind):
        endpoint = loopback(FirstAttemptFails)
        profile = ModelProfile(name="m", kind=kind, base_url=endpoint.base_url,
                               backoff_base_s=0.0)
        with Client(sleeper=lambda s: None) as client:
            if kind == "chat":
                prompt = dataclasses.replace(prompt_for(TRICKY), system_message=TRICKY)
                assert answer_and_attempts(client, profile, prompt) == ("FR", 2)
                expected = oracle_chat_body("m", TRICKY, prompt.user_message, 0.0, 16)
            else:
                assert client.embed_batch(profile, [TRICKY, "b"]) == [[0.0, 1.0], [1.0, 1.0]]
                expected = oracle_embeddings_body("m", [TRICKY, "b"])
        (_, first), (_, second) = endpoint.received
        assert first == second == expected

    def test_one_prompt_to_two_models_encodes_its_messages_once(self, loopback, monkeypatch):
        endpoint = loopback(ChatEndpoint)
        encode, encoded = gateway._encode_messages, []

        def counted_encode(*args):
            encoded.append(args)
            return encode(*args)

        monkeypatch.setattr(gateway, "_encode_messages", counted_encode)
        prompt = dataclasses.replace(
            prompt_for(TRICKY), system_message=TRICKY, user_message=TRICKY
        )
        profiles = [
            ModelProfile(name="m\u00fcller-\u65e5", base_url=endpoint.base_url,
                         temperature=0.7, max_output_tokens=8),
            ModelProfile(name="m", base_url=endpoint.base_url, temperature=1,
                         max_output_tokens=16),
        ]
        with Client() as client:
            pending = [client.start(profile, prompt) for profile in profiles]
            assert [p.finish() for p in pending] == ["FR", "FR"]
        received = {json.loads(body)["model"]: body for _, body in endpoint.received}
        assert received == {
            p.name: oracle_chat_body(p.name, TRICKY, TRICKY, p.temperature, p.max_output_tokens)
            for p in profiles
        }
        assert len(encoded) == 1


@pytest.fixture()
def client_writes(monkeypatch):
    """The size of each socket write the test's own thread makes."""
    writes = []
    sendall = socket.socket.sendall

    def counting_sendall(sock, data, *args):
        if threading.current_thread() is threading.main_thread():
            writes.append(len(data))
        return sendall(sock, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", counting_sendall)
    return writes


class TestReplyFraming:
    def complete_all(self, endpoint, n=3, **profile_fields):
        waits = []
        profile = ModelProfile(
            name="m", base_url=endpoint.base_url, backoff_base_s=0.0, timeout_s=5.0,
            **profile_fields,
        )
        with Client(sleeper=waits.append) as client:
            answers = [answer_and_attempts(client, profile, prompt_for(f"q{i}")) for i in range(n)]
        return answers, waits

    @pytest.mark.parametrize("framing", ["chunked", "continue", "100-headers", "repeated-length"])
    def test_reply_decoded_and_connection_kept(self, loopback, framing):
        reply = "Non-Functional, judging by the wording of the requirement"
        endpoint = loopback(ChatEndpoint, reply=reply, framing=framing)
        answers, _ = self.complete_all(endpoint)
        assert [text for text, _ in answers] == [reply] * 3
        assert endpoint.connections == 1

    @pytest.mark.parametrize("framing", ["close", "http10", "eof"])
    def test_reply_that_ends_the_connection_is_not_reused(self, loopback, client_writes, framing):
        endpoint = loopback(ChatEndpoint, framing=framing)
        answers, waits = self.complete_all(endpoint)
        assert answers == [("FR", 1)] * 3
        assert waits == []
        assert len(client_writes) == 3  # nothing was sent on a closed connection
        assert endpoint.connections == 3

    def test_short_body_is_a_transport_error_retried_as_an_attempt(self, loopback):
        endpoint = loopback(ChatEndpoint, framing=["short", "length"])
        answers, waits = self.complete_all(endpoint, n=1, max_attempts=2)
        assert answers == [("FR", 2)]
        assert len(waits) == 1
        endpoint.framings = ["short"]
        with pytest.raises(TransportError) as err:
            self.complete_all(endpoint, n=1, max_attempts=1)
        assert "truncated" in err.value.attempts[0]

    def test_conflicting_lengths_are_a_transport_error_that_closes_the_connection(
            self, loopback):
        endpoint = loopback(ChatEndpoint, framing=["conflicting-length", "length"])
        answers, waits = self.complete_all(endpoint, n=2, max_attempts=2)
        assert answers == [("FR", 2), ("FR", 1)]
        assert len(waits) == 1
        assert endpoint.connections == 2  # the retry went out on a new connection
        endpoint.framings = ["conflicting-length"]
        with pytest.raises(TransportError) as err:
            self.complete_all(endpoint, n=1, max_attempts=1)
        assert "conflicting Content-Length" in err.value.attempts[0]

    @pytest.mark.parametrize(
        "framing, reason",
        [("long-header", "longer than 65536 bytes"), ("many-headers", "more than 100")],
    )
    def test_oversized_reply_head_is_a_transport_error(self, loopback, framing, reason):
        endpoint = loopback(ChatEndpoint, framing=framing)
        with pytest.raises(TransportError) as err:
            self.complete_all(endpoint, n=1, max_attempts=1)
        assert reason in err.value.attempts[0]

    def test_request_is_one_write_with_host_length_agent_and_key(
        self, loopback, client_writes, monkeypatch
    ):
        endpoint = loopback(ChatEndpoint)
        monkeypatch.setenv("SHOTSWEEP_TEST_KEY", "sk-test")
        profile = ModelProfile(
            name="m", base_url=endpoint.base_url, api_key_env="SHOTSWEEP_TEST_KEY"
        )
        prompt = prompt_for("a long requirement " * 300)  # far over http.client's 2,000 bytes
        with Client() as client:
            client.start(profile, prompt).finish()
            monkeypatch.delenv("SHOTSWEEP_TEST_KEY")
            client.start(profile, prompt_for("short")).finish()
        (first, first_body), (second, _) = endpoint.received
        assert len(client_writes) == 2 and client_writes[0] > len(first_body) > 5000
        assert first["Host"] == f"127.0.0.1:{endpoint.server_port}"
        assert first["Content-Length"] == str(len(first_body))
        assert first["User-Agent"] == second["User-Agent"] == "shotsweep"
        assert first["Authorization"] == "Bearer sk-test"
        assert "Authorization" not in second
        assert json.loads(first_body)["messages"][1]["content"] == prompt.user_message


@pytest.fixture()
def trusted_cert(monkeypatch):
    """Trust the loopback servers' self-signed certificate."""
    monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
    return monkeypatch


class TestTls:
    def test_https_completion(self, loopback, trusted_cert):
        endpoint = loopback(ChatEndpoint, reply="NFR", tls=True)
        profile = ModelProfile(name="m", base_url=endpoint.base_url)
        with Client() as client:
            texts = [client.start(profile, prompt_for(f"q{i}")).finish() for i in range(3)]
        assert texts == ["NFR"] * 3
        assert endpoint.connections == 1

    def test_https_through_connect_tunnel(self, loopback, trusted_cert, clean_proxy_env):
        endpoint = loopback(ChatEndpoint, reply="NFR", tls=True)
        proxy = loopback(ForwardingProxy)
        clean_proxy_env.setenv("https_proxy", proxy.url.replace("//", "//user:p%40ss@"))
        profile = ModelProfile(name="m", base_url=endpoint.base_url)
        with Client() as client:
            texts = [client.start(profile, prompt_for(f"q{i}")).finish() for i in range(2)]
        assert texts == ["NFR"] * 2
        assert proxy.targets == [f"127.0.0.1:{endpoint.server_port}"]  # one CONNECT
        assert proxy.credentials == ["Basic " + base64.b64encode(b"user:p@ss").decode()]
        assert endpoint.targets == ["/v1/chat/completions"] * 2
        assert endpoint.connections == 1

    def test_untrusted_certificate_is_a_transport_error(self, loopback, monkeypatch):
        monkeypatch.delenv("SSL_CERT_FILE", raising=False)
        endpoint = loopback(ChatEndpoint, tls=True)
        profile = ModelProfile(name="m", base_url=endpoint.base_url, max_attempts=1)
        with Client() as client, pytest.raises(TransportError) as err:
            client.start(profile, prompt_for()).finish()
        assert "CERTIFICATE_VERIFY_FAILED" in err.value.attempts[0]
        assert endpoint.targets == []


def test_cli_import_loads_no_network_stack():
    """A warm replay never sends a request, so importing the CLI must not
    load the network stack."""
    code = (
        "import sys, shotsweep.cli\n"
        "print(sorted(m for m in ('http.client', 'urllib.request', 'ssl', 'email')"
        " if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


_ONE_LIVE_REQUEST = (
    "import sys\n"
    "from shotsweep import Client, ModelProfile, PromptSpec\n"
    "prompt = PromptSpec(system_message='s', user_message='u', example_provenance=(),"
    " content_hash='h', query_text='q')\n"
    "with Client() as client:\n"
    "    print(client.start(ModelProfile(name='m', base_url=sys.argv[1]), prompt).finish())\n"
    "print(sorted(m for m in ('http.client', 'urllib.request', 'ssl', 'email')"
    " if m in sys.modules))\n"
)


@pytest.mark.parametrize("proxied", [False, True], ids=["direct", "http_proxy"])
def test_live_request_loads_an_http_library_only_for_a_proxy(loopback, proxied):
    """With no proxy variable set, a request goes straight to its endpoint
    without loading urllib.request's proxy tables or what they import."""
    endpoint = loopback(ChatEndpoint, reply="NFR")
    env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    if proxied:
        proxy = loopback(ForwardingProxy)
        env["http_proxy"] = proxy.url
    result = subprocess.run(
        [sys.executable, "-c", _ONE_LIVE_REQUEST, endpoint.base_url],
        env=env, capture_output=True, text=True, check=True,
    )
    text, loaded = result.stdout.splitlines()
    assert text == "NFR"
    assert endpoint.targets == ["/v1/chat/completions"]
    if proxied:
        assert proxy.targets == [endpoint.base_url + "/chat/completions"]
        assert "urllib.request" in loaded
    else:
        assert loaded == "[]"


# Proxy settings (over an environment with none) and the URL schemes whose
# route is still read from urllib's proxy tables under each.
PROXY_ENVIRONMENTS = {
    "none": ({}, set()),
    "empty-http_proxy": ({"http_proxy": ""}, set()),
    "HTTP_PROXY": ({"HTTP_PROXY": "http://p:3128"}, {"http"}),
    "only-https_proxy": ({"https_proxy": "http://p:3128"}, {"https"}),
    "only-no_proxy": ({"no_proxy": "127.0.0.1"}, set()),
    "only-NO_PROXY": ({"NO_PROXY": "127.0.0.1"}, set()),
    "only-all_proxy": ({"all_proxy": "http://p:3128"}, set()),
    "cgi-HTTP_PROXY": ({"REQUEST_METHOD": "GET", "HTTP_PROXY": "http://p:3128"}, {"http"}),
    "http_proxy-and-no_proxy": (
        {"http_proxy": "http://p:3128", "no_proxy": "127.0.0.1"}, {"http"}),
    "credentials": (
        {"http_proxy": "http://user:p%40ss@p:3128", "https_proxy": "https://user:p%40ss@p:3128"},
        {"http", "https"}),
}


class TestProxyShortcut:
    @pytest.fixture()
    def getproxies_calls(self, monkeypatch):
        """Clear every proxy variable and count calls to urllib's getproxies."""
        import urllib.request

        for name in list(os.environ):
            if name.lower().endswith("_proxy") or name == "REQUEST_METHOD":
                monkeypatch.delenv(name)
        calls, getproxies = [], urllib.request.getproxies
        monkeypatch.setattr(urllib.request, "getproxies",
                            lambda: calls.append(1) or getproxies())
        return calls

    @pytest.mark.parametrize("netloc", ["127.0.0.1:8080", "api.example.com"])
    @pytest.mark.parametrize("scheme", ["http", "https"])
    @pytest.mark.parametrize("name", list(PROXY_ENVIRONMENTS))
    def test_route_is_urllibs_and_skips_it_with_no_proxy_set(
        self, monkeypatch, getproxies_calls, name, scheme, netloc
    ):
        environment, consulted = PROXY_ENVIRONMENTS[name]
        for variable, value in environment.items():
            monkeypatch.setenv(variable, value)
        monkeypatch.setattr(sys, "platform", "linux")
        monkeypatch.setattr(os, "name", "posix")
        route = gateway._resolve_route(scheme, netloc)
        assert bool(getproxies_calls) == (scheme in consulted)
        assert dataclasses.asdict(route) == oracle_resolve_route(scheme, netloc)

    @pytest.mark.parametrize("platform, os_name", [("darwin", "posix"), ("win32", "nt")])
    def test_macos_and_windows_still_read_urllibs_tables(
        self, monkeypatch, getproxies_calls, platform, os_name
    ):
        monkeypatch.setattr(sys, "platform", platform)
        monkeypatch.setattr(os, "name", os_name)
        route = gateway._resolve_route("http", "127.0.0.1:8080")
        monkeypatch.undo()
        assert getproxies_calls == [1]
        assert route == gateway._Route(tls=False, address="127.0.0.1:8080")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
@pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "user-set"])
def test_cli_import_starts_no_thread(preset):
    """Importing the CLI, then fitting a space and querying it, which loads
    numpy, leaves the process on one thread: OpenBLAS gets one thread unless
    the caller set its own count first."""
    code = (
        "import os, sys, shotsweep.cli\n"
        "from shotsweep.corpus import RequirementRecord\n"
        "from shotsweep.vectorspace import HashEmbeddingProvider, build_embedding_matrix,"
        " embed_query_tfidf, fit_tfidf, nearest\n"
        "pool = [RequirementRecord(i, t, 'FR', 'd') for i, t in enumerate(('a b', 'b c'))]\n"
        "space = fit_tfidf(pool)\n"
        "nearest(space, embed_query_tfidf(space, 'b'), 1)\n"
        "build_embedding_matrix(pool, HashEmbeddingProvider(8))\n"
        "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'],"
        " 'numpy' in sys.modules, 'concurrent.futures' in sys.modules)"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    threads, blas_threads, numpy_loaded, pool_loaded = result.stdout.split()
    assert blas_threads == (preset or "1")
    assert numpy_loaded == "True"
    assert pool_loaded == "False"
    if preset is None:
        assert threads == "1"


def source_imports(at_import_time: bool = False) -> list[tuple[str, str]]:
    """(file name, module) for each absolute import in src/shotsweep; with
    at_import_time, only those outside function bodies, which run when the
    module is imported."""

    def nodes(node):
        for child in ast.iter_child_nodes(node):
            if not (at_import_time and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))):
                yield child
                yield from nodes(child)

    modules = sorted((REPO_ROOT / "src" / "shotsweep").glob("*.py"))
    imports = []
    for path in modules:
        for node in nodes(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imports += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imports.append((path.name, node.module))
    assert len(modules) > 5 and imports
    return imports


def test_no_module_imports_threading():
    """A Client belongs to one thread, and shotsweep starts none: a sweep keeps
    its models' requests in flight from the calling thread, without threads,
    executors or an event loop. The stdlib always loads threading, so
    sys.modules cannot show this: read the source."""
    banned = [(name, module) for name, module in source_imports()
              if module.split(".")[0] in ("threading", "concurrent", "asyncio")]
    assert banned == []


def test_numpy_is_imported_only_where_a_space_is_built_or_scored():
    """numpy loads with the first fitted space, not when shotsweep is imported."""
    def numpy_in(imports):
        return {name for name, module in imports if module.split(".")[0] == "numpy"}

    assert numpy_in(source_imports()) == {"vectorspace.py"}
    assert numpy_in(source_imports(at_import_time=True)) == set()


def test_dispatch_imports_only_prompts_from_the_package():
    """gateway.py sends prompts and caches replies; parsing and scoring them
    is evaluation.py's, so of the package it needs only promptkit."""
    tree = ast.parse((REPO_ROOT / "src" / "shotsweep" / "gateway.py").read_text("utf-8"))
    package = {
        node.module or "." for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    }
    assert package == {"promptkit"}


class TestEmbedBatch:
    def embed_client(self, dim=8):
        provider = HashEmbeddingProvider(dim)
        client = Client(mocks={"hash": provider})
        profile = ModelProfile(
            name="hash-embedder", kind="embedding", base_url="mock://hash",
        )
        return client, profile, provider

    def test_duplicates_get_identical_vectors(self):
        client, profile, _ = self.embed_client()
        vectors = client.embed_batch(profile, ["same", "same", "other"])
        assert vectors[0] == vectors[1]
        assert vectors[0] != vectors[2]

    def test_cached_text_costs_nothing(self):
        class CountingHash(HashEmbeddingProvider):
            calls = 0

            def embed_batch(self, texts):
                type(self).calls += 1
                return super().embed_batch(texts)

        provider = CountingHash(8)
        client = Client(mocks={"hash": provider})
        profile = ModelProfile(
            name="hash-embedder", kind="embedding", base_url="mock://hash",
        )
        client.embed_batch(profile, ["abc"])
        client.embed_batch(profile, ["abc"])
        assert CountingHash.calls == 1

    def test_other_endpoint_under_same_name_gets_its_own_vectors(self, tmp_path):
        client = Client(
            cache=ResponseCache(tmp_path),
            mocks={"hash8": HashEmbeddingProvider(8), "hash16": HashEmbeddingProvider(16)},
        )
        narrow = ModelProfile(name="emb", kind="embedding", base_url="mock://hash8")
        wide = dataclasses.replace(narrow, base_url="mock://hash16")
        assert len(client.embed_batch(narrow, ["text"])[0]) == 8
        assert len(client.embed_batch(wide, ["text"])[0]) == 16
        reopened = Client(cache=ResponseCache(tmp_path))
        assert len(reopened.embed_batch(wide, ["text"])[0]) == 16

    def test_rows_without_fingerprint_are_misses(self, tmp_path):
        legacy = {"tag": "emb", "text": "text", "vector": [9.0, 9.0]}
        (tmp_path / "embeddings").mkdir()
        (tmp_path / "embeddings" / "ab.jsonl").write_text(json.dumps(legacy) + "\n")
        provider = HashEmbeddingProvider(8)
        client = Client(cache=ResponseCache(tmp_path), mocks={"hash": provider})
        profile = ModelProfile(name="emb", kind="embedding", base_url="mock://hash")
        assert client.embed_batch(profile, ["text"]) == provider.embed_batch(["text"])

    def test_reloaded_vectors_are_the_floats_put(self, tmp_path):
        tricky = [0.1, -0.0, 1 / 3, 5e-324, -1.7976931348623157e308, 1e-310]

        class Scripted:
            def embed_batch(self, texts):
                return [list(tricky) for _ in texts]

        profile = ModelProfile(name="e", kind="embedding", base_url="mock://scripted")
        with Client(cache=ResponseCache(tmp_path), mocks={"scripted": Scripted()}) as client:
            first = client.embed_batch(profile, ["a", "b", "a"])
        reloaded = Client(cache=ResponseCache(tmp_path)).embed_batch(profile, ["b", "a"])
        for vector in (*first, *reloaded):
            assert [x.hex() for x in vector] == [x.hex() for x in tricky]

    @pytest.mark.parametrize("vector", [["a", "b"], [True, 1]], ids=["strings", "bool"])
    def test_cached_vector_not_of_numbers_is_torn_and_asked_again(self, tmp_path, vector):
        provider = HashEmbeddingProvider(2)
        profile = ModelProfile(name="emb", kind="embedding", base_url="mock://hash")
        row = {"fingerprint": profile.request_fingerprint, "tag": "emb", "text": "text",
               "vector": vector}
        (tmp_path / "embeddings").mkdir()
        (tmp_path / "embeddings" / "seg-00000001.jsonl").write_text(json.dumps(row) + "\n")
        client = Client(cache=ResponseCache(tmp_path), mocks={"hash": provider})
        assert client.cache.torn_lines == 1
        assert client.embed_batch(profile, ["text"]) == provider.embed_batch(["text"])

    def test_deterministic_vectors(self):
        client, profile, provider = self.embed_client(8)
        one = client.embed_batch(profile, ["abc"])[0]
        two = provider.embed_batch(["abc"])[0]
        assert one == two
        assert len(one) == 8

    def test_declared_dimension_enforced(self):
        class WrongDim:
            def embed_batch(self, texts):
                return [[0.0, 1.0] for _ in texts]

        client = Client(mocks={"wd": WrongDim()})
        profile = ModelProfile(
            name="wd", kind="embedding", base_url="mock://wd", embedding_dim=3
        )
        with pytest.raises(ProtocolError, match="dimension"):
            client.embed_batch(profile, ["a"])

    @pytest.mark.parametrize(
        "vectors, needle",
        [([[0.0, 1.0]], "1 vectors for 2 texts"),
         ([[0.0, 1.0], [1.0]], r"mixed embedding dimensions in one batch: \[1, 2\]")],
        ids=["one-too-few", "mixed-lengths"],
    )
    def test_malformed_batch_is_a_protocol_error_and_caches_nothing(self, vectors, needle):
        class Scripted:
            def embed_batch(self, texts):
                return vectors

        client = Client(mocks={"scripted": Scripted()})
        profile = ModelProfile(name="scripted", kind="embedding", base_url="mock://scripted")
        with pytest.raises(ProtocolError, match=needle):
            client.embed_batch(profile, ["a", "b"])
        key = (profile.name, profile.request_fingerprint)
        assert client.cache.get_embedding(*key, "a") is None

    def test_chat_profile_refused(self):
        client, _, _ = self.embed_client()
        chat = ModelProfile(name="chat", base_url="mock://hash")
        with pytest.raises(GatewayError, match="not an embedding profile"):
            client.embed_batch(chat, ["a"])
        with pytest.raises(GatewayError, match="not an embedding profile"):
            GatewayEmbeddingProvider(client, chat)

    def test_gateway_provider_bridges_to_vectorspace(self):
        client, profile, provider = self.embed_client(8)
        bridge = GatewayEmbeddingProvider(client, profile)
        vectors = bridge.embed_batch(["alpha beta"])
        assert vectors == provider.embed_batch(["alpha beta"])


class TestRateLimiter:
    def test_second_immediate_call_waits(self):
        waits = []
        client = Client(mocks={"test": ConstantBackend("FR")}, sleeper=waits.append)
        profile = mock_profile(rate_limit_per_s=1000.0)
        client.start(profile, prompt_for("one")).finish()
        client.start(profile, prompt_for("two")).finish()
        assert any(w > 0 for w in waits)

    def test_no_limit_no_sleep(self):
        waits = []
        client = Client(mocks={"test": ConstantBackend("FR")}, sleeper=waits.append)
        profile = mock_profile()
        client.start(profile, prompt_for("one")).finish()
        client.start(profile, prompt_for("two")).finish()
        assert waits == []


class TestProfiles:
    def test_default_profiles_have_positive_windows(self):
        from shotsweep.gateway import DEFAULT_PROFILES

        assert len(DEFAULT_PROFILES) == 7
        for profile in DEFAULT_PROFILES.values():
            assert profile.context_window > 0
            assert profile.temperature == 0.0

    def test_bad_kind_rejected(self):
        with pytest.raises(GatewayError):
            ModelProfile(name="x", kind="video")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("context_window", 0), ("max_attempts", 0), ("max_attempts", "3"),
            ("max_attempts", True), ("max_attempts", 2.0), ("rate_limit_per_s", 0),
            ("rate_limit_per_s", -1.0), ("timeout_s", -1), ("timeout_s", 0),
            ("timeout_s", float("nan")), ("backoff_base_s", -1),
            ("context_window", float("nan")), ("context_window", True),
            ("context_window", 100.0), ("max_output_tokens", -5), ("max_output_tokens", 0),
            ("max_output_tokens", False), ("embedding_dim", "x"), ("embedding_dim", 0),
            ("temperature", "hot"), ("temperature", float("inf")), ("temperature", None),
            ("temperature", True), ("base_url", "ftp://x"), ("base_url", "localhost:8000"),
            ("base_url", "MOCK://echo-gold"), ("timeout_s", float("inf")),
            ("backoff_base_s", float("inf")),
        ],
    )
    def test_bad_number_rejected(self, field, value):
        with pytest.raises(GatewayError, match=field):
            ModelProfile(name="x", **{field: value})

    @pytest.mark.parametrize(
        "fields",
        [{"temperature": 1}, {"temperature": 0.7}, {"embedding_dim": None},
         {"embedding_dim": 3}, {"base_url": "HTTP://127.0.0.1:8000/v1"},
         {"base_url": "mock://echo-gold"}, {"context_window": 1, "max_output_tokens": 1}],
    )
    def test_sendable_values_accepted(self, fields):
        assert ModelProfile(name="x", **fields).request_fingerprint

    @pytest.mark.parametrize(
        "field", ["name", "kind", "base_url", "api_key_env"]
    )
    def test_non_string_field_rejected(self, field):
        with pytest.raises(GatewayError, match=f"{field} must be a string, got 5"):
            ModelProfile(**{"name": "x", field: 5})
