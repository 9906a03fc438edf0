from __future__ import annotations

import ast
import base64
import dataclasses
import gc
import json
import os
import random
import socket
import subprocess
import sys
import threading
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
from shotsweep.corpus import PROMISE_12, LabelDef, LabelScheme
from shotsweep.gateway import (
    CompletionRecord,
    ContextOverflowError,
    GatewayEmbeddingProvider,
    GatewayError,
    ProtocolError,
    TransportError,
    normalize_completion,
)

from conftest import REPO_ROOT
from loopback import TLS_CERT, ChatEndpoint, ForwardingProxy


def prompt_for(text="classify this", content_hash=None):
    return PromptSpec(
        system_message="You are a software requirements analyst.",
        user_message=f"Input: {text}\nCategory:",
        example_provenance=(),
        shot_count=0,
        template_version="analyst-v1",
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

    def test_spans_in_text_order(self):
        parsed = parse_label("Maybe Legal, maybe Operational.", PROMISE_12)
        starts = [start for _, start, _ in parsed.spans]
        assert starts == sorted(starts)

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
        first = client.complete(profile, prompt)
        second = client.complete(profile, prompt)
        assert backend.calls == 1
        assert first == second
        assert first.text == "FR"

    def test_distinct_hashes_distinct_entries(self):
        backend = ConstantBackend("FR")
        client = Client(mocks={"test": backend})
        profile = mock_profile()
        client.complete(profile, prompt_for("one"))
        client.complete(profile, prompt_for("two"))
        assert backend.calls == 2

    def test_cache_keyed_by_model_too(self):
        backend = ConstantBackend("FR")
        client = Client(mocks={"test": backend})
        prompt = prompt_for("one")
        client.complete(mock_profile(name="m1"), prompt)
        client.complete(mock_profile(name="m2"), prompt)
        assert backend.calls == 2

    def test_disk_cache_survives_reopen(self, tmp_path):
        backend = ConstantBackend("NFR")
        client = Client(cache=ResponseCache(tmp_path), mocks={"test": backend})
        profile = mock_profile()
        client.complete(profile, prompt_for("persisted"))
        reopened = Client(cache=ResponseCache(tmp_path), mocks={"test": backend})
        record = reopened.complete(profile, prompt_for("persisted"))
        assert record.text == "NFR"
        assert backend.calls == 1

    @pytest.mark.parametrize(
        "change",
        [{"temperature": 0.7}, {"max_output_tokens": 64}, {"base_url": "mock://other"}],
    )
    def test_changed_request_is_a_miss(self, change):
        backend = ConstantBackend("FR")
        client = Client(mocks={"test": backend, "other": backend})
        profile = mock_profile()
        client.complete(profile, prompt_for("one"))
        client.complete(dataclasses.replace(profile, **change), prompt_for("one"))
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
        assert client.complete(first, prompt_for()).text == "Functional"
        assert client.complete(second, prompt_for()).text == "Non-Functional"
        reopened = Client(cache=ResponseCache(tmp_path))
        assert reopened.complete(second, prompt_for()).text == "Non-Functional"

    def test_rows_without_fingerprint_are_misses(self, tmp_path):
        legacy = {
            "content_hash": "hash-one", "text": "stale", "latency_ms": 1.0,
            "attempts": 1, "model": "mock-model", "created_at": "2025-01-01T00:00:00",
        }
        (tmp_path / "completions").mkdir()
        (tmp_path / "completions" / "ha.jsonl").write_text(json.dumps(legacy) + "\n")
        backend = ConstantBackend("FR")
        client = Client(cache=ResponseCache(tmp_path), mocks={"test": backend})
        assert client.complete(mock_profile(), prompt_for("one")).text == "FR"
        assert backend.calls == 1

    def test_torn_final_line_counted_and_skipped(self, tmp_path):
        backend = ConstantBackend("NFR")
        client = Client(cache=ResponseCache(tmp_path), mocks={"test": backend})
        client.complete(mock_profile(), prompt_for("kept"))
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
        record = client.complete(mock_profile(backend="gold"), prompt_for())
        assert record.text == "Functional"

    def test_context_overflow_refused_locally(self):
        backend = ConstantBackend("FR")
        client = Client(mocks={"test": backend})
        profile = mock_profile(context_window=10)
        big = prompt_for("x" * 1000)
        with pytest.raises(ContextOverflowError):
            client.complete(profile, big)
        assert backend.calls == 0

    def test_unknown_mock_name(self):
        client = Client()
        with pytest.raises(GatewayError, match="no mock backend"):
            client.complete(mock_profile(backend="ghost"), prompt_for())

    def test_chat_profile_required(self):
        client = Client(mocks={"test": ConstantBackend("x")})
        profile = mock_profile(kind="embedding")
        with pytest.raises(GatewayError, match="not a chat profile"):
            client.complete(profile, prompt_for())


def cached_row(content_hash, text="FR"):
    return CompletionRecord(
        content_hash=content_hash, text=text, latency_ms=1.0, attempts=1,
        model="mock-model", created_at="2025-01-01T00:00:00", fingerprint="f" * 16,
    )


class TestCacheSegments:
    def test_row_put_after_a_torn_tail_is_served_on_reload(self, tmp_path):
        first = ResponseCache(tmp_path)
        first.put_completion(cached_row("ab" + "0" * 62, "kept"))
        del first  # its run is over
        (segment,) = (tmp_path / "completions").glob("*.jsonl")
        with segment.open("a", encoding="utf-8") as handle:
            handle.write('{"content_hash": "ab11", "te')  # a write torn mid-row
        resumed = ResponseCache(tmp_path)
        assert resumed.torn_lines == 1
        # same leading hash byte as the torn row, so a shard per byte would glue it on
        resumed.put_completion(cached_row("ab" + "2" * 62, "resumed"))
        del resumed
        reloaded = ResponseCache(tmp_path)
        assert reloaded.torn_lines == 1
        assert reloaded.get_completion("mock-model", "f" * 16, "ab" + "2" * 62).text == "resumed"
        assert reloaded.get_completion("mock-model", "f" * 16, "ab" + "0" * 62).text == "kept"

    def test_puts_go_to_one_segment_per_bucket(self, tmp_path):
        cache = ResponseCache(tmp_path)
        hashes = [f"{i:02x}" + "0" * 62 for i in range(40)]
        for content_hash in hashes:
            cache.put_completion(cached_row(content_hash))
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
            json.dumps(dataclasses.asdict(cached_row("9" * 64, "oldest"))) + "\n"
        )
        first, second = ResponseCache(tmp_path), ResponseCache(tmp_path)
        first.put_completion(cached_row("9" * 64, "first"))  # already held by ff.jsonl
        first.put_completion(cached_row("1" * 64, "first"))
        second.put_completion(cached_row("1" * 64, "second"))
        second.put_completion(cached_row("2" * 64, "second"))
        first.close()
        second.close()
        names = sorted(p.name for p in (tmp_path / "completions").glob("*.jsonl"))
        assert names == ["ff.jsonl", "seg-00000001.jsonl", "seg-00000002.jsonl"]
        reloaded = ResponseCache(tmp_path)
        texts = {h[0]: reloaded.get_completion("mock-model", "f" * 16, h).text
                 for h in ("9" * 64, "1" * 64, "2" * 64)}
        assert texts == {"9": "oldest", "1": "first", "2": "second"}

    def test_client_close_closes_the_segment(self, tmp_path):
        client = Client(cache=ResponseCache(tmp_path), mocks={"test": ConstantBackend("FR")})
        client.complete(mock_profile(), prompt_for("one"))
        client.close()
        client.complete(mock_profile(), prompt_for("two"))  # a closed segment stays closed
        client.close()
        assert len(list((tmp_path / "completions").glob("*.jsonl"))) == 2
        assert len(ResponseCache(tmp_path)) == 2

    def test_unclosed_cache_collected_without_a_resource_warning(self, tmp_path, monkeypatch):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            cache = ResponseCache(tmp_path)
            cache.put_completion(cached_row("0" * 64))
            del cache
            gc.collect()
        assert unraisable == []
        assert len(ResponseCache(tmp_path)) == 1


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


class TestHttpTransport:
    def test_retry_after_429_succeeds_with_attempt_count(self, http_server):
        client = Client(sleeper=lambda s: None)
        profile = ModelProfile(
            name="retry-model", base_url=http_server, backoff_base_s=0.0
        )
        record = client.complete(profile, prompt_for("retry me"))
        assert record.text == "FR"
        assert record.attempts == 3
        assert FlakyHandler.payload["temperature"] == 0.0

    def test_exhausted_retries_raise_transport_error(self, http_server):
        FlakyHandler.fail_first = 99
        client = Client(sleeper=lambda s: None)
        profile = ModelProfile(
            name="retry-model", base_url=http_server, max_attempts=3, backoff_base_s=0.0
        )
        with pytest.raises(TransportError, match="3 attempts") as err:
            client.complete(profile, prompt_for("never works"))
        assert len(err.value.attempts) == 3

    def test_unreachable_endpoint(self):
        client = Client(sleeper=lambda s: None)
        profile = ModelProfile(
            name="m", base_url="http://127.0.0.1:1/v1", max_attempts=2, backoff_base_s=0.0
        )
        with pytest.raises(TransportError):
            client.complete(profile, prompt_for())

    def test_unsupported_scheme_refused_without_retry(self):
        waits = []
        client = Client(sleeper=waits.append)
        profile = ModelProfile(name="m", base_url="ftp://127.0.0.1/v1")
        with pytest.raises(GatewayError, match="unsupported URL scheme") as err:
            client.complete(profile, prompt_for())
        assert not isinstance(err.value, TransportError)
        assert waits == []

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
            texts = [client.complete(profile, prompt_for(f"q{i}")).text for i in range(5)]
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
            assert client.complete(chat, prompt_for("q1")).text == "FR"
            assert client.embed_batch(embedder, ["a", "b"]) == [[0.0, 1.0], [1.0, 1.0]]
            assert client.complete(chat, prompt_for("q2")).text == "FR"
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
            records = [client.complete(profile, prompt_for(f"q{i}")) for i in range(4)]
        assert [r.attempts for r in records] == [1, 1, 1, 1]
        assert waits == []
        assert len(endpoint.targets) == 4
        assert endpoint.connections == 4

    def test_http_proxy_carries_requests(self, loopback, clean_proxy_env):
        endpoint = loopback(ChatEndpoint, reply="NFR")
        proxy = loopback(ForwardingProxy)
        clean_proxy_env.setenv("http_proxy", proxy.url.replace("//", "//user:p%40ss@"))
        profile = ModelProfile(name="m", base_url=endpoint.base_url)
        with Client() as client:
            assert client.complete(profile, prompt_for("via proxy")).text == "NFR"
        assert proxy.targets == [endpoint.base_url + "/chat/completions"]
        assert proxy.credentials == ["Basic " + base64.b64encode(b"user:p@ss").decode()]
        assert endpoint.targets == ["/v1/chat/completions"]

        clean_proxy_env.setenv("no_proxy", "127.0.0.1")
        with Client() as client:
            assert client.complete(profile, prompt_for("direct")).text == "NFR"
        assert len(proxy.targets) == 1
        assert len(endpoint.targets) == 2


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
            records = [client.complete(profile, prompt_for(f"q{i}")) for i in range(n)]
        return records, waits

    @pytest.mark.parametrize("framing", ["chunked", "continue", "100-headers"])
    def test_reply_decoded_and_connection_kept(self, loopback, framing):
        reply = "Non-Functional, judging by the wording of the requirement"
        endpoint = loopback(ChatEndpoint, reply=reply, framing=framing)
        records, _ = self.complete_all(endpoint)
        assert [r.text for r in records] == [reply] * 3
        assert endpoint.connections == 1

    @pytest.mark.parametrize("framing", ["close", "http10", "eof"])
    def test_reply_that_ends_the_connection_is_not_reused(self, loopback, client_writes, framing):
        endpoint = loopback(ChatEndpoint, framing=framing)
        records, waits = self.complete_all(endpoint)
        assert [(r.text, r.attempts) for r in records] == [("FR", 1)] * 3
        assert waits == []
        assert len(client_writes) == 3  # nothing was sent on a closed connection
        assert endpoint.connections == 3

    def test_short_body_is_a_transport_error_retried_as_an_attempt(self, loopback):
        endpoint = loopback(ChatEndpoint, framing=["short", "length"])
        (record,), waits = self.complete_all(endpoint, n=1, max_attempts=2)
        assert (record.text, record.attempts) == ("FR", 2)
        assert len(waits) == 1
        endpoint.framings = ["short"]
        with pytest.raises(TransportError) as err:
            self.complete_all(endpoint, n=1, max_attempts=1)
        assert "truncated" in err.value.attempts[0]

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
            client.complete(profile, prompt)
            monkeypatch.delenv("SHOTSWEEP_TEST_KEY")
            client.complete(profile, prompt_for("short"))
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
            texts = [client.complete(profile, prompt_for(f"q{i}")).text for i in range(3)]
        assert texts == ["NFR"] * 3
        assert endpoint.connections == 1

    def test_https_through_connect_tunnel(self, loopback, trusted_cert, clean_proxy_env):
        endpoint = loopback(ChatEndpoint, reply="NFR", tls=True)
        proxy = loopback(ForwardingProxy)
        clean_proxy_env.setenv("https_proxy", proxy.url.replace("//", "//user:p%40ss@"))
        profile = ModelProfile(name="m", base_url=endpoint.base_url)
        with Client() as client:
            texts = [client.complete(profile, prompt_for(f"q{i}")).text for i in range(2)]
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
            client.complete(profile, prompt_for())
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


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
@pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "user-set"])
def test_cli_import_starts_no_thread(preset):
    """Importing the CLI, numpy included, leaves the process on one thread:
    OpenBLAS gets one thread unless the caller set its own count first."""
    code = (
        "import os, sys, shotsweep.cli\n"
        "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'],"
        " 'concurrent.futures' in sys.modules)"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    threads, blas_threads, pool_loaded = result.stdout.split()
    assert blas_threads == (preset or "1")
    assert pool_loaded == "False"
    if preset is None:
        assert threads == "1"


def test_no_module_imports_threading():
    """A Client belongs to one thread, and shotsweep starts none. The stdlib
    always loads threading, so sys.modules cannot show this: read the source."""
    modules = sorted((REPO_ROOT / "src" / "shotsweep").glob("*.py"))
    imports = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imports += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imports.append((path.name, node.module))
    assert len(modules) > 5 and imports
    banned = [(name, module) for name, module in imports
              if module.split(".")[0] in ("threading", "concurrent")]
    assert banned == []


class TestEmbedBatch:
    def embed_client(self, dim=8):
        provider = HashEmbeddingProvider(dim)
        client = Client(mocks={"hash": provider})
        profile = ModelProfile(
            name="hash-embedder", kind="embedding", base_url="mock://hash",
            provider_tag=provider.provider_tag,
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
            provider_tag=provider.provider_tag,
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

    def test_deterministic_vectors(self):
        client, profile, provider = self.embed_client(8)
        one = client.embed_batch(profile, ["abc"])[0]
        two = provider.embed_batch(["abc"])[0]
        assert one == two
        assert len(one) == 8

    def test_declared_dimension_enforced(self):
        class WrongDim:
            provider_tag = "wd"

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
            provider_tag = "scripted"

            def embed_batch(self, texts):
                return vectors

        client = Client(mocks={"scripted": Scripted()})
        profile = ModelProfile(name="scripted", kind="embedding", base_url="mock://scripted")
        with pytest.raises(ProtocolError, match=needle):
            client.embed_batch(profile, ["a", "b"])
        key = (profile.provider_tag, profile.request_fingerprint)
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
        assert bridge.dim == 8
        assert vectors == provider.embed_batch(["alpha beta"])


class TestRateLimiter:
    def test_second_immediate_call_waits(self):
        waits = []
        client = Client(mocks={"test": ConstantBackend("FR")}, sleeper=waits.append)
        profile = mock_profile(rate_limit_per_s=1000.0)
        client.complete(profile, prompt_for("one"))
        client.complete(profile, prompt_for("two"))
        assert any(w > 0 for w in waits)

    def test_no_limit_no_sleep(self):
        waits = []
        client = Client(mocks={"test": ConstantBackend("FR")}, sleeper=waits.append)
        profile = mock_profile()
        client.complete(profile, prompt_for("one"))
        client.complete(profile, prompt_for("two"))
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
        ],
    )
    def test_bad_number_rejected(self, field, value):
        with pytest.raises(GatewayError, match=field):
            ModelProfile(name="x", **{field: value})

    @pytest.mark.parametrize(
        "field", ["name", "kind", "base_url", "provider_tag", "api_key_env"]
    )
    def test_non_string_field_rejected(self, field):
        with pytest.raises(GatewayError, match=f"{field} must be a string, got 5"):
            ModelProfile(**{"name": "x", field: 5})
