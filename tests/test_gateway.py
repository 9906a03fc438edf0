from __future__ import annotations

import dataclasses
import json
import random
import threading
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
from shotsweep.corpus import PROMISE_12, LabelDef, LabelScheme
from shotsweep.gateway import (
    ContextOverflowError,
    GatewayEmbeddingProvider,
    GatewayError,
    ProtocolError,
    TransportError,
    normalize_completion,
)


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


class FlakyHandler(BaseHTTPRequestHandler):
    fail_first = 2
    seen = 0
    payload: dict = {}

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length) or b"{}")
        type(self).payload = body
        type(self).seen += 1
        if type(self).seen <= type(self).fail_first:
            self.send_response(429)
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
    server = HTTPServer(("127.0.0.1", 0), FlakyHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1"
    server.shutdown()


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

    def test_http_embeddings(self, http_server):
        FlakyHandler.fail_first = 0
        client = Client(sleeper=lambda s: None)
        profile = ModelProfile(
            name="embedder", kind="embedding", base_url=http_server, backoff_base_s=0.0
        )
        vectors = client.embed_batch(profile, ["a", "b"])
        assert vectors == [[0.0, 1.0], [1.0, 1.0]]


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


class TestConcurrency:
    def test_parallel_completions_single_backend_call_per_prompt(self):
        from concurrent.futures import ThreadPoolExecutor

        backend = ConstantBackend("FR")
        client = Client(mocks={"test": backend})
        profile = mock_profile()
        prompts = [prompt_for(f"text {i % 5}") for i in range(50)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            records = list(pool.map(lambda p: client.complete(profile, p), prompts))
        assert len(records) == 50
        assert backend.calls == 5  # one upstream call per distinct prompt


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
