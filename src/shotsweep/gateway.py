"""Dispatch prompts to chat/embedding endpoints and cache responses."""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import math
import os
import random
import re
import sys
import time
import urllib.parse
import weakref
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path
from typing import IO, Callable, Sequence

from .promptkit import PromptSpec, estimate_tokens


class GatewayError(Exception):
    pass


class TransportError(GatewayError):
    """Upstream unreachable or persistently throttled after bounded retries."""

    def __init__(self, message: str, attempts: list[str] | None = None):
        super().__init__(message)
        self.attempts = attempts or []


class ProtocolError(GatewayError):
    """Endpoint answered, but not with a usable response body."""


class ContextOverflowError(GatewayError):
    """Prompt estimate exceeds the model's context window; refused locally."""


@dataclass(frozen=True)
class ModelProfile:
    name: str
    kind: str = "chat"  # "chat" | "embedding"
    base_url: str = "https://api.openai.com/v1"
    context_window: int = 131072
    temperature: float = 0.0
    max_output_tokens: int = 16
    rate_limit_per_s: float | None = None
    embedding_dim: int | None = None
    max_attempts: int = 4
    backoff_base_s: float = 0.5
    timeout_s: float = 60.0
    api_key_env: str = "OPENAI_API_KEY"

    def __post_init__(self) -> None:
        for field in ("name", "kind", "base_url", "api_key_env"):
            if not isinstance(value := getattr(self, field), str):
                raise GatewayError(f"{field} must be a string, got {value!r}")
        if self.kind not in ("chat", "embedding"):
            raise GatewayError(f"unknown endpoint kind {self.kind!r}")
        scheme = self.base_url.partition("://")[0].lower()
        if scheme not in ("http", "https") and mock_name(self.base_url) is None:
            raise GatewayError(f"base_url must be http(s):// or mock://, got {self.base_url!r}")
        for field in ("context_window", "max_output_tokens", "max_attempts", "embedding_dim"):
            n = getattr(self, field)  # type() refuses a bool, and a float such as NaN
            if not (type(n) is int and n > 0) and (field, n) != ("embedding_dim", None):
                raise GatewayError(f"{field} must be a positive int, got {n!r}")
        if type(self.temperature) not in (int, float) or not math.isfinite(self.temperature):
            raise GatewayError(f"temperature must be a finite number, got {self.temperature!r}")
        if self.rate_limit_per_s is not None and not self.rate_limit_per_s > 0:
            raise GatewayError("rate_limit_per_s must be null or above 0")
        if not 0 < self.timeout_s < math.inf:  # a socket or a sleep refuses inf
            raise GatewayError("timeout_s must be finite and above 0")
        if not 0 <= self.backoff_base_s < math.inf:
            raise GatewayError("backoff_base_s must be finite and at least 0")

    @functools.cached_property
    def request_fingerprint(self) -> str:
        """Digest of the request fields besides the prompt that shape an answer."""
        fields = {
            "kind": self.kind,
            "base_url": self.base_url,
            "temperature": self.temperature,
            "max_output_tokens": self.max_output_tokens,
        }
        digest = hashlib.sha256(json.dumps(fields, sort_keys=True).encode("utf-8"))
        return digest.hexdigest()[:16]


def mock_name(base_url: str) -> str | None:
    """The backend name of a mock://<name> base URL; None for any other URL."""
    if not base_url.startswith("mock://"):
        return None
    return base_url[len("mock://") :].strip("/")


# Context windows of the models this harness is typically pointed at.
DEFAULT_PROFILES: dict[str, ModelProfile] = {
    p.name: p
    for p in (
        ModelProfile(name="gpt-4o", context_window=131072),
        ModelProfile(name="gpt-3.5-turbo", context_window=16384),
        ModelProfile(name="deepseek-v3", context_window=131072),
        ModelProfile(name="gemma-3-4b", context_window=131072),
        ModelProfile(name="mistral-7b-instruct", context_window=32768),
        ModelProfile(name="llama-3.1-8b-instruct", context_window=131072),
        ModelProfile(name="llama-3.2-3b-instruct", context_window=131072),
    )
}


# The fields of a completions row, each one required
_COMPLETION_FIELDS = frozenset(
    ("attempts", "content_hash", "created_at", "fingerprint", "latency_ms", "model", "text")
)


_SEGMENT_NAME = re.compile(r"seg-(\d+)\.jsonl")


def _new_segment(bucket: Path) -> IO[str]:
    """Create the bucket's next segment, numbered after every one there, so
    sorted names follow write order (and follow older hex-named shards)."""
    bucket.mkdir(parents=True, exist_ok=True)
    numbers = (_SEGMENT_NAME.fullmatch(path.name) for path in bucket.iterdir())
    number = max((int(m.group(1)) for m in numbers if m), default=0) + 1
    while True:
        try:
            return (bucket / f"seg-{number:08d}.jsonl").open("x", encoding="utf-8")
        except FileExistsError:  # another cache created it first
            number += 1


def _close_segments(segments: dict[str, IO[str]]) -> None:
    for handle in segments.values():
        handle.close()
    segments.clear()


class ResponseCache:
    """Append-only response store; in-memory index over JSONL segment files.

    Completions are keyed by (model, request fingerprint, content_hash), so
    another endpoint, temperature or output limit is a miss; rows written
    without a fingerprint are never served. Embeddings are keyed the same
    way, by (profile name, request fingerprint, text). With no directory the
    cache is memory-only. The index holds answers, not rows: one dict per
    (model, fingerprint) from content hash to the answer text, interned so a
    cache of thousands of rows holds one string per distinct answer, and one
    dict per (profile name, fingerprint) from text to its vector as an
    array of doubles.
    Loading reads every segment of a bucket in name order and the first row
    for a key wins; torn_lines counts the lines skipped as unreadable (torn
    writes, rows this version cannot read), and torn_segments lists the
    segments that hold them. Segments are never appended to once closed: each
    cache writes its rows to one new segment per bucket, made (with its bucket
    directory) on its first write and flushed row by row, so a resumed run
    never glues a row onto a torn line. close() closes the open segments (a
    later write starts another); a cache collected unclosed closes them too.
    """

    def __init__(self, directory: str | Path | None = None):
        self._dir = Path(directory) if directory is not None else None
        self._completions: dict[tuple[str, str], dict[str, str]] = {}
        self._embeddings: dict[tuple[str, str], dict[str, array]] = {}
        self._segments: dict[str, IO[str]] = {}  # bucket -> this cache's segment
        weakref.finalize(self, _close_segments, self._segments)
        self.torn_lines = 0
        self.torn_segments: list[Path] = []  # the segments holding torn lines
        if self._dir is not None:
            self._load_bucket("completions", self._add_completion)
            self._load_bucket("embeddings", self._add_embedding)

    def _load_bucket(self, bucket: str, add: Callable[[dict], None]) -> None:
        """Pass each row of a bucket's segments to add, in name order, a line at
        a time (one segment can hold a whole run). A line that is not JSON, or a
        row add cannot take (not an object, a field missing or unknown, a vector
        that is not a list of numbers), is torn, and so is a line that is not
        UTF-8: it is decoded strictly, line by line."""
        assert self._dir is not None
        for segment in sorted((self._dir / bucket).glob("*.jsonl")):
            with segment.open("rb") as handle:
                for line in handle:
                    try:
                        add(json.loads(line.decode("utf-8")))
                    except (AttributeError, KeyError, TypeError, ValueError, OverflowError):
                        self.torn_lines += 1
                        if segment not in self.torn_segments:
                            self.torn_segments.append(segment)

    def _add_completion(self, row: dict) -> None:
        if row.get("fingerprint") is None:
            return
        if row.keys() != _COMPLETION_FIELDS:
            raise KeyError(f"a completions row has the fields {sorted(row)}")
        model, fingerprint = sys.intern(row["model"]), sys.intern(row["fingerprint"])
        answers = self._completions.setdefault((model, fingerprint), {})
        answers.setdefault(row["content_hash"], sys.intern(row["text"]))

    def _add_embedding(self, row: dict) -> None:
        if row.get("fingerprint") is None:
            return
        if not _is_numbers(vector := row["vector"]):
            raise TypeError("a cached embedding is not a list of numbers")
        vectors = self._embeddings.setdefault((row["tag"], sys.intern(row["fingerprint"])), {})
        vectors.setdefault(row["text"], array("d", vector))

    def _append(self, bucket: str, payload: dict) -> None:
        if self._dir is None:
            return
        handle = self._segments.get(bucket)
        if handle is None:
            handle = self._segments[bucket] = _new_segment(self._dir / bucket)
        handle.write(json.dumps(payload, sort_keys=True) + "\n")
        handle.flush()

    def close(self) -> None:
        """Close this cache's open segments."""
        _close_segments(self._segments)

    def get_completion(self, model: str, fingerprint: str, content_hash: str) -> str | None:
        """The cached answer text, or None on a miss."""
        return self._completions.get((model, fingerprint), {}).get(content_hash)

    def put_completion(self, model: str, fingerprint: str, content_hash: str, text: str,
                       latency_ms: float, attempts: int) -> None:
        """Hold text as the answer for the key, unless it has one, and write its row."""
        answers = self._completions.setdefault((model, fingerprint), {})
        if content_hash in answers:
            return
        answers[content_hash] = sys.intern(text)
        self._append("completions", {
            "attempts": attempts, "content_hash": content_hash,
            "created_at": datetime.now(timezone.utc).isoformat(), "fingerprint": fingerprint,
            "latency_ms": latency_ms, "model": model, "text": text,
        })

    def get_embedding(self, tag: str, fingerprint: str, text: str) -> array | None:
        return self._embeddings.get((tag, fingerprint), {}).get(text)

    def put_embedding(
        self, tag: str, fingerprint: str, text: str, vector: Sequence[float]
    ) -> None:
        vectors = self._embeddings.setdefault((tag, fingerprint), {})
        if text in vectors:
            return
        vectors[text] = array("d", vector)
        self._append("embeddings", {"fingerprint": fingerprint, "tag": tag, "text": text,
                                    "vector": list(vector)})

    def __len__(self) -> int:
        return sum(map(len, (*self._completions.values(), *self._embeddings.values())))


class CallableBackend:
    """Adapter for arbitrary deterministic response rules (tests, schedules)."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def respond(self, profile: ModelProfile, prompt: PromptSpec) -> str:
        self.calls += 1
        return self.fn(profile, prompt)


class EchoGoldBackend(CallableBackend):
    """Answers with the gold label wired in for each query text."""

    def __init__(self, gold_by_text: dict[str, str]):
        gold = dict(gold_by_text)

        def echo(profile: ModelProfile, prompt: PromptSpec) -> str:
            try:
                return gold[prompt.query_text]
            except KeyError:
                raise GatewayError(
                    f"echo-gold backend has no gold label for {prompt.query_text[:60]!r}"
                ) from None

        super().__init__(echo)


class ConstantBackend(CallableBackend):
    """Always answers with the same text."""

    def __init__(self, text: str):
        super().__init__(lambda profile, prompt: text)


_MAX_LINE, _MAX_HEADERS = 65536, 100  # bytes per reply line, headers per reply: as http.client
_STATUS_LINE = re.compile(rb"(HTTP/\S+) +([0-9]{3})(?: .*)?\r?\n?")


@dataclass(frozen=True)
class _Route:
    """How requests to one (scheme, host) travel: directly or through a proxy."""

    tls: bool  # the socket is wrapped in TLS (after CONNECT, for a tunnel)
    address: str  # host[:port] the socket connects to
    tunnel: str | None = None  # origin host[:port] of a CONNECT tunnel (https)
    absolute_target: bool = False  # http through a proxy names the whole URL
    proxy_headers: tuple[tuple[str, str], ...] = ()


def _resolve_route(scheme: str, netloc: str) -> _Route:
    """Route by http(s)_proxy and no_proxy, as urllib would."""
    if scheme not in ("http", "https"):
        raise GatewayError(f"unsupported URL scheme {scheme!r} in {scheme}://{netloc}")
    # Off macOS and Windows, urllib reads proxies from the environment alone and
    # takes a scheme only from a non-empty <scheme>_proxy in any letter case.
    variable = f"{scheme}_proxy"
    if sys.platform != "darwin" and os.name != "nt" and not any(
        value and name.lower() == variable for name, value in os.environ.items()
    ):
        return _Route(tls=scheme == "https", address=netloc)
    import urllib.request  # for its proxy tables only (also reads macOS and Windows settings)
    # getproxies() also holds a "no" entry, so look the scheme up; never test
    # the dict itself for being empty.
    proxy = urllib.request.getproxies().get(scheme)
    if not proxy or urllib.request.proxy_bypass(netloc):
        return _Route(tls=scheme == "https", address=netloc)
    parts = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    headers: tuple[tuple[str, str], ...] = ()
    if parts.username is not None:
        user = urllib.parse.unquote(parts.username)
        password = urllib.parse.unquote(parts.password or "")
        token = base64.b64encode(f"{user}:{password}".encode("utf-8")).decode("ascii")
        headers = (("Proxy-Authorization", f"Basic {token}"),)
    address = parts.netloc.rpartition("@")[2]
    if scheme == "https":
        return _Route(tls=True, address=address, tunnel=netloc, proxy_headers=headers)
    return _Route(
        tls=parts.scheme == "https", address=address, absolute_target=True,
        proxy_headers=headers,
    )


def _line(rfile: IO[bytes]) -> bytes:
    line = rfile.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise ValueError(f"reply line longer than {_MAX_LINE} bytes")
    return line


def _exact(rfile: IO[bytes], size: int) -> bytes:
    data = rfile.read(size) if size >= 0 else b""
    if len(data) != size:
        raise ValueError(f"reply body truncated: {len(data)} of {size} bytes")
    return data


def _read_head(rfile: IO[bytes]) -> tuple[bytes, int, dict[bytes, bytes]]:
    """HTTP version, status and lowercased headers of the next reply past any 1xx."""
    while True:
        line = _line(rfile)
        if not line:
            raise ConnectionResetError("connection closed before a status line")
        if (status := _STATUS_LINE.fullmatch(line)) is None:
            raise ValueError(f"malformed status line {line[:80]!r}")
        # header lines up to a blank line, or to EOF as http.client reads them
        lines = list(islice(iter(lambda: _line(rfile).rstrip(b"\r\n"), b""), _MAX_HEADERS + 1))
        if len(lines) > _MAX_HEADERS:
            raise ValueError(f"more than {_MAX_HEADERS} reply headers")
        if not status[2].startswith(b"1"):
            pairs = (line.partition(b":") for line in lines)
            return status[1], int(status[2]), {n.strip().lower(): v.strip() for n, _, v in pairs}


def _read_reply(rfile: IO[bytes]) -> tuple[int, bytes, bool]:
    """(status, body, whether the connection can carry another request)."""
    version, status, headers = _read_head(rfile)
    keep_alive = version == b"HTTP/1.1" and b"close" not in headers.get(b"connection", b"").lower()
    if status in (204, 304):
        return status, b"", keep_alive
    if headers.get(b"transfer-encoding", b"").lower() == b"chunked":
        chunks = []
        while size := int(_line(rfile).split(b";")[0], 16):
            chunks.append(_exact(rfile, size))
            _line(rfile)  # the CRLF that ends the chunk
        while _line(rfile) not in (b"\r\n", b"\n", b""):  # trailer fields
            pass
        return status, b"".join(chunks), keep_alive
    if b"content-length" in headers:
        return status, _exact(rfile, int(headers[b"content-length"])), keep_alive
    return status, rfile.read(), False  # the body ends where the connection does


class _Connection:
    """A pooled socket and a buffered reader over it."""

    def __init__(self, sock):
        self.sock, self.rfile = sock, sock.makefile("rb")

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def _connect(route: _Route, timeout: float) -> _Connection:
    """A socket to route.address, through a CONNECT tunnel and TLS if the route says."""
    import socket
    address = urllib.parse.urlsplit(f"//{route.address}")
    origin = urllib.parse.urlsplit(f"//{route.tunnel or route.address}")  # the TLS peer
    port = address.port or (443 if route.tls else 80)
    sock = socket.create_connection((address.hostname, port), timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # as http.client does
        if route.tunnel is not None:
            authority = route.tunnel if origin.port else f"{route.tunnel}:443"
            fields = "".join(f"{name}: {value}\r\n" for name, value in route.proxy_headers)
            sock.sendall(f"CONNECT {authority} HTTP/1.1\r\nHost: {authority}\r\n{fields}\r\n"
                         .encode("latin-1"))
            with sock.makefile("rb") as rfile:  # nothing follows a 200 until TLS starts
                _, status, _ = _read_head(rfile)
            if status != 200:
                raise OSError(f"proxy refused the tunnel to {authority}: HTTP {status}")
        if route.tls:
            import ssl
            sock = ssl.create_default_context().wrap_socket(sock, server_hostname=origin.hostname)
    except BaseException:
        sock.close()
        raise
    return _Connection(sock)


def _write(conn: _Connection, request: bytes, timeout: float) -> _Connection:
    """Send request on conn in one write; conn is closed if that fails."""
    try:
        if conn.sock.gettimeout() != timeout:  # settimeout releases the GIL
            conn.sock.settimeout(timeout)
        conn.sock.sendall(request)
    except BaseException:
        conn.close()
        raise
    return conn


@dataclass
class _Sent:
    """A request written to a checked-out connection, its reply not yet read."""

    key: tuple[str, str]  # (scheme, host) of the URL
    route: _Route
    request: bytes
    timeout: float
    conn: _Connection | None  # None once read, or if a reused one failed the write
    reused: bool


class _ConnectionPool:
    """Idle HTTP/1.1 connections per (scheme, host), reused request after request.

    send() checks a connection out and writes a request on it; receive()
    reads the reply and checks the connection back in. A connection is only
    made when none is idle, so no more are open than requests were in
    flight at once. Routes (proxy or direct) are resolved once per (scheme,
    host). A request is one write; a connection its reply ends is closed
    instead, and so is one whose reply is never read (discard()).
    """

    def __init__(self) -> None:
        self._idle: dict[tuple[str, str], list[_Connection]] = {}
        self._routes: dict[tuple[str, str], _Route] = {}

    def send(self, url: str, body: bytes, headers: dict[str, str], timeout: float) -> _Sent:
        """POST body to url; receive() reads the reply. Raises OSError."""
        parts = urllib.parse.urlsplit(url)
        key = (parts.scheme, parts.netloc)
        route = self._routes.get(key)
        if route is None:
            route = self._routes[key] = _resolve_route(*key)
        idle = self._idle.get(key)
        conn = idle.pop() if idle else None
        if route.absolute_target:
            target = url
            headers = {**headers, **dict(route.proxy_headers)}
        else:
            target = urllib.parse.urlunsplit(("", "", parts.path or "/", parts.query, ""))
        fields = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
        request = (
            f"POST {target} HTTP/1.1\r\nHost: {parts.netloc}\r\n"
            f"Accept-Encoding: identity\r\n{fields}Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1") + body
        if conn is None:
            conn = _write(_connect(route, timeout), request, timeout)
            return _Sent(key, route, request, timeout, conn, reused=False)
        try:
            _write(conn, request, timeout)
        except (ConnectionResetError, BrokenPipeError):
            conn = None  # closed by _write; receive() sends afresh
        return _Sent(key, route, request, timeout, conn, reused=True)

    def receive(self, sent: _Sent) -> tuple[int, bytes]:
        """The reply to sent: (status, body). OSError, or ValueError for a bad reply."""
        conn, sent.conn = sent.conn, None
        if conn is not None:
            try:
                return self._read(sent.key, conn)
            except (ConnectionResetError, BrokenPipeError):
                if not sent.reused:
                    raise
        # A reused connection the server has since closed fails before any
        # status line; that is no answer, so send once more afresh.
        conn = _write(_connect(sent.route, sent.timeout), sent.request, sent.timeout)
        return self._read(sent.key, conn)

    def discard(self, sent: _Sent) -> None:
        """Close sent's connection if its reply has not been read."""
        if sent.conn is not None:
            sent.conn.close()
            sent.conn = None

    def _read(self, key: tuple[str, str], conn: _Connection) -> tuple[int, bytes]:
        keep_alive = False
        try:
            status, body, keep_alive = _read_reply(conn.rfile)
            return status, body
        finally:
            if keep_alive:
                self._idle.setdefault(key, []).append(conn)
            else:
                conn.close()

    def close(self) -> None:
        idle, self._idle = self._idle, {}
        for conns in idle.values():
            for conn in conns:
                conn.close()


def _content(response) -> str:
    """The answer of a chat reply."""
    content = response["choices"][0]["message"]["content"]
    if not isinstance(content, str):  # null on a refusal or a content filter
        raise TypeError(f"content {content!r} is not a string")
    return content


def _is_numbers(vector) -> bool:
    """Whether a decoded JSON value is a list of finite numbers (a bool is not
    one); an int past the float range raises OverflowError."""
    return type(vector) is list and {*map(type, vector)} <= {int, float} and all(
        map(math.isfinite, vector))


def _vectors(response) -> list[list[float]]:
    """The vectors of an embeddings reply, in input order."""
    vectors = [row["embedding"] for row in sorted(response["data"], key=lambda r: r["index"])]
    if not all(map(_is_numbers, vectors)):
        raise TypeError("an embedding is not a list of numbers")
    return [list(map(float, vector)) for vector in vectors]


def _refuse_constant(name: str) -> None:
    raise ValueError(f"{name} is not JSON")


# Each endpoint kind's path, its name in error messages, and the pick of its answer
_ENDPOINTS = {
    "chat": ("/chat/completions", "chat", _content),
    "embedding": ("/embeddings", "embeddings", _vectors),
}


class PendingCompletion:
    """A completion from Client.start, or a batch of uncached texts from
    Client.embed_batch: a cache hit, a refused prompt, or a request in flight,
    tried up to profile.max_attempts times on the calling thread.

    On a cache miss, request() gives the send and read steps of an attempt.
    Each attempt waits for the profile's rate limit; send() starts it and
    read(handle) takes its answer. A GatewayError met on the way is kept.
    read() takes the answer in flight; result() reads it too, retries a
    TransportError after a backoff, and returns the answer or raises the
    GatewayError (any other exception propagates at once). finish() is a
    completion's answer text: the cached one on a hit, else result(), which
    it caches with its latency and attempt count. close() closes the
    connection of a reply never read.
    """

    def __init__(self, client: "Client", profile: ModelProfile, request,
                 prompt: PromptSpec | None = None):
        self._client, self._profile, self._prompt = client, profile, prompt
        self.attempt = 0
        self.latency_ms = 0.0  # from the answered attempt's send to the read of its answer
        self._failures: list[str] = []
        self._text: str | None = None
        self._handle = self._value = self._error = None
        self._unread = False
        try:
            if prompt is not None:
                self._text = client.lookup(profile, prompt)
            if self._text is None:
                self._send, self._read = request()
                self._start()
        except GatewayError as exc:
            self._error = exc

    def _start(self) -> None:
        self.attempt += 1
        self._client._wait_turn(self._profile)
        self._handle = self._value = self._error = None
        self._unread = True
        self._sent_at = time.monotonic()
        try:
            self._handle = self._send()
        except GatewayError as exc:
            self._error, self._unread = exc, False

    def read(self) -> None:
        """Take the answer of the attempt in flight, if not taken yet."""
        if not self._unread:
            return
        self._unread = False
        handle, self._handle = self._handle, None
        try:
            self._value = self._read(handle)
        except GatewayError as exc:
            self._error = exc
        self.latency_ms = (time.monotonic() - self._sent_at) * 1000.0

    @property
    def failed(self) -> bool:
        """After read(): whether result() retries or raises (a refused prompt,
        or a failed attempt)."""
        return self._error is not None

    def result(self) -> object:
        self.read()
        while isinstance(self._error, TransportError):
            self._failures.append(f"attempt {self.attempt}: {self._error}")
            if self.attempt == self._profile.max_attempts:
                raise TransportError(
                    f"{self._profile.name}: gave up after {self.attempt} attempts; "
                    f"last: {self._error}",
                    self._failures,
                ) from self._error
            delay = self._profile.backoff_base_s * (2 ** (self.attempt - 1))
            self._client.sleeper(delay * (1.0 + random.random() * 0.25))
            self._start()
            self.read()
        if self._error is not None:
            raise self._error
        return self._value

    def finish(self) -> str:
        if self._text is None:
            self._text = sys.intern(str(self.result()))
            self._client.cache.put_completion(
                self._profile.name, self._profile.request_fingerprint,
                self._prompt.content_hash, self._text, self.latency_ms, self.attempt,
            )
        return self._text

    def close(self) -> None:
        if isinstance(self._handle, _Sent):
            self._client._pool.discard(self._handle)


@dataclass
class Client:
    """Single entry point for completions and embeddings.

    base_url schemes: http(s):// goes over the wire with bounded retries,
    on HTTP/1.1 connections kept open between requests until close();
    mock://<name> resolves a registered in-process backend (still cached, so
    cache-contract tests count real backend calls).

    start() sends a completion's request and returns at once, so one thread
    can have a request in flight to each of several models. Retries, their
    backoff and the rate limit all run on the calling thread. A Client
    belongs to one thread: nothing in it is locked, so a caller that wants
    clients in parallel opens one Client per thread.
    """

    cache: ResponseCache = field(default_factory=ResponseCache)
    mocks: dict[str, object] = field(default_factory=dict)
    sleeper: object = time.sleep
    _next_send_at: dict[str, float] = field(default_factory=dict)  # by profile name
    _pool: _ConnectionPool = field(default_factory=_ConnectionPool)

    def register_mock(self, name: str, backend: object) -> None:
        self.mocks[name] = backend

    def close(self) -> None:
        """Close the idle HTTP connections and the cache's open segments; a
        later request opens new ones."""
        self._pool.close()
        self.cache.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _wait_turn(self, profile: ModelProfile) -> None:
        """Sleep until a rate-limited profile may send. Its sends are spaced
        1/rate_limit_per_s apart in absolute time, so two limited models
        wait the longer of their waits, not the sum."""
        if profile.rate_limit_per_s is None:
            return
        now = time.monotonic()
        next_at = self._next_send_at.get(profile.name, 0.0)
        self._next_send_at[profile.name] = max(now, next_at) + 1.0 / profile.rate_limit_per_s
        if next_at > now:
            self.sleeper(next_at - now)

    def _request(self, profile: ModelProfile, payload: dict, ask_mock):
        """The send and read steps of one attempt at profile's endpoint. A
        mock:// backend is asked by ask_mock(backend) when read. An HTTP endpoint
        is sent payload as JSON encoded once (a retry resends the same bytes), and
        read gives the answer its kind's pick finds in a reply, or a GatewayError."""
        name = mock_name(profile.base_url)
        if name is not None:
            if name not in self.mocks:
                raise GatewayError(f"no mock backend registered as {name!r}")
            backend = self.mocks[name]
            return (lambda: None), (lambda _: ask_mock(backend))
        path, kind, pick = _ENDPOINTS[profile.kind]
        url = profile.base_url.rstrip("/") + path
        body = json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json", "User-Agent": "shotsweep"}
        if api_key := os.environ.get(profile.api_key_env):
            headers["Authorization"] = f"Bearer {api_key}"

        def send() -> _Sent:
            try:
                return self._pool.send(url, body, headers, profile.timeout_s)
            except OSError as exc:
                raise TransportError(f"{url} unreachable: {exc}") from exc

        def read(sent: _Sent):
            try:
                status, raw = self._pool.receive(sent)
            except (OSError, ValueError) as exc:  # ValueError: a malformed or truncated reply
                raise TransportError(f"{url} unreachable: {exc}") from exc
            if status == 429 or status >= 500:
                raise TransportError(f"HTTP {status} from {url}")
            if not 200 <= status < 300:
                raise ProtocolError(f"HTTP {status} from {url}: {raw[:200]!r}")
            try:
                response = json.loads(raw, parse_constant=_refuse_constant)
            except (ValueError, RecursionError) as exc:  # not JSON (NaN too), not UTF-8, too deep
                raise ProtocolError(f"non-JSON response from {url}: {raw[:200]!r}") from exc
            try:
                return pick(response)
            except (KeyError, IndexError, TypeError, OverflowError) as exc:
                raise ProtocolError(f"malformed {kind} response: {raw[:200]!r}") from exc

        return send, read

    def lookup(self, profile: ModelProfile, prompt: PromptSpec) -> str | None:
        """The cached answer text start() would finish with, or None on a miss.

        Refuses what finish() refuses, without calling any backend.
        """
        if profile.kind != "chat":
            raise GatewayError(f"profile {profile.name} is not a chat profile")
        estimate = estimate_tokens(prompt)
        if estimate >= profile.context_window:
            raise ContextOverflowError(
                f"prompt estimate {estimate} tokens >= {profile.name} window "
                f"{profile.context_window}"
            )
        return self.cache.get_completion(
            profile.name, profile.request_fingerprint, prompt.content_hash
        )

    def start(self, profile: ModelProfile, prompt: PromptSpec) -> PendingCompletion:
        """Begin prompt's completion and return before its reply is read.

        A cache hit sends nothing. A miss waits for the profile's rate
        limit and sends its request (a mock's is answered when read). A
        GatewayError, such as a refused prompt, is raised by finish().
        """
        return PendingCompletion(
            self, profile, lambda: self._chat_request(profile, prompt), prompt
        )

    def _chat_request(self, profile: ModelProfile, prompt: PromptSpec):
        payload = {
            "model": profile.name,
            "messages": [
                {"role": "system", "content": prompt.system_message},
                {"role": "user", "content": prompt.user_message},
            ],
            "temperature": profile.temperature,
            "max_tokens": profile.max_output_tokens,
        }
        return self._request(profile, payload, lambda backend: backend.respond(profile, prompt))

    def embed_batch(self, profile: ModelProfile, texts: Sequence[str]) -> list[list[float]]:
        if profile.kind != "embedding":
            raise GatewayError(f"profile {profile.name} is not an embedding profile")
        key = (profile.name, profile.request_fingerprint)
        missing = [
            text
            for text in dict.fromkeys(texts)
            if self.cache.get_embedding(*key, text) is None
        ]
        if missing:
            payload = {"model": profile.name, "input": missing}
            vectors = PendingCompletion(self, profile, lambda: self._request(
                profile, payload, lambda backend: backend.embed_batch(missing)
            )).result()
            if len(vectors) != len(missing):
                raise ProtocolError(
                    f"{profile.name}: {len(vectors)} vectors for {len(missing)} texts"
                )
            dims = {len(v) for v in vectors}
            if len(dims) > 1:
                raise ProtocolError(
                    f"{profile.name}: mixed embedding dimensions in one batch: {sorted(dims)}"
                )
            if profile.embedding_dim is not None and dims != {profile.embedding_dim}:
                raise ProtocolError(
                    f"{profile.name}: got dimension {dims.pop()}, "
                    f"expected {profile.embedding_dim}"
                )
            for text, vector in zip(missing, vectors):
                self.cache.put_embedding(*key, text, vector)
        return [self.cache.get_embedding(*key, text).tolist() for text in texts]


class GatewayEmbeddingProvider:
    """vectorspace-compatible provider backed by a gateway embedding profile."""

    def __init__(self, client: Client, profile: ModelProfile):
        if profile.kind != "embedding":
            raise GatewayError(f"profile {profile.name} is not an embedding profile")
        self.client = client
        self.profile = profile
        self.dim = profile.embedding_dim or 0

    def embed_batch(self, texts: Sequence[str]) -> list[list[float]]:
        vectors = self.client.embed_batch(self.profile, texts)
        if vectors and not self.dim:
            self.dim = len(vectors[0])
        return vectors
