"""Loopback HTTP/1.1 servers for transport tests: a chat (and embeddings)
endpoint that counts the connections and requests it serves and can frame
its replies in several ways (and serve them over TLS), a forwarding
proxy that also tunnels CONNECT requests, and a listener that closes every
connection before any reply."""

from __future__ import annotations

import http.client
import json
import select
import socket
import ssl
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

# A self-signed certificate for localhost and 127.0.0.1, and its key.
TLS_CERT = Path(__file__).with_name("localhost-cert.pem")
TLS_KEY = Path(__file__).with_name("localhost-key.pem")


def _head(status_line: str, *fields: str) -> bytes:
    return "\r\n".join((status_line, *fields, "", "")).encode("latin-1")


# How ChatEndpoint frames a 200 reply of `raw`: (bytes to send, whether the
# server closes the connection after them).
FRAMINGS = {
    # Content-Length and keep-alive, sent through BaseHTTPRequestHandler
    "length": None,
    "chunked": lambda raw: (
        _head("HTTP/1.1 200 OK", "Transfer-Encoding: chunked")
        + b"".join(b"%x;ext=1\r\n%s\r\n" % (len(raw[i:i + 7]), raw[i:i + 7])
                   for i in range(0, len(raw), 7))
        + b"0\r\nX-Trailer: done\r\n\r\n",
        False,
    ),
    "continue": lambda raw: (
        _head("HTTP/1.1 100 Continue")
        + _head("HTTP/1.1 200 OK", f"Content-Length: {len(raw)}") + raw,
        False,
    ),
    "close": lambda raw: (
        _head("HTTP/1.1 200 OK", f"Content-Length: {len(raw)}", "Connection: close") + raw,
        True,
    ),
    "http10": lambda raw: (_head("HTTP/1.0 200 OK", f"Content-Length: {len(raw)}") + raw, True),
    "eof": lambda raw: (_head("HTTP/1.1 200 OK") + raw, True),
    "short": lambda raw: (_head("HTTP/1.1 200 OK", f"Content-Length: {len(raw) + 10}") + raw, True),
    "long-header": lambda raw: (
        _head("HTTP/1.1 200 OK", "X-Long: " + "a" * 70_000, f"Content-Length: {len(raw)}") + raw,
        True,
    ),
    # 100 header lines are the most a reply may carry
    "100-headers": lambda raw: (
        _head("HTTP/1.1 200 OK", *(f"X-H{i}: {i}" for i in range(99)),
              f"Content-Length: {len(raw)}") + raw,
        False,
    ),
    "many-headers": lambda raw: (
        _head("HTTP/1.1 200 OK", *(f"X-H{i}: {i}" for i in range(100)),
              f"Content-Length: {len(raw)}") + raw,
        True,
    ),
    # Content-Length twice with one value, and then with two (the second short)
    "repeated-length": lambda raw: (
        _head("HTTP/1.1 200 OK", *[f"Content-Length: {len(raw)}"] * 2) + raw, False
    ),
    "conflicting-length": lambda raw: (
        _head("HTTP/1.1 200 OK", f"Content-Length: {len(raw)}", "Content-Length: 5") + raw,
        False,
    ),
}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # headers and body go out as two writes
    server: "_Loopback"

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", "0")))
        status, raw = self.server.answer(self.path, self.headers, body)
        framing = FRAMINGS[self.server.next_framing()]
        if framing is not None:
            reply, self.close_connection = framing(raw)
            self.wfile.write(reply)
            return
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)
        # Without a "Connection: close" header: the client learns of the
        # close only when it next sends on this connection.
        self.close_connection = self.server.drop_after_reply

    def do_CONNECT(self):
        self.server.record(self.path, self.headers, b"")
        self.close_connection = True
        host, _, port = self.path.rpartition(":")
        with socket.create_connection((host, int(port)), timeout=5) as upstream:
            self.send_response(200, "Connection established")
            self.end_headers()
            peers = {self.connection: upstream, upstream: self.connection}
            while True:
                ready, _, _ = select.select(list(peers), [], [], 5)
                for sock in ready:
                    data = sock.recv(65536)
                    if not data:
                        return
                    peers[sock].sendall(data)
                if not ready:
                    return

    def log_message(self, *args):
        pass


class _Loopback(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, drop_after_reply: bool = False, framing: str | list[str] = "length",
                 tls: bool = False):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.drop_after_reply = drop_after_reply
        # one framing per request; the last one repeats
        self.framings = [framing] if isinstance(framing, str) else list(framing)
        self.tls = None
        if tls:
            self.tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            self.tls.load_cert_chain(TLS_CERT, TLS_KEY)
        self.connections = 0
        self.in_flight: dict[str | None, int] = {}  # requests being answered, by model
        self.peak_in_flight: dict[str | None, int] = {}  # the most at once, by model
        self.targets: list[str] = []  # request targets, in arrival order
        self.received: list[tuple[dict[str, str], bytes]] = []  # (headers, body) per request
        self.lock = threading.Lock()
        self._thread = threading.Thread(target=self.serve_forever, args=(0.05,), daemon=True)
        self._thread.start()

    def get_request(self):
        sock, address = super().get_request()
        if self.tls is not None:
            sock.settimeout(5)
            sock = self.tls.wrap_socket(sock, server_side=True)  # an OSError drops it
        with self.lock:
            self.connections += 1
        return sock, address

    def next_framing(self) -> str:
        with self.lock:
            return self.framings.pop(0) if len(self.framings) > 1 else self.framings[0]

    def record(self, target: str, headers, body: bytes) -> None:
        with self.lock:
            self.targets.append(target)
            self.received.append((dict(headers.items()), body))

    def answer(self, target: str, headers, body: bytes) -> tuple[int, bytes]:
        """respond()'s reply, counted in flight by the model named in the JSON
        body (None if none) until just before the reply is written: the next
        request a client sends once it has read the reply counts after it."""
        self.record(target, headers, body)
        try:
            payload = json.loads(body)
        except ValueError:
            payload = None
        model = payload.get("model") if isinstance(payload, dict) else None
        with self.lock:
            self.in_flight[model] = self.in_flight.get(model, 0) + 1
            self.peak_in_flight[model] = max(
                self.peak_in_flight.get(model, 0), self.in_flight[model]
            )
        try:
            return self.respond(target, headers, body)
        finally:
            with self.lock:
                self.in_flight[model] -= 1

    def respond(self, target: str, headers, body: bytes) -> tuple[int, bytes]:
        raise NotImplementedError

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=5)


class ChatEndpoint(_Loopback):
    """Answers every chat completion with `reply`, and the i-th text of an
    embeddings batch with [i, 1.0], framed as `framing` says (a FRAMINGS
    key, or a list of them, one per request)."""

    def __init__(self, reply: str = "FR", drop_after_reply: bool = False,
                 framing: str | list[str] = "length", tls: bool = False):
        super().__init__(drop_after_reply, framing, tls)
        self.reply = reply

    @property
    def base_url(self) -> str:
        scheme = "https" if self.tls is not None else "http"
        return f"{scheme}://127.0.0.1:{self.server_port}/v1"

    def respond(self, target, headers, body):
        if target.endswith("/embeddings"):
            texts = json.loads(body)["input"]
            data = [{"index": i, "embedding": [float(i), 1.0]} for i in range(len(texts))]
            return 200, json.dumps({"data": data}).encode()
        return 200, json.dumps({"choices": [{"message": {"content": self.reply}}]}).encode()


class CannedEndpoint(ChatEndpoint):
    """Answers every request with one status and body."""

    def __init__(self, status: int, raw: bytes):
        super().__init__()
        self.canned = status, raw

    def respond(self, target, headers, body):
        return self.canned


class ForwardingProxy(_Loopback):
    """An http_proxy: takes absolute-form targets and forwards each upstream,
    and tunnels a CONNECT to its target."""

    def __init__(self):
        super().__init__()
        self.credentials: list[str | None] = []  # Proxy-Authorization per request

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_port}"

    def record(self, target, headers, body):
        self.credentials.append(headers.get("Proxy-Authorization"))
        super().record(target, headers, body)

    def respond(self, target, headers, body):
        parts = urllib.parse.urlsplit(target)
        upstream = http.client.HTTPConnection(parts.netloc, timeout=5)
        try:
            upstream.request(
                "POST", parts.path, body, {"Content-Type": headers["Content-Type"]}
            )
            response = upstream.getresponse()
            return response.status, response.read()
        finally:
            upstream.close()


class SlowEndpoint(ChatEndpoint):
    """A ChatEndpoint that waits delay_s before each reply."""

    def __init__(self, delay_s: float):
        super().__init__()
        self.delay_s = delay_s

    def respond(self, target, headers, body):
        time.sleep(self.delay_s)
        return super().respond(target, headers, body)

    def handle_error(self, request, client_address):
        pass  # a client that stopped waiting closed the connection


class ClosingListener:
    """Accepts each connection, waits for the first byte of its request and
    closes it unanswered; counts the connections it accepted."""

    def __init__(self):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.sock.settimeout(0.05)
        self.connections = 0
        self._stopping = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.sock.getsockname()[1]}/v1"

    def _serve(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self.sock.accept()
            except TimeoutError:
                continue
            with conn:
                self.connections += 1
                conn.settimeout(5)
                conn.recv(1)

    def stop(self) -> None:
        self._stopping.set()
        self._thread.join(timeout=5)
        self.sock.close()
