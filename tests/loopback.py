"""Loopback HTTP/1.1 servers for transport tests: a chat endpoint that counts
the connections and requests it serves, and a forwarding proxy."""

from __future__ import annotations

import http.client
import json
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # headers and body go out as two writes
    server: "_Loopback"

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", "0")))
        status, raw = self.server.answer(self.path, self.headers, body)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)
        # Without a "Connection: close" header: the client learns of the
        # close only when it next sends on this connection.
        self.close_connection = self.server.drop_after_reply

    def log_message(self, *args):
        pass


class _Loopback(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, drop_after_reply: bool = False):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.drop_after_reply = drop_after_reply
        self.connections = 0
        self.targets: list[str] = []  # request targets, in arrival order
        self.lock = threading.Lock()
        self._thread = threading.Thread(target=self.serve_forever, args=(0.05,), daemon=True)
        self._thread.start()

    def get_request(self):
        request = super().get_request()
        with self.lock:
            self.connections += 1
        return request

    def answer(self, target: str, headers, body: bytes) -> tuple[int, bytes]:
        with self.lock:
            self.targets.append(target)
        return self.respond(target, headers, body)

    def respond(self, target: str, headers, body: bytes) -> tuple[int, bytes]:
        raise NotImplementedError

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=5)


class ChatEndpoint(_Loopback):
    """Answers every chat completion with `reply`."""

    def __init__(self, reply: str = "FR", drop_after_reply: bool = False):
        super().__init__(drop_after_reply)
        self.reply = reply

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.server_port}/v1"

    def respond(self, target, headers, body):
        return 200, json.dumps({"choices": [{"message": {"content": self.reply}}]}).encode()


class ForwardingProxy(_Loopback):
    """An http_proxy: takes absolute-form targets and forwards each upstream."""

    def __init__(self):
        super().__init__()
        self.credentials: list[str | None] = []  # Proxy-Authorization per request

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_port}"

    def respond(self, target, headers, body):
        self.credentials.append(headers.get("Proxy-Authorization"))
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
