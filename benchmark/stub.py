"""Loopback OpenAI-compatible chat endpoint with planted replies (stdlib only).

It serves POST /v1/chat/completions on 127.0.0.1 from a fixed set of worker
threads, one per CPU, so at most that many connections are open at once.
Each reply is planted.planted_reply of the model name, the query text and
the number of example blocks in the prompt, sent after a fixed delay. The
stub counts requests and TCP connections and logs every prompt it receives
as corpus indices, for the checker.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler

from planted import Corpus, Scheme, planted_reply

# The parts of the default prompt template the stub reads the prompt by.
_EXAMPLES_HEADER = "Examples:\n\n"
_INPUT_MARK = "\n\nInput: "
_INPUT_END = "\nCategory:"
_BLOCK_TEXT = "Text: "
_BLOCK_LABEL = "\nCategory: "


@dataclass(frozen=True)
class Received:
    model: str
    query: int  # corpus index of the query text
    examples: tuple[int, ...]  # corpus indices of the example texts, in prompt order


def parse_prompt(user_message: str) -> tuple[str, list[str]]:
    """Split a rendered prompt into its query text and example texts."""
    head, mark, tail = user_message.rpartition(_INPUT_MARK)
    if not mark or not tail.endswith(_INPUT_END):
        raise ValueError("no input block")
    query = tail[: -len(_INPUT_END)]
    examples: list[str] = []
    _, header, section = head.partition(_EXAMPLES_HEADER)
    if header:
        for block in section.split("\n\n"):
            if not block.startswith(_BLOCK_TEXT) or _BLOCK_LABEL not in block:
                raise ValueError(f"malformed example block {block[:60]!r}")
            examples.append(block[len(_BLOCK_TEXT) : block.rindex(_BLOCK_LABEL)])
    return query, examples


def worker_count() -> int:
    return len(os.sched_getaffinity(0))


class StubEndpoint:
    def __init__(self, corpus: Corpus, scheme: Scheme, seed: int, delay_s: float = 0.0):
        self.corpus = corpus
        self.scheme = scheme
        self.gold = corpus.gold(scheme)
        self.seed = seed
        self.delay_s = delay_s
        self.requests = 0
        self.connections = 0
        self.problems: list[str] = []
        self._log: list[Received] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._sock.settimeout(0.1)
        self._threads = [
            threading.Thread(target=self._serve, daemon=True) for _ in range(worker_count())
        ]
        for thread in self._threads:
            thread.start()

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self._sock.getsockname()[1]}/v1"

    def counters(self) -> tuple[int, int]:
        with self._lock:
            return self.requests, self.connections

    def take_log(self) -> list[Received]:
        with self._lock:
            log, self._log = self._log, []
            return log

    def take_problems(self) -> list[str]:
        with self._lock:
            problems, self.problems = self.problems, []
            return problems

    def close(self) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()
        self._sock.close()

    def _problem(self, message: str) -> None:
        with self._lock:
            if len(self.problems) < 20:
                self.problems.append(message)

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, addr = self._sock.accept()
            except TimeoutError:
                continue
            with self._lock:
                self.connections += 1
            try:
                conn.settimeout(30.0)
                _Handler(conn, addr, self)
            except OSError:
                pass  # the client went away mid-request; its own run reports that
            except Exception as exc:  # a stub fault must fail the run, not vanish
                self._problem(f"stub handler crashed: {type(exc).__name__}: {exc}")
            finally:
                conn.close()

    def answer(self, model: str, user_message: str) -> str:
        with self._lock:
            self.requests += 1
        try:
            query, examples = parse_prompt(user_message)
        except ValueError as exc:
            self._problem(f"{model}: unreadable prompt: {exc}")
            return "???"
        index = self.corpus.index
        if query not in index:
            self._problem(f"{model}: query not in corpus: {query[:60]!r}")
            return "???"
        unknown = [t for t in examples if t not in index]
        if unknown:
            self._problem(f"{model}: example not in corpus: {unknown[0][:60]!r}")
        q = index[query]
        received = Received(model, q, tuple(index.get(t, -1) for t in examples))
        with self._lock:
            self._log.append(received)
        try:
            reply = planted_reply(
                self.scheme, self.seed, model, query, len(examples), self.gold[q]
            )
        except KeyError:
            self._problem(f"no planted schedule for model {model!r}")
            return "???"
        return reply.text


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    server: StubEndpoint

    def do_POST(self) -> None:
        body = self.rfile.read(int(self.headers.get("Content-Length", "0")))
        if self.path != "/v1/chat/completions":
            self._reply(404, {"error": {"message": f"no route {self.path}"}})
            return
        try:
            payload = json.loads(body)
            model = payload["model"]
            user = next(m["content"] for m in payload["messages"] if m["role"] == "user")
        except (ValueError, KeyError, TypeError, StopIteration) as exc:
            self.server._problem(f"malformed request: {exc}")
            self._reply(400, {"error": {"message": "malformed request"}})
            return
        text = self.server.answer(model, user)
        if self.server.delay_s:
            time.sleep(self.server.delay_s)
        self._reply(
            200,
            {
                "object": "chat.completion",
                "model": model,
                "choices": [
                    {
                        "index": 0,
                        "message": {"role": "assistant", "content": text},
                        "finish_reason": "stop",
                    }
                ],
            },
        )

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            + ("Connection: close\r\n" if self.close_connection else "")
            + "\r\n"
        )
        # one write: headers and body in separate segments can stall on
        # Nagle plus delayed ACK
        self.wfile.write(head.encode("ascii") + body)

    def log_message(self, format: str, *args: object) -> None:
        pass
