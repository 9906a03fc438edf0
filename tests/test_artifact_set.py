"""scripts/artifact_set.py's argument checks, which run before it builds anything,
and its loopback chat endpoint."""

from __future__ import annotations

import hashlib
import http.client
import importlib.util
import json
import os
import subprocess
import sys
import threading

import pytest

from conftest import REPO_ROOT


@pytest.fixture(scope="module")
def artifact_set():
    spec = importlib.util.spec_from_file_location(
        "artifact_set", REPO_ROOT / "scripts" / "artifact_set.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("src", ["src", "data", "missing"])
def test_a_src_that_is_not_a_checkout_root_is_refused_before_out_is_made(
    artifact_set, tmp_path, capsys, src
):
    out = tmp_path / "out"
    assert artifact_set.main([str(REPO_ROOT / src), str(out)]) == 2
    assert not out.exists()
    message = capsys.readouterr().err
    assert message.count("\n") == 1 and "not a shotsweep checkout root" in message


def test_chat_endpoint_keeps_the_digest_of_every_request_body(artifact_set):
    server = artifact_set._ChatServer(("127.0.0.1", 0))
    serving = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    serving.start()
    bodies = [json.dumps({"model": m, "messages": [{"role": "user", "content": "q"}]}).encode()
              for m in ("a", "b", "a")]
    try:
        conn = http.client.HTTPConnection("127.0.0.1", server.server_port, timeout=5)
        replies = []
        for body in bodies:
            conn.request("POST", "/v1/chat/completions", body)
            replies.append(json.loads(conn.getresponse().read()))
        conn.close()
    finally:
        server.shutdown()
        server.server_close()
        serving.join()
    assert server.body_digests == [hashlib.sha256(body).hexdigest() for body in bodies]
    assert replies[0] == replies[2] and "choices" in replies[1]


def test_served_table_lists_each_row_with_the_answer_served(artifact_set, tmp_path):
    row = {"attempts": 1, "content_hash": "h1", "created_at": "2025-01-01T00:00:00",
           "fingerprint": "f", "latency_ms": 1.0, "model": "m", "text": "first"}
    lines = [row, {**row, "text": "second"}, {**row, "content_hash": "h2", "text": "other"}]
    (tmp_path / "completions").mkdir()
    (tmp_path / "completions" / "seg-00000001.jsonl").write_text(
        "".join(json.dumps(line) + "\n" for line in lines) + '{"torn', encoding="utf-8"
    )
    served = subprocess.run(
        [sys.executable, "-c", artifact_set.SERVED, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    first = '"completions"\t"m"\t"f"\t"h1"\t"first"'
    assert served == [first, first, '"completions"\t"m"\t"f"\t"h2"\t"other"', "torn_lines\t1"]
