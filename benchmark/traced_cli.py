"""Run the shotsweep CLI with spans around calls into each module.

Usage: traced_cli.py SPANS_JSON CLI_ARG...

Each function in TARGETS is replaced, wherever a shotsweep module holds a
reference to it, by a wrapper that records (name, start, end, parent) in
memory. The spans and a few counts are written to SPANS_JSON at exit. A
target a later refactor removes is skipped and reports zero calls.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

# (span name, module, attribute); "Class.method" patches the class.
TARGETS = (
    ("corpus.load_corpus", "shotsweep.corpus", "load_corpus"),
    ("corpus.make_split", "shotsweep.corpus", "make_split"),
    ("selection.build_pool", "shotsweep.selection", "build_pool"),
    ("selection.select", "shotsweep.selection", "select"),
    ("vectorspace.fit_tfidf", "shotsweep.vectorspace", "fit_tfidf"),
    ("vectorspace.build_embedding_matrix", "shotsweep.vectorspace", "build_embedding_matrix"),
    ("vectorspace.knn", "shotsweep.vectorspace", "knn"),
    ("vectorspace.embed_batch", "shotsweep.vectorspace", "HashEmbeddingProvider.embed_batch"),
    ("promptkit.render_prompt", "shotsweep.promptkit", "render_prompt"),
    ("gateway.cache_open", "shotsweep.gateway", "ResponseCache.__init__"),
    ("gateway.complete", "shotsweep.gateway", "Client.complete"),
    ("gateway.request", "shotsweep.gateway", "_post_json"),
    ("gateway.parse_label", "shotsweep.gateway", "parse_label"),
    ("evaluation.compute_report", "shotsweep.evaluation", "compute_report"),
    ("sweep.run_sweep", "shotsweep.sweep", "run_sweep"),
    ("reporting.atomic_write", "shotsweep.reporting", "atomic_write"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.embedded_texts: list[str] = []
        self.rendered_hashes: list[str] = []
        self.bytes_written = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name: str, fn):
        observe = {
            "vectorspace.embed_batch": self._saw_embed,
            "promptkit.render_prompt": self._saw_render,
            "reporting.atomic_write": self._saw_write,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                index = len(self.spans)
                span = [name, 0.0, 0.0, stack[-1] if stack else -1]
                self.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _saw_embed(self, args, kwargs, result) -> None:
        texts = args[1] if len(args) > 1 else kwargs.get("texts", ())
        with self._lock:
            self.embedded_texts.extend(texts)

    def _saw_render(self, args, kwargs, result) -> None:
        with self._lock:
            self.rendered_hashes.append(getattr(result, "content_hash", ""))

    def _saw_write(self, args, kwargs, result) -> None:
        text = args[1] if len(args) > 1 else kwargs.get("text", "")
        with self._lock:
            self.bytes_written += len(text.encode("utf-8"))

    def install(self) -> list[str]:
        """Patch every target found; return the names of those not found."""
        missing = []
        modules = [m for n, m in sys.modules.items() if n == "shotsweep" or n.startswith("shotsweep.")]
        for name, module_name, attr in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method or attr, None)
            if original is None:
                missing.append(name)
                continue
            wrapped = self.wrap(name, original)
            if owner_name:
                setattr(owner, method, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        return missing

    def dump(self, path: str, missing: list[str]) -> None:
        payload = {
            "spans": self.spans,
            "missing": missing,
            "embedded_texts": len(self.embedded_texts),
            "embedded_unique": len(set(self.embedded_texts)),
            "renders": len(self.rendered_hashes),
            "renders_unique": len(set(self.rendered_hashes)),
            "bytes_written": self.bytes_written,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import shotsweep.cli

    tracer = Tracer()
    missing = tracer.install()
    try:
        return shotsweep.cli.main(argv)
    finally:
        tracer.dump(spans_path, missing)


if __name__ == "__main__":
    sys.exit(main())
