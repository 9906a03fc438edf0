"""Independent reference implementations used only to check the package.

These deliberately re-derive everything from scratch (dense vectors, plain
counting loops) so they share no code path with src/shotsweep.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import random
import re
import sys
import urllib.parse
import urllib.request
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def _oracle_tokens(text: str) -> list[str]:
    return re.findall(r"[a-z0-9]+", text.lower())


def oracle_tfidf_vectors(texts: list[str]) -> tuple[list[str], list[list[float]]]:
    """Dense TF-IDF rows: raw tf, idf = ln((1+N)/(1+df)) + 1, L2-normalized."""
    token_lists = [_oracle_tokens(t) for t in texts]
    vocab = sorted({tok for toks in token_lists for tok in toks})
    col = {t: i for i, t in enumerate(vocab)}
    n = len(texts)
    df = [0] * len(vocab)
    for toks in token_lists:
        for tok in set(toks):
            df[col[tok]] += 1
    idf = [math.log((1 + n) / (1 + d)) + 1.0 for d in df]
    rows = []
    for toks in token_lists:
        vec = [0.0] * len(vocab)
        for tok in toks:
            vec[col[tok]] += 1.0
        vec = [v * idf[i] for i, v in enumerate(vec)]
        norm = math.sqrt(sum(v * v for v in vec))
        if norm > 0:
            vec = [v / norm for v in vec]
        rows.append(vec)
    return vocab, rows


def oracle_fit_tfidf(texts: list[str]):
    """The scalar fit that vectorspace.fit_tfidf replaced, as (vocabulary, idf,
    rows, indptr, indices, data). Each row is a dict in ascending column order
    whose squared norm is summed left to right over its terms in
    first-occurrence order; the CSC postings come from the rows by a stable
    sort on the column."""
    token_lists = [_oracle_tokens(t) for t in texts]
    terms = sorted({tok for tokens in token_lists for tok in tokens})
    vocab = {term: col for col, term in enumerate(terms)}
    n_docs = len(texts)
    df = [0] * len(vocab)
    for tokens in token_lists:
        for tok in set(tokens):
            df[vocab[tok]] += 1
    idf = tuple(math.log((1 + n_docs) / (1 + d)) + 1.0 for d in df)
    rows = []
    for tokens in token_lists:
        counts: dict[int, int] = {}
        for tok in tokens:
            counts[vocab[tok]] = counts.get(vocab[tok], 0) + 1
        weights = {c: n * idf[c] for c, n in counts.items()}
        sq_norm = 0.0
        for w in weights.values():
            sq_norm += w * w
        norm = math.sqrt(sq_norm)
        rows.append({c: weights[c] / norm for c in sorted(weights)} if norm else {})
    lengths = [len(row) for row in rows]
    nnz = sum(lengths)
    cols = np.fromiter((c for row in rows for c in row), np.intp, nnz)
    data = np.fromiter((w for row in rows for w in row.values()), np.float64, nnz)
    row_of = np.repeat(np.arange(len(rows), dtype=np.intp), lengths)
    order = np.argsort(cols, kind="stable")
    indptr = np.zeros(len(vocab) + 1, dtype=np.intp)
    np.cumsum(np.bincount(cols, minlength=len(vocab)), out=indptr[1:])
    return vocab, idf, tuple(rows), indptr, row_of[order], data[order]


def oracle_tfidf_query(texts: list[str], query: str) -> list[float]:
    token_lists = [_oracle_tokens(t) for t in texts]
    vocab = sorted({tok for toks in token_lists for tok in toks})
    col = {t: i for i, t in enumerate(vocab)}
    n = len(texts)
    df = [0] * len(vocab)
    for toks in token_lists:
        for tok in set(toks):
            df[col[tok]] += 1
    idf = [math.log((1 + n) / (1 + d)) + 1.0 for d in df]
    vec = [0.0] * len(vocab)
    for tok in _oracle_tokens(query):
        if tok in col:
            vec[col[tok]] += 1.0
    vec = [v * idf[i] for i, v in enumerate(vec)]
    norm = math.sqrt(sum(v * v for v in vec))
    if norm > 0:
        vec = [v / norm for v in vec]
    return vec


def oracle_cosine(u: list[float], v: list[float]) -> float:
    dot = 0.0
    for a, b in zip(u, v):
        dot += a * b
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return max(-1.0, min(1.0, dot / (nu * nv)))


def oracle_tfidf_ranking(texts: list[str], query: str) -> list[tuple[int, float]]:
    """Full brute-force ranking of all docs by cosine, ties by doc order."""
    _, rows = oracle_tfidf_vectors(texts)
    qv = oracle_tfidf_query(texts, query)
    sims = [oracle_cosine(row, qv) for row in rows]
    order = sorted(range(len(texts)), key=lambda i: (-sims[i], i))
    return [(i, sims[i]) for i in order]


def oracle_knn_tfidf(model, query: dict[int, float], k: int) -> list[tuple[int, float]]:
    """The scalar TF-IDF kNN that vectorspace.knn replaced, as (record id,
    similarity) pairs: one dict of scores summed term by term in ascending
    column order, sorted by (-score, row); rows sharing no term with the
    query follow at 0.0 in row order. It reads only model.rows, row_ids and
    the vocabulary size."""
    for col in query:
        if not 0 <= col < len(model.vocabulary):
            raise ValueError(f"query column {col} outside vocabulary")
    postings: dict[int, list[tuple[int, float]]] = {}
    for row_idx, row in enumerate(model.rows):
        for col, weight in row.items():
            postings.setdefault(col, []).append((row_idx, weight))
    scores: dict[int, float] = {}
    for col in sorted(query):
        weight = query[col]
        for row_idx, row_weight in postings.get(col, ()):
            scores[row_idx] = scores.get(row_idx, 0.0) + weight * row_weight
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:k]
    neighbors = [
        (model.row_ids[row_idx], max(-1.0, min(1.0, sim))) for row_idx, sim in ranked
    ]
    if len(neighbors) < k:
        for row_idx in range(len(model.rows)):
            if row_idx not in scores:
                neighbors.append((model.row_ids[row_idx], 0.0))
                if len(neighbors) >= k:
                    break
    return neighbors[: min(k, len(model.rows))]


def oracle_knn_embedding(matrix, query: list[float], k: int) -> list[tuple[int, float]]:
    """The embedding kNN that vectorspace.knn replaced: numpy cosines, then a
    Python sort by (-similarity, row)."""
    q = np.asarray(query, dtype=np.float64)
    q_norm = float(np.linalg.norm(q))
    row_norms = np.linalg.norm(matrix.rows, axis=1)
    dots = matrix.rows @ q
    sims = np.zeros(len(matrix.row_ids), dtype=np.float64)
    if q_norm > 0.0:
        nonzero = row_norms > 0.0
        sims[nonzero] = dots[nonzero] / (row_norms[nonzero] * q_norm)
    order = sorted(range(len(matrix.row_ids)), key=lambda i: (-sims[i], i))
    return [
        (matrix.row_ids[i], max(-1.0, min(1.0, float(sims[i]))))
        for i in order[: min(k, len(matrix.row_ids))]
    ]


def oracle_render(template, scheme, ranking, k, candidates, query_text, ordering):
    """Format one prompt from scratch, every block on every call: the
    (system message, user message, provenance, content hash) render_prompt
    must give for the ranking's first k. candidates is the pool's records in
    pool order."""
    n = min(k, ranking.available)
    sims = list(ranking.sims[:n]) if len(ranking.sims) else [None] * n
    chosen = list(zip(ranking.ids[:n], sims))
    with_sims = all(sim is not None for _, sim in chosen)
    if ordering == "ascending" and with_sims:
        chosen.sort(key=lambda item: item[1])
    elif ordering == "descending" and with_sims:
        chosen.sort(key=lambda item: -item[1])
    elif ordering == "pool_order":
        order = [r.record_id for r in candidates]
        chosen.sort(key=lambda item: order.index(item[0]))
    elif ordering == "shuffle":
        salt = f"0:order:{ranking.query_key}".encode("utf-8")
        seed = int.from_bytes(hashlib.sha256(salt).digest()[:8], "big")
        random.Random(seed).shuffle(chosen)
    by_id = {r.record_id: r for r in candidates}
    names = {label.label_id: label.name for label in scheme.labels}
    classes = "\n".join("- " + label.name for label in scheme.labels)
    parts = [template.task_description_text.replace("{classes}", classes)]
    blocks = [
        template.example_block_format.replace(
            "{label}", names[by_id[rid].label]
        ).replace("{text}", by_id[rid].text)
        for rid, _ in chosen
    ]
    if blocks:
        parts.append(template.examples_header + "\n\n" + "\n\n".join(blocks))
    parts.append(template.input_block_format.replace("{text}", query_text))
    user = "\n\n".join(parts)
    digest = hashlib.sha256(
        template.system_role_text.encode("utf-8") + b"\x00" + user.encode("utf-8")
    ).hexdigest()
    return template.system_role_text, user, tuple(rid for rid, _ in chosen), digest


def oracle_resolve_route(scheme: str, netloc: str) -> dict:
    """gateway._resolve_route of an http or https URL as it was before it
    skipped urllib.request when no proxy is set: it always asks urllib's proxy
    tables. Returns the _Route's fields as a dict."""

    def route(tls, address, tunnel=None, absolute_target=False, proxy_headers=()):
        return {"tls": tls, "address": address, "tunnel": tunnel,
                "absolute_target": absolute_target, "proxy_headers": proxy_headers}

    proxy = urllib.request.getproxies().get(scheme)
    if not proxy or urllib.request.proxy_bypass(netloc):
        return route(tls=scheme == "https", address=netloc)
    parts = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    headers: tuple[tuple[str, str], ...] = ()
    if parts.username is not None:
        user = urllib.parse.unquote(parts.username)
        password = urllib.parse.unquote(parts.password or "")
        token = base64.b64encode(f"{user}:{password}".encode("utf-8")).decode("ascii")
        headers = (("Proxy-Authorization", f"Basic {token}"),)
    address = parts.netloc.rpartition("@")[2]
    if scheme == "https":
        return route(tls=True, address=address, tunnel=netloc, proxy_headers=headers)
    return route(
        tls=parts.scheme == "https", address=address, absolute_target=True,
        proxy_headers=headers,
    )


def oracle_chat_body(model: str, system: str, user: str, temperature: float,
                     max_tokens: int) -> bytes:
    """The body of a chat completion request as the gateway encoded it when a
    separate function sent each request: json.dumps' defaults, as UTF-8."""
    payload = {
        "model": model,
        "messages": [{"role": "system", "content": system}, {"role": "user", "content": user}],
        "temperature": temperature,
        "max_tokens": max_tokens,
    }
    return json.dumps(payload).encode("utf-8")


def oracle_embeddings_body(model: str, texts: list[str]) -> bytes:
    """The body of an embeddings request, encoded as oracle_chat_body's."""
    return json.dumps({"model": model, "input": texts}).encode("utf-8")


@dataclass(frozen=True, slots=True)
class _CompletionRecord:
    """One cached completion row, every field required and no other taken."""

    content_hash: str
    text: str
    latency_ms: float
    attempts: int
    model: str
    created_at: str
    fingerprint: str


def oracle_load_completions(directory: Path) -> tuple[dict, int, list[Path]]:
    """The completions bucket of a cache directory as ResponseCache loaded it
    when it held one record per row: every line of every segment, in name
    order, becomes a record by _CompletionRecord(**row) after its model, text
    and fingerprint are interned, unless its fingerprint is missing or null
    (skipped), and the first record for a (model, fingerprint, content hash)
    wins. A line that fails on the way is torn. Returns ({key: answer text},
    torn_lines, torn_segments)."""
    served: dict[tuple, str] = {}
    torn_lines, torn_segments = 0, []
    for segment in sorted((Path(directory) / "completions").glob("*.jsonl")):
        with segment.open("rb") as handle:
            for line in handle:
                try:
                    row = json.loads(line.decode("utf-8"))
                    if row.get("fingerprint") is None:
                        continue
                    for name in ("model", "text", "fingerprint"):
                        row[name] = sys.intern(row[name])
                    record = _CompletionRecord(**row)
                    key = (record.model, record.fingerprint, record.content_hash)
                    served.setdefault(key, record.text)
                except (AttributeError, KeyError, TypeError, ValueError):
                    torn_lines += 1
                    if segment not in torn_segments:
                        torn_segments.append(segment)
    return served, torn_lines, torn_segments


def simulate_round_robin(class_sizes: list[tuple[str, int]], size: int) -> dict[str, int]:
    """Reference simulation of stratified pool building: one per class per
    round in declared order, skipping exhausted classes."""
    remaining = {lid: n for lid, n in class_sizes}
    counts = {lid: 0 for lid, _ in class_sizes}
    taken = 0
    while taken < size:
        progressed = False
        for lid, _ in class_sizes:
            if taken >= size:
                break
            if remaining[lid] > 0:
                remaining[lid] -= 1
                counts[lid] += 1
                taken += 1
                progressed = True
        if not progressed:
            break
    return counts


def oracle_metrics(
    golds: list[str], scored: list[str | None], labels: list[str]
) -> dict:
    """Plain-counting P/R/F1 per class, weighted and macro F1 (0/0 -> 0)."""
    per_class = {}
    for label in labels:
        tp = fp = fn = 0
        for gold, pred in zip(golds, scored):
            if gold == label and pred == label:
                tp += 1
            elif gold != label and pred == label:
                fp += 1
            elif gold == label and pred != label:
                fn += 1
        support = sum(1 for g in golds if g == label)
        precision = tp / (tp + fp) if (tp + fp) else 0.0
        recall = tp / (tp + fn) if (tp + fn) else 0.0
        f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
        per_class[label] = {
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "support": support,
        }
    total = len(golds)
    weighted = sum(m["support"] / total * m["f1"] for m in per_class.values())
    macro = sum(m["f1"] for m in per_class.values()) / len(labels)
    return {"per_class": per_class, "weighted_f1": weighted, "macro_f1": macro}


def oracle_compute_report(
    golds: list[str], scored: list[str | None], kinds: list[str], labels: list[str]
) -> dict:
    """The per-prediction loop that evaluation.compute_report replaced, over
    gold labels, scored labels (None: invalid) and parse kinds: an EvalReport's
    fields but its metadata, each ClassMetrics as a dict. Its float
    expressions and left-to-right sums are the replaced code's."""
    confusion = {gold: {col: 0 for col in (*labels, "__invalid__")} for gold in labels}
    n_unparseable = n_multilabel = 0
    for gold, label, kind in zip(golds, scored, kinds):
        confusion[gold][label if label is not None else "__invalid__"] += 1
        if kind == "unparseable":
            n_unparseable += 1
        elif kind == "multi_label":
            n_multilabel += 1
    per_class = {}
    for lid in labels:
        support = sum(confusion[lid].values())
        tp = confusion[lid][lid]
        fp = sum(confusion[gold][lid] for gold in labels if gold != lid)
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / support if support > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class[lid] = {"precision": precision, "recall": recall, "f1": f1, "support": support}
    total = sum(m["support"] for m in per_class.values())
    return {
        "per_class": per_class,
        "weighted_f1": sum(m["support"] / total * m["f1"] for m in per_class.values()),
        "macro_f1": sum(m["f1"] for m in per_class.values()) / len(labels),
        "confusion": confusion,
        "n_predictions": len(golds),
        "n_unparseable": n_unparseable,
        "n_multilabel": n_multilabel,
    }
