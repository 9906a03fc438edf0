"""TF-IDF and embedding vector spaces over few-shot candidates, with cosine kNN."""

from __future__ import annotations

import functools
import hashlib
import math
import os
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Protocol, Sequence

# Runs before numpy loads, which is only in the functions that build or score a
# space: one matrix-vector product per query gains nothing from an idle BLAS thread.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .corpus import RequirementRecord

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class VectorSpaceError(Exception):
    pass


def tokenize(text: str) -> list[str]:
    """Lowercased maximal runs of alphanumerics; hyphens and punctuation split."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Neighbor:
    record_id: int
    similarity: float


def _normalize_sparse(weights: dict[int, float]) -> dict[int, float]:
    # left to right, as fit_tfidf sums its rows: from 3.12 the builtin sum of
    # floats is compensated, and a query would no longer equal its pool row
    sq_norm = 0.0
    for w in weights.values():
        sq_norm += w * w
    norm = math.sqrt(sq_norm)
    if norm == 0.0:
        return {}
    # build in ascending column order so dot products accumulate deterministically
    return {col: weights[col] / norm for col in sorted(weights)}


# Distinct texts whose term counts stay memoized: a k-fold sweep refits a
# space per fold over mostly the same texts, and counts each of them once.
TERM_COUNTS_MEMO_SIZE = 4096


@functools.lru_cache(maxsize=TERM_COUNTS_MEMO_SIZE)
def _term_counts(text: str) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """text's distinct terms in first-occurrence order, and each one's count.
    Terms are interned, so the memo holds one string per term, not per text."""
    counts = Counter(map(sys.intern, tokenize(text)))
    return tuple(counts), tuple(counts.values())


@dataclass(frozen=True, eq=False)
class TfidfModel:
    vocabulary: dict[str, int]  # term -> column, in column order
    idf: tuple[float, ...]
    row_ids: tuple[int, ...]
    # L2-normalized rows as postings in CSC form: column c's rows are
    # indices[indptr[c]:indptr[c + 1]], ascending, with their weights at the
    # same positions of data
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    data: np.ndarray = field(repr=False)

    @property
    def n_docs(self) -> int:
        return len(self.row_ids)

    @property
    def rows(self) -> tuple[dict[int, float], ...]:
        """Each row's weights by column, ascending, rebuilt from the postings."""
        rows: tuple[dict[int, float], ...] = tuple({} for _ in self.row_ids)
        for col in range(len(self.vocabulary)):
            lo, hi = self.indptr[col], self.indptr[col + 1]
            for row, weight in zip(self.indices[lo:hi].tolist(), self.data[lo:hi].tolist()):
                rows[row][col] = weight
        return rows


def fit_tfidf(candidates: Sequence[RequirementRecord]) -> TfidfModel:
    """Fit a TF-IDF space: raw tf, idf = ln((1+N)/(1+df)) + 1, L2-normalized rows.

    Every weight is the one a scalar loop gets: idf is math.log per term, a
    weight is count * idf, and a row's squared norm is summed left to right in
    its text's first-occurrence order of terms.
    """
    if not candidates:
        raise VectorSpaceError("cannot fit TF-IDF on an empty candidate list")
    import numpy as np
    terms_of, counts_of = zip(*(_term_counts(r.text) for r in candidates))
    # one entry per (row, distinct term), rows in order, terms as first seen
    entry_terms = list(chain.from_iterable(terms_of))
    vocab = {term: col for col, term in enumerate(sorted(set(entry_terms)))}
    nnz, n_docs = len(entry_terms), len(candidates)
    cols = np.fromiter(map(vocab.__getitem__, entry_terms), np.intp, nnz)
    lengths = np.fromiter(map(len, terms_of), np.intp, n_docs)
    row_of = np.repeat(np.arange(n_docs, dtype=np.intp), lengths)
    df = np.bincount(cols, minlength=len(vocab))
    idf = tuple(math.log((1 + n_docs) / (1 + d)) + 1.0 for d in df.tolist())
    weights = np.fromiter(chain.from_iterable(counts_of), np.float64, nnz)
    weights *= np.array(idf, dtype=np.float64)[cols]
    # bincount adds each square to its row's total one entry at a time, so a
    # row's squared norm is summed left to right (np.sum would add pairwise)
    sq_norms = np.bincount(row_of, weights=weights * weights, minlength=n_docs)
    weights /= np.sqrt(sq_norms)[row_of]
    # a stable sort by column keeps each column's rows ascending
    order = np.argsort(cols, kind="stable")
    indptr = np.zeros(len(vocab) + 1, dtype=np.intp)
    np.cumsum(df, out=indptr[1:])
    return TfidfModel(
        vocab, idf, tuple(r.record_id for r in candidates), indptr, row_of[order], weights[order]
    )


def embed_query_tfidf(model: TfidfModel, text: str) -> dict[int, float]:
    """Transform a query with the fitted vocabulary; OOV tokens are dropped."""
    return _normalize_sparse({
        col: n * model.idf[col] for term, n in zip(*_term_counts(text))
        if (col := model.vocabulary.get(term)) is not None
    })


class EmbeddingProvider(Protocol):
    def embed_batch(self, texts: Sequence[str]) -> list[list[float]]: ...


class HashEmbeddingProvider:
    """Deterministic pseudo-encoder: signed token-hash bag projected to D dims.

    No model, no network; stable across runs and platforms. Useful for tests
    and offline runs where any consistent notion of lexical similarity will do.
    """

    def __init__(self, dim: int = 64):
        if dim < 1:
            raise VectorSpaceError("embedding dim must be >= 1")
        self.dim = dim

    def embed_batch(self, texts: Sequence[str]) -> list[list[float]]:
        return [self._embed(t) for t in texts]

    def _embed(self, text: str) -> list[float]:
        vec = [0.0] * self.dim
        for tok in tokenize(text):
            digest = hashlib.sha256(tok.encode("utf-8")).digest()
            bucket = int.from_bytes(digest[:4], "big") % self.dim
            sign = 1.0 if digest[4] & 1 == 0 else -1.0
            vec[bucket] += sign
        norm = math.sqrt(sum(x * x for x in vec))
        if norm > 0:
            vec = [x / norm for x in vec]
        return vec


@dataclass(frozen=True, eq=False)
class EmbeddingMatrix:
    dim: int
    rows: np.ndarray  # N x D, float64
    row_ids: tuple[int, ...]

    @property
    def n_docs(self) -> int:
        return len(self.row_ids)

    @functools.cached_property
    def row_norms(self) -> np.ndarray:
        """Each row's L2 norm, computed on the first query of the space."""
        import numpy as np
        return np.linalg.norm(self.rows, axis=1)


_EMBED_BATCH_SIZE = 32


def build_embedding_matrix(
    candidates: Sequence[RequirementRecord],
    provider: EmbeddingProvider,
) -> EmbeddingMatrix:
    """Encode candidates into an N x D matrix via batched provider calls.

    Each distinct text is encoded once, so duplicate texts cost nothing extra.
    """
    if not candidates:
        raise VectorSpaceError("cannot build an embedding matrix over no candidates")
    pending = list(dict.fromkeys(record.text for record in candidates))
    vectors: dict[str, Sequence[float]] = {}
    for batch_no, start in enumerate(range(0, len(pending), _EMBED_BATCH_SIZE)):
        batch = pending[start : start + _EMBED_BATCH_SIZE]
        encoded = provider.embed_batch(batch)
        if len(encoded) != len(batch):
            raise VectorSpaceError(
                f"provider returned {len(encoded)} vectors for batch {batch_no} "
                f"of {len(batch)} texts"
            )
        vectors.update(zip(batch, encoded))

    import numpy as np
    dim = len(vectors[candidates[0].text])  # every vector must match the first
    if not dim:
        raise VectorSpaceError(
            f"record {candidates[0].record_id}: provider returned an empty vector"
        )
    matrix = np.zeros((len(candidates), dim), dtype=np.float64)
    for i, record in enumerate(candidates):
        vector = vectors[record.text]
        if len(vector) != dim:
            raise VectorSpaceError(
                f"record {record.record_id}: provider returned dimension "
                f"{len(vector)}, expected {dim}"
            )
        if not all(math.isfinite(x) for x in vector):
            raise VectorSpaceError(
                f"record {record.record_id}: non-finite embedding entry"
            )
        matrix[i] = vector
    return EmbeddingMatrix(dim, matrix, tuple(r.record_id for r in candidates))


def _tfidf_scores(model: TfidfModel, query: dict[int, float]) -> np.ndarray:
    import numpy as np
    for col in query:
        if not 0 <= col < len(model.vocabulary):
            raise VectorSpaceError(f"query column {col} outside vocabulary")
    # Each row's score is the sum of its terms in ascending column order, the
    # same IEEE multiplies and adds as a scalar loop; rows a column does not
    # touch add 0.0, which changes nothing.
    scores = np.zeros(model.n_docs, dtype=np.float64)
    for col in sorted(query):
        lo, hi = model.indptr[col], model.indptr[col + 1]
        scores[model.indices[lo:hi]] += query[col] * model.data[lo:hi]
    return scores


def _embedding_scores(matrix: EmbeddingMatrix, query: Sequence[float]) -> np.ndarray:
    import numpy as np
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (matrix.dim,):
        raise VectorSpaceError(
            f"query dimension {q.shape} does not match space dimension ({matrix.dim},)"
        )
    if not all(map(math.isfinite, query)):
        raise VectorSpaceError("non-finite query embedding entry")
    q_norm = float(np.linalg.norm(q))
    dots = matrix.rows @ q
    sims = np.zeros(matrix.n_docs, dtype=np.float64)
    if q_norm > 0.0:
        nonzero = matrix.row_norms > 0.0
        sims[nonzero] = dots[nonzero] / (matrix.row_norms[nonzero] * q_norm)
    return sims


def nearest(
    space: TfidfModel | EmbeddingMatrix,
    query_vector: dict[int, float] | Sequence[float],
    k: int,
) -> tuple[list[int], list[float]]:
    """The record ids of the min(k, N) nearest rows by cosine, and their
    cosines clamped to [-1, 1]: descending, ties in row order.

    Cosine against a zero vector is defined as 0, so degenerate queries fall
    back to stable row order (TF-IDF scores are never negative, so rows that
    share no term with the query come last, in row order).
    """
    import numpy as np
    if k < 1:
        raise VectorSpaceError(f"k must be >= 1, got {k}")
    if isinstance(space, TfidfModel):
        if not isinstance(query_vector, dict):
            raise VectorSpaceError("TF-IDF queries must be sparse {column: weight} maps")
        scores = _tfidf_scores(space, query_vector)
    else:
        scores = _embedding_scores(space, query_vector)
    # a stable sort of the negated scores is sorted(key=(-score, row))
    order = np.argsort(-scores, kind="stable")[:k]
    ids = [space.row_ids[row] for row in order.tolist()]
    return ids, np.clip(scores[order], -1.0, 1.0).tolist()


def knn(
    space: TfidfModel | EmbeddingMatrix,
    query_vector: dict[int, float] | Sequence[float],
    k: int,
) -> list[Neighbor]:
    """Exactly min(k, N) neighbors by cosine, descending; ties break by row order.

    Cosine against a zero vector is defined as 0, so degenerate queries fall
    back to stable row order.
    """
    return [Neighbor(rid, sim) for rid, sim in zip(*nearest(space, query_vector, k))]
