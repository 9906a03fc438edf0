"""Stratified few-shot pools and per-query example selection."""

from __future__ import annotations

import hashlib
import random
from array import array
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Sequence

from .corpus import LabelScheme, RequirementRecord
from .vectorspace import (
    EmbeddingMatrix,
    EmbeddingProvider,
    TfidfModel,
    build_embedding_matrix,
    embed_query_tfidf,
    fit_tfidf,
    nearest,
)


METHODS = ("random", "embedding", "tfidf")


class SelectionError(Exception):
    pass


@dataclass(frozen=True)
class FewShotPool:
    candidates: tuple[RequirementRecord, ...]
    per_class: dict[str, tuple[int, ...]]
    candidate_ids: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # record id -> index in candidates
    positions: dict[int, int] = field(init=False, repr=False, compare=False)
    # promptkit's text formatted from this pool, so it lives and dies with it
    render_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        positions = {}
        for index, record in enumerate(self.candidates):
            if record.record_id in positions:
                raise SelectionError(f"duplicate pool candidate {record.record_id}")
            positions[record.record_id] = index
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "candidate_ids", tuple(positions))

    def __len__(self) -> int:
        return len(self.candidates)

    def __contains__(self, record_id: int) -> bool:
        return record_id in self.positions

    def record(self, record_id: int) -> RequirementRecord:
        try:
            return self.candidates[self.positions[record_id]]
        except KeyError:
            raise SelectionError(f"record {record_id} not in pool") from None


def derived_rng(seed: int, salt: str) -> random.Random:
    """Stable per-purpose RNG: hash the (seed, salt) pair, not Python's hash()."""
    digest = hashlib.sha256(f"{seed}:{salt}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def build_pool(
    train: Sequence[RequirementRecord],
    scheme: LabelScheme,
    size: int,
    seed: int,
) -> FewShotPool:
    """Round-robin over classes in scheme order, one pick per class per round.

    Each class's pick order is a seeded shuffle of its train members. Classes
    that run out are skipped, so per-class counts among non-exhausted classes
    never spread by more than one.
    """
    if size < 0:
        raise SelectionError(f"pool size must be >= 0, got {size}")
    if size > len(train):
        raise SelectionError(
            f"pool size {size} exceeds train partition size {len(train)}"
        )
    label_ids = scheme.label_ids
    queues: dict[str, list[RequirementRecord]] = {lid: [] for lid in label_ids}
    for record in train:
        if record.label not in queues:
            raise SelectionError(
                f"train record {record.record_id} labeled {record.label!r}, "
                f"not in scheme {scheme.name!r}"
            )
        queues[record.label].append(record)
    for lid in label_ids:
        derived_rng(seed, f"pool-class:{lid}").shuffle(queues[lid])
    # round r takes each class's r-th pick in scheme order; the first size picks stay
    rounds = zip_longest(*queues.values())
    picked = [record for picks in rounds for record in picks if record is not None][:size]
    per_class: dict[str, list[int]] = {lid: [] for lid in label_ids}
    for record in picked:
        per_class[record.label].append(record.record_id)
    return FewShotPool(
        candidates=tuple(picked),
        per_class={lid: tuple(ids) for lid, ids in per_class.items()},
    )


@dataclass(frozen=True)
class SelectionConfig:
    method: str  # one of METHODS
    k: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise SelectionError(f"unknown selection method {self.method!r}")
        if self.k < 0:
            raise SelectionError(f"shot count must be >= 0, got {self.k}")


def query_key_for(query: str | RequirementRecord) -> str:
    if isinstance(query, RequirementRecord):
        return f"record:{query.record_id}"
    digest = hashlib.sha256(query.encode("utf-8")).hexdigest()[:16]
    return f"text:{digest}"


@dataclass(frozen=True, eq=False)
class Ranking:
    """One query's selection order over a pool: the k-shot selection is its
    first k ids, for every method, so each k-shot prompt is a prefix of every
    larger-k prompt.

    `available` counts the candidates left after the query's own record is
    excluded. tfidf/embedding keep the nearest candidates, nearest first, with
    their similarities; random keeps a prefix of one seeded permutation and no
    similarities.
    """

    query_key: str
    available: int
    ids: array
    sims: array

    def take(self, k: int) -> tuple[tuple[int, float | None], ...]:
        """The k-shot selection: min(k, available) (id, similarity or None) pairs."""
        n = min(k, self.available)
        if n > len(self.ids):
            raise SelectionError(
                f"selection of {k} asked of a ranking of depth {len(self.ids)}"
            )
        return tuple(zip_longest(self.ids[:n], self.sims[:n]))


def rank(
    pool: FewShotPool,
    queries: Sequence[str | RequirementRecord],
    cfg: SelectionConfig,
    provider: EmbeddingProvider | None = None,
) -> list[Ranking]:
    """Rank the pool for each query, deep enough for any selection up to cfg.k.

    random draws one permutation of the whole pool per query, seeded from
    cfg.seed and the query, so its order does not depend on cfg.k.
    tfidf/embedding fit their space over the pool once (not for k == 0 or an
    empty pool) and rank each query by cosine similarity, embedding each
    query with its own provider call. A record query that is a pool member
    never ranks its own record; a text query excludes nothing.
    """
    space: TfidfModel | EmbeddingMatrix | None = None
    if cfg.k and len(pool) and cfg.method == "tfidf":
        space = fit_tfidf(pool.candidates)
    elif cfg.k and len(pool) and cfg.method == "embedding":
        if provider is None:
            raise SelectionError("embedding method requires an embedding provider")
        space = build_embedding_matrix(pool.candidates, provider)
    rankings = []
    for query in queries:
        member = isinstance(query, RequirementRecord) and query.record_id in pool
        excluded_id = query.record_id if member else None
        key = query_key_for(query)
        available = len(pool) - member
        depth = min(cfg.k, available)
        ids: list[int] = []
        sims: list[float] = []
        if depth and cfg.method == "random":
            others = [rid for rid in pool.candidate_ids if rid != excluded_id]
            ids = derived_rng(cfg.seed, f"query:{key}").sample(others, available)
        elif depth and space is not None:
            text = query.text if isinstance(query, RequirementRecord) else query
            if isinstance(space, TfidfModel):
                vector: dict[int, float] | list[float] = embed_query_tfidf(space, text)
            else:
                vector = list(provider.embed_batch([text])[0])
            ids, sims = nearest(space, vector, depth + member)
            if excluded_id in ids:
                drop = ids.index(excluded_id)
                del ids[drop], sims[drop]
        rankings.append(
            Ranking(key, available, array("q", ids[:depth]), array("d", sims[:depth]))
        )
    return rankings
