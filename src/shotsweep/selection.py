"""Stratified few-shot pools and per-query example selection."""

from __future__ import annotations

import hashlib
import random
from array import array
from dataclasses import dataclass, field, replace
from typing import Sequence

from .corpus import LabelScheme, RequirementRecord
from .vectorspace import (
    EmbeddingMatrix,
    EmbeddingProvider,
    TfidfModel,
    embed_query_tfidf,
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
    queues: dict[str, list[RequirementRecord]] = {lid: [] for lid in scheme.label_ids}
    for record in train:
        if record.label not in queues:
            raise SelectionError(
                f"train record {record.record_id} labeled {record.label!r}, "
                f"not in scheme {scheme.name!r}"
            )
        queues[record.label].append(record)
    for lid in scheme.label_ids:
        derived_rng(seed, f"pool-class:{lid}").shuffle(queues[lid])

    picked: list[RequirementRecord] = []
    per_class: dict[str, list[int]] = {lid: [] for lid in scheme.label_ids}
    cursors = {lid: 0 for lid in scheme.label_ids}
    while len(picked) < size:
        progressed = False
        for lid in scheme.label_ids:
            if len(picked) >= size:
                break
            if cursors[lid] < len(queues[lid]):
                record = queues[lid][cursors[lid]]
                cursors[lid] += 1
                picked.append(record)
                per_class[lid].append(record.record_id)
                progressed = True
        if not progressed:
            break
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


@dataclass(frozen=True)
class SelectionResult:
    query_key: str
    chosen: tuple[tuple[int, float | None], ...]
    method: str
    k_requested: int
    k_delivered: int

    @property
    def chosen_ids(self) -> tuple[int, ...]:
        return tuple(rid for rid, _ in self.chosen)


def query_key_for(query: str | RequirementRecord) -> str:
    if isinstance(query, RequirementRecord):
        return f"record:{query.record_id}"
    digest = hashlib.sha256(query.encode("utf-8")).hexdigest()[:16]
    return f"text:{digest}"


def _check_space(pool: FewShotPool, row_ids: tuple[int, ...], what: str) -> None:
    if row_ids != pool.candidate_ids:
        raise SelectionError(
            f"{what} space was not fitted over this pool "
            f"(row_ids differ from pool candidates)"
        )


@dataclass(frozen=True, eq=False)
class Ranking:
    """One query's selection order over a pool, to a fixed depth.

    tfidf/embedding keep the nearest `depth` candidates, nearest first and
    the query's own record left out, as compact id/similarity arrays: the
    k-shot selection is their first k, so one ranking serves every k up to
    the depth. random keeps no order; each k is its own seeded draw, since
    random.sample has no prefix property.
    """

    pool: FewShotPool
    query_key: str
    method: str
    seed: int
    excluded_id: int | None
    depth: int
    ids: array = field(default_factory=lambda: array("q"))
    sims: array = field(default_factory=lambda: array("d"))

    def take(self, k: int) -> SelectionResult:
        """The k-shot selection: min(k, candidates left after exclusion)."""
        available = len(self.pool) - (1 if self.excluded_id is not None else 0)
        k_delivered = min(k, available)
        if k_delivered == 0:
            return SelectionResult(self.query_key, (), self.method, k, 0)
        if k_delivered > self.depth:
            raise SelectionError(
                f"selection of {k} asked of a ranking of depth {self.depth}"
            )
        if self.method == "random":
            ids = self.pool.candidate_ids
            if self.excluded_id is not None:
                ids = tuple(rid for rid in ids if rid != self.excluded_id)
            rng = derived_rng(self.seed, f"query:{self.query_key}")
            chosen: tuple[tuple[int, float | None], ...] = tuple(
                (rid, None) for rid in rng.sample(ids, k_delivered)
            )
        else:
            chosen = tuple(zip(self.ids[:k_delivered], self.sims[:k_delivered]))
        return SelectionResult(self.query_key, chosen, self.method, k, k_delivered)


def rank(
    pool: FewShotPool,
    query: str | RequirementRecord,
    cfg: SelectionConfig,
    tfidf: TfidfModel | None = None,
    embeddings: EmbeddingMatrix | None = None,
    provider: EmbeddingProvider | None = None,
) -> Ranking:
    """Rank the pool for one query, deep enough for any selection up to cfg.k.

    tfidf/embedding rank by cosine similarity (one kNN call); random defers
    to Ranking.take. A record query that is a pool member never ranks its
    own record; a text query excludes nothing.
    """
    query_key = query_key_for(query)
    excluded_id: int | None = None
    if isinstance(query, RequirementRecord) and query.record_id in pool:
        excluded_id = query.record_id
    available = len(pool) - (1 if excluded_id is not None else 0)
    depth = min(cfg.k, available)
    ranking = Ranking(pool, query_key, cfg.method, cfg.seed, excluded_id, depth)
    if depth == 0 or cfg.method == "random":
        return ranking

    query_text = query.text if isinstance(query, RequirementRecord) else query
    if cfg.method == "tfidf":
        if tfidf is None:
            raise SelectionError("tfidf method requires a fitted TfidfModel")
        _check_space(pool, tfidf.row_ids, "TF-IDF")
        query_vector: dict[int, float] | list[float] = embed_query_tfidf(
            tfidf, query_text
        )
        space: TfidfModel | EmbeddingMatrix = tfidf
    else:
        if embeddings is None or provider is None:
            raise SelectionError(
                "embedding method requires an EmbeddingMatrix and a provider"
            )
        _check_space(pool, embeddings.row_ids, "embedding")
        if provider.provider_tag != embeddings.provider_tag:
            raise SelectionError(
                f"provider {provider.provider_tag!r} does not match matrix "
                f"{embeddings.provider_tag!r}"
            )
        query_vector = list(provider.embed_batch([query_text])[0])
        space = embeddings

    want = depth + (1 if excluded_id is not None else 0)
    ids, sims = nearest(space, query_vector, want)
    if excluded_id in ids:
        drop = ids.index(excluded_id)
        del ids[drop], sims[drop]
    return replace(ranking, ids=array("q", ids[:depth]), sims=array("d", sims[:depth]))


def select(
    pool: FewShotPool,
    query: str | RequirementRecord,
    cfg: SelectionConfig,
    tfidf: TfidfModel | None = None,
    embeddings: EmbeddingMatrix | None = None,
    provider: EmbeddingProvider | None = None,
) -> SelectionResult:
    """Pick cfg.k examples from the pool for one query: rank, then slice.

    random draws uniformly without replacement with a per-query derived seed;
    tfidf/embedding take the cfg.k most cosine-similar candidates. A record
    query that is a pool member never gets its own record back.
    """
    return rank(pool, query, cfg, tfidf, embeddings, provider).take(cfg.k)
