from __future__ import annotations

import random

import pytest

from shotsweep import (
    HashEmbeddingProvider,
    LabelDef,
    LabelScheme,
    SelectionConfig,
    build_embedding_matrix,
    build_pool,
    fit_tfidf,
    select,
)
from shotsweep.selection import SelectionError, rank

from conftest import make_records
from oracles import oracle_tfidf_ranking, simulate_round_robin

WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]


def scheme_for(n_classes):
    return LabelScheme(
        "multi",
        tuple(LabelDef(f"C{i}", f"Class{i}") for i in range(n_classes)),
        "multiclass" if n_classes != 2 else "binary",
    )


def records_for(class_sizes, rng=None):
    rng = rng or random.Random(0)
    rows = []
    for i, n in enumerate(class_sizes):
        for j in range(n):
            rows.append((f"{rng.choice(WORDS)} {rng.choice(WORDS)} c{i} item {j}", f"C{i}"))
    return make_records(rows)


class TestBuildPool:
    def test_even_interleave(self):
        scheme = scheme_for(2)
        train = records_for([10, 10])
        pool = build_pool(train, scheme, 4, seed=0)
        assert len(pool) == 4
        assert {lid: len(ids) for lid, ids in pool.per_class.items()} == {"C0": 2, "C1": 2}
        labels = [r.label for r in pool.candidates]
        assert labels == ["C0", "C1", "C0", "C1"]

    def test_exhausted_class_skipped(self):
        scheme = scheme_for(2)
        train = records_for([3, 10])
        pool = build_pool(train, scheme, 8, seed=1)
        counts = {lid: len(ids) for lid, ids in pool.per_class.items()}
        assert counts == {"C0": 3, "C1": 5}
        labels = [r.label for r in pool.candidates]
        assert labels == ["C0", "C1", "C0", "C1", "C0", "C1", "C1", "C1"]

    def test_counts_match_reference_simulation(self):
        rng = random.Random(42)
        for _ in range(100):
            n_classes = rng.randint(1, 6)
            sizes = [rng.randint(0, 20) for _ in range(n_classes)]
            scheme = scheme_for(n_classes)
            train = records_for(sizes, rng)
            size = rng.randint(0, len(train))
            pool = build_pool(train, scheme, size, seed=rng.randint(0, 10))
            expected = simulate_round_robin(
                [(f"C{i}", n) for i, n in enumerate(sizes)], size
            )
            got = {lid: len(ids) for lid, ids in pool.per_class.items()}
            assert got == expected

    def test_prefix_spread_invariant(self):
        scheme = scheme_for(3)
        train = records_for([4, 9, 2])
        for size in range(len(train) + 1):
            pool = build_pool(train, scheme, size, seed=5)
            counts = {lid: len(ids) for lid, ids in pool.per_class.items()}
            remaining = {"C0": 4, "C1": 9, "C2": 2}
            live = [
                counts[lid] for lid in counts if counts[lid] < remaining[lid]
            ]
            if live:
                assert max(live) - min(live) <= 1

    def test_size_too_large(self):
        scheme = scheme_for(1)
        with pytest.raises(SelectionError, match="exceeds"):
            build_pool(records_for([3]), scheme, 4, seed=0)

    def test_deterministic_given_seed(self):
        scheme = scheme_for(2)
        train = records_for([8, 8])
        one = build_pool(train, scheme, 10, seed=9)
        two = build_pool(train, scheme, 10, seed=9)
        assert one.candidate_ids == two.candidate_ids
        other = build_pool(train, scheme, 10, seed=10)
        assert other.candidate_ids != one.candidate_ids


def make_pool(n=30, seed=0):
    rng = random.Random(seed)
    train = records_for([n // 2, n - n // 2], rng)
    return build_pool(train, scheme_for(2), n, seed=seed)


class TestSelect:
    def test_zero_shot_empty(self):
        pool = make_pool()
        for method in ("random", "tfidf", "embedding"):
            result = select(pool, "anything", SelectionConfig(method, 0))
            assert result.chosen == ()
            assert result.k_delivered == 0

    def test_tfidf_exact_match_without_exclusion(self):
        pool = make_pool()
        model = fit_tfidf(pool.candidates)
        target = pool.candidates[3]
        cfg = SelectionConfig("tfidf", 1)
        result = select(pool, target.text, cfg, tfidf=model)
        assert result.chosen[0][0] == target.record_id
        assert abs(result.chosen[0][1] - 1.0) < 1e-9

    def test_tfidf_top10_matches_bruteforce(self):
        pool = make_pool(30)
        model = fit_tfidf(pool.candidates)
        query = "alpha beta item"
        result = select(pool, query, SelectionConfig("tfidf", 10), tfidf=model)
        texts = [r.text for r in pool.candidates]
        expected = oracle_tfidf_ranking(texts, query)[:10]
        expected_ids = [pool.candidates[i].record_id for i, _ in expected]
        assert list(result.chosen_ids) == expected_ids

    def test_exclusion_removes_query_record(self):
        pool = make_pool(12)
        model = fit_tfidf(pool.candidates)
        for record in pool.candidates:
            result = select(
                pool, record, SelectionConfig("tfidf", len(pool)), tfidf=model
            )
            assert record.record_id not in result.chosen_ids
            assert result.k_delivered == len(pool) - 1

    def test_exclusion_applies_to_random(self):
        pool = make_pool(10)
        record = pool.candidates[0]
        for seed in range(20):
            result = select(pool, record, SelectionConfig("random", 9, seed=seed))
            assert record.record_id not in result.chosen_ids
            assert result.k_delivered == 9

    def test_random_is_reproducible_but_varies_by_query(self):
        pool = make_pool(20)
        cfg = SelectionConfig("random", 5, seed=7)
        a1 = select(pool, pool.candidates[0], cfg)
        a2 = select(pool, pool.candidates[0], cfg)
        b = select(pool, pool.candidates[1], cfg)
        assert a1 == a2
        assert a1.chosen_ids != b.chosen_ids  # derived per-query seeds

    def test_similarities_non_increasing(self):
        pool = make_pool(25)
        model = fit_tfidf(pool.candidates)
        provider = HashEmbeddingProvider(16)
        matrix = build_embedding_matrix(pool.candidates, provider)
        for method, kwargs in (
            ("tfidf", {"tfidf": model}),
            ("embedding", {"embeddings": matrix, "provider": provider}),
        ):
            result = select(
                pool, "alpha beta gamma", SelectionConfig(method, 10), **kwargs
            )
            sims = [sim for _, sim in result.chosen]
            assert all(s is not None for s in sims)
            assert all(a >= b for a, b in zip(sims, sims[1:]))

    def test_cardinality_identical_across_methods(self):
        pool = make_pool(15)
        model = fit_tfidf(pool.candidates)
        provider = HashEmbeddingProvider(8)
        matrix = build_embedding_matrix(pool.candidates, provider)
        for k in (0, 3, 15, 40):
            sizes = {
                len(select(pool, "beta gamma", SelectionConfig("random", k)).chosen),
                len(select(pool, "beta gamma", SelectionConfig("tfidf", k), tfidf=model).chosen),
                len(
                    select(
                        pool,
                        "beta gamma",
                        SelectionConfig("embedding", k),
                        embeddings=matrix,
                        provider=provider,
                    ).chosen
                ),
            }
            assert len(sizes) == 1

    def test_space_pool_mismatch_rejected(self):
        pool = make_pool(10, seed=1)
        other = make_pool(10, seed=2)
        model = fit_tfidf(other.candidates)
        with pytest.raises(SelectionError, match="not fitted over this pool"):
            select(pool, "alpha", SelectionConfig("tfidf", 2), tfidf=model)

    def test_embedding_requires_matching_provider_tag(self):
        pool = make_pool(6)
        provider = HashEmbeddingProvider(8)
        matrix = build_embedding_matrix(pool.candidates, provider)
        with pytest.raises(SelectionError, match="does not match"):
            select(
                pool,
                "alpha",
                SelectionConfig("embedding", 2),
                embeddings=matrix,
                provider=HashEmbeddingProvider(16),
            )

    def test_vector_methods_deterministic(self):
        pool = make_pool(14)
        model = fit_tfidf(pool.candidates)
        provider = HashEmbeddingProvider(8)
        matrix = build_embedding_matrix(pool.candidates, provider)
        query = pool.candidates[2]
        tfidf_runs = [
            select(pool, query, SelectionConfig("tfidf", 5), tfidf=model)
            for _ in range(3)
        ]
        embed_runs = [
            select(
                pool, query, SelectionConfig("embedding", 5),
                embeddings=matrix, provider=provider,
            )
            for _ in range(3)
        ]
        assert len(set(tfidf_runs)) == 1
        assert len(set(embed_runs)) == 1

    def test_deep_ranking_sliced_equals_select_at_each_k(self):
        pool = make_pool(20)
        provider = HashEmbeddingProvider(8)
        spaces = {
            "random": {},
            "tfidf": {"tfidf": fit_tfidf(pool.candidates)},
            "embedding": {
                "embeddings": build_embedding_matrix(pool.candidates, provider),
                "provider": provider,
            },
        }
        for method, kwargs in spaces.items():
            for query in (pool.candidates[4], "alpha beta gamma"):
                ranking = rank(pool, query, SelectionConfig(method, 25, seed=3), **kwargs)
                for k in range(26):
                    expected = select(pool, query, SelectionConfig(method, k, seed=3), **kwargs)
                    assert ranking.take(k) == expected

    def test_no_duplicate_ids(self):
        pool = make_pool(18)
        model = fit_tfidf(pool.candidates)
        for seed in range(10):
            for method, kwargs in (("random", {}), ("tfidf", {"tfidf": model})):
                result = select(
                    pool,
                    pool.candidates[seed],
                    SelectionConfig(method, 12, seed=seed),
                    **kwargs,
                )
                assert len(set(result.chosen_ids)) == len(result.chosen_ids)
