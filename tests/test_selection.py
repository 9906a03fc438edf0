from __future__ import annotations

import random

import pytest

from shotsweep import (
    DEFAULT_GRID,
    HashEmbeddingProvider,
    LabelDef,
    LabelScheme,
    SelectionConfig,
    build_pool,
    fit_tfidf,
    make_split,
)
from shotsweep import selection
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


def selected(pool, query, cfg, provider=None):
    """One query's cfg.k-shot selection: (id, similarity or None) pairs."""
    return rank(pool, [query], cfg, provider)[0].take(cfg.k)


def ids_of(selection):
    return tuple(rid for rid, _ in selection)


def make_pool(n=30, seed=0):
    rng = random.Random(seed)
    train = records_for([n // 2, n - n // 2], rng)
    return build_pool(train, scheme_for(2), n, seed=seed)


class TestSelect:
    def test_zero_shot_empty(self):
        pool = make_pool()
        for method in ("random", "tfidf", "embedding"):
            assert selected(pool, "anything", SelectionConfig(method, 0)) == ()

    def test_tfidf_exact_match_without_exclusion(self):
        pool = make_pool()
        target = pool.candidates[3]
        cfg = SelectionConfig("tfidf", 1)
        result = selected(pool, target.text, cfg)
        assert result[0][0] == target.record_id
        assert abs(result[0][1] - 1.0) < 1e-9

    def test_tfidf_top10_matches_bruteforce(self):
        pool = make_pool(30)
        query = "alpha beta item"
        result = selected(pool, query, SelectionConfig("tfidf", 10))
        texts = [r.text for r in pool.candidates]
        expected = oracle_tfidf_ranking(texts, query)[:10]
        expected_ids = [pool.candidates[i].record_id for i, _ in expected]
        assert list(ids_of(result)) == expected_ids

    def test_exclusion_removes_query_record(self):
        pool = make_pool(12)
        for record in pool.candidates:
            result = selected(pool, record, SelectionConfig("tfidf", len(pool)))
            assert record.record_id not in ids_of(result)
            assert len(result) == len(pool) - 1

    def test_exclusion_applies_to_random(self):
        pool = make_pool(10)
        record = pool.candidates[0]
        for seed in range(20):
            result = selected(pool, record, SelectionConfig("random", 9, seed=seed))
            assert record.record_id not in ids_of(result)
            assert len(result) == 9

    def test_random_is_reproducible_but_varies_by_query(self):
        pool = make_pool(20)
        cfg = SelectionConfig("random", 5, seed=7)
        a1 = selected(pool, pool.candidates[0], cfg)
        a2 = selected(pool, pool.candidates[0], cfg)
        b = selected(pool, pool.candidates[1], cfg)
        assert a1 == a2
        assert ids_of(a1) != ids_of(b)  # derived per-query seeds

    def test_similarities_non_increasing(self):
        pool = make_pool(25)
        provider = HashEmbeddingProvider(16)
        for method in ("tfidf", "embedding"):
            result = selected(pool, "alpha beta gamma", SelectionConfig(method, 10), provider)
            sims = [sim for _, sim in result]
            assert all(s is not None for s in sims)
            assert all(a >= b for a, b in zip(sims, sims[1:]))

    def test_cardinality_identical_across_methods(self):
        pool = make_pool(15)
        provider = HashEmbeddingProvider(8)
        for k in (0, 3, 15, 40):
            sizes = {
                len(selected(pool, "beta gamma", SelectionConfig("random", k))),
                len(selected(pool, "beta gamma", SelectionConfig("tfidf", k))),
                len(selected(pool, "beta gamma", SelectionConfig("embedding", k), provider)),
            }
            assert len(sizes) == 1

    def test_vector_methods_deterministic(self):
        pool = make_pool(14)
        provider = HashEmbeddingProvider(8)
        query = pool.candidates[2]
        tfidf_runs = [selected(pool, query, SelectionConfig("tfidf", 5)) for _ in range(3)]
        embed_runs = [
            selected(pool, query, SelectionConfig("embedding", 5), provider)
            for _ in range(3)
        ]
        assert len(set(tfidf_runs)) == 1
        assert len(set(embed_runs)) == 1

    def test_deep_ranking_sliced_equals_select_at_each_k(self):
        pool = make_pool(20)
        provider = HashEmbeddingProvider(8)
        queries = [pool.candidates[4], "alpha beta gamma", pool.candidates[0], "zeta"]
        for method in ("random", "tfidf", "embedding"):
            rankings = rank(pool, queries, SelectionConfig(method, 25, seed=3), provider)
            assert len(rankings) == len(queries)
            for query, ranking in zip(queries, rankings):
                for k in range(26):
                    expected = selected(pool, query, SelectionConfig(method, k, seed=3), provider)
                    assert ranking.take(k) == expected

    def test_no_duplicate_ids(self):
        pool = make_pool(18)
        for seed in range(10):
            for method in ("random", "tfidf"):
                result = selected(
                    pool, pool.candidates[seed], SelectionConfig(method, 12, seed=seed)
                )
                assert len(set(ids_of(result))) == len(result)


class CountingProvider(HashEmbeddingProvider):
    def __init__(self, dim):
        super().__init__(dim)
        self.batches = []

    def embed_batch(self, texts):
        self.batches.append(len(texts))
        return super().embed_batch(texts)


class TestRankFitsOncePerPool:
    @pytest.fixture
    def fits(self, monkeypatch):
        fitted = []

        def counting_fit(candidates):
            fitted.append(len(candidates))
            return fit_tfidf(candidates)

        monkeypatch.setattr(selection, "fit_tfidf", counting_fit)
        return fitted

    def queries(self, pool):
        return [*pool.candidates[:6], "alpha beta", "gamma delta item"]

    def test_tfidf_fits_once_for_every_query(self, fits):
        pool = make_pool(40)
        rankings = rank(pool, self.queries(pool), SelectionConfig("tfidf", 5))
        assert fits == [len(pool)]
        assert all(len(ranking.ids) == 5 for ranking in rankings)

    def test_embedding_encodes_pool_once_then_each_query(self, fits):
        pool = make_pool(70)
        provider = CountingProvider(8)
        queries = self.queries(pool)
        rank(pool, queries, SelectionConfig("embedding", 5), provider)
        assert provider.batches == [32, 32, 6] + [1] * len(queries)
        assert fits == []

    def test_random_zero_shot_and_empty_pool_fit_nothing(self, fits):
        pool = make_pool(40)
        empty = build_pool([], scheme_for(2), 0, seed=0)
        provider = CountingProvider(8)
        for target, method, k in (
            (pool, "random", 5),
            (pool, "tfidf", 0),
            (pool, "embedding", 0),
            (empty, "tfidf", 5),
            (empty, "embedding", 5),
        ):
            rankings = rank(target, self.queries(pool), SelectionConfig(method, k), provider)
            assert len(rankings) == len(self.queries(pool))
        assert fits == []
        assert provider.batches == []

    def test_embedding_without_provider_is_a_selection_error(self):
        with pytest.raises(SelectionError, match="requires an embedding provider"):
            rank(make_pool(6), ["alpha"], SelectionConfig("embedding", 2))


class TestNestedSelection:
    """Every method's k-shot selection is a prefix of its larger-k selections,
    so a shot-count curve measures what adding examples does."""

    @pytest.fixture(scope="class")
    def readme_holdout(self, promise_binary):
        """The README sweep's pool (200, seed 0) and test records (holdout 0.8, seed 0)."""
        split = make_split(promise_binary, "holdout", 0.8, 0)
        train = [r for r in promise_binary.records if split.assignments[r.record_id] == 0]
        test = [r for r in promise_binary.records if split.assignments[r.record_id] == 1]
        return build_pool(train, promise_binary.scheme, 200, 0), test

    def test_random_prompts_of_the_readme_sweep_are_prefixes(self, readme_holdout):
        pool, test = readme_holdout
        rankings = rank(pool, test, SelectionConfig("random", max(DEFAULT_GRID), seed=0))
        not_nested = []
        for query, ranking in zip(test, rankings):
            chosen = {k: ids_of(ranking.take(k)) for k in DEFAULT_GRID}
            if any(chosen[big][:k] != chosen[k] for k in DEFAULT_GRID for big in DEFAULT_GRID
                   if k < big):
                not_nested.append(query.record_id)
        assert len(test) == 125
        assert not_nested == []

    def test_ranking_depth_leaves_smaller_selections_unchanged(self, readme_holdout):
        pool, test = readme_holdout
        queries = [*test[:10], pool.candidates[0], pool.candidates[-1], "alpha beta"]
        provider = HashEmbeddingProvider(16)
        for method in ("random", "tfidf", "embedding"):
            shallow, deep = (
                rank(pool, queries, SelectionConfig(method, depth, seed=0), provider)
                for depth in (20, 160)
            )
            for a, b in zip(shallow, deep):
                for k in range(21):
                    assert a.take(k) == b.take(k), (method, a.query_key, k)
