from __future__ import annotations

import math
import random

import numpy as np
import pytest

from shotsweep import (
    BINARY_FRNFR,
    PROMISE_12,
    HashEmbeddingProvider,
    build_embedding_matrix,
    build_pool,
    embed_query_tfidf,
    fit_tfidf,
    knn,
    load_corpus,
    make_split,
    tokenize,
)
from shotsweep.corpus import RequirementRecord
from shotsweep.vectorspace import EmbeddingMatrix, VectorSpaceError, _normalize_sparse

from conftest import PROMISE_CSV, make_records
from oracles import (
    oracle_cosine,
    oracle_fit_tfidf,
    oracle_knn_embedding,
    oracle_knn_tfidf,
    oracle_tfidf_query,
    oracle_tfidf_ranking,
)

WORDS = [
    "system", "shall", "encrypt", "data", "user", "log", "error", "report",
    "daily", "export", "backup", "scale", "respond", "second", "secure",
    "access", "display", "record", "audit", "notify",
]


def random_corpus(rng, n_docs, max_tokens=12):
    texts = [
        " ".join(rng.choices(WORDS, k=rng.randint(1, max_tokens)))
        for _ in range(n_docs)
    ]
    return texts


class TestTokenize:
    def test_basic_sentence(self):
        assert tokenize("The system SHALL encrypt data.") == [
            "the", "system", "shall", "encrypt", "data",
        ]

    def test_empty(self):
        assert tokenize("") == []

    def test_hyphen_splits(self):
        assert tokenize("RSA-2048 keys") == ["rsa", "2048", "keys"]


class TestFitTfidf:
    def test_two_doc_example(self):
        model = fit_tfidf(make_records([("encrypt data", "X"), ("log errors", "X")]))
        assert model.vocabulary == {"data": 0, "encrypt": 1, "errors": 2, "log": 3}
        expected_idf = math.log(3 / 2) + 1
        assert all(abs(v - expected_idf) < 1e-12 for v in model.idf)
        for row in model.rows:
            assert len(row) == 2
            for weight in row.values():
                assert abs(weight - 1 / math.sqrt(2)) < 1e-12

    def test_repeated_term_weights(self):
        model = fit_tfidf(make_records([("a a b", "X")]))
        cols = model.vocabulary
        row = model.rows[0]
        assert abs(row[cols["a"]] - 2 / math.sqrt(5)) < 1e-12
        assert abs(row[cols["b"]] - 1 / math.sqrt(5)) < 1e-12

    def test_empty_text_all_zero_row(self):
        model = fit_tfidf(make_records([("   ", "X"), ("words here", "X")]))
        assert model.rows[0] == {}
        assert "words" in model.vocabulary

    def test_rows_unit_norm(self):
        rng = random.Random(0)
        model = fit_tfidf(make_records([(t, "X") for t in random_corpus(rng, 20)]))
        for row in model.rows:
            if row:
                norm = math.sqrt(sum(w * w for w in row.values()))
                assert abs(norm - 1.0) < 1e-9

    def test_empty_candidates_rejected(self):
        with pytest.raises(VectorSpaceError):
            fit_tfidf([])


class TestQueryTransform:
    def test_query_equal_to_candidate_matches_row(self):
        records = make_records([("encrypt data", "X"), ("log errors", "X")])
        model = fit_tfidf(records)
        assert embed_query_tfidf(model, "encrypt data") == model.rows[0]

    def test_oov_only_query_is_zero(self):
        model = fit_tfidf(make_records([("encrypt data", "X")]))
        assert embed_query_tfidf(model, "totally unseen words") == {}

    def test_weighting_matches_oracle(self):
        texts = ["encrypt data", "log errors"]
        model = fit_tfidf(make_records([(t, "X") for t in texts]))
        got = embed_query_tfidf(model, "encrypt encrypt data")
        expected = oracle_tfidf_query(texts, "encrypt encrypt data")
        for term, col in model.vocabulary.items():
            assert abs(got.get(col, 0.0) - expected[col]) < 1e-12


class TestKnn:
    def test_identical_query_top1(self):
        records = make_records([("alpha beta", "X"), ("gamma delta", "X")])
        model = fit_tfidf(records)
        result = knn(model, embed_query_tfidf(model, "gamma delta"), 1)
        assert result[0].record_id == 1
        assert abs(result[0].similarity - 1.0) < 1e-9

    def test_zero_query_falls_back_to_row_order(self):
        records = make_records([(f"doc {i}", "X") for i in range(5)])
        model = fit_tfidf(records)
        result = knn(model, {}, 3)
        assert [n.record_id for n in result] == [0, 1, 2]
        assert all(n.similarity == 0.0 for n in result)

    def test_k_larger_than_n(self):
        records = make_records([("a", "X"), ("b", "X")])
        model = fit_tfidf(records)
        assert len(knn(model, embed_query_tfidf(model, "a"), 10)) == 2

    def test_monotone_k_prefix(self):
        rng = random.Random(5)
        texts = random_corpus(rng, 25)
        model = fit_tfidf(make_records([(t, "X") for t in texts]))
        query = embed_query_tfidf(model, " ".join(rng.choices(WORDS, k=6)))
        for k in range(1, 25):
            smaller = knn(model, query, k)
            larger = knn(model, query, k + 1)
            assert larger[:k] == smaller

    def test_ranking_matches_bruteforce_oracle(self):
        rng = random.Random(9)
        for _ in range(25):
            texts = random_corpus(rng, rng.randint(2, 50))
            model = fit_tfidf(make_records([(t, "X") for t in texts]))
            query_text = " ".join(rng.choices(WORDS, k=rng.randint(1, 8)))
            got = knn(model, embed_query_tfidf(model, query_text), len(texts))
            expected = oracle_tfidf_ranking(texts, query_text)
            assert [n.record_id for n in got] == [i for i, _ in expected]
            for neighbor, (_, sim) in zip(got, expected):
                assert abs(neighbor.similarity - sim) < 1e-9

    def test_oov_append_does_not_change_ranking(self):
        rng = random.Random(13)
        texts = random_corpus(rng, 30)
        model = fit_tfidf(make_records([(t, "X") for t in texts]))
        base = "encrypt data access"
        with_oov = base + " zzzunknown qqqnotthere"
        first = knn(model, embed_query_tfidf(model, base), 30)
        second = knn(model, embed_query_tfidf(model, with_oov), 30)
        assert first == second

    def test_self_similarity_one(self):
        rng = random.Random(21)
        texts = random_corpus(rng, 15)
        records = make_records([(t, "X") for t in texts])
        model = fit_tfidf(records)
        for record in records:
            hits = knn(model, embed_query_tfidf(model, record.text), len(texts))
            by_id = {n.record_id: n.similarity for n in hits}
            assert abs(by_id[record.record_id] - 1.0) < 1e-9

    def test_cosine_symmetry_on_random_vectors(self):
        rng = random.Random(3)
        for _ in range(50):
            u = [rng.uniform(-1, 1) for _ in range(8)]
            v = [rng.uniform(-1, 1) for _ in range(8)]
            assert abs(oracle_cosine(u, v) - oracle_cosine(v, u)) < 1e-12

    def test_k_must_be_positive(self):
        model = fit_tfidf(make_records([("a", "X")]))
        with pytest.raises(VectorSpaceError):
            knn(model, {}, 0)


def _neighbor_pairs(neighbors):
    pairs = [(n.record_id, n.similarity) for n in neighbors]
    assert all(type(rid) is int and type(sim) is float for rid, sim in pairs)
    return pairs


class TestKnnExactness:
    """knn must equal the scalar loops it replaced exactly (==, not a tolerance)."""

    def test_tfidf_equals_scalar_oracle_on_random_corpora(self):
        rng = random.Random(2024)
        for _ in range(500):
            n_docs = rng.choice([1, 1, 2, 3, rng.randint(4, 40)])
            texts = random_corpus(rng, n_docs, max_tokens=rng.choice([2, 6, 12]))
            for i in range(n_docs):  # forced ties: duplicate documents
                if rng.random() < 0.3:
                    texts[i] = texts[rng.randrange(n_docs)]
                elif rng.random() < 0.05:
                    texts[i] = "!!"  # no tokens: an empty row
            ids = rng.sample(range(10_000), n_docs)
            model = fit_tfidf(
                [RequirementRecord(rid, t, "X", "test") for rid, t in zip(ids, texts)]
            )
            queries = [
                " ".join(rng.choices(WORDS, k=rng.randint(1, 8))),
                rng.choice(texts) + " zzzunknown",
                "zzzunknown qqqnotthere",  # OOV only
                "",
            ]
            for query_text in queries:
                query = embed_query_tfidf(model, query_text)
                for k in {1, rng.randint(1, n_docs), n_docs, n_docs + rng.randint(1, 5)}:
                    got = _neighbor_pairs(knn(model, query, k))
                    assert got == oracle_knn_tfidf(model, query, k)
                    if not query:  # every row at 0, in row order
                        assert got == [(rid, 0.0) for rid in ids[:k]]

    def test_embedding_equals_scalar_oracle_with_duplicate_and_zero_rows(self):
        rng = random.Random(77)
        values = [-1.0, -0.5, 0.0, 0.0, 0.5, 1.0]
        for _ in range(500):
            n_docs = rng.randint(1, 30)
            dim = rng.choice([1, 2, 4])
            rows = [[rng.choice(values) for _ in range(dim)] for _ in range(n_docs)]
            for i in range(n_docs):
                if rng.random() < 0.3:
                    rows[i] = list(rows[rng.randrange(n_docs)])
                elif rng.random() < 0.2:
                    rows[i] = [0.0] * dim
            ids = rng.sample(range(10_000), n_docs)
            matrix = EmbeddingMatrix(
                dim=dim, rows=np.array(rows, dtype=np.float64), row_ids=tuple(ids),
            )
            position = {rid: i for i, rid in enumerate(ids)}
            for query in (rng.choice(rows), [rng.choice(values) for _ in range(dim)], [0.0] * dim):
                for k in {1, rng.randint(1, n_docs), n_docs + 3}:
                    got = _neighbor_pairs(knn(matrix, query, k))
                    assert got == oracle_knn_embedding(matrix, query, k)
                    for (a, sim_a), (b, sim_b) in zip(got, got[1:]):
                        if sim_a == sim_b:  # ties come in row order
                            assert position[a] < position[b]

    def test_postings_are_csc_over_the_rows(self):
        rng = random.Random(4)
        texts = random_corpus(rng, 30)
        model = fit_tfidf(make_records([(t, "X") for t in texts]))
        _, _, rows, *_ = oracle_fit_tfidf(texts)  # model.rows is read from the postings
        assert model.indptr[0] == 0 and model.indptr[-1] == len(model.indices)
        for col in range(len(model.vocabulary)):
            lo, hi = model.indptr[col], model.indptr[col + 1]
            expected = [(i, row[col]) for i, row in enumerate(rows) if col in row]
            assert list(zip(model.indices[lo:hi].tolist(), model.data[lo:hi].tolist())) == expected


def assert_fit_equals_oracle(candidates):
    """fit_tfidf over candidates gives the scalar fit's vocabulary, idf, rows
    (their key order too) and the bytes of its CSC arrays."""
    model = fit_tfidf(candidates)
    vocab, idf, rows, indptr, indices, data = oracle_fit_tfidf([r.text for r in candidates])
    assert list(model.vocabulary.items()) == list(vocab.items())
    assert model.idf == idf
    assert [list(row.items()) for row in model.rows] == [list(row.items()) for row in rows]
    for got, want in ((model.indptr, indptr), (model.indices, indices), (model.data, data)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    return model


class TestFitExactness:
    """fit_tfidf must equal the scalar fit it replaced bit for bit (==, not a tolerance)."""

    def test_fit_equals_scalar_oracle_on_random_corpora(self):
        rng = random.Random(2025)
        words = WORDS + [f"t{i}" for i in range(40)]
        corpora = [["", "!!", "  -- "], ["encrypt data"], ["a a b"], ["same", "same"]]
        for _ in range(2000):
            n_docs = rng.choice([1, 2, 3, rng.randint(4, 30)])
            texts = [" ".join(rng.choices(words, k=rng.randint(0, 40))) for _ in range(n_docs)]
            for i in range(n_docs):
                if rng.random() < 0.2:
                    texts[i] = texts[rng.randrange(n_docs)]  # a duplicate text
                elif rng.random() < 0.05:
                    texts[i] = "!!"  # no terms: an empty row
            corpora.append(texts)
        for texts in corpora:
            assert_fit_equals_oracle(make_records([(t, "X") for t in texts]))

    @pytest.mark.parametrize("scheme", [PROMISE_12, BINARY_FRNFR], ids=["promise12", "frnfr"])
    def test_fit_equals_scalar_oracle_on_promise_fold_pools(self, scheme):
        """Every 10-fold pool of the fixture, as a cv run builds it; a query of a
        pool text is that text's row."""
        corpus = load_corpus(PROMISE_CSV, scheme)
        split = make_split(corpus, "kfold", 10, 0, "allow")
        for fold in range(10):
            train = [r for r in corpus.records if split.assignments[r.record_id] != fold]
            pool = build_pool(train, scheme, len(train), 0).candidates
            model = assert_fit_equals_oracle(pool)
            for record, row in zip(pool, model.rows):
                assert list(embed_query_tfidf(model, record.text).items()) == list(row.items())

    def test_query_norm_is_summed_left_to_right(self):
        """One large weight and ten tiny ones: a compensated sum, which the
        builtin sum is from Python 3.12, gives a different norm."""
        weights = {0: 1.0, **{col: 1e-8 for col in range(1, 11)}}
        squares = [w * w for w in weights.values()]
        sq_norm = 0.0
        for square in squares:
            sq_norm += square
        assert sq_norm != math.fsum(squares)
        norm = math.sqrt(sq_norm)
        assert _normalize_sparse(weights) == {col: w / norm for col, w in weights.items()}


class CountingProvider(HashEmbeddingProvider):
    def __init__(self, dim=8):
        super().__init__(dim)
        self.batches = 0

    def embed_batch(self, texts):
        self.batches += 1
        return super().embed_batch(texts)


class TestEmbeddingMatrix:
    def test_hash_provider_deterministic(self):
        provider = HashEmbeddingProvider(8)
        records = make_records([("one two", "X"), ("three", "X"), ("four five", "X")])
        first = build_embedding_matrix(records, provider)
        second = build_embedding_matrix(records, provider)
        assert first.rows.shape == (3, 8)
        assert np.array_equal(first.rows, second.rows)

    def test_identical_texts_identical_rows(self):
        provider = HashEmbeddingProvider(8)
        records = make_records([("same text", "X"), ("same text", "Y")])
        matrix = build_embedding_matrix(records, provider)
        assert np.array_equal(matrix.rows[0], matrix.rows[1])

    @pytest.mark.parametrize("good, bad, message", [
        (4, 3, "record 1: provider returned dimension 3, expected 4"),
        (0, 0, "record 0: provider returned an empty vector"),
    ], ids=["mismatch", "empty"])
    def test_wrong_dimension_names_record(self, good, bad, message):
        """The first vector's width is the space's; every other must match it."""
        class BrokenProvider:
            def embed_batch(self, texts):
                return [[0.0] * (bad if t == "bad" else good) for t in texts]

        records = make_records([("good", "X"), ("bad", "X")])
        with pytest.raises(VectorSpaceError, match=message):
            build_embedding_matrix(records, BrokenProvider())

    def test_provider_exception_propagates_unchanged(self):
        """A provider's own error keeps its class: a gateway error is reported
        as one, and any other exception is a bug, not a vector-space error."""
        boom = RuntimeError("boom")

        class FailingProvider:
            def embed_batch(self, texts):
                raise boom

        records = make_records([("a", "X"), ("b", "X")])
        with pytest.raises(RuntimeError) as caught:
            build_embedding_matrix(records, FailingProvider())
        assert caught.value is boom

    def test_embedding_knn_matches_bruteforce(self):
        rng = random.Random(7)
        provider = HashEmbeddingProvider(16)
        texts = random_corpus(rng, 20)
        records = make_records([(t, "X") for t in texts])
        matrix = build_embedding_matrix(records, provider)
        query = provider.embed_batch(["encrypt data user"])[0]
        got = knn(matrix, query, 20)
        sims = [oracle_cosine(list(row), query) for row in matrix.rows]
        expected = sorted(range(20), key=lambda i: (-sims[i], i))
        assert [n.record_id for n in got] == expected
        for neighbor in got:
            assert abs(neighbor.similarity - sims[neighbor.record_id]) < 1e-9

    def test_row_norms_computed_once_per_space(self, monkeypatch):
        provider = HashEmbeddingProvider(8)
        records = make_records([("a b", "X"), ("c", "X"), ("d e", "X")])
        matrix = build_embedding_matrix(records, provider)
        norm, axes = np.linalg.norm, []

        def counted_norm(x, *args, **kwargs):
            axes.append(kwargs.get("axis"))
            return norm(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted_norm)
        for query in provider.embed_batch(["a", "c d", "e"]):
            knn(matrix, query, 2)
        assert axes.count(1) == 1  # the rows' norms; each query takes its own
        assert np.array_equal(matrix.row_norms, norm(matrix.rows, axis=1))

    def test_non_finite_query_refused(self):
        matrix = build_embedding_matrix(make_records([("a b", "X")]), HashEmbeddingProvider(4))
        with pytest.raises(VectorSpaceError, match="non-finite"):
            knn(matrix, [float("nan"), 0.0, 0.0, 0.0], 1)

    def test_dimension_mismatch_query(self):
        provider = HashEmbeddingProvider(8)
        records = make_records([("a", "X")])
        matrix = build_embedding_matrix(records, provider)
        with pytest.raises(VectorSpaceError, match="dimension"):
            knn(matrix, [0.0] * 5, 1)
