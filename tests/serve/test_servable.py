"""Servable-matcher validation: the embedder must be the index's own.

Serving embeds query columns with the *matcher's* embedder while the
candidate columns come precomputed from the *index's*, so a matcher
whose embedder differs from the index's would be scored against
mismatched vectors.  :func:`repro.serve.service.check_servable` refuses
such a matcher — at construction and inside every swap, unsharded and
sharded — along with trainable composers, whose pair representation the
batched kernel cannot decompose.
"""

from __future__ import annotations

import pytest

from repro.embeddings import TupleEmbedder, tuple_documents
from repro.er import DeepER
from repro.serve import MatchService, ShardedMatchService
from repro.text import SkipGram, SubwordEmbeddings


@pytest.fixture(scope="module")
def train_triples(small_benchmark):
    labeled = small_benchmark.labeled_pairs(negative_ratio=3, rng=1)[:40]
    return [
        (small_benchmark.record_a(a), small_benchmark.record_b(b), y)
        for a, b, y in labeled
    ]


@pytest.fixture(scope="module")
def other_model(small_benchmark):
    """A second SkipGram over the same tables: same vocabulary, other vectors."""
    docs = tuple_documents([small_benchmark.table_a, small_benchmark.table_b])
    word_docs = [[t for v in doc for t in str(v).split()] for doc in docs]
    return SkipGram(dim=24, window=8, epochs=1, rng=1).fit(word_docs)


@pytest.fixture(scope="module")
def subword(word_model):
    return SubwordEmbeddings(word_model)


@pytest.fixture(scope="module")
def foreign_matcher(other_model, small_benchmark, train_triples):
    """Same columns and composition as the served matcher, other word model."""
    return DeepER(
        other_model, small_benchmark.compare_columns, composition="sif", rng=0
    ).fit(train_triples, epochs=1)


@pytest.fixture(scope="module")
def lstm_matcher(word_model, small_benchmark, train_triples):
    return DeepER(
        word_model, small_benchmark.compare_columns, composition="lstm", rng=0
    ).fit(train_triples[:16], epochs=1)


def _build(kind, matcher, index):
    if kind == "unsharded":
        return MatchService(matcher, index, jobs=1)
    return ShardedMatchService(matcher, index, n_shards=4, replicas=2, jobs=1)


KINDS = ("unsharded", "sharded")


class TestEmbedderIdentity:
    def test_vector_fn_kept_as_passed(self, word_model, subword):
        default = TupleEmbedder(word_model, ["title"], method="sif")
        assert default.vector_fn is None
        assert default.vector_fn == TupleEmbedder(word_model, ["title"]).vector_fn
        overridden = TupleEmbedder(word_model, ["title"], vector_fn=subword.vector)
        # Bound methods compare equal per (object, function), so one
        # override reached twice is the same token-vector function.
        assert overridden.vector_fn == subword.vector


@pytest.mark.parametrize("kind", KINDS)
class TestConstructionRejects:
    def test_other_word_model(self, kind, foreign_matcher, built_index):
        with pytest.raises(ValueError, match="embedder differs"):
            _build(kind, foreign_matcher, built_index)

    def test_other_vector_fn(
        self, kind, word_model, subword, small_benchmark, train_triples,
        built_index,
    ):
        backed_off = DeepER(
            word_model, small_benchmark.compare_columns, composition="sif",
            vector_fn=subword.vector, rng=0,
        ).fit(train_triples, epochs=1)
        with pytest.raises(ValueError, match="embedder differs"):
            _build(kind, backed_off, built_index)

    def test_trainable_composer(self, kind, lstm_matcher, built_index):
        with pytest.raises(ValueError, match="lstm"):
            _build(kind, lstm_matcher, built_index)


@pytest.mark.parametrize("kind", KINDS)
class TestSwapRejects:
    def test_other_word_model(
        self, kind, trained_matcher, foreign_matcher, built_index, query_records
    ):
        service = _build(kind, trained_matcher, built_index)
        before = [a.to_dict() for a in service.match_batch(query_records[:8]).answers]
        fingerprint = service.parameter_fingerprint()
        with pytest.raises(ValueError, match="embedder differs"):
            service.swap_matcher(foreign_matcher)
        assert service.parameter_fingerprint() == fingerprint
        assert service.matcher is trained_matcher
        after = service.match_batch(query_records[:8]).answers
        assert [a.to_dict() for a in after] == before
