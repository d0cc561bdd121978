"""Differential tier: batched kernels versus the per-pair loop reference.

The kernel contract (:mod:`repro.kernels.features`) is *bit-exactness* in
float mode — not closeness.  Every test here compares full byte patterns
(``np.array_equal``), across batch sizes 1/2/7/32/1000, empty input and
duplicate pairs, at three levels: feature matrices, classifier
probabilities, and end-to-end serving answers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.er.deeper import _pair_feature_row
from repro.kernels import compose_pair_features, pair_feature_matrix, score_pairs
from repro.serve import MatchService, ShardedMatchService
from repro.serve.cache import content_key

BATCH_SIZES = [1, 2, 7, 32, 1000]


def _loop_features(pairs, embedder) -> np.ndarray:
    return np.array([_pair_feature_row(pair, embedder) for pair in pairs])


def _column_stacks(pairs, embedder):
    u = np.array([embedder.embed_columns(a) for a, _ in pairs])
    v = np.array([embedder.embed_columns(b) for _, b in pairs])
    return u, v


class TestFeatureKernel:
    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_bit_exact_across_batch_sizes(self, trained_matcher, pair_pool, size):
        pairs = pair_pool[:size]
        embedder = trained_matcher.embedder
        batched = pair_feature_matrix(*_column_stacks(pairs, embedder))
        assert np.array_equal(batched, _loop_features(pairs, embedder))

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_composed_bit_exact_across_batch_sizes(
        self, trained_matcher, pair_pool, size
    ):
        pairs = pair_pool[:size]
        embedder = trained_matcher.embedder
        composed = compose_pair_features(pairs, embedder)
        assert np.array_equal(composed, _loop_features(pairs, embedder))

    def test_empty_batch(self, trained_matcher):
        embedder = trained_matcher.embedder
        out = compose_pair_features([], embedder)
        assert out.shape == (0, len(embedder.columns) * (embedder.dim + 1))

    def test_duplicate_pairs(self, trained_matcher, pair_pool):
        # Duplicates exercise the dedup gather: repeated pairs must come
        # back as identical rows, and the whole matrix must still match
        # the (dedup-free) loop.
        pairs = pair_pool[:6] + pair_pool[:3] + [pair_pool[0]]
        embedder = trained_matcher.embedder
        composed = compose_pair_features(pairs, embedder)
        assert np.array_equal(composed, _loop_features(pairs, embedder))
        assert np.array_equal(composed[0], composed[6])
        assert np.array_equal(composed[0], composed[9])

    def test_zero_norm_columns_guarded(self, trained_matcher, pair_pool):
        # A record with no known tokens embeds to all-zero columns; the
        # guarded lanes must agree with the loop's scalar branches.
        embedder = trained_matcher.embedder
        blank = {column: "" for column in embedder.columns}
        pairs = [(blank, pair_pool[0][1]), (blank, blank), pair_pool[1]]
        composed = compose_pair_features(pairs, embedder)
        assert np.array_equal(composed, _loop_features(pairs, embedder))
        assert np.all(np.isfinite(composed))

    def test_kernel_and_loop_matcher_paths_identical(
        self, trained_matcher, pair_pool
    ):
        pairs = pair_pool[:25]
        assert np.array_equal(
            trained_matcher._pair_features_numpy(pairs),
            _loop_features(pairs, trained_matcher.embedder),
        )


class TestScoreKernel:
    @pytest.mark.parametrize("size", [1, 2, 7, 32])
    def test_probabilities_match_predict_proba(
        self, trained_matcher, pair_pool, size
    ):
        pairs = pair_pool[:size]
        u, v = _column_stacks(pairs, trained_matcher.embedder)
        kernel = score_pairs(trained_matcher.classifier, u, v)
        offline = trained_matcher.predict_proba(pairs)
        assert np.array_equal(kernel, offline)

    def test_empty_batch(self, trained_matcher):
        dim = trained_matcher.embedder.dim
        columns = len(trained_matcher.embedder.columns)
        out = score_pairs(
            trained_matcher.classifier,
            np.zeros((0, columns, dim)),
            np.zeros((0, columns, dim)),
        )
        assert out.shape == (0,)


# Every serving topology: the unsharded service and the scatter-gather
# router at several shard counts must all equal the offline oracle.
TOPOLOGIES = [None, 1, 2, 4]


def _serve(matcher, index, n_shards):
    if n_shards is None:
        return MatchService(matcher, index, jobs=1)
    return ShardedMatchService(matcher, index, n_shards=n_shards, jobs=1)


def _assert_batch_equals_offline(report, queries, matcher, index, threshold):
    """Each answer against ``predict_proba`` over the batch's distinct
    (query, candidate) pairs, in the order the service scores them."""
    distinct = {content_key(q): q for q in queries}
    candidates = {a.query_key: a.candidates for a in report.answers}
    pairs = [(key, c) for key in distinct for c in candidates[key]]
    offline = matcher.predict_proba(
        [(distinct[key], index.record(c)) for key, c in pairs]
    )
    score = dict(zip(pairs, offline))
    for answer in report.answers:
        if not answer.candidates:
            assert answer.best_id is None and not answer.matched
            continue
        best = min(
            answer.candidates, key=lambda c: (-score[(answer.query_key, c)], c)
        )
        probability = score[(answer.query_key, best)]
        assert answer.best_id == best
        assert answer.probability == float(probability)  # bit-equal
        assert answer.matched == (probability >= threshold)
    return len(pairs)


class TestServingDifferential:
    @pytest.mark.parametrize("n_shards", TOPOLOGIES)
    def test_batch_equals_offline_predict_before_and_after_swap(
        self, trained_matcher, second_matcher, built_index, query_records,
        n_shards,
    ):
        queries = query_records[:40]
        service = _serve(trained_matcher, built_index, n_shards)
        cold = service.match_batch(queries)
        distinct_pairs = _assert_batch_equals_offline(
            cold, queries, trained_matcher, built_index, service.threshold
        )
        assert distinct_pairs > 0
        assert cold.scored_pairs == distinct_pairs

        service.swap_matcher(second_matcher)
        swapped = service.match_batch(queries)
        assert _assert_batch_equals_offline(
            swapped, queries, second_matcher, built_index, service.threshold
        ) == distinct_pairs
        # The swap cleared the score tier: every pair is scored afresh.
        assert swapped.scored_pairs == distinct_pairs

    def test_kernel_service_equals_offline_predict(
        self, trained_matcher, built_index, query_records
    ):
        service = MatchService(trained_matcher, built_index, jobs=1)
        for query in query_records[:12]:
            answer = service.match_one(query)
            if not answer.candidates:
                continue
            pairs = [(query, built_index.record(c)) for c in answer.candidates]
            offline = trained_matcher.predict_proba(pairs)
            assert answer.probability == float(offline.max())
            best_position = answer.candidates.index(answer.best_id)
            assert answer.probability == float(offline[best_position])
