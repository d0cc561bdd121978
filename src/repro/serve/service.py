"""The online match service: read-only inference over a trained matcher.

:class:`MatchService` answers "does tuple *t* match anything in the
indexed table?" by composing two existing layers behind an inference-only
contract: blocking-index candidate lookup (:class:`repro.serve.index.
BlockingIndex`) followed by one batched :func:`repro.kernels.score.
score_pairs` call over every not-yet-cached (query, candidate) pair in
the batch, bit-identical to the offline ``DeepER.predict_proba``.
That single coalesced scoring call is the micro-batching win the
scheduler (:mod:`repro.serve.sim`) exists to exploit: N concurrent
queries cost one model invocation, not N.

Read-only contract
------------------
Serving never trains.  The service puts the matcher in eval mode at
construction and it stays there; lint rule RL1104 statically bans ``.fit``,
``optimizer.step``/``.backward`` and ``.data`` mutation under
``repro/serve/`` and in everything it calls, and
:meth:`parameter_fingerprint` lets tests assert the
weights are byte-identical before and after any amount of traffic.

Fault wiring
------------
The scoring call runs under :data:`repro.faults.retry.HOT_POLICY` at site
``serve.score`` with a shape/finite validator, so an injected error or
corrupted return is retried and a recovered run stays bit-identical; the
per-batch cache consult passes through latency-only site
``serve.cache.lookup``.  Metrics are guarded ``serve.*`` instruments.

Hot swap
--------
:meth:`MatchService.swap_matcher` is the one sanctioned mutation of a
live service: the continuous-curation loop (:mod:`repro.loop`) promotes
a retrained candidate and swaps it in without rebuilding the service.
The cache-invalidation contract is exact: the **score cache is cleared**
(its entries are model outputs) while the **embedding and column caches
are kept** — their contents are functions of the embedder configuration
(word model, columns, composition method, token-vector function), which
:func:`check_servable` pins to the index's, never of the classifier
weights being replaced.  Swapping to a matcher with the *same* parameter
fingerprint is a no-op: no rebind, no cache clear, provably unchanged
answers and cache counters.  The commit runs under validated, retried
fault site ``serve.swap`` (idempotent: a retried commit observes the
already-swapped fingerprint and no-ops).  The sharded service shares the
swap (:func:`swap_validated`) and the scoring call (:func:`score_columns`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.types import is_missing
from repro.er.deeper import DeepER
from repro.faults.plan import inject
from repro.faults.retry import HOT_POLICY, retry_call
from repro.kernels.features import unique_column_stack
from repro.kernels.score import score_pairs
from repro.nn.layers import Module
from repro.obs.metrics import REGISTRY as _OBS
from repro.serve.cache import LRUCache, MISSING, CacheStatsView, content_key
from repro.serve.index import BlockingIndex
from repro.text.tokenize import word_tokenize
from repro.utils.validation import check_fitted

__all__ = ["BatchReport", "MatchAnswer", "MatchService"]


def looks_like_fingerprint(value: object) -> bool:
    """True for a 40-char lowercase hex sha1 digest (swap validator)."""
    return (
        isinstance(value, str)
        and len(value) == 40
        and all(c in "0123456789abcdef" for c in value)
    )


def check_servable(matcher: DeepER, index: BlockingIndex) -> None:
    """Reject a matcher the kernel scoring path would score wrongly.

    Query columns come from the matcher's embedder and candidate columns
    from the index's, so both must share the word model (by identity),
    compare columns, composition method and token-vector function.
    Trainable composers are refused: they are not column-decomposable.
    """
    check_fitted(matcher, "trained_")
    if matcher.composition not in ("mean", "sif"):
        raise ValueError(f"cannot serve composition {matcher.composition!r}")
    ours, theirs = matcher.embedder, index.embedder
    if ours.columns != theirs.columns:
        raise ValueError(
            f"compare columns differ from the index's "
            f"({ours.columns!r} != {theirs.columns!r})"
        )
    if ours.method != theirs.method:
        raise ValueError(
            f"composition differs from the index's "
            f"({ours.method!r} != {theirs.method!r})"
        )
    if ours.model is not theirs.model or ours.vector_fn != theirs.vector_fn:
        raise ValueError("embedder differs from the index's (word model or vector_fn)")


def check_records(records: "list[dict[str, object]]", columns: "list[str]") -> None:
    """Refuse a batch holding a record serving cannot answer.

    A non-dict raises :class:`TypeError`; a record with no compare column
    carrying a word token (it would embed to the zero vector and be
    answered from the zero-vector LSH bucket) raises :class:`ValueError`.
    Both name the batch position.  Both services call this before any
    cache, fault site or counter, so a refused batch changes nothing.
    """
    for position, record in enumerate(records):
        if not isinstance(record, dict):
            raise TypeError(
                f"record {position} must be a dict, got {type(record).__name__}"
            )
        if not any(
            not is_missing(value := record.get(column)) and word_tokenize(str(value))
            for column in columns
        ):
            raise ValueError(
                f"record {position} has no non-empty compare column "
                f"(columns: {list(columns)!r})"
            )


def swap_validated(service, matcher: DeepER, index: BlockingIndex) -> str:
    """The validated hot swap both match services share.

    :func:`check_servable`, then ``service._swap`` (idempotent) under
    validated, retried site ``serve.swap``; counts real swaps.
    """
    check_servable(matcher, index)
    before = service.parameter_fingerprint()
    fingerprint = retry_call(service._swap, matcher, site="serve.swap",
                             policy=HOT_POLICY, validate=looks_like_fingerprint)
    if _OBS.enabled and fingerprint != before:
        _OBS.counter("serve.swaps").inc()
    return fingerprint


def score_columns(
    classifier: Module, u_cols: np.ndarray, v_cols: np.ndarray
) -> np.ndarray:
    """The retried, validated ``serve.score`` call both services make."""
    probabilities = retry_call(
        score_pairs, classifier, u_cols, v_cols,
        site="serve.score",
        policy=HOT_POLICY,
        validate=lambda p: (
            isinstance(p, np.ndarray)
            and p.shape == (len(u_cols),)
            and bool(np.all(np.isfinite(p)))
        ),
    )
    if _OBS.enabled:
        _OBS.counter("serve.predict_calls").inc()
        _OBS.counter("serve.scored_pairs").inc(float(len(u_cols)))
        _OBS.histogram("serve.score_batch_pairs").observe(len(u_cols))
    return probabilities


@dataclass(frozen=True)
class MatchAnswer:
    """One query's answer: best candidate (if any) and its probability."""

    query_key: str
    candidates: tuple[str, ...]
    best_id: str | None
    probability: float
    matched: bool
    embedding_cached: bool
    scores_cached: int

    def to_dict(self) -> dict:
        return {
            "query_key": self.query_key,
            "candidates": list(self.candidates),
            "best_id": self.best_id,
            "probability": self.probability,
            "matched": self.matched,
        }


@dataclass(frozen=True)
class BatchReport:
    """What one coalesced batch actually cost.

    ``scored_pairs`` is the number of *unique uncached* pairs sent to the
    matcher (the simulated cost model charges per scored pair, so cache
    hits make batches measurably faster); ``predict_calls`` is 0 or 1 —
    the whole batch shares at most one scoring call.
    """

    answers: "list[MatchAnswer]"
    scored_pairs: int
    embedding_misses: int
    predict_calls: int


class MatchService:
    """Online ER matching over a blocking index and a trained DeepER model.

    Parameters
    ----------
    matcher:
        Fitted :class:`DeepER` servable over ``index``
        (:func:`check_servable`); flipped to eval mode at construction.
    index:
        Built :class:`BlockingIndex` over the reference table.
    threshold:
        Probability above which the best candidate counts as a match.
    jobs:
        Explicit :mod:`repro.par` process count for query embedding and
        pair featurisation (bit-identical results for every value).
    embedding_cache_size / score_cache_size:
        LRU capacities; 0 disables the respective cache.  A third cache
        (query *column* embeddings) is sized like the embedding cache.
    cache_scope:
        Prefix for the cache names (and therefore the guarded
        ``serve.cache.<scope><name>.*`` metric counters).  The sharded
        service scopes each shard's cache tier (``"shard3."``) so
        per-shard hit/miss counters stay distinguishable — and provably
        sum to the unsharded totals — instead of all shards conflating
        into one ``serve.cache.embedding.*`` stream.
    """

    def __init__(
        self,
        matcher: DeepER,
        index: BlockingIndex,
        *,
        threshold: float = 0.5,
        jobs: int = 1,
        embedding_cache_size: int = 1024,
        score_cache_size: int = 4096,
        cache_scope: str = "",
    ) -> None:
        check_servable(matcher, index)
        if not index.built:
            raise RuntimeError("BlockingIndex must be built before serving")
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        self.matcher = matcher
        self.index = index
        self.threshold = threshold
        self.jobs = jobs
        # Serving owns the matcher: inference-only mode, explicit jobs.
        self.matcher.jobs = jobs
        self.matcher.classifier.eval()
        self.embedding_cache = LRUCache(embedding_cache_size,
                                        name=f"{cache_scope}embedding")
        self.score_cache = LRUCache(score_cache_size, name=f"{cache_scope}score")
        self.column_cache = LRUCache(embedding_cache_size,
                                     name=f"{cache_scope}columns")

    # ------------------------------------------------------------------ #
    # read-only contract
    # ------------------------------------------------------------------ #

    def parameter_fingerprint(self) -> str:
        """sha1 over every model parameter's bytes (order-stable).

        Serving must never move a weight on its own: tests take the
        fingerprint before and after traffic and assert equality.  The
        only sanctioned change is an explicit :meth:`swap_matcher`.
        """
        return self.matcher.parameter_fingerprint()

    def swap_matcher(self, matcher: DeepER) -> str:
        """Hot-swap a promoted matcher in; returns its fingerprint.

        Validates compatibility first (:func:`check_servable` pins the
        embedder configuration the kept caches depend on to the index's),
        then commits under validated fault site ``serve.swap``.  The
        commit clears exactly the score cache (model outputs) and keeps
        the embedding/column caches (model-independent contents);
        swapping to the currently served fingerprint is a no-op that
        touches neither caches nor counters.
        """
        return swap_validated(self, matcher, self.index)

    def _swap(self, matcher: DeepER) -> str:
        """Idempotent swap commit (runs under the ``serve.swap`` site).

        A retried commit that already ran sees the new fingerprint as
        current and returns without clearing again, so the net effect of
        any number of attempts equals exactly one.
        """
        fingerprint = matcher.parameter_fingerprint()
        if fingerprint == self.parameter_fingerprint():
            return fingerprint
        matcher.jobs = self.jobs
        matcher.classifier.eval()
        self.matcher = matcher
        # Invalidate exactly the model-dependent tier.  Embedding and
        # column cache entries are functions of the embedder config
        # (validated identical above), so they stay warm across the swap.
        self.score_cache.clear()
        return fingerprint

    @property
    def cache_stats(self) -> CacheStatsView:
        """Combined hit/miss/eviction view over both caches."""
        return CacheStatsView(self.embedding_cache.stats, self.score_cache.stats)

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #

    def match_one(self, record: dict[str, object]) -> MatchAnswer:
        """Single-query convenience wrapper over :meth:`match_batch`."""
        return self.match_batch([record]).answers[0]

    def match_batch(self, records: list[dict[str, object]]) -> BatchReport:
        """Answer a coalesced batch of queries with one scoring call.

        Stages: content-keyed embedding-cache consult → one
        :func:`repro.par.pmap` embedding pass over the misses → candidate
        lookup per query → score-cache consult → one validated, retried
        scoring call over every unique uncached pair → answers
        assembled from the (now fully populated) score cache.  Malformed
        records are refused up front (:func:`check_records`).
        """
        check_records(records, self.matcher.embedder.columns)
        if not records:
            return BatchReport(answers=[], scored_pairs=0, embedding_misses=0,
                               predict_calls=0)
        inject("serve.cache.lookup")
        if _OBS.enabled:
            _OBS.counter("serve.requests").inc(float(len(records)))

        keys = [content_key(record) for record in records]
        record_by_key = {k: r for k, r in zip(keys, records)}
        distinct = list(dict.fromkeys(keys))

        # Embedding stage: consult the cache once per *distinct* key, then
        # embed the misses in one (possibly parallel) pass.
        embeddings, embedding_hits = self.resolve_embeddings(
            [(key, record_by_key[key]) for key in distinct]
        )

        # Candidate stage: deterministic (sorted) candidate ids per query.
        candidates_by_key = self.candidate_map(embeddings, distinct)

        # Scoring stage: consult the score cache per unique pair, then send
        # every uncached pair to the matcher in a single scoring call.
        # ``scores_now`` carries this batch's scores locally so answers do
        # not depend on cache capacity (a 0-capacity cache stores nothing).
        scores_now, hits_by_key, to_score = self.consult_scores(candidates_by_key)
        predict_calls = 0
        if to_score:
            probabilities = self.score_uncached(to_score, record_by_key)
            predict_calls = 1
            for pair_key, probability in zip(to_score, probabilities):
                scores_now[pair_key] = float(probability)

        answers = [
            self._assemble(
                key, candidates_by_key[key], scores_now,
                key in embedding_hits, hits_by_key[key],
            )
            for key in keys
        ]
        if _OBS.enabled:
            _OBS.counter("serve.batches").inc()
            _OBS.histogram("serve.batch_queries").observe(len(records))
        return BatchReport(
            answers=answers,
            scored_pairs=len(to_score),
            embedding_misses=len(distinct) - len(embedding_hits),
            predict_calls=predict_calls,
        )

    # ------------------------------------------------------------------ #
    # pipeline stages (shared with the scatter-gather router)
    # ------------------------------------------------------------------ #
    # Each stage is a pure function of its inputs plus this service's
    # cache state, so :class:`repro.serve.shard.ShardedMatchService` can
    # run the same stages shard-by-shard — embeddings/columns on a query
    # key's home shard, candidate lookup and scoring on every shard — and
    # still merge to byte-identical answers.

    def resolve_embeddings(
        self, keyed_records: "list[tuple[str, dict[str, object]]]"
    ) -> "tuple[dict[str, np.ndarray], set[str]]":
        """Cache-aware tuple embeddings for distinct ``(key, record)`` pairs.

        Returns the embedding per key plus the subset of keys served from
        the cache; misses are embedded in one (possibly parallel) pass and
        inserted.  Callers must pass each key at most once.
        """
        embeddings: dict[str, np.ndarray] = {}
        hit_keys: set[str] = set()
        miss_keys: list[str] = []
        miss_records: list[dict[str, object]] = []
        for key, record in keyed_records:
            cached = self.embedding_cache.get(key)
            if cached is not MISSING:
                embeddings[key] = cached
                hit_keys.add(key)
            else:
                miss_keys.append(key)
                miss_records.append(record)
        if miss_records:
            fresh = self.index.embed_queries(miss_records, jobs=self.jobs)
            for key, vector in zip(miss_keys, fresh):
                embeddings[key] = vector
                self.embedding_cache.put(key, vector)
        return embeddings, hit_keys

    def candidate_map(
        self, embeddings: "dict[str, np.ndarray]", keys: "list[str]"
    ) -> "dict[str, list[str]]":
        """Deterministic (sorted) candidate ids per query key."""
        return {key: self.index.candidates(embeddings[key]) for key in keys}

    def consult_scores(
        self, candidates_by_key: "dict[str, list[str]]"
    ) -> "tuple[dict[tuple[str, str], float], dict[str, int], list[tuple[str, str]]]":
        """Score-cache consult over every (query key, candidate id) pair.

        Returns the cached scores, the per-key hit counts, and the ordered
        list of uncached pairs still needing the matcher.
        """
        scores_now: dict[tuple[str, str], float] = {}
        hits_by_key: dict[str, int] = {}
        to_score: list[tuple[str, str]] = []
        for key, candidate_ids in candidates_by_key.items():
            hits_by_key[key] = 0
            for candidate_id in candidate_ids:
                pair_key = (key, candidate_id)
                cached = self.score_cache.get(pair_key)
                if cached is MISSING:
                    to_score.append(pair_key)
                else:
                    scores_now[pair_key] = cached
                    hits_by_key[key] += 1
        return scores_now, hits_by_key, to_score

    def score_uncached(
        self,
        to_score: "list[tuple[str, str]]",
        record_by_key: "dict[str, dict[str, object]]",
    ) -> np.ndarray:
        """One validated, retried scoring call over the uncached pairs.

        Query columns come through the column cache (embedded once per
        unique tuple), candidate columns from the index's precomputed
        store.  Scores land in the score cache and are returned in
        ``to_score`` order.
        """
        columns = self.resolve_columns([
            (key, record_by_key[key])
            for key in dict.fromkeys(k for k, _ in to_score)
        ])
        u_cols = np.array([columns[key] for key, _ in to_score])
        v_cols = self.index.column_rows([c for _, c in to_score])
        probabilities = score_columns(self.matcher.classifier, u_cols, v_cols)
        for pair_key, probability in zip(to_score, probabilities):
            self.score_cache.put(pair_key, float(probability))
        return probabilities

    def resolve_columns(
        self, keyed_records: "list[tuple[str, dict[str, object]]]"
    ) -> "dict[str, np.ndarray]":
        """Cache-aware per-attribute embedding stacks for query keys.

        Misses go through one deduplicated :func:`unique_column_stack`
        pass and are inserted; callers pass each key at most once.
        """
        columns: dict[str, np.ndarray] = {}
        miss_keys: list[str] = []
        miss_records: list[dict[str, object]] = []
        for key, record in keyed_records:
            cached = self.column_cache.get(key)
            if cached is not MISSING:
                columns[key] = cached
            else:
                miss_keys.append(key)
                miss_records.append(record)
        if miss_records:
            stack, indices = unique_column_stack(
                miss_records, self.matcher.embedder, jobs=self.jobs
            )
            for key, row in zip(miss_keys, indices):
                columns[key] = stack[row]
                self.column_cache.put(key, stack[row])
        return columns

    def _assemble(
        self,
        key: str,
        candidate_ids: list[str],
        scores_now: dict[tuple[str, str], float],
        embedding_cached: bool,
        scores_cached: int,
    ) -> MatchAnswer:
        """Build one answer from this batch's resolved scores."""
        if not candidate_ids:
            return MatchAnswer(
                query_key=key, candidates=(), best_id=None, probability=0.0,
                matched=False, embedding_cached=embedding_cached, scores_cached=0,
            )
        scores = {c: scores_now[(key, c)] for c in candidate_ids}
        # Highest probability wins; ties break to the smallest id so the
        # answer is deterministic whatever the probe order was.
        best_id = min(candidate_ids, key=lambda c: (-scores[c], c))
        probability = scores[best_id]
        return MatchAnswer(
            query_key=key,
            candidates=tuple(candidate_ids),
            best_id=best_id,
            probability=probability,
            matched=probability >= self.threshold,
            embedding_cached=embedding_cached,
            scores_cached=scores_cached,
        )
