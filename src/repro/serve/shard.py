"""Sharded, replicated serving: deterministic scatter-gather matching.

:class:`ShardedMatchService` splits the reference table into ``n_shards``
shards by a stable hash of tuple id (:func:`shard_of_id`, built on
:func:`repro.utils.content.content_key` — PYTHONHASHSEED-proof), gives
each shard its own frozen :class:`~repro.serve.index.BlockingIndex` view
and its own embedding/score/column cache tier, and answers batches
scatter-gather.  Three invariants make the topology invisible:

**Partition, not re-hash.**  Every shard view shares the *global*
frozen LSH transform (centering/whitening fitted over the full reference
table — :meth:`BlockingIndex.shard_view`), so a query hashes identically
on every shard and the per-shard candidate sets exactly partition the
global candidate set.  The merge is a sorted union of the shard
candidate lists (ties between equal scores break to the smallest tuple
id, exactly as in the unsharded :meth:`MatchService._assemble`), so the
merged answer is byte-identical for any shard count — ``N = 1`` equals
the unsharded service equals the offline ``predict_proba``.

**Home-shard routing.**  Each distinct query key's embedding and column
cache work runs once, on the key's *home* shard (:func:`shard_of_key`);
score-cache pairs live on the shard owning the candidate.  Every cache
consult the unsharded service would make happens exactly once somewhere,
so the per-shard ``serve.cache.shard<i>.*`` counters *sum* to the
unsharded totals (the metrics tests pin this down).

**Replica failover.**  Each shard group holds ``replicas`` services
sharing one cache tier.  Every shard call passes through fault site
``serve.shard.query``; a killed primary (injected error at call entry —
the chaos model of a dead shard, which never processed the request)
fails over to the next replica with bit-identical results, because the
replica sees the same shared caches and the same frozen view.  Budget =
the replica count: exhaustion raises :class:`~repro.faults.retry.
RetryExhausted` naming the site.  Routing itself is wrapped at validated
site ``serve.shard.route`` (pure recompute under
:data:`~repro.faults.retry.HOT_POLICY`, so corrupt-return chaos is
detected and retried).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.er.deeper import DeepER
from repro.faults.plan import inject, inject_result
from repro.faults.retry import CorruptedResult, HOT_POLICY, RetryExhausted, retry_call
from repro.obs.metrics import REGISTRY as _OBS
from repro.serve.cache import CacheStatsView, content_key
from repro.serve.index import BlockingIndex
from repro.serve.service import BatchReport, MatchService, score_columns, swap_validated

__all__ = [
    "ShardBatchReport",
    "ShardGroup",
    "ShardWork",
    "ShardedMatchService",
    "shard_of_id",
    "shard_of_key",
]


def shard_of_key(key: str, n_shards: int) -> int:
    """Home shard of a content key: stable hash, PYTHONHASHSEED-proof.

    Takes the first 64 bits of the (hex sha1) content key modulo the
    shard count — pure arithmetic on the digest, so the routing table is
    a deterministic function of record content alone.
    """
    return int(key[:16], 16) % n_shards


def shard_of_id(reference_id: str, n_shards: int) -> int:
    """Owning shard of a reference tuple id (content-hashed, stable)."""
    return shard_of_key(content_key(str(reference_id)), n_shards)


@dataclass(frozen=True)
class ShardWork:
    """One shard's share of a batch (drives the sim's straggler model)."""

    shard: int
    scored_pairs: int
    embedding_misses: int
    predict_calls: int


@dataclass(frozen=True)
class ShardBatchReport(BatchReport):
    """A :class:`BatchReport` plus the per-shard work breakdown.

    ``scored_pairs``/``embedding_misses`` aggregate over shards exactly
    as the unsharded report counts them, so the flat cost model prices a
    sharded batch identically; the ``shards`` tuple lets
    :func:`repro.serve.sim.simulate` instead charge each shard its own
    queue and take the max-of-shards (straggler) completion time.
    ``failovers`` counts replica failovers this batch absorbed.
    """

    shards: tuple[ShardWork, ...] = ()
    failovers: int = 0


@dataclass(frozen=True)
class ShardGroup:
    """One shard's replica set; ``replicas[0]`` is the primary."""

    shard_id: int
    replicas: tuple[MatchService, ...]

    @property
    def primary(self) -> MatchService:
        return self.replicas[0]


def _keep_faults(name: str) -> bool:
    return name.startswith("faults.")


class ShardedMatchService:
    """Scatter-gather :class:`MatchService` over N shard replica groups.

    Construction partitions ``index.ids`` by :func:`shard_of_id`, builds
    one shard view per shard (shared frozen transform), and instantiates
    ``replicas`` :class:`MatchService` per shard — all replicas of a
    shard share one cache tier (scoped ``shard<i>.``), which is what
    makes failover invisible in cache metrics and answers alike.

    The public surface mirrors :class:`MatchService` (``match_batch`` /
    ``match_one`` / ``cache_stats`` / ``parameter_fingerprint``), so the
    simulator and the bench drive either interchangeably.
    """

    def __init__(
        self,
        matcher: DeepER,
        index: BlockingIndex,
        *,
        n_shards: int,
        replicas: int = 2,
        threshold: float = 0.5,
        jobs: int = 1,
        embedding_cache_size: int = 1024,
        score_cache_size: int = 4096,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.n_shards = int(n_shards)
        self.replicas = int(replicas)
        members: list[list[str]] = [[] for _ in range(self.n_shards)]
        for reference_id in index.ids:
            members[shard_of_id(reference_id, self.n_shards)].append(reference_id)
        groups: list[ShardGroup] = []
        for shard_id, shard_members in enumerate(members):
            view = index.shard_view(shard_members)
            services = tuple(
                MatchService(
                    matcher, view,
                    threshold=threshold, jobs=jobs,
                    embedding_cache_size=embedding_cache_size,
                    score_cache_size=score_cache_size,
                    cache_scope=f"shard{shard_id}.",
                )
                for _ in range(self.replicas)
            )
            # Replicas share the primary's cache tier: a failover target
            # sees exactly the state the primary would have, so recovered
            # batches (and their cache metrics) are bit-identical.
            for replica in services[1:]:
                replica.embedding_cache = services[0].embedding_cache
                replica.score_cache = services[0].score_cache
                replica.column_cache = services[0].column_cache
            groups.append(ShardGroup(shard_id=shard_id, replicas=services))
        self._groups: tuple[ShardGroup, ...] = tuple(groups)
        self.threshold = threshold

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def groups(self) -> tuple[ShardGroup, ...]:
        return self._groups

    def shard_sizes(self) -> list[int]:
        """Reference tuples per shard (sums to the full table)."""
        return [len(group.primary.index) for group in self._groups]

    @property
    def matcher(self) -> DeepER:
        """The served matcher (one object, shared by every replica)."""
        return self._groups[0].primary.matcher

    def parameter_fingerprint(self) -> str:
        """The shared matcher's fingerprint (identical on every shard)."""
        return self._groups[0].primary.parameter_fingerprint()

    def swap_matcher(self, matcher: DeepER) -> str:
        """Hot-swap every replica of every shard; returns the fingerprint.

        Same contract and shared code as :meth:`MatchService.swap_matcher`
        — score tiers cleared, embedding/column tiers kept,
        same-fingerprint swap is a no-op — committed for the whole
        topology under **one** validated ``serve.swap`` call.  The per-replica commits are idempotent, so
        a retried commit (error or corrupted return under chaos) leaves
        the registry of shards in exactly the single-commit state.
        """
        return swap_validated(self, matcher, self._groups[0].primary.index)

    def _swap(self, matcher: DeepER) -> str:
        """Idempotent whole-topology swap commit (site ``serve.swap``)."""
        fingerprints = {
            replica._swap(matcher)
            for group in self._groups
            for replica in group.replicas
        }
        # Every replica swapped to the same weights by construction.
        fingerprint, = fingerprints
        return fingerprint

    @property
    def cache_stats(self) -> CacheStatsView:
        """Hit/miss view summed over every shard's embedding+score caches.

        Matches :attr:`MatchService.cache_stats` (column caches excluded
        there too), so bench rows report the same ``cache_hit_rate``
        definition sharded or not.
        """
        stats = []
        for group in self._groups:
            stats.append(group.primary.embedding_cache.stats)
            stats.append(group.primary.score_cache.stats)
        return CacheStatsView(*stats)

    # ------------------------------------------------------------------ #
    # routing + failover
    # ------------------------------------------------------------------ #

    def _route(self, keys: "list[str]") -> tuple:
        """Home shard per distinct query key (pure, recomputable)."""
        return tuple(shard_of_key(key, self.n_shards) for key in keys)

    def _shard_call(self, group: ShardGroup, call, validate=None):
        """Run ``call(service)`` on ``group`` with replica failover.

        Attempt *k* targets replica *k*; fault site ``serve.shard.query``
        fires at attempt entry (a killed shard never processed the call,
        so nothing needs rolling back), and each failed attempt restores
        the metrics checkpoint (keeping ``faults.*``) exactly like
        :func:`repro.faults.retry.retry_call`.  Returns ``(result,
        failovers_used)``; exhausting every replica raises
        :class:`RetryExhausted` naming the site.
        """
        for attempt, service in enumerate(group.replicas):
            checkpoint = _OBS.checkpoint() if _OBS.enabled else None
            try:
                inject("serve.shard.query")
                result = inject_result("serve.shard.query", call(service))
                if validate is not None and not validate(result):
                    raise CorruptedResult(
                        f"site 'serve.shard.query': shard {group.shard_id} "
                        f"returned a result that failed validation: {result!r}"
                    )
            except Exception as exc:
                if checkpoint is not None:
                    _OBS.restore(checkpoint, keep=_keep_faults)
                if attempt == len(group.replicas) - 1:
                    raise RetryExhausted(
                        "serve.shard.query", attempt + 1, 0.0
                    ) from exc
                if _OBS.enabled:
                    _OBS.counter("serve.shard.failovers").inc()
            else:
                return result, attempt
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #

    def match_one(self, record: dict[str, object]):
        """Single-query convenience wrapper over :meth:`match_batch`."""
        return self.match_batch([record]).answers[0]

    def match_batch(self, records: list[dict[str, object]]) -> ShardBatchReport:
        """Scatter a batch over the shards and gather one merged answer set.

        Stages: route distinct keys to home shards (validated site
        ``serve.shard.route``) → per-home-shard embedding resolution →
        per-shard candidate lookup + score-cache consult → per-home-shard
        column resolution → one scoring call over every shard's uncached
        pairs → sorted-union merge and assembly.  Every
        per-shard step runs under :meth:`_shard_call` failover.
        """
        if not records:
            return ShardBatchReport(answers=[], scored_pairs=0,
                                    embedding_misses=0, predict_calls=0)
        inject("serve.cache.lookup")
        if _OBS.enabled:
            _OBS.counter("serve.requests").inc(float(len(records)))

        keys = [content_key(record) for record in records]
        record_by_key = {k: r for k, r in zip(keys, records)}
        distinct = list(dict.fromkeys(keys))
        n = self.n_shards
        homes = retry_call(
            self._route,
            distinct,
            site="serve.shard.route",
            policy=HOT_POLICY,
            validate=lambda a: (
                isinstance(a, tuple)
                and len(a) == len(distinct)
                and all(isinstance(s, int) and 0 <= s < n for s in a)
            ),
        )
        home_by_key = dict(zip(distinct, homes))
        failovers = 0

        # Embedding stage, once per key on its home shard.
        embeddings: dict[str, np.ndarray] = {}
        hit_keys: set[str] = set()
        home_misses = [0] * n
        for shard_id in sorted(set(homes)):
            keyed = [(k, record_by_key[k]) for k in distinct
                     if home_by_key[k] == shard_id]
            (shard_embeddings, shard_hits), used = self._shard_call(
                self._groups[shard_id],
                lambda svc, keyed=keyed: svc.resolve_embeddings(keyed),
                validate=lambda r, keyed=keyed: (
                    isinstance(r, tuple) and len(r) == 2
                    and set(r[0]) == {k for k, _ in keyed}
                ),
            )
            embeddings.update(shard_embeddings)
            hit_keys |= shard_hits
            home_misses[shard_id] = len(keyed) - len(shard_hits)
            failovers += used

        # Candidate + score-cache stage on every shard (each sees every
        # query; its candidates are the global set ∩ its members).
        scores_now: dict[tuple[str, str], float] = {}
        hits_by_key = {key: 0 for key in distinct}
        candidates_by_shard: list[dict[str, list[str]]] = []
        to_score_by_shard: list[list[tuple[str, str]]] = []
        owner_of: dict[tuple[str, str], int] = {}
        for group in self._groups:
            def consult(svc):
                local_candidates = svc.candidate_map(embeddings, distinct)
                return local_candidates, svc.consult_scores(local_candidates)
            (local_candidates, (local_scores, local_hits, local_to_score)), used = \
                self._shard_call(group, consult)
            candidates_by_shard.append(local_candidates)
            to_score_by_shard.append(local_to_score)
            for pair_key in local_to_score:
                owner_of[pair_key] = group.shard_id
            scores_now.update(local_scores)
            for key, count in local_hits.items():
                hits_by_key[key] += count
            failovers += used

        # Merge: sorted union of the shard candidate lists.  The shard
        # views partition the reference table, so the union has no
        # duplicates and sorting restores exactly the unsharded (sorted)
        # candidate order; score ties later break to the smallest tuple
        # id inside _assemble, sharded or not.
        merged_candidates = {
            key: sorted(
                candidate_id
                for local_candidates in candidates_by_shard
                for candidate_id in local_candidates[key]
            )
            for key in distinct
        }
        # The uncached pairs in *canonical* order — key first-occurrence,
        # then merged (sorted) candidate order — which is exactly the
        # order the unsharded service would have scored them in.
        to_score = [
            pair_key
            for key in distinct
            for candidate_id in merged_candidates[key]
            if (pair_key := (key, candidate_id)) in owner_of
        ]

        # Column stage: resolve each scoring key's column stack once, on
        # its home shard, and hand the stacks to the scoring call — one
        # consult total, like the unsharded service.
        columns_by_key: dict[str, np.ndarray] = {}
        scoring_keys = list(dict.fromkeys(
            key for shard_pairs in to_score_by_shard for key, _ in shard_pairs
        ))
        for shard_id in sorted({home_by_key[k] for k in scoring_keys}):
            keyed = [(k, record_by_key[k]) for k in scoring_keys
                     if home_by_key[k] == shard_id]
            shard_columns, used = self._shard_call(
                self._groups[shard_id],
                lambda svc, keyed=keyed: svc.resolve_columns(keyed),
                validate=lambda r, keyed=keyed: (
                    isinstance(r, dict) and set(r) == {k for k, _ in keyed}
                ),
            )
            columns_by_key.update(shard_columns)
            failovers += used

        # Scoring stage: one coalesced, retried call over the canonical
        # pair order, with each pair's reference side gathered from (and
        # its score cached on) the owning shard.  The scored *work*
        # belongs to the shards — the cost model and the ShardWork
        # breakdown charge each shard its own pairs — but the floating-
        # point evaluation must not: a GEMM's summation strategy depends
        # on its batch shape, so scoring shard-by-shard would drift the
        # probabilities by ulps as N changes.  One call in canonical
        # order makes the bits a pure function of the pair set, i.e.
        # byte-identical for every shard count and to the unsharded
        # service.
        predict_calls = 0
        if to_score:
            used = self._score_merged(to_score, columns_by_key, scores_now)
            predict_calls = 1
            failovers += used

        shard_works = tuple(
            ShardWork(
                shard=group.shard_id,
                scored_pairs=len(shard_to_score),
                embedding_misses=home_misses[group.shard_id],
                predict_calls=1 if shard_to_score else 0,
            )
            for group, shard_to_score in zip(self._groups, to_score_by_shard)
        )

        assembler = self._groups[0].primary
        answers = [
            assembler._assemble(
                key, merged_candidates[key], scores_now,
                key in hit_keys, hits_by_key[key],
            )
            for key in keys
        ]
        if _OBS.enabled:
            _OBS.counter("serve.batches").inc()
            _OBS.histogram("serve.batch_queries").observe(len(records))
        return ShardBatchReport(
            answers=answers,
            scored_pairs=len(to_score),
            embedding_misses=len(distinct) - len(hit_keys),
            predict_calls=predict_calls,
            shards=shard_works,
            failovers=failovers,
        )

    def _score_merged(
        self,
        to_score: "list[tuple[str, str]]",
        columns_by_key: "dict[str, np.ndarray]",
        scores_now: "dict[tuple[str, str], float]",
    ) -> int:
        """Score ``to_score`` (canonical order) once; returns failovers.

        Reference columns come from each pair's owning shard (gathered
        under :meth:`_shard_call` failover, stitched back into the
        canonical order — exact row copies, so the stitched matrix is
        bit-identical to the unsharded gather), the retried scoring call
        is the unsharded service's, and each score lands in the owning
        shard's cache.
        """
        owners = [shard_of_id(candidate_id, self.n_shards)
                  for _, candidate_id in to_score]
        positions_of: dict[int, list[int]] = {}
        for position, owner in enumerate(owners):
            positions_of.setdefault(owner, []).append(position)
        u_cols = np.array([columns_by_key[key] for key, _ in to_score])
        v_cols = np.empty_like(u_cols)
        failovers = 0
        for shard_id in sorted(positions_of):
            positions = positions_of[shard_id]
            wanted = [to_score[p][1] for p in positions]
            rows, used = self._shard_call(
                self._groups[shard_id],
                lambda svc, ids=wanted: svc.index.column_rows(ids),
                validate=lambda r, ids=wanted: (
                    isinstance(r, np.ndarray) and len(r) == len(ids)
                ),
            )
            v_cols[positions] = rows
            failovers += used
        probabilities = score_columns(self.matcher.classifier, u_cols, v_cols)
        for pair_key, owner, probability in zip(to_score, owners, probabilities):
            scores_now[pair_key] = float(probability)
            self._groups[owner].primary.score_cache.put(
                pair_key, float(probability)
            )
        return failovers
