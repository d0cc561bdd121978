"""Catalog of named fault-injection sites.

Naming scheme: dot-separated ``<area>.<unit>[.<detail>]`` mirroring the
package that owns the code point —

* ``pipeline.step.<name>`` — one concrete site per pipeline step (the
  ``*`` entry below is the fnmatch pattern chaos plans schedule against);
* ``par.pool`` — each attempt to run a :mod:`repro.par` chunk batch on
  the process pool;
* ``er.blocking.lsh`` / ``er.blocking.token`` — the candidate-pair
  computation of the two blockers;
* ``er.deeper.pair_features`` — DeepER's pair featurisation hot path;
* ``er.deeper.fit.epoch`` — the top of every DeepER training epoch;
* ``serve.score`` / ``serve.cache.lookup`` — the serving layer's batch
  scoring call and per-batch cache consult;
* ``gateway.admit`` / ``gateway.route`` / ``gateway.dispatch`` — the
  gateway's admission decision, route-table resolution and router group
  execution.

Sites split by what owns recovery:

* **retryable** sites sit inside a retry or fallback layer, so an
  injected error under the layer's budget is invisible in the final
  results (``par.pool`` exhaustion degrades to the serial path, which by
  the :mod:`repro.par` contract is bit-identical);
* **latency-only** sites have no recovery layer — chaos plans schedule
  only latency faults there, because an error fault would (correctly)
  abort the run.

Chaos plans (:meth:`repro.faults.FaultPlan.chaos`) draw their schedule
from this catalog, so every seeded plan is recoverable by construction.
"""

from __future__ import annotations

__all__ = ["CORRUPT_SITES", "LATENCY_ONLY_SITES", "RETRY_SITES", "all_sites"]

RETRY_SITES: dict[str, str] = {
    "pipeline.step.*": (
        "CurationPipeline.run step execution; budget = the pipeline's "
        "RetryPolicy.attempts (no policy means no budget: errors propagate)"
    ),
    "par.pool": (
        "repro.par process-pool attempt; exhaustion falls back to the "
        "bit-identical serial path, so the call itself never fails"
    ),
    "er.blocking.lsh": "LSHBlocker.candidate_pairs band matching (attempts=2)",
    "er.blocking.token": "TokenBlocker.candidate_pairs rare-token probe (attempts=2)",
    "er.deeper.pair_features": "DeepER pair featurisation (attempts=2)",
    "serve.score": (
        "match-service batch scoring: one batched kernels.score_pairs "
        "call shared by MatchService and ShardedMatchService; validated "
        "shape/finiteness, retried under HOT_POLICY (attempts=2)"
    ),
    "serve.shard.query": (
        "ShardedMatchService per-shard call (embed/candidates/score on "
        "one shard group); budget = the group's replica count — an error "
        "fails the batch over to the next replica, which shares the "
        "shard's cache tier, so a recovered batch is bit-identical"
    ),
    "serve.shard.route": (
        "ShardedMatchService home-shard routing of a batch's distinct "
        "query keys; pure recompute, validated and retried under "
        "HOT_POLICY (attempts=2)"
    ),
    "loop.retrain": (
        "continuous-curation candidate retrain (active selection + "
        "crowd labeling + fit); a pure function of the queue snapshot, "
        "banked labels and day seed — crowd votes are content-keyed per "
        "pair, so relabeling is idempotent — validated (trained matcher, "
        "exact label count) and retried under HOT_POLICY (attempts=2)"
    ),
    "serve.swap": (
        "MatchService/ShardedMatchService hot-swap commit of a promoted "
        "matcher; idempotent rebind + score-tier invalidation with a "
        "validated fingerprint return, retried under HOT_POLICY "
        "(attempts=2)"
    ),
    "gateway.admit": (
        "Gateway per-route token-bucket admission decision; a pure "
        "preview of the bucket state committed only after the retry "
        "layer accepts it, validated and retried under HOT_POLICY "
        "(attempts=2)"
    ),
    "gateway.route": (
        "Gateway route-table resolution of a dispatch group's router; "
        "pure dict lookup with a validated (name-checked) return, "
        "retried under HOT_POLICY (attempts=2)"
    ),
    "gateway.dispatch": (
        "Gateway router group execution (one coalesced router call per "
        "dispatch group); an error at entry models a dead router "
        "instance and the retry replays the same pure group call, "
        "validated answer count, HOT_POLICY (attempts=2)"
    ),
}

LATENCY_ONLY_SITES: dict[str, str] = {
    "er.deeper.fit.epoch": (
        "top of each DeepER training epoch; not retryable (an epoch "
        "consumes minibatch rng), so only latency faults are scheduled"
    ),
    "serve.cache.lookup": (
        "MatchService per-batch cache consult; pure lookup with no retry "
        "layer, so only latency faults are scheduled"
    ),
}

# Retryable sites whose wrapped call validates its return value, so a
# corrupted-return fault is detected and retried rather than persisted.
#
# "serve.shard.query" is deliberately absent: a corrupted *return* is
# only detected after the primary has already consulted (and warmed) the
# shard's shared cache tier, so the replica's retry would report fewer
# cache misses than a fault-free run — the answers would still be
# correct, but the simulated cost rows would drift under chaos.  Error
# faults at that site fire *before* the call touches anything, which is
# exactly the dead-shard model failover is built for.
#
# "gateway.dispatch" is absent for the same reason: the wrapped call is
# the router's group execution, and the match router's match_batch warms
# the service's cache tiers as it runs — a corrupted *return* would be
# detected only after the caches moved, so the retry would report fewer
# misses than a fault-free run and the simulated cost rows would drift.
# Error faults there fire before the router touches its component (the
# dead-router model the chaos tier kills mid-burst).  "gateway.admit"
# and "gateway.route" wrap genuinely pure previews/lookups committed
# after validation, so corrupt faults are safe at both.
CORRUPT_SITES: tuple[str, ...] = (
    "pipeline.step.*",
    "er.blocking.lsh",
    "er.blocking.token",
    "er.deeper.pair_features",
    "gateway.admit",
    "gateway.route",
    "loop.retrain",
    "serve.score",
    "serve.shard.route",
    "serve.swap",
)


def all_sites() -> list[str]:
    """Every catalogued site (pattern) name, sorted."""
    return sorted({**RETRY_SITES, **LATENCY_ONLY_SITES})
