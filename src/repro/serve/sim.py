"""Deterministic serving simulator: micro-batching + admission control.

A single-server discrete-event loop on the :class:`~repro.serve.clock.
SimClock`, shaped like a real inference server's request path:

* **admission control** — at most ``max_queue`` queries may wait; an
  arrival that finds the queue full is *shed* deterministically (an
  explicit ``shed`` result, never an exception), so overload degrades
  loudly and reproducibly instead of growing an unbounded queue;
* **micro-batching** — a waiting batch fires when it reaches
  ``max_batch_size`` or when its oldest query has waited ``max_wait``
  simulated seconds, whichever is earlier (and never before the server is
  free) — the classic max-batch/max-wait scheduler of inference servers;
* **cost model** — a fired batch occupies the server for
  ``cost_base + cost_per_query·|batch| + cost_per_miss·scored_pairs
  + cost_per_embed·embedding_misses`` simulated seconds.  The real model *is* invoked (answers are genuine
  ``predict_proba`` outputs), but latency comes from the model above, so
  cache hits make batches measurably faster and the reported
  p50/p95/p99 are bit-identical across runs, hosts and ``jobs`` values;
* **scatter-gather straggler model** — when the service's report carries
  a per-shard work breakdown (:class:`repro.serve.shard.
  ShardBatchReport`), the router pays the scatter cost
  (``cost_base + cost_per_query·|batch|``) serially, each shard then
  works its own queue (``cost_per_miss``/``cost_per_embed`` over *its*
  share), and the batch completes at the **max of the shard finish
  times** — the classic fan-out straggler.  The router frees as soon as
  the scatter is done, so consecutive batches pipeline across shard
  queues; the per-batch ``straggler`` entry records how long the gather
  waited past the mean shard cost.

The loop never reads wall clocks or ambient randomness; given the same
workload, config and service state it replays the exact same schedule —
including *which* queries get shed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.obs.metrics import REGISTRY as _OBS
from repro.obs.trace import span
from repro.serve.clock import SimClock
from repro.serve.service import MatchAnswer, MatchService
from repro.serve.workload import Query
from repro.utils.stats import percentile

__all__ = ["QueryResult", "ServerConfig", "SimReport", "percentile", "simulate"]


@dataclass(frozen=True)
class ServerConfig:
    """Scheduler knobs and the simulated service-cost model (seconds)."""

    max_batch_size: int = 8
    max_wait: float = 0.004
    max_queue: int = 64
    cost_base: float = 0.002
    cost_per_query: float = 0.0004
    cost_per_miss: float = 0.0012
    # Charged per embedding-cache miss: separates composition cost from
    # scoring cost, so kernel-calibrated configs can price "score a cached
    # pair" and "embed a never-seen tuple" independently.  0.0 keeps the
    # historical model (embedding folded into cost_per_miss).
    cost_per_embed: float = 0.0

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {self.max_wait}")
        if min(self.cost_base, self.cost_per_query, self.cost_per_miss,
               self.cost_per_embed) < 0:
            raise ValueError("cost model terms must be >= 0")


@dataclass
class QueryResult:
    """Terminal state of one query: completed with an answer, or shed."""

    query_id: int
    status: str  # "ok" | "shed"
    arrival: float
    start: float | None = None
    finish: float | None = None
    batch_id: int | None = None
    answer: MatchAnswer | None = None

    @property
    def latency(self) -> float | None:
        """Simulated arrival→completion latency; None for shed queries."""
        if self.finish is None:
            return None
        return self.finish - self.arrival


class RunReport:
    """Read-outs shared by :class:`SimReport` and the gateway's report.

    Subclasses hold ``results`` (each with a ``status`` of ``"ok"`` or
    ``"shed"`` and a ``latency``) and the simulated ``duration``.  The
    ``filters`` of the latency read-outs keep the completed results whose
    attributes equal every given value (``priority="interactive"``).
    """

    @property
    def completed(self) -> list:
        return [r for r in self.results if r.status == "ok"]

    @property
    def shed(self) -> list:
        return [r for r in self.results if r.status == "shed"]

    @property
    def shed_rate(self) -> float:
        return len(self.shed) / len(self.results) if self.results else 0.0

    @property
    def throughput(self) -> float:
        """Completed results per simulated second."""
        return len(self.completed) / self.duration if self.duration > 0 else 0.0

    def _select(self, **filters) -> list:
        return [
            r for r in self.completed
            if all(getattr(r, name) == value for name, value in filters.items())
        ]

    def latencies(self, **filters) -> list[float]:
        """Matching completed latencies sorted ascending."""
        return sorted(r.latency for r in self._select(**filters))

    def latency_percentiles(
        self, quantiles: tuple[int, ...] = (50, 95, 99), **filters
    ) -> dict[int, float]:
        """Nearest-rank percentiles of simulated latency (0.0 when empty)."""
        ordered = self.latencies(**filters)
        return {q: percentile(ordered, q) for q in quantiles}


@dataclass
class SimReport(RunReport):
    """Everything one simulated run produced, in deterministic order."""

    config: ServerConfig
    results: list[QueryResult] = field(default_factory=list)
    batches: list[dict] = field(default_factory=list)
    duration: float = 0.0

    @property
    def mean_batch_size(self) -> float:
        if not self.batches:
            return 0.0
        return sum(b["size"] for b in self.batches) / len(self.batches)

    @property
    def scored_pairs(self) -> int:
        return sum(b["scored_pairs"] for b in self.batches)

    @property
    def straggler_overhead(self) -> float:
        """Total simulated seconds the gather waited on the slowest shard.

        Summed per-batch ``max(shard finish) − dispatch − mean(shard
        cost)``; 0.0 for unsharded runs (no per-shard breakdown).
        """
        return sum(b.get("straggler", 0.0) for b in self.batches)


def simulate(
    service: MatchService,
    queries: list[Query],
    config: ServerConfig,
    *,
    clock: SimClock | None = None,
) -> SimReport:
    """Run ``queries`` through ``service`` under the scheduler in ``config``.

    ``service`` only needs a ``match_batch(records) -> BatchReport``
    method, so scheduler tests can drive the loop with a stub.  Results
    come back ordered by ``query_id`` regardless of completion order.
    """
    clock = clock or SimClock()
    arrivals = sorted(queries, key=lambda q: (q.arrival, q.query_id))
    pending: list[Query] = []
    results: dict[int, QueryResult] = {}
    batches: list[dict] = []
    server_free_at = 0.0
    last_finish = 0.0
    shard_free: dict[int, float] = {}
    index = 0
    total = len(arrivals)

    def admit(query: Query) -> None:
        clock.advance_to(query.arrival)
        if len(pending) >= config.max_queue:
            results[query.query_id] = QueryResult(
                query_id=query.query_id, status="shed", arrival=query.arrival
            )
            if _OBS.enabled:
                _OBS.counter("serve.shed").inc()
        else:
            pending.append(query)

    with span("serve.sim", queries=total) as sim_span:
        while index < total or pending:
            if not pending:
                admit(arrivals[index])
                index += 1
                continue
            # When would the current batch fire?  At batch-full time or the
            # oldest query's deadline — whichever first — but never while
            # the server is still busy with the previous batch.
            full_time = (
                pending[config.max_batch_size - 1].arrival
                if len(pending) >= config.max_batch_size
                else math.inf
            )
            fire = max(min(pending[0].arrival + config.max_wait, full_time),
                       server_free_at)
            # Arrivals up to and including the fire instant join (or shed)
            # first: at equal timestamps, arrival events order before
            # service events, so simultaneous queries coalesce.
            if index < total and arrivals[index].arrival <= fire:
                admit(arrivals[index])
                index += 1
                continue
            clock.advance_to(fire)
            batch = pending[: config.max_batch_size]
            del pending[: config.max_batch_size]
            report = service.match_batch([q.record for q in batch])
            shard_works = tuple(getattr(report, "shards", ()) or ())
            batch_extra: dict = {}
            if shard_works:
                # Scatter-gather: the router serializes the scatter, each
                # shard works its own queue, the gather completes at the
                # max of the shard finish times (straggler-bound).  The
                # router is free again once the scatter is dispatched, so
                # later batches pipeline into idle shard queues.
                scatter = config.cost_base + config.cost_per_query * len(batch)
                dispatch = fire + scatter
                shard_costs = []
                finish = dispatch
                for work in shard_works:
                    shard_cost = (
                        config.cost_per_miss * work.scored_pairs
                        + config.cost_per_embed * work.embedding_misses
                    )
                    shard_costs.append(shard_cost)
                    done = max(dispatch, shard_free.get(work.shard, 0.0)) + shard_cost
                    shard_free[work.shard] = done
                    finish = max(finish, done)
                server_free_at = dispatch
                mean_cost = sum(shard_costs) / len(shard_costs)
                cost = finish - fire
                batch_extra = {
                    "shards": len(shard_works),
                    "straggler": finish - dispatch - mean_cost,
                }
            else:
                cost = (
                    config.cost_base
                    + config.cost_per_query * len(batch)
                    + config.cost_per_miss * report.scored_pairs
                    + config.cost_per_embed * report.embedding_misses
                )
                finish = fire + cost
                server_free_at = finish
            last_finish = max(last_finish, finish)
            batch_id = len(batches)
            batches.append({
                "batch_id": batch_id,
                "fire": fire,
                "finish": finish,
                "size": len(batch),
                "scored_pairs": report.scored_pairs,
                "embedding_misses": report.embedding_misses,
                "predict_calls": report.predict_calls,
                "cost": cost,
                **batch_extra,
            })
            for query, answer in zip(batch, report.answers):
                results[query.query_id] = QueryResult(
                    query_id=query.query_id,
                    status="ok",
                    arrival=query.arrival,
                    start=fire,
                    finish=finish,
                    batch_id=batch_id,
                    answer=answer,
                )
        # Unsharded, the server frees exactly when the last batch finishes;
        # sharded, the router may free before the slowest shard drains.
        clock.advance_to(max(server_free_at, last_finish))
        sim_report = SimReport(
            config=config,
            results=[results[q.query_id] for q in sorted(queries, key=lambda q: q.query_id)],
            batches=batches,
            duration=clock.now,
        )
        sim_span.meta.update({
            "completed": len(sim_report.completed),
            "shed": len(sim_report.shed),
            "batches": len(batches),
            "simulated_duration": round(sim_report.duration, 6),
        })
    if _OBS.enabled:
        _OBS.gauge("serve.sim.duration_seconds").set(sim_report.duration)
    return sim_report
