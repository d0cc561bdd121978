"""The four workloads: one closed-loop client driving the public APIs.

Each workload is a small state machine the runner in :mod:`perfbench.bench`
runs: :meth:`Workload.prepare` builds the stack (several times, for
``setup_s``) and the seeded inputs, :meth:`Workload.step` performs one
client operation and returns ``(work units, latency seconds or None)``,
:meth:`Workload.check` verifies every recorded answer outside the timed
region, and :meth:`Workload.instrument` installs the traced run's span
wrappers on the live objects.

=============  ===================================  ========================
workload       one operation                        work unit (throughput)
=============  ===================================  ========================
match_cold     ``MatchService.match_batch``         query answered
match_hot      ``ShardedMatchService.match_batch``  query answered
curate_loop    ``ContinuousCurationLoop.run``       simulated day
train_lstm     ``DeepER(composition="lstm").fit``   labelled pair × epoch
=============  ===================================  ========================
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter

import repro.embeddings.compose
import repro.er.deeper
import repro.loop.loop
import repro.nn.optim
import repro.nn.tensor
import repro.par
import repro.serve.shard
from repro.loop import ContinuousCurationLoop, CrowdOracle, LoopConfig, answers_digest
from repro.serve import MatchService, ServerConfig, ShardedMatchService

from perfbench.stack import (
    Inputs,
    Size,
    build_stack,
    cold_queries,
    hot_day,
    loop_seeds,
    lstm_matcher,
    lstm_pairs,
    sif_matcher,
)
from perfbench.tracing import Tracer

# ---------------------------------------------------------------------- #
# instrumentation shared by the workloads
# ---------------------------------------------------------------------- #


def instrument_modules(tracer: Tracer) -> None:
    """Wrap the public module functions every workload may reach."""
    tracer.patch(repro.serve.shard, "shard_of_key", "serve.shard.route_calls",
                 count_only=True)
    for name, module in list(sys.modules.items()):
        if (
            name.startswith("repro.") and not name.startswith("repro.par")
            and getattr(module, "pmap", None) is repro.par.pmap
        ):
            tracer.patch(module, "pmap", "par.map.calls", count_only=True)
    tracer.patch(repro.embeddings.compose, "sif_weights", "embeddings.sif.calls",
                 count_only=True)
    tracer.patch(repro.loop.loop, "simulate", "serve.sim")
    tracer.patch(repro.er.deeper, "compose_pair_features", "kernels.compose")
    tracer.patch(repro.er.deeper, "clip_grad_norm", "nn.optim")
    tracer.patch(repro.nn.tensor.Tensor, "backward", "nn.backward")
    tracer.patch(repro.nn.optim.Optimizer, "step", "nn.optim")


def instrument_matcher(tracer: Tracer, matcher) -> None:
    """Span ``fit`` and ``predict_proba`` on one matcher instance."""
    tracer.patch(matcher, "fit", "er.fit",
                 amount=lambda args: {"er.fit.pairs": len(args[0])})
    tracer.patch(matcher, "predict_proba", "er.predict")


def instrument_service(tracer: Tracer, service) -> None:
    """Span the serving stages of an unsharded or sharded service."""

    # A pair is rescored when the service scores it again after a swap
    # cleared the score tier, having scored it (while traced) before that
    # swap.  The record is per service, so a fresh service's cold pairs
    # never count.
    scored: set = set()
    scored_before_swap: set = set()

    def score_amounts(args):
        pairs = args[0]
        rescored = sum(pair in scored_before_swap for pair in pairs)
        scored.update(pairs)
        return {"serve.score.pairs": len(pairs),
                "serve.swap.rescored_pairs": rescored}

    def swapped(args):
        scored_before_swap.update(scored)
        return {}

    if isinstance(service, ShardedMatchService):
        # The sharded scoring path is one coalesced call over every
        # shard's uncached pairs (the unsharded service's score_uncached).
        batch_span, score_method = "serve.shard", "_score_merged"
        stage_owners = [r for group in service.groups for r in group.replicas]
    else:
        batch_span, score_method = "serve.batch", "score_uncached"
        stage_owners = [service]
    tracer.patch(service, "match_batch", batch_span)
    tracer.patch(service, score_method, "serve.score", amount=score_amounts)
    tracer.patch(service, "swap_matcher", "serve.swap", amount=swapped)
    for owner in stage_owners:
        tracer.patch(owner, "resolve_embeddings", "serve.embed")
        tracer.patch(owner, "candidate_map", "serve.candidates")
        tracer.patch(owner, "consult_scores", "serve.cache")
        tracer.patch(owner, "resolve_columns", "serve.columns")


def cache_counts(service) -> Counter:
    """Cumulative hits, lookups and evictions per cache tier."""
    tiers = (
        [group.primary for group in service.groups]
        if isinstance(service, ShardedMatchService) else [service]
    )
    out: Counter = Counter()
    for svc in tiers:
        for tier, cache in (("embedding", svc.embedding_cache),
                            ("score", svc.score_cache),
                            ("columns", svc.column_cache)):
            out[f"{tier}.hits"] += cache.stats.hits
            out[f"{tier}.lookups"] += cache.stats.lookups
            out["evictions"] += cache.stats.evictions
    return out


# The reference answers queries in larger batches than the client sends:
# an answer does not depend on the batch it came in (answers_digest
# rounds away last-bit differences of batch shape), and large batches
# keep the check short.
CHECK_BATCH = 256


def cache_disabled(matcher, index) -> MatchService:
    """The correctness reference: unsharded, every cache at capacity 0."""
    return MatchService(matcher, index, jobs=1, embedding_cache_size=0,
                        score_cache_size=0)


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #


class Workload:
    """Base: repeated set-up, seeded inputs, counters for the traced run."""

    name = ""
    min_samples = 1

    def __init__(self, world: Inputs, size: Size, seed: int) -> None:
        self.world = world
        self.size = size
        self.seed = seed
        self.tracer: Tracer | None = None
        self.setups: list[dict] = []
        self.stack = None

    def prepare(self) -> None:
        """Set up ``size.setup_repeats`` times, keep the last stack."""
        for _ in range(self.size.setup_repeats):
            start = time.perf_counter()
            stack = build_stack(self.world, self.size, self.name)
            phases = dict(stack.phases, total_s=time.perf_counter() - start)
            self.setups.append(phases)
            self.stack = stack
        self.prepare_inputs()

    def prepare_inputs(self) -> None:
        """Generate the seeded inputs and warm up (untimed)."""

    def step(self):
        raise NotImplementedError

    def check(self) -> "tuple[int, list[str]]":
        """``(failed operations, problems)`` over every recorded operation."""
        raise NotImplementedError

    def instrument(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def counters(self) -> Counter:
        """Cumulative per-layer counters read off the live objects."""
        return Counter()

    def outcome(self) -> dict:
        """Digests that runs of one seed share, printed beside the result."""
        return {}


class MatchCold(Workload):
    """Never-repeated queries to an unsharded service: every stage misses."""

    name = "match_cold"

    def __init__(self, world, size, seed):
        super().__init__(world, size, seed)
        self.min_samples = size.min_samples
        # One answers digest per batch: what is kept per operation stays
        # small, so peak memory does not grow with throughput.
        self.digests: list[str] = []

    def prepare_inputs(self) -> None:
        self.pool = cold_queries(self.world, self.size, self.seed)

    def batch(self, i: int) -> list:
        size = self.size.batch_size
        return self.pool[i * size:(i + 1) * size]

    def step(self):
        batch = self.batch(len(self.digests))
        if len(batch) < self.size.batch_size:
            return None
        t0 = time.perf_counter()
        report = self.stack.service.match_batch(batch)
        latency = time.perf_counter() - t0
        self.digests.append(answers_digest(report.answers))
        return len(batch), latency

    def instrument(self, tracer):
        super().instrument(tracer)
        instrument_service(tracer, self.stack.service)

    def counters(self):
        out = cache_counts(self.stack.service)
        out["queries"] = len(self.digests) * self.size.batch_size
        return out

    def check(self):
        reference = cache_disabled(self.stack.matchers[0], self.stack.index)
        size = self.size.batch_size
        served = self.pool[:len(self.digests) * size]
        expected = []
        for i in range(0, len(served), CHECK_BATCH):
            expected += reference.match_batch(served[i:i + CHECK_BATCH]).answers
        failed = sum(
            digest != answers_digest(expected[i * size:(i + 1) * size])
            for i, digest in enumerate(self.digests)
        )
        problems = (
            [f"{failed} of {len(self.digests)} batches differ from the "
             "cache-disabled reference"] if failed else []
        )
        return failed, problems


class MatchHot(Workload):
    """E18-day traffic over a warmed, sharded service, one swap per day."""

    name = "match_hot"

    def __init__(self, world, size, seed):
        super().__init__(world, size, seed)
        self.min_samples = size.min_samples
        self.batches: list[list[int]] = []
        self.swap_before: set[int] = set()
        # (matcher version, answers digest) per served batch.
        self.records: list[tuple[int, str]] = []
        self.failovers = 0
        self.version = 0

    def prepare_inputs(self) -> None:
        # Enough days for a fast host; the timed phase ends on time first.
        n_batches = 40 * self.size.min_samples
        day = 0
        while len(self.batches) < n_batches:
            queries = hot_day(self.world, self.size, self.seed, day)
            if day:
                self.swap_before.add(len(self.batches))
            for i in range(0, len(queries), self.size.batch_size):
                self.batches.append(queries[i:i + self.size.batch_size])
            day += 1
        # Warm every tier with the whole query table (version 0).
        service, records = self.stack.service, self.world.records_b
        for i in range(0, len(records), self.size.batch_size):
            service.match_batch(records[i:i + self.size.batch_size])

    def step(self):
        service = self.stack.service
        served = len(self.records)
        if served == len(self.batches):
            return None
        if served in self.swap_before:
            version = 1 - self.version
            service.swap_matcher(self.stack.matchers[version])
            self.version = version
            self.swap_before.remove(served)
            return 0, None
        records = self.world.records_b
        indices = self.batches[served]
        t0 = time.perf_counter()
        report = service.match_batch([records[i] for i in indices])
        latency = time.perf_counter() - t0
        self.failovers += report.failovers
        self.records.append((self.version, answers_digest(report.answers)))
        return len(indices), latency

    def instrument(self, tracer):
        super().instrument(tracer)
        instrument_service(tracer, self.stack.service)

    def counters(self):
        out = cache_counts(self.stack.service)
        out["queries"] = sum(len(self.batches[i]) for i in range(len(self.records)))
        out["failovers"] = self.failovers
        return out

    def check(self):
        records, size = self.world.records_b, self.size.batch_size
        expected = {}
        for version, matcher in enumerate(self.stack.matchers):
            reference = cache_disabled(matcher, self.stack.index)
            answers = []
            for i in range(0, len(records), CHECK_BATCH):
                answers += reference.match_batch(records[i:i + CHECK_BATCH]).answers
            expected[version] = answers
        failed = sum(
            digest != answers_digest([expected[version][i] for i in self.batches[b]])
            for b, (version, digest) in enumerate(self.records)
        )
        problems = (
            [f"{failed} of {len(self.records)} batches differ from the "
             "cache-disabled reference of their matcher version"]
            if failed else []
        )
        return failed, problems


class CurateLoop(Workload):
    """Fresh curation loops, each run for ``loop_days`` simulated days.

    One operation is one :meth:`ContinuousCurationLoop.run` on a fresh
    service over the seed matcher, so every operation does the same
    sequence of days and its latency samples are alike.
    """

    name = "curate_loop"

    def __init__(self, world, size, seed):
        super().__init__(world, size, seed)
        self.runs: list[dict] = []
        self.cache = Counter()

    def prepare_inputs(self) -> None:
        self.workload_seed, self.crowd_seed = loop_seeds(self.seed)

    def _factory(self, rng: int):
        matcher = sif_matcher(self.world, self.stack.model, self.stack.subword, rng)
        if self.tracer is not None:
            instrument_matcher(self.tracer, matcher)
        return matcher

    def new_loop(self) -> ContinuousCurationLoop:
        bench = self.world.bench
        size = self.size

        def truth(entry) -> int:
            return int(bench.is_match(
                entry.candidate_id, str(entry.record[bench.id_column])
            ))

        service = MatchService(self.stack.matchers[0], self.stack.index, jobs=1)
        if self.tracer is not None:
            instrument_service(self.tracer, service)
        loop = ContinuousCurationLoop(
            service,
            index=self.stack.index,
            matcher_factory=self._factory,
            seed_labels=self.world.train[: size.loop_seed_labels],
            eval_pairs=self.world.eval_pairs,
            eval_labels=self.world.eval_labels,
            oracle=CrowdOracle(truth, seed=self.crowd_seed),
            query_records=self.world.records_b,
            config=LoopConfig(
                days=size.loop_days,
                queries_per_day=size.loop_queries,
                rate=300.0,
                repeat_fraction=0.4,
                workload_seed=self.workload_seed,
                band=(0.2, 0.8),
                labels_per_day=size.loop_labels,
                al_batch_size=size.loop_al_batch,
                epochs=size.loop_epochs,
                min_f1_delta=0.01,
            ),
            server=ServerConfig(max_batch_size=size.batch_size, max_wait=0.004,
                                max_queue=512),
        )
        if self.tracer is not None:
            self.tracer.patch(loop, "run_day", "loop.day")
        return loop

    def step(self):
        loop = self.new_loop()
        t0 = time.perf_counter()
        reports = loop.run()
        latency = time.perf_counter() - t0
        self.runs.append({
            "days": [report.to_dict() for report in reports],
            "state_digest": loop.registry.state_digest(),
            "schedule": loop.registry.promotion_schedule(),
        })
        self.cache += cache_counts(loop.service)
        return len(reports), latency

    def instrument(self, tracer):
        super().instrument(tracer)
        # The seed matcher is every loop's day-0 active version.
        instrument_matcher(tracer, self.stack.matchers[0])

    def counters(self):
        out = Counter(self.cache)
        for run in self.runs:
            out["queries"] += sum(day["queries"] for day in run["days"])
            out["retrains"] += sum(
                day["candidate_version"] is not None for day in run["days"]
            )
            out["promotions"] += sum(day["promoted"] for day in run["days"])
            out["labels"] += run["days"][-1]["labels_total"]
        return out

    def check(self):
        # Too few loops fitted in the timed phase: run more, untimed.
        while len(self.runs) < 2:
            self.step()
        reference = self.runs[0]
        failed = sum(run != reference for run in self.runs)
        problems = (
            [f"{failed} of {len(self.runs)} loop runs differ in day reports, "
             "registry state digest or promotion schedule"] if failed else []
        )
        return failed, problems

    def outcome(self):
        reference = self.runs[0]
        return {
            "state_digest": reference["state_digest"],
            "promotion_schedule": reference["schedule"],
            "day_answers_sha1": [day["answers_sha1"] for day in reference["days"]],
        }


class TrainLSTM(Workload):
    """Repeated fresh fits of the paper's LSTM-composition matcher."""

    name = "train_lstm"

    def __init__(self, world, size, seed):
        super().__init__(world, size, seed)
        self.fits: list[tuple[str, list]] = []

    def prepare_inputs(self) -> None:
        self.pairs = lstm_pairs(self.world, self.size, self.seed)

    def step(self):
        matcher = lstm_matcher(self.world, self.stack.model, self.stack.subword)
        if self.tracer is not None:
            instrument_matcher(self.tracer, matcher)
        t0 = time.perf_counter()
        matcher.fit(self.pairs, epochs=self.size.lstm_epochs)
        latency = time.perf_counter() - t0
        self.fits.append(
            (matcher.parameter_fingerprint(), list(matcher.loss_history_))
        )
        return len(self.pairs) * self.size.lstm_epochs, latency

    def check(self):
        while len(self.fits) < 2:
            self.step()
        reference = self.fits[0][0]
        failed = sum(
            fingerprint != reference
            or not all(math.isfinite(loss) for loss in losses)
            for fingerprint, losses in self.fits
        )
        problems = (
            [f"{failed} of {len(self.fits)} fits differ in parameters or have "
             "a non-finite epoch loss"] if failed else []
        )
        return failed, problems

    def outcome(self):
        return {"parameter_fingerprint": self.fits[0][0]}


WORKLOADS = {cls.name: cls for cls in (MatchCold, MatchHot, CurateLoop, TrainLSTM)}
