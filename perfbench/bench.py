"""The benchmark runner: set up, time one workload, check, report.

:func:`run_benchmark` returns the result object ``run.py`` prints plus
the run context.  An untraced run (``trace=False``) measures the
end-to-end metrics over ``seconds`` of closed-loop operations.  A traced
run spends the first half of ``seconds`` untraced and the second half
with span wrappers installed, reports the per-layer metrics of the
traced half, and the throughput gap between the halves as
``trace.overhead``.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.utils.stats import percentile

from perfbench.stack import FULL, Size, make_world
from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOADS, Workload, instrument_modules

END_TO_END_UNITS = {
    "setup_s": "s",
    "p99_ms": "ms",
    "peak_rss_mb": "MB",
}

# Throughput per workload, printed in the run context under these names.
# It is not a gated metric: on a host whose CPU speed switches between
# regimes for tens of seconds at a time, throughput, p50_ms and p90_ms
# move with the regime, while p99_ms (set by slow-regime operations,
# which every run has) stays within its bound.
THROUGHPUT_AS = {
    "match_cold": ("qps", "queries/s"),
    "match_hot": ("qps", "queries/s"),
    "curate_loop": ("days_per_s", "simulated days/s"),
    "train_lstm": ("train_pairs_per_s", "pair-epochs/s"),
}

PER_LAYER_UNITS = {
    "setup.pretrain_s": "s",
    "setup.fit_s": "s",
    "setup.index_s": "s",
    "serve.batch.self_s": "s",
    "serve.embed.s": "s",
    "serve.embed.misses": "count",
    "embeddings.sif.calls_per_query": "count",
    "embeddings.sif.calls_per_fitted_pair": "count",
    "serve.candidates.s": "s",
    "serve.cache.s": "s",
    "serve.cache.embedding_hit_rate": "ratio",
    "serve.cache.embedding_lookups": "count",
    "serve.cache.score_hit_rate": "ratio",
    "serve.cache.score_lookups": "count",
    "serve.cache.columns_hit_rate": "ratio",
    "serve.cache.columns_lookups": "count",
    "serve.cache.evictions": "count",
    "serve.columns.s": "s",
    "serve.score.s": "s",
    "serve.score.pairs_per_query": "count",
    "serve.shard.self_s": "s",
    "serve.shard.route_calls_per_query": "count",
    "serve.shard.failovers": "count",
    "serve.swap.s": "s",
    "serve.swap.count": "count",
    "serve.swap.rescored_pairs": "count",
    "par.map.calls_per_query": "count",
    "serve.sim.self_s": "s",
    "er.fit.s": "s",
    "er.fit.calls": "count",
    "kernels.compose.s": "s",
    "er.predict.s": "s",
    "loop.day.self_s": "s",
    "loop.retrains": "count",
    "loop.promotions": "count",
    "loop.promote_rate": "ratio",
    "loop.labels": "count",
    "nn.backward.s": "s",
    "nn.backward.calls": "count",
    "nn.optim.s": "s",
    "nn.forward.s": "s",
    "other.self_s": "s",
    "trace.wall_s": "s",
    "trace.queries": "count",
    "trace.ops": "count",
    "trace.layer_calls": "count",
    "trace.layer_failures": "count",
    "trace.overhead": "ratio",
}

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Phase:
    """One timed phase: wall, work done, latency samples, op accounting."""

    wall: float = 0.0
    busy: float = 0.0  # seconds inside the workload's operations
    units: float = 0.0
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def rate(self) -> float:
        return self.units / self.wall if self.wall > 0 else 0.0


def measure(workload: Workload, seconds: float, min_samples: int) -> Phase:
    """Run closed-loop operations for ``seconds`` (and ``min_samples``).

    Stops early only when the workload's input runs out, and never runs
    past three times ``seconds`` plus five, whatever the sample count.
    """
    phase = Phase()
    start = time.perf_counter()
    deadline, hard_stop = start + seconds, start + 3 * seconds + 5
    while True:
        began = time.perf_counter()
        try:
            out = workload.step()
        except Exception:  # a failed operation is counted, not fatal
            phase.attempted += 1
            phase.failed += 1
            if phase.failed == 1:
                traceback.print_exc(file=sys.stderr)
        else:
            if out is None:
                break
            units, latency = out
            phase.attempted += 1
            phase.units += units
            if latency is not None:
                phase.latencies.append(latency)
        now = time.perf_counter()
        phase.busy += now - began
        if now >= hard_stop or (
            now >= deadline and len(phase.latencies) >= min_samples
        ):
            break
    phase.wall = time.perf_counter() - start
    return phase


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(workload: Workload, tracer: Tracer, traced: Phase,
                  untraced: Phase, delta: Counter) -> dict:
    """Every per-layer metric of the traced phase (0 where not reached)."""
    inclusive, self_time, calls = tracer.summary()
    counts, amounts = tracer.counts, tracer.amounts
    queries = delta["queries"]

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    sif_in_fit = counts["embeddings.sif.calls@er.fit"]
    metrics = {
        "setup.pretrain_s": median(s["pretrain_s"] for s in workload.setups),
        "setup.fit_s": median(s["fit_s"] for s in workload.setups),
        "setup.index_s": median(s["index_s"] for s in workload.setups),
        "serve.batch.self_s": self_time["serve.batch"],
        "serve.embed.s": inclusive["serve.embed"],
        "serve.embed.misses": delta["embedding.lookups"] - delta["embedding.hits"],
        "embeddings.sif.calls_per_query": per(
            counts["embeddings.sif.calls"] - sif_in_fit, queries),
        "embeddings.sif.calls_per_fitted_pair": per(
            sif_in_fit, amounts["er.fit.pairs"]),
        "serve.candidates.s": inclusive["serve.candidates"],
        "serve.cache.s": inclusive["serve.cache"],
        "serve.cache.evictions": delta["evictions"],
        "serve.columns.s": inclusive["serve.columns"],
        "serve.score.s": inclusive["serve.score"],
        "serve.score.pairs_per_query": per(amounts["serve.score.pairs"], queries),
        "serve.shard.self_s": self_time["serve.shard"],
        "serve.shard.route_calls_per_query": per(
            counts["serve.shard.route_calls"], queries),
        "serve.shard.failovers": delta["failovers"],
        "serve.swap.s": inclusive["serve.swap"],
        "serve.swap.count": calls["serve.swap"],
        "serve.swap.rescored_pairs": amounts["serve.swap.rescored_pairs"],
        "par.map.calls_per_query": per(counts["par.map.calls"], queries),
        "serve.sim.self_s": self_time["serve.sim"],
        "er.fit.s": inclusive["er.fit"],
        "er.fit.calls": calls["er.fit"],
        "kernels.compose.s": inclusive["kernels.compose"],
        "er.predict.s": inclusive["er.predict"],
        "loop.day.self_s": self_time["loop.day"],
        "loop.retrains": delta["retrains"],
        "loop.promotions": delta["promotions"],
        "loop.promote_rate": per(delta["promotions"], delta["retrains"]),
        "loop.labels": delta["labels"],
        "nn.backward.s": inclusive["nn.backward"],
        "nn.backward.calls": calls["nn.backward"],
        "nn.optim.s": inclusive["nn.optim"],
        # fit minus its backward, optimizer and featurisation children.
        "nn.forward.s": self_time["er.fit"],
        "other.self_s": traced.wall - sum(self_time.values()),
        "trace.wall_s": traced.wall,
        "trace.queries": queries,
        "trace.ops": traced.attempted,
        "trace.layer_calls": sum(calls.values()) + sum(
            n for name, n in counts.items() if "@" not in name),
        "trace.layer_failures": sum(tracer.errors.values()),
        "trace.overhead": per(untraced.rate, traced.rate) - 1.0,
    }
    for tier in ("embedding", "score", "columns"):
        lookups = delta[f"{tier}.lookups"]
        metrics[f"serve.cache.{tier}_hit_rate"] = per(delta[f"{tier}.hits"], lookups)
        metrics[f"serve.cache.{tier}_lookups"] = lookups
    return {name: float(metrics[name]) for name in PER_LAYER_UNITS}


def measure_traced(workload: Workload, seconds: float) -> "tuple[Tracer, Phase, Counter]":
    """One phase with every span wrapper installed, then restored.

    Returns the tracer, the phase and the change of the workload's
    counters over it.
    """
    tracer = Tracer()
    before = workload.counters()
    try:
        instrument_modules(tracer)
        workload.instrument(tracer)
        traced = measure(workload, seconds, 1)
    finally:
        tracer.restore()
        workload.tracer = None
    delta = workload.counters()
    delta.subtract(before)
    return tracer, traced, delta


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` without one)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  size: Size = FULL) -> "tuple[dict, dict]":
    """Run one workload; returns ``(result, context)``."""
    workload = WORKLOADS[name](make_world(size), size, seed)
    workload.prepare()
    if trace:
        untraced = measure(workload, seconds / 2, 1)
        tracer, traced, delta = measure_traced(workload, seconds / 2)
        phases = [untraced, traced]
    else:
        untraced = measure(workload, seconds, workload.min_samples)
        phases = [untraced]
    # Peak memory of set-up and serving, before the check's reference work.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = sum(p.attempted for p in phases)
    raised = sum(p.failed for p in phases)
    mismatched, problems = workload.check()
    failed = raised + mismatched

    latencies = sorted(untraced.latencies)
    rank = max(1, math.ceil(0.99 * len(latencies)))
    context = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "jobs": 1,
        "git_sha": git_sha(Path(__file__).resolve().parent.parent),
        THROUGHPUT_AS[name][0]: untraced.rate,
        "throughput_unit": THROUGHPUT_AS[name][1],
        "p50_ms": percentile(latencies, 50) * 1e3,
        "p90_ms": percentile(latencies, 90) * 1e3,
        "latency_samples": len(latencies),
        "samples_beyond_p99": len(latencies) - rank,
        "setups": workload.setups,
        "outcome": workload.outcome(),
        "problems": problems,
    }
    if name == "curate_loop":
        context["day_s"] = median(latencies) / size.loop_days

    if trace:
        metrics = layer_metrics(workload, tracer, traced, untraced, delta)
        attempted += int(metrics["trace.layer_calls"])
        failed += int(metrics["trace.layer_failures"])
        _, self_time, _ = tracer.summary()
        attribution = dict(sorted(self_time.items()))
        attribution["other"] = metrics["other.self_s"]
        context["self_seconds"] = attribution
        context["tracing_overhead"] = metrics["trace.overhead"]
        # Spans nest, so no self time (and no remainder) can be negative
        # beyond clock rounding.
        if min([metrics["other.self_s"], *self_time.values()]) < -1e-6:
            problems.append("self times do not partition the traced wall")
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": median(s["total_s"] for s in workload.setups),
            "p99_ms": percentile(latencies, 99) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    context["attempted"] = attempted
    context["failed"] = failed
    context["error_rate"] = failed / attempted if attempted else 0.0
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in metrics.items()
        },
    }
    return result, context
