"""The benchmark's own tests, at the ``TINY`` size.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import repro.embeddings.compose  # noqa: E402
import repro.loop.loop  # noqa: E402
import repro.nn.tensor  # noqa: E402
import repro.serve.shard  # noqa: E402
from repro.loop import answers_digest  # noqa: E402
from perfbench import stack  # noqa: E402
from perfbench.bench import (  # noqa: E402
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    measure,
    measure_traced,
    run_benchmark,
)
from perfbench.stack import TINY, make_world  # noqa: E402
from perfbench.workloads import WORKLOADS, MatchCold, MatchHot  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in DECLARED["workloads"]]
SECONDS = 0.3

_RUNS: dict = {}


def tiny_run(name: str, seed: int, trace: bool):
    key = (name, seed, trace)
    if key not in _RUNS:
        _RUNS[key] = run_benchmark(name, seed, SECONDS, trace, size=TINY)
    return _RUNS[key]


def test_declared_workloads_and_units_match_the_code():
    assert NAMES == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_printed_with_its_unit(name, trace):
    result, _ = tiny_run(name, 1, trace)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    printed = json.loads(json.dumps(result))["metrics"]
    assert set(printed) == {m["name"] for m in declared}
    for metric in declared:
        assert printed[metric["name"]]["unit"] == metric["unit"]
        assert isinstance(printed[metric["name"]]["value"], float)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_are_never_zero(name):
    result, _ = tiny_run(name, 1, False)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_two_seeds_generate_different_inputs():
    world = make_world(TINY)
    assert stack.cold_queries(world, TINY, 1) != stack.cold_queries(world, TINY, 2)
    assert stack.hot_day(world, TINY, 1, 0) != stack.hot_day(world, TINY, 2, 0)
    assert stack.hot_day(world, TINY, 1, 0) != stack.hot_day(world, TINY, 1, 1)
    assert stack.loop_seeds(1) != stack.loop_seeds(2)
    assert stack.lstm_pairs(world, TINY, 1) != stack.lstm_pairs(world, TINY, 2)
    # ... and the same seed, the same inputs.
    assert stack.cold_queries(world, TINY, 1) == stack.cold_queries(world, TINY, 1)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", [1, 2])
def test_both_seeds_pass_the_correctness_checks(name, seed):
    result, context = tiny_run(name, seed, False)
    assert result["correct"], context["problems"]
    assert result["failed"] == 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_a_non_negative_remainder(name):
    result, context = tiny_run(name, 1, True)
    assert result["correct"], context["problems"]
    metrics = result["metrics"]
    assert metrics["other.self_s"]["value"] >= 0
    assert metrics["trace.layer_calls"]["value"] > 0


def prepared(name: str):
    workload = WORKLOADS[name](make_world(TINY), TINY, 1)
    workload.prepare()
    return workload


@pytest.mark.parametrize("name", NAMES)
def test_traced_self_times_lie_within_the_measured_operations(name):
    workload = prepared(name)
    tracer, traced, _ = measure_traced(workload, SECONDS)
    _, self_time, _ = tracer.summary()
    assert traced.failed == 0 and traced.latencies
    assert min(self_time.values()) >= -1e-9
    # Spans open and close inside the operations, and the client's own
    # latency of each operation is spent almost wholly inside its spans.
    attributed = sum(self_time.values())
    assert attributed <= traced.busy
    assert attributed >= 0.8 * sum(traced.latencies)


def traced_objects(workload) -> list:
    """Every instance the traced run may wrap methods on."""
    service = workload.stack.service
    objects = [*workload.stack.matchers]
    if service is not None:
        objects.append(service)
        for group in getattr(service, "groups", []):
            objects.extend(group.replicas)
    return objects


MODULE_FUNCTIONS = [
    (repro.nn.tensor.Tensor, "backward"),
    (repro.embeddings.compose, "sif_weights"),
    (repro.loop.loop, "simulate"),
    (repro.serve.shard, "shard_of_key"),
]


@pytest.mark.parametrize("name", NAMES)
def test_tracing_leaves_no_wrapper_behind(name):
    workload = prepared(name)
    objects = traced_objects(workload)
    before = [dict(vars(obj)) for obj in objects]
    functions = [getattr(owner, attr) for owner, attr in MODULE_FUNCTIONS]
    tracer, _, _ = measure_traced(workload, SECONDS)
    assert tracer.spans or tracer.counts
    for obj, attributes in zip(objects, before):
        assert set(vars(obj)) == set(attributes), type(obj).__name__
        for attr in ("match_batch", "fit", "predict_proba", "swap_matcher"):
            assert attr not in vars(obj)
    for (owner, attr), function in zip(MODULE_FUNCTIONS, functions):
        assert getattr(owner, attr) is function


def corrupt(answers: list) -> list:
    first = answers[0]
    return [dataclasses.replace(first, probability=first.probability + 0.25)] + list(
        answers[1:]
    )


def test_a_corrupted_answer_is_caught_and_counted_as_failed(monkeypatch):
    step = MatchCold.step

    def corrupting_step(self):
        out = step(self)
        if len(self.digests) == 2:
            answers = self.stack.service.match_batch(self.batch(1)).answers
            self.digests[1] = answers_digest(corrupt(answers))
        return out

    monkeypatch.setattr(MatchCold, "step", corrupting_step)
    result, context = run_benchmark("match_cold", 1, SECONDS, False, size=TINY)
    assert not result["correct"]
    assert result["failed"] == 1
    assert context["error_rate"] == pytest.approx(1 / result["attempted"])
    assert context["problems"]


def test_hot_check_compares_against_the_serving_matcher_version():
    workload = MatchHot(make_world(TINY), TINY, 1)
    workload.prepare()
    phase = measure(workload, SECONDS, TINY.min_samples)
    assert phase.failed == 0
    assert {version for version, _ in workload.records} == {0, 1}
    assert workload.check() == (0, [])
    # The last batch's answers as the other matcher version serves them.
    version, _ = workload.records[-1]
    workload.records[-1] = (1 - version, workload.records[-1][1])
    failed, problems = workload.check()
    assert failed == 1 and problems


def test_without_the_program_source_the_benchmark_refuses(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "match_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
