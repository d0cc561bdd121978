"""The serving boundary: malformed records are refused before any work.

:func:`repro.serve.service.check_records` runs first in both services'
``match_batch``.  A non-dict raises ``TypeError``; a record with no
non-empty compare column (``{}``, all ``None``, blank strings) raises
``ValueError`` instead of being answered from the zero-vector LSH
bucket.  Both name the batch position, and the sharded service reports
a bad input as a bad input, never as a dead shard.  A rejected batch
leaves cache statistics, metrics counters and the served weights as
they were.
"""

from __future__ import annotations

import math

import pytest

from repro.obs.metrics import REGISTRY, collecting
from repro.serve import MatchService, ShardedMatchService
from repro.serve.service import check_records

TOPOLOGIES = ("unsharded", 1, 4)


def build(topology, matcher, index):
    if topology == "unsharded":
        return MatchService(matcher, index, jobs=1)
    return ShardedMatchService(matcher, index, n_shards=topology, replicas=2, jobs=1)


def bad_records(columns):
    """(record, error) pairs covering both rejected shapes."""
    return [
        ("a string", TypeError),
        (list(columns), TypeError),
        (None, TypeError),
        ({}, ValueError),
        ({column: None for column in columns}, ValueError),
        ({column: "  " for column in columns}, ValueError),
        ({column: math.nan for column in columns}, ValueError),
        ({"not_a_compare_column": "some words"}, ValueError),
    ]


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_bad_record_raises_naming_its_position(
    topology, trained_matcher, built_index, query_records
):
    service = build(topology, trained_matcher, built_index)
    for record, error in bad_records(trained_matcher.embedder.columns):
        batch = query_records[:2] + [record] + query_records[2:3]
        with pytest.raises(error, match=r"^record 2 "):
            service.match_batch(batch)
        with pytest.raises(error, match=r"^record 0 "):
            service.match_one(record)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_rejected_batch_leaves_the_service_unchanged(
    topology, trained_matcher, built_index, query_records
):
    service = build(topology, trained_matcher, built_index)
    with collecting(reset=True):
        service.match_batch(query_records[:4])
        stats = vars(service.cache_stats)
        counters = REGISTRY.snapshot()["counters"]
        fingerprint = service.parameter_fingerprint()
        for record, error in bad_records(trained_matcher.embedder.columns):
            with pytest.raises(error):
                service.match_batch(query_records[:3] + [record])
        assert vars(service.cache_stats) == stats
        assert REGISTRY.snapshot()["counters"] == counters
        assert "serve.shard.failovers" not in counters
        assert service.parameter_fingerprint() == fingerprint


def test_partially_filled_record_is_served(trained_matcher, built_index):
    columns = trained_matcher.embedder.columns
    record = {column: None for column in columns}
    record[columns[0]] = "deep learning"
    answer = MatchService(trained_matcher, built_index, jobs=1).match_one(record)
    assert answer.query_key


def test_benchmark_records_all_pass(small_benchmark):
    columns = small_benchmark.compare_columns
    for table in (small_benchmark.table_a, small_benchmark.table_b):
        check_records([table.row_dict(i) for i in range(len(table))], columns)
