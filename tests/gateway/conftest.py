"""Gateway-suite fixtures: serve-style trained components + request builders."""

from __future__ import annotations

import pytest

from repro.er import DeepER
from repro.gateway import GatewayRequest, MatchRouter
from repro.serve import BlockingIndex, MatchService


@pytest.fixture(scope="module")
def trained_matcher(word_model, small_benchmark):
    labeled = small_benchmark.labeled_pairs(negative_ratio=3, rng=1)[:120]
    train = [
        (small_benchmark.record_a(a), small_benchmark.record_b(b), y)
        for a, b, y in labeled
    ]
    return DeepER(
        word_model, small_benchmark.compare_columns, composition="sif", rng=0
    ).fit(train, epochs=5)


@pytest.fixture(scope="module")
def reference_records(small_benchmark):
    records = [
        small_benchmark.table_a.row_dict(i)
        for i in range(len(small_benchmark.table_a))
    ]
    ids = [str(v) for v in small_benchmark.table_a.column(small_benchmark.id_column)]
    return records, ids


@pytest.fixture(scope="module")
def query_records(small_benchmark):
    return [
        small_benchmark.table_b.row_dict(i)
        for i in range(len(small_benchmark.table_b))
    ]


@pytest.fixture(scope="module")
def built_index(trained_matcher, reference_records):
    records, ids = reference_records
    return BlockingIndex(
        trained_matcher.embedder, n_bits=16, n_bands=4, rng=0
    ).build(records, ids, jobs=1)


@pytest.fixture()
def service(trained_matcher, built_index):
    """A fresh (cold-cache) service per test."""
    return MatchService(trained_matcher, built_index, jobs=1)


@pytest.fixture()
def match_router(service):
    return MatchRouter(service)


def match_request(request_id, record, *, tenant="t0", arrival=0.0,
                  priority="interactive"):
    """One match-route request around a query record."""
    return GatewayRequest(
        request_id=request_id, tenant=tenant, route="match",
        priority=priority, arrival=arrival, payload={"record": record},
    )


@pytest.fixture()
def match_requests(query_records):
    """Eight evenly spaced match requests over the first query records."""
    return [
        match_request(i, query_records[i % len(query_records)], arrival=0.002 * i)
        for i in range(8)
    ]
