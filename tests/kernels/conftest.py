"""Kernel-tier fixtures: a trained fixed-composition matcher + records.

Mirrors the serving suite's setup (module-scoped, built once) — the
differential tier compares kernel output against this matcher's loop
reference, so both suites must exercise the same model family.
"""

from __future__ import annotations

import pytest

from repro.er import DeepER
from repro.serve import BlockingIndex


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
def second_matcher(word_model, small_benchmark):
    """Same embedder configuration as ``trained_matcher``, other weights."""
    labeled = small_benchmark.labeled_pairs(negative_ratio=3, rng=2)[:80]
    train = [
        (small_benchmark.record_a(a), small_benchmark.record_b(b), y)
        for a, b, y in labeled
    ]
    return DeepER(
        word_model, small_benchmark.compare_columns, composition="sif", rng=1
    ).fit(train, epochs=3)


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


@pytest.fixture(scope="module")
def pair_pool(reference_records, query_records):
    """A deterministic pool of (query, reference) record pairs to draw
    batches from; large enough to cover the 1000-pair sweep."""
    records, _ = reference_records
    pool = []
    i = 0
    while len(pool) < 1200:
        pool.append(
            (query_records[i % len(query_records)], records[(i * 7) % len(records)])
        )
        i += 1
    return pool
