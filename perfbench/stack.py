"""Inputs and set-up for the wall-clock benchmark.

Two kinds of work happen before a workload's timed phase:

* **inputs** — the reference world (a citations entity-matching
  benchmark, its labelled pairs and the pre-training corpus) and the
  seeded query streams.  The world is fixed, so every seed does the same
  amount of work; ``--seed`` drives only what the program receives as
  traffic (query perturbations, the hot days' draws, loop traffic and
  crowd seeds, the LSTM training sample).
* **set-up** — what a user pays before the first answer: SkipGram
  pre-training, matcher fit(s), ``BlockingIndex.build`` and service
  construction.  :func:`build_stack` does it once and reports the wall
  time of each phase; the workloads call it several times and report the
  median as ``setup_s``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from benchmarks.common import benchmark_split, records_and_ids
from repro.augment.transforms import case_transform, token_swap_transform, typo_transform
from repro.data import World, citations_benchmark
from repro.embeddings import tuple_documents
from repro.er import DeepER
from repro.serve import (
    BlockingIndex,
    MatchService,
    ShardedMatchService,
    WorkloadConfig,
    content_key,
    generate_workload,
)
from repro.text import SkipGram, SubwordEmbeddings


@dataclass(frozen=True)
class Size:
    """Every size knob of the benchmark in one place.

    :data:`FULL` is what ``run.py`` measures; :data:`TINY` keeps the same
    code paths at a size the benchmark's own tests can afford.
    """

    n_entities: int = 200
    dim: int = 32
    sg_epochs: int = 3
    corpus_sentences: int = 200
    setup_repeats: int = 5
    matcher_epochs: int = 12
    batch_size: int = 8
    min_samples: int = 1010
    cold_pool: int = 20000
    # match_hot traffic: E18's day (150 queries, repeat_fraction 0.4) and
    # E18's busiest swap cadence, one promotion per simulated day.
    day_queries: int = 150
    repeat_fraction: float = 0.4
    n_shards: int = 4
    replicas: int = 2
    loop_days: int = 3
    loop_queries: int = 120
    loop_labels: int = 24
    loop_al_batch: int = 8
    loop_epochs: int = 10
    loop_seed_labels: int = 12
    loop_seed_epochs: int = 5
    lstm_epochs: int = 1
    lstm_pairs: int = 0  # 0 keeps the whole labelled sample


FULL = Size()
TINY = Size(
    n_entities=40, dim=12, sg_epochs=1, corpus_sentences=20, setup_repeats=2,
    matcher_epochs=3, min_samples=20, cold_pool=400, day_queries=30,
    loop_days=2, loop_queries=30, loop_labels=6,
    loop_al_batch=3, loop_epochs=2, loop_seed_labels=8, loop_seed_epochs=2,
    lstm_epochs=1, lstm_pairs=40,
)

# Salts keep the benchmark's seeded streams disjoint from each other.
_COLD_SALT = 0xC01D
_HOT_SALT = 0x407
_LOOP_SALT = 0x100B
_LSTM_SALT = 0x157


def seeded_rng(salt: int, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([salt, int(seed)]))


# ---------------------------------------------------------------------- #
# inputs
# ---------------------------------------------------------------------- #


@dataclass
class Inputs:
    """The fixed reference world every workload serves or trains over."""

    bench: object
    documents: list
    records_a: list
    ids_a: list
    records_b: list
    train: list
    eval_pairs: list
    eval_labels: np.ndarray


def make_world(size: Size) -> Inputs:
    """Citations benchmark, pre-training corpus and the labelled split."""
    bench = citations_benchmark(n_entities=size.n_entities, rng=0)
    table_docs = [
        [token for value in doc for token in str(value).split()]
        for doc in tuple_documents([bench.table_a, bench.table_b])
    ]
    documents = table_docs + World(5).corpus(size.corpus_sentences)
    records_a, ids_a, records_b, _ = records_and_ids(bench)
    train, eval_pairs, eval_labels = benchmark_split(bench, seed=1)
    return Inputs(
        bench=bench, documents=documents, records_a=records_a, ids_a=ids_a,
        records_b=records_b, train=train, eval_pairs=eval_pairs,
        eval_labels=eval_labels,
    )


_PERTURBATIONS = (typo_transform, case_transform, token_swap_transform)


def distinct_queries(world: Inputs, n: int, salt: int, seed: int) -> list:
    """``n`` perturbed reference records with pairwise distinct content.

    Each query is a reference record passed through the label-preserving
    typo, re-casing and token-swap transforms, so it keeps its blocking
    candidates.
    """
    rng = seeded_rng(salt, seed)
    seen: set[str] = set()
    queries: list[dict] = []
    records = world.records_a
    while len(queries) < n:
        query = records[int(rng.integers(len(records)))]
        for transform in _PERTURBATIONS:
            query = transform(query, rng)
        key = content_key(query)
        if key not in seen:
            seen.add(key)
            queries.append(query)
    return queries


def cold_queries(world: Inputs, size: Size, seed: int) -> list:
    """The never-repeating query pool of ``match_cold``."""
    return distinct_queries(world, size.cold_pool, _COLD_SALT, seed)


def hot_day(world: Inputs, size: Size, seed: int, day: int) -> list:
    """One simulated day of ``match_hot`` traffic, as ``records_b`` indices.

    The day is what E18's curation loop serves in a day:
    :func:`generate_workload` over the query table with E18's day size and
    ``repeat_fraction``, seeded per ``(seed, day)``.
    """
    day_seed = int(np.random.SeedSequence(
        [_HOT_SALT, int(seed), int(day)]
    ).generate_state(1)[0])
    position = {id(record): i for i, record in enumerate(world.records_b)}
    queries = generate_workload(world.records_b, WorkloadConfig(
        n_queries=size.day_queries, rate=300.0,
        repeat_fraction=size.repeat_fraction, seed=day_seed,
    ))
    return [position[id(query.record)] for query in queries]


def loop_seeds(seed: int) -> tuple[int, int]:
    """``(workload_seed, crowd_seed)`` of the curation loop's traffic."""
    rng = seeded_rng(_LOOP_SALT, seed)
    return int(rng.integers(1 << 30)), int(rng.integers(1 << 30))


def lstm_pairs(world: Inputs, size: Size, seed: int) -> list:
    """The seeded labelled sample the LSTM matcher trains on."""
    triples, _, _ = benchmark_split(
        world.bench, train_fraction=1.0, seed=seeded_rng(_LSTM_SALT, seed)
    )
    return triples[: size.lstm_pairs] if size.lstm_pairs else triples


# ---------------------------------------------------------------------- #
# set-up
# ---------------------------------------------------------------------- #


@dataclass
class Stack:
    """One set-up's products plus the wall seconds of each phase."""

    model: SkipGram
    subword: SubwordEmbeddings
    matchers: list
    index: BlockingIndex | None
    service: object
    phases: dict


def build_stack(world: Inputs, size: Size, kind: str) -> Stack:
    """Pre-train, fit, index and construct the service for ``kind``.

    ``kind`` is a workload name: ``match_cold`` fits one SIF matcher and
    builds an unsharded :class:`MatchService`; ``match_hot`` fits two
    (the swap pair) behind a :class:`ShardedMatchService`;
    ``curate_loop`` fits the loop's seed matcher on a few labels;
    ``train_lstm`` only pre-trains (its fits are the timed operations).
    """
    phases = {"pretrain_s": 0.0, "fit_s": 0.0, "index_s": 0.0}
    start = time.perf_counter()
    model = SkipGram(
        dim=size.dim, window=8, epochs=size.sg_epochs, rng=0
    ).fit(world.documents)
    subword = SubwordEmbeddings(model)
    phases["pretrain_s"] = time.perf_counter() - start

    matchers: list[DeepER] = []
    index = service = None
    if kind != "train_lstm":
        start = time.perf_counter()
        if kind == "curate_loop":
            labels, epochs = world.train[: size.loop_seed_labels], size.loop_seed_epochs
        else:
            labels, epochs = world.train, size.matcher_epochs
        for rng in (0, 1) if kind == "match_hot" else (0,):
            matchers.append(
                sif_matcher(world, model, subword, rng).fit(labels, epochs=epochs)
            )
        phases["fit_s"] = time.perf_counter() - start

        start = time.perf_counter()
        index = BlockingIndex(
            matchers[0].embedder, n_bits=32, n_bands=8, rng=0
        ).build(world.records_a, world.ids_a, jobs=1)
        if kind == "match_hot":
            service = ShardedMatchService(
                matchers[0], index, n_shards=size.n_shards,
                replicas=size.replicas, jobs=1,
            )
        else:
            service = MatchService(matchers[0], index, jobs=1)
        phases["index_s"] = time.perf_counter() - start
    return Stack(model, subword, matchers, index, service, phases)


def sif_matcher(world: Inputs, model, subword, rng: int) -> DeepER:
    """A fresh untrained SIF matcher over the compare columns."""
    return DeepER(
        model, world.bench.compare_columns, composition="sif",
        vector_fn=subword.vector, rng=rng, jobs=1,
    )


def lstm_matcher(world: Inputs, model, subword) -> DeepER:
    """A fresh untrained LSTM-composition matcher (fixed init seed)."""
    return DeepER(
        model, world.bench.compare_columns, composition="lstm",
        vector_fn=subword.vector, rng=0, jobs=1,
    )
