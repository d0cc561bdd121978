"""Micro-benchmarks of the deep-learning substrate's hot kernels.

Unlike the experiment benches (single pedantic rounds around whole
experiments), these let pytest-benchmark do proper multi-round timing of
the primitives everything else is built on: autograd forward+backward,
LSTM steps, SGNS epochs, LSH signatures, and pair featurisation.

The ``pair scoring`` rows are the before/after pair for the
:mod:`repro.kernels` rewrite: the same DeepER featurisation over the
same 200 pairs, once through the per-pair reference
(:func:`repro.er.deeper._pair_feature_row`) and once through the
batched matmul path — plus the int8 quantized-store
gather feeding :func:`repro.kernels.pair_feature_matrix` directly.
These measurements calibrate the kernel cost model in
``bench_e17_serving``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.er import DeepER, LSHBlocker, pair_features
from repro.er.deeper import _pair_feature_row
from repro.kernels import pair_feature_matrix, quantize
from repro.nn import Adam, LSTM, Tensor, bce_with_logits, mlp
from repro.text import SkipGram


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0)


def test_micro_mlp_train_step(benchmark, rng):
    """One forward+backward+update step of a 64→64→1 MLP on 256 rows."""
    net = mlp([64, 64, 1], rng=0)
    optimizer = Adam(net.parameters(), lr=1e-3)
    x = Tensor(rng.normal(size=(256, 64)))
    y = (rng.random((256, 1)) < 0.5).astype(float)

    def step():
        loss = bce_with_logits(net(x), y)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        return loss.item()

    result = benchmark(step)
    assert np.isfinite(result)


def test_micro_lstm_forward_backward(benchmark, rng):
    """Forward+backward through a 32-step LSTM, batch 32, width 32."""
    lstm = LSTM(32, 32, rng=0)
    x = Tensor(rng.normal(size=(32, 32, 32)))

    def step():
        _, last = lstm(x)
        loss = (last * last).mean()
        lstm.zero_grad()
        loss.backward()
        return loss.item()

    result = benchmark(step)
    assert np.isfinite(result)


def test_micro_sgns_epoch(benchmark, rng):
    """One SGNS epoch over ~2k tokens (vocab ~100)."""
    vocab = [f"w{i}" for i in range(100)]
    documents = [
        [vocab[int(rng.integers(100))] for _ in range(20)] for _ in range(100)
    ]
    model = SkipGram(dim=32, window=4, epochs=1, rng=0)

    def run():
        return model.fit(documents)

    benchmark(run)
    assert len(model.vocabulary) == 100


def test_micro_lsh_candidates(benchmark, rng):
    """Whitened LSH candidate generation over 500×500 embeddings."""
    emb_a = rng.normal(size=(500, 40))
    emb_b = emb_a + rng.normal(0, 0.1, size=emb_a.shape)
    ids_a = [f"a{i}" for i in range(500)]
    ids_b = [f"b{i}" for i in range(500)]

    def run():
        blocker = LSHBlocker(n_bits=64, n_bands=16, rng=0)
        return blocker.candidate_pairs(emb_a, ids_a, emb_b, ids_b)

    candidates = benchmark(run)
    assert len(candidates) > 0


def test_micro_pair_featurisation(benchmark):
    """Hand-crafted feature extraction for 200 record pairs."""
    record_a = {"title": "holistic query optimization 77", "authors": "david johnson"}
    record_b = {"title": "holistic optimization query 77", "authors": "d. johnson"}

    def run():
        return [
            pair_features(record_a, record_b, ["title", "authors"])
            for _ in range(200)
        ]

    features = benchmark(run)
    assert len(features) == 200


@pytest.fixture(scope="module")
def scoring_setup():
    """A SIF DeepER matcher plus 200 deterministic record pairs.

    40 distinct records appear across the 200 pairs — the repeat-heavy
    shape the serving workload has, which is exactly what the kernel's
    content-addressed dedup exploits and the per-pair loop cannot.
    """
    gen = np.random.default_rng(7)
    vocab = [f"tok{i}" for i in range(120)]
    documents = [
        [vocab[int(gen.integers(120))] for _ in range(12)] for _ in range(160)
    ]
    model = SkipGram(dim=24, window=4, epochs=2, rng=0).fit(documents)

    def record(i: int) -> dict:
        return {
            "title": " ".join(vocab[(i * 3 + j) % 120] for j in range(6)),
            "authors": " ".join(vocab[(i * 5 + j) % 120] for j in range(3)),
        }

    distinct = [record(i) for i in range(40)]
    pairs = [(distinct[i % 40], distinct[(i * 7) % 40]) for i in range(200)]
    matcher = DeepER(model, ["title", "authors"], composition="sif", rng=0)
    return matcher, pairs


def _loop_rows(pairs, embedder) -> np.ndarray:
    return np.array([_pair_feature_row(pair, embedder) for pair in pairs])


def test_micro_pair_scoring_loop(benchmark, scoring_setup):
    """DeepER featurisation of 200 pairs via the per-pair loop (before)."""
    matcher, pairs = scoring_setup

    features = benchmark(_loop_rows, pairs, matcher.embedder)
    assert features.shape[0] == 200


def test_micro_pair_scoring_kernel(benchmark, scoring_setup):
    """The same 200 pairs through the batched kernel (after) — and the
    two paths must agree bit-for-bit, which is the whole contract."""
    matcher, pairs = scoring_setup

    features = benchmark(matcher._pair_features_numpy, pairs)
    assert features.shape[0] == 200
    assert np.array_equal(features, _loop_rows(pairs, matcher.embedder))


def test_micro_quantized_gather_features(benchmark, scoring_setup):
    """int8 store gather + batched featurisation for 200 pairs.

    The serving shape with a quantized index: reference columns are
    dequantized rows gathered from the int8 store, query columns come in
    float; one `pair_feature_matrix` call scores the whole batch.
    """
    matcher, pairs = scoring_setup
    embedder = matcher.embedder
    uniques = {id(r): r for r, _ in pairs} | {id(r): r for _, r in pairs}
    stack = np.array([embedder.embed_columns(r) for r in uniques.values()])
    row_of = {key: row for row, key in enumerate(uniques)}
    store = quantize(stack, "int8")
    u_rows = np.array([row_of[id(a)] for a, _ in pairs], dtype=np.intp)
    v_rows = np.array([row_of[id(b)] for _, b in pairs], dtype=np.intp)
    u_cols = stack[u_rows]

    def run():
        return pair_feature_matrix(u_cols, store.rows(v_rows))

    features = benchmark(run)
    assert features.shape[0] == 200
    assert store.nbytes < stack.nbytes


# -- lint engine: cold parse vs warm cache ------------------------------------
#
# The `repro-lint` incremental cache is a perf feature with a correctness
# contract: a warm run may skip every parse, but its findings must be
# byte-identical to a cold run's, and independent of the `jobs=` fan-out.
# These rows time both phases over the lint+faults packages (big enough
# to exercise the project graph, small enough for multi-round timing)
# and assert the contract on every run.

import json
from pathlib import Path

from repro.lint.engine import lint_paths
from repro.lint.report import render_json

_REPO_ROOT = Path(__file__).resolve().parent.parent
_LINT_TARGETS = [_REPO_ROOT / "src" / "repro" / "lint",
                 _REPO_ROOT / "src" / "repro" / "faults"]


def _lint_findings(cache_path, jobs=1):
    result = lint_paths(
        _LINT_TARGETS, root=_REPO_ROOT, cache_path=cache_path, jobs=jobs,
    )
    return json.loads(render_json(result))["findings"], result


def test_micro_lint_cold(benchmark, tmp_path):
    """Cold lint of the lint+faults packages: parse + rules + graph."""
    cache = tmp_path / "lint-cache.json"

    def setup():
        if cache.exists():
            cache.unlink()
        return (), {}

    findings, result = benchmark.pedantic(
        lambda: _lint_findings(cache), setup=setup, rounds=3,
    )
    assert result.files_reused == 0
    assert result.files_checked > 10


def test_micro_lint_warm(benchmark, tmp_path):
    """Warm lint off the cache: hash check + project graph, no parsing.

    Asserts the cache contract: warm findings are byte-identical to the
    cold run's and independent of the per-file fan-out.
    """
    cache = tmp_path / "lint-cache.json"
    cold_findings, cold = _lint_findings(cache)
    assert cold.files_reused == 0

    findings, result = benchmark(lambda: _lint_findings(cache))
    assert result.files_reused == result.files_checked == cold.files_checked
    assert findings == cold_findings

    fanned_cache = tmp_path / "lint-cache-j2.json"
    fanned_findings, _ = _lint_findings(fanned_cache, jobs=2)
    assert fanned_findings == cold_findings
