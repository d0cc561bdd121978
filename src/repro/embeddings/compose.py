"""Compositional distributed representations (paper Section 3.1).

From atomic word/cell vectors the paper asks for representations of
increasingly abstract units: tuples (tuple2vec), columns (column2vec),
tables (table2vec) and whole databases (database2vec).  Three composition
strategies are provided:

* **mean** — the "common approach" of averaging component vectors;
* **SIF** — smoothed-inverse-frequency weighting (rare words count more),
  a strong unsupervised baseline for sentence-style composition;
* **LSTM** — a data-driven composer (:class:`LSTMComposer`) trained
  end-to-end inside DeepER, matching the paper's "more sophisticated
  approach such as LSTM".
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.data.table import Table
from repro.data.types import is_missing
from repro.nn.layers import Module
from repro.nn.rnn import SequenceEncoder
from repro.nn.tensor import Tensor
from repro.text.tokenize import word_tokenize
from repro.text.word2vec import SkipGram
from repro.utils.rng import ensure_rng

VectorFn = Callable[[str], np.ndarray]


def mean_compose(vectors: np.ndarray, dim: int) -> np.ndarray:
    """Average composition; zero vector for empty input."""
    if vectors.size == 0:
        return np.zeros(dim)
    return vectors.mean(axis=0)


def sif_weights(tokens: list[str], model: SkipGram, a: float = 1e-3) -> np.ndarray:
    """Smoothed-inverse-frequency weights ``a / (a + p(w))`` per token."""
    freqs = np.asarray(model.vocabulary.frequencies(), dtype=np.float64)
    total = freqs.sum()
    weights = []
    for token in tokens:
        token_id = model.vocabulary.get(token)
        p = freqs[token_id] / total if token_id is not None else 0.0
        weights.append(a / (a + p))
    return np.asarray(weights)


class TupleEmbedder:
    """Embed records (dicts) into vectors from word embeddings.

    Parameters
    ----------
    model:
        Fitted :class:`SkipGram` supplying word vectors.
    columns:
        The attributes to include, in a fixed order.
    method:
        ``"mean"`` or ``"sif"``.
    vector_fn:
        Optional override mapping token → vector (e.g. subword back-off);
        defaults to the model's in-vocabulary lookup with zero for OOV.
        Kept as passed (``None`` for the default), so two embedders'
        token-vector functions compare equal exactly when they were
        given the same one.
    """

    def __init__(
        self,
        model: SkipGram,
        columns: list[str],
        method: str = "mean",
        vector_fn: VectorFn | None = None,
    ) -> None:
        if method not in {"mean", "sif"}:
            raise ValueError(f"method must be 'mean' or 'sif', got {method!r}")
        self.model = model
        self.columns = list(columns)
        self.method = method
        self.vector_fn = vector_fn
        self._vector_fn = vector_fn or self._default_vector

    def _default_vector(self, token: str) -> np.ndarray:
        if token in self.model:
            return self.model.vector(token)
        return np.zeros(self.model.dim)

    @property
    def dim(self) -> int:
        return self.model.dim

    def tokens_of(self, record: dict[str, object]) -> list[str]:
        """Token stream of a record over the configured columns."""
        tokens: list[str] = []
        for column in self.columns:
            value = record.get(column)
            if is_missing(value):
                continue
            tokens.extend(word_tokenize(str(value)))
        return tokens

    def embed(self, record: dict[str, object]) -> np.ndarray:
        """Tuple2vec: one vector per record."""
        tokens = self.tokens_of(record)
        if not tokens:
            return np.zeros(self.dim)
        vectors = np.array([self._vector_fn(t) for t in tokens])
        if self.method == "sif":
            weights = sif_weights(tokens, self.model)
            total = weights.sum()
            if total < 1e-12:
                return np.zeros(self.dim)
            return (vectors * weights[:, None]).sum(axis=0) / total
        return mean_compose(vectors, self.dim)

    def embed_many(self, records: list[dict[str, object]]) -> np.ndarray:
        """Stack of tuple embeddings, shape ``(n, dim)``."""
        if not records:
            return np.zeros((0, self.dim))
        return np.array([self.embed(r) for r in records])

    def embed_columns(self, record: dict[str, object]) -> np.ndarray:
        """Per-attribute embeddings, shape ``(len(columns), dim)``.

        Missing or empty attributes map to the zero vector.  DeepER's pair
        featurisation compares attributes position-by-position, which needs
        this attribute-aligned view rather than one whole-tuple bag.
        """
        out = np.zeros((len(self.columns), self.dim))
        for idx, column in enumerate(self.columns):
            value = record.get(column)
            if is_missing(value):
                continue
            tokens = word_tokenize(str(value))
            if not tokens:
                continue
            vectors = np.array([self._vector_fn(t) for t in tokens])
            if self.method == "sif":
                weights = sif_weights(tokens, self.model)
                total = weights.sum()
                if total >= 1e-12:
                    out[idx] = (vectors * weights[:, None]).sum(axis=0) / total
            else:
                out[idx] = vectors.mean(axis=0)
        return out

    def token_matrix(self, record: dict[str, object], max_tokens: int) -> np.ndarray:
        """Fixed-length ``(max_tokens, dim)`` matrix for sequence models.

        Tokens beyond ``max_tokens`` are truncated; shorter records are
        zero-padded (zero rows contribute nothing to the LSTM input).
        """
        tokens = self.tokens_of(record)[:max_tokens]
        matrix = np.zeros((max_tokens, self.dim))
        for i, token in enumerate(tokens):
            matrix[i] = self._vector_fn(token)
        return matrix


def column_embedding(
    table: Table, column: str, embed_value: VectorFn, dim: int, sample: int | None = None,
    rng: np.random.Generator | int | None = 0,
) -> np.ndarray:
    """Column2vec: mean embedding of a column's (optionally sampled) values."""
    values = [v for v in table.column(column) if not is_missing(v)]
    if sample is not None and len(values) > sample:
        rng = ensure_rng(rng)
        idx = rng.choice(len(values), size=sample, replace=False)
        values = [values[i] for i in idx]
    if not values:
        return np.zeros(dim)
    vectors = []
    for value in values:
        tokens = word_tokenize(str(value))
        if not tokens:
            continue
        vectors.append(np.mean([embed_value(t) for t in tokens], axis=0))
    if not vectors:
        return np.zeros(dim)
    return np.mean(vectors, axis=0)


def table_embedding(
    table: Table, embed_value: VectorFn, dim: int, columns: list[str] | None = None
) -> np.ndarray:
    """Table2vec: mean of its column embeddings."""
    columns = columns or table.columns
    if not columns:
        return np.zeros(dim)
    stack = np.array([column_embedding(table, c, embed_value, dim) for c in columns])
    return stack.mean(axis=0)


def database_embedding(tables: list[Table], embed_value: VectorFn, dim: int) -> np.ndarray:
    """Database2vec: mean of table embeddings."""
    if not tables:
        return np.zeros(dim)
    stack = np.array([table_embedding(t, embed_value, dim) for t in tables])
    return stack.mean(axis=0)


class LSTMComposer(Module):
    """Trainable tuple composition: token vectors → (bi)LSTM → tuple vector.

    Used as DeepER's sophisticated composition arm; consumes the padded
    ``(batch, max_tokens, dim)`` matrices from
    :meth:`TupleEmbedder.token_matrix`.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int = 32,
        bidirectional: bool = True,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.encoder = SequenceEncoder(
            input_dim, hidden_dim, bidirectional=bidirectional, pooling="last", rng=rng
        )
        self.output_dim = self.encoder.output_size

    def forward(self, token_batch: "Tensor | np.ndarray") -> Tensor:
        if not isinstance(token_batch, Tensor):
            token_batch = Tensor(token_batch)
        return self.encoder(token_batch)
