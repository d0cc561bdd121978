"""The interactive match route: one coalesced ``match_batch`` per group.

Payload contract: ``payload["record"]`` is the query record dict, checked
at admission with :func:`repro.serve.service.check_records`.  The
whole group becomes *one* :meth:`MatchService.match_batch` call, so the
gateway inherits the serving layer's micro-batch coalescing, caches and
differential guarantees unchanged — gateway scheduling decides *when*
the batch runs, never *what* it answers.
"""

from __future__ import annotations

from repro.gateway.routers.base import Router, RouterOutcome
from repro.serve.service import check_records

__all__ = ["MatchRouter"]


class MatchRouter(Router):
    """Adapter over a (possibly sharded) :class:`MatchService`."""

    name = "match"

    def __init__(self, service) -> None:
        self.service = service

    def check(self, payload: dict) -> None:
        record = payload.get("record") if isinstance(payload, dict) else None
        if not isinstance(record, dict):
            raise TypeError(
                f"payload needs a dict under 'record', got {type(record).__name__}"
            )
        check_records([record], self.service.matcher.embedder.columns)

    def handle_group(self, requests: tuple) -> RouterOutcome:
        report = self.service.match_batch([r.payload["record"] for r in requests])
        return RouterOutcome(
            answers=tuple(report.answers),
            work=float(report.scored_pairs),
            embed_misses=int(report.embedding_misses),
        )
