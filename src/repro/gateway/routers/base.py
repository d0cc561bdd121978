"""Router protocol shared by every route handler."""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.table import Table

__all__ = ["Router", "RouterOutcome"]


@dataclass(frozen=True)
class RouterOutcome:
    """What one dispatched group produced: answers + work accounting.

    ``answers`` has exactly one entry per request in the group (the
    gateway's dispatch validator enforces this); ``work`` is in
    route-specific units (scored pairs, cells examined, column pairs)
    that the gateway's cost model prices into simulated seconds;
    ``embed_misses`` separates embedding-composition cost for the match
    route, mirroring :class:`repro.serve.sim.ServerConfig`.
    """

    answers: tuple
    work: float = 0.0
    embed_misses: int = 0


class Router:
    """Duck-typed base: a ``name``, a payload check and a group handler.

    ``check`` runs once per request at admission and raises
    :class:`TypeError` or :class:`ValueError` for a payload the route
    cannot answer; the gateway sheds such a request as ``invalid``.  The
    base accepts every payload.

    ``handle_group`` must be a pure function of (component state, request
    payloads) — it runs under the retried fault site ``gateway.dispatch``,
    where an injected error models a dead router instance and the retry
    must reproduce the original outcome bit-for-bit.
    """

    name = "?"

    def check(self, payload: dict) -> None:
        return None

    def handle_group(self, requests: tuple) -> RouterOutcome:
        raise NotImplementedError


def check_table(payload: dict) -> None:
    """Refuse a payload without a :class:`Table` under ``"table"``."""
    table = payload.get("table") if isinstance(payload, dict) else None
    if not isinstance(table, Table):
        raise TypeError(
            f"payload needs a Table under 'table', got {type(table).__name__}"
        )
