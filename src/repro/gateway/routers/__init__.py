"""Gateway routers: one handler per route name.

A router turns one :class:`~repro.gateway.tenancy.DispatchGroup` into a
:class:`RouterOutcome` — one answer per request plus the work accounting
the gateway's cost model prices (``work`` units, embedding misses).
Routers are *read-only* adapters over already-built curation components
(a :class:`~repro.serve.service.MatchService`, a fitted
:class:`~repro.cleaning.repair.FDRepairer`, a
:class:`~repro.discovery.matcher.SyntacticMatcher`): they never train,
never mutate their component beyond the component's own caches, and are
pure functions of (component state, request payloads) — which is what
lets the gateway retry a dead router at fault site ``gateway.dispatch``
and recover bit-identically.  Each router's ``check`` refuses, at
admission, a payload its route cannot answer.
"""

from repro.gateway.routers.base import Router, RouterOutcome
from repro.gateway.routers.clean import CleanRouter
from repro.gateway.routers.discover import DiscoverRouter
from repro.gateway.routers.match import MatchRouter

__all__ = [
    "CleanRouter",
    "DiscoverRouter",
    "MatchRouter",
    "Router",
    "RouterOutcome",
]
