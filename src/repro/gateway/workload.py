"""Seeded multi-tenant, multi-route gateway traffic (open loop, diurnal).

A scenario is a list of :class:`RequestStream`\\ s — one per (tenant,
route, priority) traffic source.  Each stream draws open-loop Poisson
arrivals whose rate follows an optional *diurnal profile*: ``phases``
is a cycle of ``(duration, multiplier)`` segments, so ``((0.5, 4.0),
(0.5, 0.25))`` alternates half-second peaks at 4× the base rate with
half-second troughs at a quarter of it.  Arrivals are generated by
spending unit-rate exponential budgets through the piecewise-constant
rate curve — the standard time-change construction, exact and
deterministic (no thinning, no rejection).

Every stream gets its own ``np.random.Generator`` seeded from
``SeedSequence([0x6A7E, seed, stream_index])``, so adding a stream never
perturbs the arrivals of existing ones.  The merged sequence is ordered
by ``(arrival, stream_index, per-stream sequence)`` and request ids are
assigned in that merged order — byte-reproducible, with deterministic
tie-breaks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gateway.api import GatewayRequest

__all__ = ["RequestStream", "generate_requests"]

_GATEWAY_SALT = 0x6A7E  # "GATE", keeps gateway traffic rng disjoint from serve's


@dataclass(frozen=True)
class RequestStream:
    """One tenant's traffic on one route.

    ``payloads`` is the pool of payload dicts requests draw from
    (uniformly, with ``repeat_fraction`` re-issuing an earlier draw —
    the cache-hit knob); an empty pool sends empty payloads.
    """

    tenant: str
    route: str
    n_requests: int
    rate: float
    priority: str = "interactive"
    start: float = 0.0
    phases: tuple = ()
    repeat_fraction: float = 0.0
    payloads: tuple = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ValueError(f"n_requests must be >= 1, got {self.n_requests}")
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if not 0.0 <= self.repeat_fraction <= 1.0:
            raise ValueError(
                f"repeat_fraction must be in [0, 1], got {self.repeat_fraction}"
            )
        for phase in self.phases:
            duration, multiplier = phase
            if duration <= 0 or multiplier <= 0:
                raise ValueError(
                    f"phases need positive (duration, multiplier), got {phase}"
                )


def _stream_arrivals(stream: RequestStream, rng: np.random.Generator) -> "list[float]":
    """Arrival times via exponential budgets through the rate curve."""
    times: "list[float]" = []
    t = stream.start
    if not stream.phases:
        gaps = rng.exponential(1.0 / stream.rate, size=stream.n_requests)
        for gap in gaps:
            t += float(gap)
            times.append(t)
        return times
    phases = list(stream.phases)
    phase_index = 0
    phase_left = float(phases[0][0])
    for _ in range(stream.n_requests):
        budget = float(rng.exponential(1.0))
        while True:
            local_rate = stream.rate * phases[phase_index][1]
            needed = budget / local_rate
            if needed <= phase_left:
                t += needed
                phase_left -= needed
                break
            budget -= phase_left * local_rate
            t += phase_left
            phase_index = (phase_index + 1) % len(phases)
            phase_left = float(phases[phase_index][0])
        times.append(t)
    return times


def generate_requests(
    streams: "list[RequestStream]", seed: int = 0
) -> "list[GatewayRequest]":
    """Merge every stream's arrivals into one id-stamped request list."""
    if not streams:
        raise ValueError("need at least one request stream")
    stamped: "list[tuple[float, int, int, RequestStream, dict]]" = []
    for stream_index, stream in enumerate(streams):
        rng = np.random.default_rng(
            np.random.SeedSequence([_GATEWAY_SALT, int(seed), stream_index])
        )
        arrivals = _stream_arrivals(stream, rng)
        issued: "list[int]" = []
        for sequence, arrival in enumerate(arrivals):
            if not stream.payloads:
                payload: dict = {}
            else:
                if issued and rng.random() < stream.repeat_fraction:
                    index = issued[int(rng.integers(len(issued)))]
                else:
                    index = int(rng.integers(len(stream.payloads)))
                issued.append(index)
                payload = stream.payloads[index]
            stamped.append((arrival, stream_index, sequence, stream, payload))
    stamped.sort(key=lambda item: (item[0], item[1], item[2]))
    requests: "list[GatewayRequest]" = []
    for request_id, (arrival, _, _, stream, payload) in enumerate(stamped):
        requests.append(GatewayRequest(
            request_id=request_id,
            tenant=stream.tenant,
            route=stream.route,
            priority=stream.priority,
            arrival=arrival,
            payload=payload,
        ))
    return requests
