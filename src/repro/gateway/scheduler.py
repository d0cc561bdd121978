"""Two-class priority scheduling (and the FIFO baseline).

:class:`TwoClassScheduler` is the gateway's default: interactive work
strictly precedes batch work (non-preemptive — a running batch group is
never aborted, which is why the backpressure valve matters), and within
each class :class:`~repro.gateway.tenancy.DeficitRoundRobin` arbitrates
between tenants.  Batch groups additionally require the valve's consent
(``batch_ok``), so a paused valve starves only the batch class.

:class:`FifoScheduler` is the control arm for the E19 bench: one global
arrival-order queue, groups formed from head-runs of same-route requests
regardless of tenant or class.  It ignores the valve — that is the
point of the comparison.

Both schedulers expose the same duck-typed surface (``enqueue`` /
``has_pending`` / ``has_dispatchable`` / ``next_group`` /
``online_depth``), so the gateway event loop is policy-agnostic.
"""

from __future__ import annotations

from collections import deque

from repro.gateway.tenancy import DeficitRoundRobin, DispatchGroup

__all__ = ["CLASSES", "FifoScheduler", "TwoClassScheduler", "make_scheduler"]

CLASSES = ("interactive", "batch")


class TwoClassScheduler:
    """Strict interactive-over-batch priority, DRR fairness within each."""

    def __init__(self, quantum: float = 4.0, weights: "dict[str, float] | None" = None) -> None:
        self._classes = {
            name: DeficitRoundRobin(quantum=quantum, weights=weights)
            for name in CLASSES
        }

    def enqueue(self, request) -> None:
        self._classes[request.priority].enqueue(request)

    @property
    def has_pending(self) -> bool:
        return any(self._classes[name].pending for name in CLASSES)

    def has_dispatchable(self, batch_ok: bool) -> bool:
        if self._classes["interactive"].pending:
            return True
        return batch_ok and self._classes["batch"].pending > 0

    def online_depth(self) -> int:
        """Pending *interactive* requests — the valve's watched quantity."""
        return self._classes["interactive"].pending

    def next_group(self, max_batch: int, batch_ok: bool) -> DispatchGroup | None:
        group = self._classes["interactive"].next_group(max_batch) \
            if self._classes["interactive"].pending else None
        if group is not None:
            return group
        if batch_ok and self._classes["batch"].pending:
            return self._classes["batch"].next_group(max_batch)
        return None


class FifoScheduler:
    """Single global arrival-order queue; the bench's no-policy baseline."""

    def __init__(self) -> None:
        self._queue: deque = deque()
        self._depth = {name: 0 for name in CLASSES}

    def enqueue(self, request) -> None:
        self._queue.append(request)
        self._depth[request.priority] += 1

    @property
    def has_pending(self) -> bool:
        return bool(self._queue)

    def has_dispatchable(self, batch_ok: bool) -> bool:
        # FIFO serves whatever is at the head — no class distinction, no
        # valve consent: it is the baseline the priority rows beat.
        return bool(self._queue)

    def online_depth(self) -> int:
        return self._depth["interactive"]

    def next_group(self, max_batch: int, batch_ok: bool) -> DispatchGroup | None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if not self._queue:
            return None
        taken = []
        route = self._queue[0].route
        while self._queue and len(taken) < max_batch and self._queue[0].route == route:
            request = self._queue.popleft()
            self._depth[request.priority] -= 1
            taken.append(request)
        return DispatchGroup(
            requests=tuple(taken),
            route=route,
            tenant=taken[0].tenant,
            priority=taken[0].priority,
        )


def make_scheduler(policy: str, *, quantum: float, weights: "dict[str, float] | None"):
    """Build the scheduler for a policy name (``priority`` | ``fifo``)."""
    if policy == "priority":
        return TwoClassScheduler(quantum=quantum, weights=weights)
    if policy == "fifo":
        return FifoScheduler()
    raise ValueError(f"unknown scheduling policy {policy!r} (use 'priority' or 'fifo')")
