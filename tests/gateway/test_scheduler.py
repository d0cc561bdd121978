"""Two-class priority scheduler and the FIFO control arm."""

from __future__ import annotations

import pytest

from repro.gateway import (
    CLASSES,
    FifoScheduler,
    GatewayRequest,
    TwoClassScheduler,
)
from repro.gateway.scheduler import make_scheduler


def req(request_id, *, tenant="t0", route="match", priority="interactive"):
    return GatewayRequest(
        request_id=request_id, tenant=tenant, route=route, priority=priority
    )


class TestTwoClassScheduler:
    def test_interactive_strictly_precedes_batch(self):
        scheduler = TwoClassScheduler()
        scheduler.enqueue(req(0, priority="batch"))
        scheduler.enqueue(req(1, priority="interactive"))
        first = scheduler.next_group(8, batch_ok=True)
        assert first.priority == "interactive"
        second = scheduler.next_group(8, batch_ok=True)
        assert second.priority == "batch"

    def test_batch_waits_for_valve_consent(self):
        scheduler = TwoClassScheduler()
        scheduler.enqueue(req(0, priority="batch"))
        assert scheduler.next_group(8, batch_ok=False) is None
        assert not scheduler.has_dispatchable(batch_ok=False)
        assert scheduler.has_dispatchable(batch_ok=True)
        assert scheduler.next_group(8, batch_ok=True).priority == "batch"

    def test_online_depth_counts_interactive_only(self):
        scheduler = TwoClassScheduler()
        for i in range(3):
            scheduler.enqueue(req(i, priority="interactive"))
        for i in range(3, 8):
            scheduler.enqueue(req(i, priority="batch"))
        assert scheduler.online_depth() == 3
        assert scheduler.has_pending

    def test_classes_constant(self):
        assert CLASSES == ("interactive", "batch")


class TestFifoScheduler:
    def test_serves_arrival_order_regardless_of_class(self):
        scheduler = FifoScheduler()
        scheduler.enqueue(req(0, priority="batch", route="clean"))
        scheduler.enqueue(req(1, priority="interactive"))
        group = scheduler.next_group(8, batch_ok=True)
        assert group.priority == "batch" and group.route == "clean"

    def test_head_run_groups_same_route_across_tenants(self):
        scheduler = FifoScheduler()
        scheduler.enqueue(req(0, tenant="a"))
        scheduler.enqueue(req(1, tenant="b"))
        scheduler.enqueue(req(2, tenant="a", route="clean"))
        group = scheduler.next_group(8, batch_ok=True)
        assert [r.request_id for r in group.requests] == [0, 1]
        assert group.route == "match"
        assert scheduler.next_group(8, batch_ok=True).route == "clean"

    def test_ignores_valve_consent(self):
        scheduler = FifoScheduler()
        scheduler.enqueue(req(0, priority="batch"))
        assert scheduler.has_dispatchable(batch_ok=False)
        assert scheduler.next_group(8, batch_ok=False) is not None

    def test_depth_bookkeeping(self):
        scheduler = FifoScheduler()
        scheduler.enqueue(req(0, priority="interactive"))
        scheduler.enqueue(req(1, priority="batch"))
        assert scheduler.online_depth() == 1
        scheduler.next_group(8, batch_ok=True)
        assert scheduler.online_depth() == 0
        assert scheduler.next_group(8, batch_ok=True) is None

    def test_max_batch_must_be_positive(self):
        with pytest.raises(ValueError, match=r"max_batch must be >= 1, got 0"):
            FifoScheduler().next_group(0, batch_ok=True)


class TestMakeScheduler:
    def test_builds_both_policies(self):
        assert isinstance(
            make_scheduler("priority", quantum=4.0, weights=None), TwoClassScheduler
        )
        assert isinstance(
            make_scheduler("fifo", quantum=4.0, weights=None), FifoScheduler
        )

    def test_unknown_policy_message(self):
        with pytest.raises(
            ValueError,
            match=r"unknown scheduling policy 'lifo' \(use 'priority' or 'fifo'\)",
        ):
            make_scheduler("lifo", quantum=4.0, weights=None)
