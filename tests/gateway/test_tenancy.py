"""Deficit round robin: fairness, starvation-freedom, deterministic order."""

from __future__ import annotations

import pytest

from repro.gateway import DeficitRoundRobin, DispatchGroup, GatewayRequest


def req(request_id, tenant, *, route="match", priority="interactive"):
    return GatewayRequest(
        request_id=request_id, tenant=tenant, route=route, priority=priority,
    )


def drain(drr: DeficitRoundRobin, max_batch: int = 8):
    groups = []
    while drr.pending:
        groups.append(drr.next_group(max_batch))
    return groups


class TestValidation:
    def test_quantum_must_be_positive(self):
        with pytest.raises(ValueError, match=r"quantum must be > 0, got 0"):
            DeficitRoundRobin(quantum=0)

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match=r"tenant weight must be > 0"):
            DeficitRoundRobin(weights={"a": 0.0})

    def test_empty_group_is_rejected(self):
        with pytest.raises(ValueError, match="at least one request"):
            DispatchGroup(requests=(), route="match", tenant="a", priority="interactive")

    def test_max_batch_must_be_positive(self):
        drr = DeficitRoundRobin()
        with pytest.raises(ValueError, match=r"max_batch must be >= 1, got 0"):
            drr.next_group(0)


class TestRotation:
    def test_round_robin_alternates_sorted_tenant_ids(self):
        drr = DeficitRoundRobin(quantum=1.0)
        for i in range(3):
            drr.enqueue(req(10 + i, "b"))
            drr.enqueue(req(20 + i, "a"))
            drr.enqueue(req(30 + i, "c"))
        order = [g.tenant for g in drain(drr, max_batch=1)]
        assert order == ["a", "b", "c", "a", "b", "c", "a", "b", "c"]

    def test_empty_scheduler_returns_none(self):
        assert DeficitRoundRobin().next_group(4) is None

    def test_groups_never_mix_tenants_or_routes(self):
        drr = DeficitRoundRobin(quantum=8.0)
        drr.enqueue(req(0, "a", route="match"))
        drr.enqueue(req(1, "a", route="clean"))
        drr.enqueue(req(2, "a", route="clean"))
        groups = drain(drr)
        assert [(g.tenant, g.route, len(g.requests)) for g in groups] == [
            ("a", "match", 1), ("a", "clean", 2),
        ]

    def test_quantum_bounds_group_size(self):
        drr = DeficitRoundRobin(quantum=2.0)
        for i in range(6):
            drr.enqueue(req(i, "a"))
        sizes = [len(g.requests) for g in drain(drr, max_batch=8)]
        assert sizes == [2, 2, 2]

    def test_weight_scales_per_turn_share(self):
        drr = DeficitRoundRobin(quantum=2.0, weights={"a": 2.0})
        for i in range(8):
            drr.enqueue(req(i, "a"))
            drr.enqueue(req(100 + i, "b"))
        sizes = {}
        while drr.pending:
            group = drr.next_group(8)
            sizes.setdefault(group.tenant, []).append(len(group.requests))
        assert sizes["a"] == [4, 4]  # quantum × 2
        assert sizes["b"] == [2, 2, 2, 2]


class TestDeficits:
    def test_expensive_head_is_not_starved(self):
        # Tenant a's turn adds a fifth of a request's unit cost, so its
        # head request needs five rotations of accrual; it must still run.
        drr = DeficitRoundRobin(quantum=1.0, weights={"a": 0.2})
        drr.enqueue(req(0, "a"))
        drr.enqueue(req(1, "b"))
        drr.enqueue(req(2, "b"))
        groups = drain(drr, max_batch=4)
        assert [(g.tenant, g.requests[0].request_id) for g in groups] == [
            ("b", 1), ("b", 2), ("a", 0),
        ]

    def test_emptied_queue_forfeits_deficit(self):
        drr = DeficitRoundRobin(quantum=10.0)
        drr.enqueue(req(0, "a"))
        drr.next_group(8)
        assert drr._deficits["a"] == 0.0

    def test_replay_is_deterministic(self):
        def schedule():
            drr = DeficitRoundRobin(quantum=3.0, weights={"b": 1.5})
            for i in range(9):
                drr.enqueue(req(i, "abc"[i % 3]))
            return [
                (g.tenant, tuple(r.request_id for r in g.requests))
                for g in drain(drr, max_batch=4)
            ]

        assert schedule() == schedule()
