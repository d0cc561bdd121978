"""Gateway end-to-end: differential answers, determinism, admission, errors."""

from __future__ import annotations

import pytest

from repro.gateway import (
    Gateway,
    GatewayConfig,
    GatewayRequest,
    MatchRouter,
    RouteCost,
)
from repro.serve import MatchService
from tests.gateway.conftest import match_request


def fresh_gateway(trained_matcher, built_index, **config_kwargs):
    """A gateway over a cold-cache service (cache state affects timing)."""
    service = MatchService(trained_matcher, built_index, jobs=1)
    config = GatewayConfig(**config_kwargs) if config_kwargs else None
    return Gateway([MatchRouter(service)], config=config)


class TestDifferential:
    def test_gateway_answers_equal_offline_service_answers(
        self, match_requests, trained_matcher, built_index
    ):
        """Routing decides WHEN work runs, never WHAT it answers."""
        gateway = fresh_gateway(trained_matcher, built_index)
        report = gateway.run(match_requests)
        assert len(report.completed) == len(match_requests)

        offline = MatchService(trained_matcher, built_index, jobs=1)
        for request, result in zip(match_requests, report.results):
            expected = offline.match_batch([request.payload["record"]]).answers[0]
            assert result.answer.to_dict() == expected.to_dict()

    def test_grouped_dispatch_coalesces_router_calls(
        self, match_requests, trained_matcher, built_index
    ):
        gateway = fresh_gateway(trained_matcher, built_index)
        report = gateway.run(match_requests)
        assert 1 <= len(report.groups) <= len(match_requests)
        assert sum(g["size"] for g in report.groups) == len(match_requests)
        for group in report.groups:
            assert group["route"] == "match"
            assert group["finish"] > group["fire"]


class TestReplayDeterminism:
    def test_two_runs_are_bit_identical(
        self, match_requests, trained_matcher, built_index
    ):
        def play():
            gateway = fresh_gateway(
                trained_matcher, built_index,
                admission={"match": (400.0, 2)}, high_water=4, low_water=1,
            )
            report = gateway.run(match_requests)
            return (
                report.answers_digest("match"),
                report.duration,
                [r.request_id for r in report.shed],
                report.valve,
            )

        assert play() == play()

    def test_fingerprint_unmoved_by_traffic(
        self, match_requests, trained_matcher, built_index
    ):
        service = MatchService(trained_matcher, built_index, jobs=1)
        before = service.parameter_fingerprint()
        Gateway([MatchRouter(service)]).run(match_requests)
        assert service.parameter_fingerprint() == before


class TestAdmission:
    def test_tight_bucket_sheds_deterministically(
        self, query_records, trained_matcher, built_index
    ):
        requests = [
            match_request(i, query_records[i % len(query_records)],
                          arrival=0.0005 * i)
            for i in range(12)
        ]
        gateway = fresh_gateway(
            trained_matcher, built_index, admission={"match": (100.0, 2)}
        )
        report = gateway.run(requests)
        assert report.shed and report.completed
        assert len(report.results) == len(requests)
        for result in report.shed:
            assert result.status == "shed"
            assert result.answer is None and result.finish is None
            assert result.latency is None and result.reason == "admission"
        assert report.shed_rate == pytest.approx(len(report.shed) / len(requests))


class TestReportHelpers:
    def test_completed_share_sums_to_one(
        self, query_records, trained_matcher, built_index
    ):
        requests = [
            match_request(i, query_records[i % 4], tenant="ab"[i % 2],
                          arrival=0.001 * i)
            for i in range(10)
        ]
        report = fresh_gateway(trained_matcher, built_index).run(requests)
        share = report.completed_share()
        assert set(share) == {"a", "b"}
        assert sum(share.values()) == pytest.approx(1.0)
        assert sum(report.completed_share(first=4).values()) == pytest.approx(1.0)


class TestErrors:
    def test_unknown_route_names_route_and_installed(
        self, trained_matcher, built_index
    ):
        gateway = fresh_gateway(trained_matcher, built_index)
        bad = GatewayRequest(request_id=7, tenant="t0", route="nope")
        with pytest.raises(
            ValueError,
            match=r"request 7 targets unknown route 'nope'; installed: "
                  r"\['match'\]",
        ):
            gateway.run([bad])

    def test_duplicate_request_id(self, trained_matcher, built_index):
        gateway = fresh_gateway(trained_matcher, built_index)
        requests = [
            GatewayRequest(request_id=3, tenant="t0", route="match"),
            GatewayRequest(request_id=3, tenant="t1", route="match"),
        ]
        with pytest.raises(ValueError, match=r"duplicate request_id 3"):
            gateway.run(requests)

    def test_non_router_is_rejected(self):
        with pytest.raises(ValueError, match=r"not a router"):
            Gateway([object()])

    def test_duplicate_router_is_rejected(self, service):
        with pytest.raises(ValueError, match=r"duplicate router for route 'match'"):
            Gateway([MatchRouter(service), MatchRouter(service)])


class TestValidationMessages:
    def test_request_messages(self):
        with pytest.raises(ValueError, match=r"request_id must be >= 0, got -1"):
            GatewayRequest(request_id=-1, tenant="t", route="match")
        with pytest.raises(ValueError, match=r"tenant must be a non-empty string"):
            GatewayRequest(request_id=0, tenant="", route="match")
        with pytest.raises(ValueError, match=r"route must be a non-empty string"):
            GatewayRequest(request_id=0, tenant="t", route="")
        with pytest.raises(
            ValueError,
            match=r"priority must be one of \('interactive', 'batch'\), got 'urgent'",
        ):
            GatewayRequest(request_id=0, tenant="t", route="match", priority="urgent")
        with pytest.raises(ValueError, match=r"arrival must be >= 0, got -0.1"):
            GatewayRequest(request_id=0, tenant="t", route="match", arrival=-0.1)

    def test_config_messages(self):
        with pytest.raises(
            ValueError, match=r"policy must be 'priority' or 'fifo', got 'lifo'"
        ):
            GatewayConfig(policy="lifo")
        with pytest.raises(ValueError, match=r"max_batch_size must be >= 1, got 0"):
            GatewayConfig(max_batch_size=0)
        with pytest.raises(ValueError, match=r"quantum must be > 0, got 0"):
            GatewayConfig(quantum=0)

    def test_route_cost_message(self):
        with pytest.raises(ValueError, match=r"route cost terms must be >= 0"):
            RouteCost(base=-0.001)
