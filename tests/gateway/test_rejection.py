"""The gateway boundary: a malformed request is shed, never fatal.

Each router's ``check`` runs at admission, before the token bucket.  A
payload its route cannot answer comes back ``status="shed"`` with
``reason="invalid: <message>"``; it never reaches the bucket, the
scheduler, the valve or a router call, so the rest of the traffic is
admitted, scheduled and answered exactly as it would be without it.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cleaning.repair import FDRepairer
from repro.data.dependencies import FunctionalDependency
from repro.data.table import Table
from repro.discovery.matcher import SyntacticMatcher
from repro.gateway import (
    CleanRouter,
    DiscoverRouter,
    Gateway,
    GatewayConfig,
    GatewayRequest,
    MatchRouter,
    Router,
)
from repro.serve import MatchService
from tests.gateway.conftest import match_request

COLUMNS = ["record_id", "dept_id", "dept_name", "city"]


def table(name: str, n_rows: int = 12) -> Table:
    rows = [
        [f"{name}-{i}", f"D{i % 3}", f"dept-{i % 3}" if i % 5 else "dept-x",
         f"city-{i % 2}"]
        for i in range(n_rows)
    ]
    return Table(name, COLUMNS, rows)


def malformed_match_payloads(columns):
    """Payloads the match route refuses, each with its error type."""
    return [
        ({}, TypeError),
        ({"table": table("t")}, TypeError),
        ({"record": None}, TypeError),
        ({"record": "a string"}, TypeError),
        ({"record": list(columns)}, TypeError),
        (None, TypeError),
        (["record"], TypeError),
        ({"record": {}}, ValueError),
        ({"record": {column: None for column in columns}}, ValueError),
        ({"record": {column: "  " for column in columns}}, ValueError),
        ({"record": {column: math.nan for column in columns}}, ValueError),
        ({"record": {"not_a_compare_column": "some words"}}, ValueError),
    ]


MALFORMED_TABLE_PAYLOADS = [
    {},
    {"table": None},
    {"table": "slice_0"},
    {"table": {"rows": []}},
    {"record": {"title": "a table route gets no record"}},
    None,
    ["table"],
]


def fresh_gateway(trained_matcher, built_index, config=None):
    service = MatchService(trained_matcher, built_index, jobs=1)
    routers = [
        MatchRouter(service),
        CleanRouter(FDRepairer([FunctionalDependency(("dept_id",), "dept_name")])),
        DiscoverRouter(SyntacticMatcher(), table("reference"), jobs=1),
    ]
    return Gateway(routers, config=config), service


def valid_view(report, valid_ids):
    """Everything a valid request's result says, keyed by request id."""
    return {
        r.request_id: (
            r.status, r.reason, r.start, r.finish, r.group_id,
            r.answer.to_dict() if hasattr(r.answer, "to_dict") else r.answer,
        )
        for r in report.results if r.request_id in valid_ids
    }


class TestRouterChecks:
    def test_base_router_accepts_every_payload(self):
        for payload in ({}, None, {"anything": 1}):
            assert Router().check(payload) is None

    def test_match_router_refuses_each_malformed_shape(self, match_router):
        columns = match_router.service.matcher.embedder.columns
        for payload, error in malformed_match_payloads(columns):
            with pytest.raises(error):
                match_router.check(payload)

    def test_table_routers_refuse_each_malformed_shape(self):
        routers = (
            CleanRouter(FDRepairer([FunctionalDependency(("dept_id",), "dept_name")])),
            DiscoverRouter(SyntacticMatcher(), table("reference"), jobs=1),
        )
        for router in routers:
            router.check({"table": table("ok")})
            for payload in MALFORMED_TABLE_PAYLOADS:
                with pytest.raises(TypeError, match=r"needs a Table under 'table'"):
                    router.check(payload)


class TestShedAsInvalid:
    def test_empty_record_no_longer_aborts_the_run(
        self, match_requests, trained_matcher, built_index
    ):
        valid = match_requests[:4]
        bad = GatewayRequest(
            request_id=99, tenant="t0", route="match", arrival=0.003,
            payload={"record": {}},
        )
        gateway, _ = fresh_gateway(trained_matcher, built_index)
        report = gateway.run(valid + [bad])
        assert [r.request_id for r in report.completed] == [0, 1, 2, 3]
        (shed,) = report.shed
        assert shed.request_id == 99 and shed.answer is None
        assert shed.reason.startswith("invalid: record 0 has no non-empty compare column")
        assert sum(g["size"] for g in report.groups) == 4

    def test_every_malformed_match_payload_is_shed_as_invalid(
        self, match_requests, trained_matcher, built_index
    ):
        columns = trained_matcher.embedder.columns
        bad = [
            GatewayRequest(request_id=100 + i, tenant="t1", route="match",
                           arrival=0.001 * i, payload=payload)
            for i, (payload, _) in enumerate(malformed_match_payloads(columns))
        ]
        gateway, _ = fresh_gateway(trained_matcher, built_index)
        report = gateway.run(match_requests + bad)
        assert len(report.completed) == len(match_requests)
        shed = {r.request_id: r.reason for r in report.shed}
        assert sorted(shed) == [r.request_id for r in bad]
        assert all(reason.startswith("invalid: ") for reason in shed.values())
        assert shed[100] == "invalid: payload needs a dict under 'record', got NoneType"

    @pytest.mark.parametrize("route", ["clean", "discover"])
    def test_malformed_table_payloads_are_shed_as_invalid(
        self, route, trained_matcher, built_index
    ):
        good = [
            GatewayRequest(request_id=i, tenant="etl", route=route,
                           priority="batch", arrival=0.001 * i,
                           payload={"table": table(f"slice_{i}")})
            for i in range(3)
        ]
        bad = [
            GatewayRequest(request_id=10 + i, tenant="etl", route=route,
                           priority="batch", arrival=0.0005 + 0.001 * i,
                           payload=payload)
            for i, payload in enumerate(MALFORMED_TABLE_PAYLOADS)
        ]
        gateway, _ = fresh_gateway(trained_matcher, built_index)
        report = gateway.run(good + bad)
        assert [r.request_id for r in report.completed] == [0, 1, 2]
        assert [r.request_id for r in report.shed] == [r.request_id for r in bad]
        for result in report.shed:
            assert result.reason.startswith("invalid: payload needs a Table")

    def test_invalid_requests_never_touch_bucket_or_valve(
        self, query_records, trained_matcher, built_index
    ):
        valid = [
            match_request(i, query_records[i % len(query_records)], arrival=0.0005 * i)
            for i in range(12)
        ]
        bad = [
            GatewayRequest(request_id=50 + i, tenant="t0", route="match",
                           arrival=0.0005 * i + 0.0001, payload={"record": {}})
            for i in range(12)
        ]
        config = GatewayConfig(admission={"match": (100.0, 2)},
                               high_water=2, low_water=0)
        plain, _ = fresh_gateway(trained_matcher, built_index, config)
        mixed, _ = fresh_gateway(trained_matcher, built_index, config)
        alone = plain.run(valid)
        together = mixed.run(valid + bad)
        ids = {r.request_id for r in valid}
        assert any(r.reason == "admission" for r in alone.shed)
        assert valid_view(together, ids) == valid_view(alone, ids)
        assert together.valve == alone.valve
        assert together.groups == alone.groups


# Payloads the match route must refuse, drawn by hypothesis.
_blank = st.sampled_from([None, "", "   ", "\t\n", math.nan, "!!", "--"])
_non_dict = st.one_of(
    st.none(), st.integers(), st.text(max_size=8), st.lists(st.integers(), max_size=3)
)


def _malformed_payloads(columns):
    blank_record = st.fixed_dictionaries({column: _blank for column in columns})
    stray_record = st.dictionaries(
        st.text(min_size=1, max_size=6).filter(lambda key: key not in columns),
        st.text(max_size=8),
        max_size=3,
    )
    return st.one_of(
        st.just({}),
        _non_dict,
        st.fixed_dictionaries({"table": st.text(max_size=4)}),
        st.fixed_dictionaries({"record": st.one_of(_non_dict, blank_record, stray_record)}),
    )


@pytest.mark.parametrize("topology", ["plain", "admission+valve"])
def test_fuzzed_malformed_payloads_change_no_valid_answer(
    topology, match_requests, trained_matcher, built_index
):
    config = (
        GatewayConfig(admission={"match": (400.0, 2)}, high_water=4, low_water=1)
        if topology != "plain" else None
    )
    columns = trained_matcher.embedder.columns
    ids = {r.request_id for r in match_requests}
    horizon = max(r.arrival for r in match_requests)
    gateway, service = fresh_gateway(trained_matcher, built_index, config)
    alone = gateway.run(match_requests)
    expected = (
        valid_view(alone, ids), alone.answers_digest("match"),
        vars(service.cache_stats),
    )

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(bad=st.lists(
        st.tuples(_malformed_payloads(columns), st.floats(0.0, horizon)),
        min_size=1, max_size=6,
    ))
    def check(bad):
        noise = [
            GatewayRequest(request_id=1000 + i, tenant=f"x{i % 2}", route="match",
                           arrival=arrival, payload=payload)
            for i, (payload, arrival) in enumerate(bad)
        ]
        mixed, mixed_service = fresh_gateway(trained_matcher, built_index, config)
        report = mixed.run(match_requests + noise)
        got = (
            valid_view(report, ids), report.answers_digest("match"),
            vars(mixed_service.cache_stats),
        )
        assert got == expected
        for result in report.results:
            if result.request_id >= 1000:
                assert result.status == "shed"
                assert result.reason.startswith("invalid: ")

    check()
