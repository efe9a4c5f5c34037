"""QueryService.dispatch: routing, error contract, clamping, journaling,
and the catalog/cache interplay — all in-process, no sockets."""

from __future__ import annotations

import json

import pytest

from repro.core.options import EngineOptions
from repro.core.query import Query
from repro.obs.journal import validate_journal
from repro.service import QueryService, ServiceConfig


def post(service: QueryService, path: str, body: dict):
    return service.dispatch("POST", path, json.dumps(body).encode())


def payload(response) -> dict:
    return json.loads(response.body())


def metric_value(prometheus_text: str, sample: str) -> float:
    for line in prometheus_text.splitlines():
        if line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if name == sample:
            return float(value)
    raise AssertionError(f"sample {sample!r} not in exposition")


class TestPlumbing:
    def test_healthz(self, service):
        response = service.dispatch("GET", "/healthz")
        assert response.status == 200
        doc = payload(response)
        assert doc["status"] == "ok"
        assert doc["stores"] == 1
        assert doc["admission"]["in_flight"] == 0

    def test_version(self, service):
        doc = payload(service.dispatch("GET", "/version"))
        assert doc["service"] == "repro.service"

    def test_logs_listing(self, service):
        doc = payload(service.dispatch("GET", "/v1/logs"))
        assert [entry["name"] for entry in doc["logs"]] == ["clinic"]
        assert doc["logs"][0]["lineage"].startswith("logstore:")

    def test_log_stats(self, service):
        doc = payload(service.dispatch("GET", "/v1/logs/clinic/stats"))
        assert doc["instance_count"] == 40
        assert doc["total_records"] > 0
        assert "GetRefer" in doc["activity_counts"]

    def test_metrics_exposition(self, service):
        post(service, "/v1/query", {"log": "clinic", "pattern": "GetRefer"})
        response = service.dispatch("GET", "/metrics")
        assert response.status == 200
        assert response.content_type.startswith("text/plain")
        text = response.body().decode()
        assert "# TYPE repro_service_admitted counter" in text
        assert metric_value(text, "repro_service_admitted") == 1.0

    def test_query_and_trace_headers_on_every_response(self, service):
        for response in (
            service.dispatch("GET", "/healthz"),
            post(service, "/v1/query", {"log": "clinic", "pattern": "GetRefer"}),
            post(service, "/v1/query", {"bad": True}),
        ):
            assert response.headers["X-Query-Id"].startswith("q-")
            assert response.headers["X-Trace-Id"].startswith("t-")


class TestErrorContract:
    def test_400_schema_violation(self, service):
        response = post(service, "/v1/query", {"log": "clinic"})
        assert response.status == 400
        error = payload(response)["error"]
        assert error["code"] == "bad_request"
        assert error["details"]["diagnostics"][0]["code"] == "SVC400"

    def test_400_pattern_syntax(self, service):
        response = post(
            service, "/v1/query", {"log": "clinic", "pattern": "A ->"}
        )
        assert response.status == 400
        diagnostics = payload(response)["error"]["details"]["diagnostics"]
        assert diagnostics[0]["span"] is not None

    def test_404_unknown_log(self, service):
        response = post(service, "/v1/query", {"log": "nope", "pattern": "A"})
        assert response.status == 404
        assert payload(response)["error"]["details"]["available"] == ["clinic"]

    def test_404_unknown_route(self, service):
        assert service.dispatch("GET", "/v2/query").status == 404

    def test_405_wrong_method(self, service):
        response = service.dispatch("GET", "/v1/query")
        assert response.status == 405
        assert payload(response)["error"]["details"]["allowed"] == ["POST"]

    def test_408_deadline_kill_with_partial_stats(self, service):
        response = post(
            service,
            "/v1/query",
            {
                "log": "clinic",
                "pattern": "GetRefer -> CheckIn -> Treatment",
                "options": {"deadline_ms": 0.001, "cache": False},
            },
        )
        assert response.status == 408
        error = payload(response)["error"]
        assert error["code"] == "deadline_exceeded"
        assert error["details"]["deadline_ms"] == 0.001
        assert "pairs_examined" in error["partial_stats"]

    def test_422_pairs_budget_kill(self, service):
        response = post(
            service,
            "/v1/query",
            {
                "log": "clinic",
                "pattern": "GetRefer -> CheckIn",
                "options": {"max_pairs": 1, "cache": False},
            },
        )
        assert response.status == 422
        error = payload(response)["error"]
        assert error["code"] == "budget_exceeded"
        assert error["details"]["max_pairs"] == 1
        assert error["partial_stats"]["pairs_examined"] >= 1

    def test_429_when_saturated(self, make_service):
        service = make_service(
            ServiceConfig(max_concurrency=1, queue_depth=0, retry_after_s=3.0)
        )
        with service.admission.slot():
            response = post(
                service, "/v1/query", {"log": "clinic", "pattern": "GetRefer"}
            )
        assert response.status == 429
        assert payload(response)["error"]["code"] == "saturated"
        assert response.headers["Retry-After"] == "3"

    def test_503_while_draining(self, service):
        service.drain()
        response = post(
            service, "/v1/query", {"log": "clinic", "pattern": "GetRefer"}
        )
        assert response.status == 503
        assert payload(response)["error"]["code"] == "unavailable"
        assert payload(service.dispatch("GET", "/healthz"))["status"] == "draining"

    def test_kills_do_not_kill_the_server(self, service):
        post(
            service,
            "/v1/query",
            {"log": "clinic", "pattern": "GetRefer -> CheckIn",
             "options": {"deadline_ms": 0.001, "cache": False}},
        )
        ok = post(service, "/v1/query", {"log": "clinic", "pattern": "GetRefer"})
        assert ok.status == 200
        assert service.admission.in_flight == 0


class TestClamping:
    def test_over_ceiling_budgets_are_clamped_and_reported(self, make_service):
        service = make_service(
            ServiceConfig(deadline_ms_ceiling=50.0, max_pairs_ceiling=1000,
                          jobs_ceiling=2)
        )
        response = post(
            service,
            "/v1/query",
            {
                "log": "clinic",
                "pattern": "GetRefer",
                "options": {"deadline_ms": 99999, "max_pairs": 10**9, "jobs": 64},
            },
        )
        assert response.status == 200
        assert sorted(payload(response)["clamped"]) == [
            "deadline_ms", "jobs", "max_pairs",
        ]

    def test_unknown_engine_is_400(self, service):
        response = post(
            service,
            "/v1/query",
            {"log": "clinic", "pattern": "A", "options": {"engine": "warp"}},
        )
        assert response.status == 400
        assert payload(response)["error"]["details"]["available"] == [
            "indexed", "naive", "sqlite", "vectorized",
        ]


    def test_backend_sqlite_is_400(self, service):
        response = post(
            service,
            "/v1/query",
            {"log": "clinic", "pattern": "A", "options": {"backend": "sqlite"}},
        )
        assert response.status == 400
        assert payload(response)["error"]["details"]["available"] == [
            "auto", "serial", "thread", "process",
        ]


class TestQueryModes:
    def test_incidents_match_direct_query(self, service, clinic_log):
        pattern = "GetRefer -> CheckIn"
        response = post(service, "/v1/query", {"log": "clinic", "pattern": pattern})
        direct = Query(pattern, EngineOptions()).run(clinic_log).to_rows()
        expected = [{**row, "lsns": list(row["lsns"])} for row in direct]
        assert payload(response)["incidents"] == json.loads(json.dumps(expected))
        assert payload(response)["count"] == len(direct)

    def test_count_exists_instances(self, service, clinic_log):
        pattern = "GetRefer -> CheckIn"
        count = payload(
            post(service, "/v1/query",
                 {"log": "clinic", "pattern": pattern, "mode": "count"})
        )["count"]
        assert count == Query(pattern, EngineOptions()).count(clinic_log)
        assert payload(
            post(service, "/v1/query",
                 {"log": "clinic", "pattern": pattern, "mode": "exists"})
        )["exists"] is True
        wids = payload(
            post(service, "/v1/query",
                 {"log": "clinic", "pattern": pattern, "mode": "instances"})
        )["instances"]
        assert tuple(wids) == Query(pattern, EngineOptions()).matching_instances(
            clinic_log
        )

    def test_limit_truncates_incidents_only(self, service):
        doc = payload(
            post(service, "/v1/query",
                 {"log": "clinic", "pattern": "GetRefer", "limit": 3})
        )
        assert len(doc["incidents"]) == 3
        assert doc["count"] > 3
        assert doc["truncated"] is True

    def test_batch(self, service, clinic_log):
        doc = payload(
            post(service, "/v1/batch",
                 {"log": "clinic", "patterns": ["GetRefer", "GetRefer -> CheckIn"]})
        )
        assert [item["count"] for item in doc["results"]] == [
            Query("GetRefer", EngineOptions()).count(clinic_log),
            Query("GetRefer -> CheckIn", EngineOptions()).count(clinic_log),
        ]
        assert doc["backend"] == "serial"

    def test_lint(self, service):
        doc = payload(
            post(service, "/v1/lint", {"log": "clinic", "pattern": "NoSuchActivity"})
        )
        assert doc["ok"] is True or doc["ok"] is False
        assert isinstance(doc["diagnostics"], list)

    def test_explain(self, service):
        doc = payload(
            post(service, "/v1/explain", {"log": "clinic", "pattern": "GetRefer -> CheckIn"})
        )
        assert "optimized" in doc
        assert "estimated cost" in doc["explain"]

    def test_analyze(self, service):
        doc = payload(
            post(service, "/v1/analyze", {"op": "equivalent", "p": "A | B", "q": "B | A"})
        )
        assert doc["result"] is True
        doc = payload(
            post(service, "/v1/analyze", {"op": "contains", "p": "A", "q": "B"})
        )
        assert doc["result"] is False
        assert doc["witness"]


class TestCacheOverHttp:
    def test_cold_warm_invalidated_via_metrics(self, service):
        body = {"log": "clinic", "pattern": "GetRefer -> CheckIn"}

        first = payload(post(service, "/v1/query", body))
        assert first["cache_layer"] is None
        text = service.dispatch("GET", "/metrics").body().decode()
        assert metric_value(text, "repro_cache_result_misses") == 1.0
        assert metric_value(text, "repro_cache_result_hits") == 0.0

        second = payload(post(service, "/v1/query", body))
        assert second["cache_layer"] == "result"
        text = service.dispatch("GET", "/metrics").body().decode()
        assert metric_value(text, "repro_cache_result_hits") == 1.0

        append = post(
            service,
            "/v1/logs/clinic/records",
            {"records": [
                {"activity": "START"},
                {"activity": "GetRefer", "wid": 41},
            ]},
        )
        assert append.status == 200
        assert append.headers["X-Query-Id"].startswith("q-")

        third = payload(post(service, "/v1/query", body))
        assert third["cache_layer"] != "result"  # epoch moved: result is cold
        assert third["epoch"] == first["epoch"] + 2
        text = service.dispatch("GET", "/metrics").body().decode()
        assert metric_value(text, "repro_cache_result_misses") == 2.0
        assert metric_value(text, "repro_cache_result_hits") == 1.0

    def test_count_replies_carry_stats(self, service):
        body = {"log": "clinic", "pattern": "GetRefer -> CheckIn"}
        post(service, "/v1/query", body)  # fills the result cache
        cached = payload(post(service, "/v1/query", {**body, "mode": "count"}))
        assert cached["cache_layer"] == "result"
        assert cached["stats"]["pairs_examined"] > 0

        sharded = payload(post(service, "/v1/query", {
            "log": "clinic", "pattern": "GetRefer -> SeeDoctor",
            "mode": "count", "options": {"jobs": 2},
        }))
        assert sharded["cache_layer"] is None
        assert sharded["stats"] is not None

    def test_append_404_before_mutation(self, service):
        response = post(
            service, "/v1/logs/nope/records",
            {"records": [{"activity": "START"}]},
        )
        assert response.status == 404

    def test_append_to_closed_instance_is_422(self, service):
        response = post(
            service, "/v1/logs/clinic/records",
            {"records": [{"activity": "GetRefer", "wid": 1}]},
        )
        assert response.status == 422
        assert payload(response)["error"]["code"] == "unprocessable"


class TestJournal:
    def test_lifecycle_valid_after_mixed_traffic(self, make_service):
        service = make_service(journal=True)
        ok = post(service, "/v1/query", {"log": "clinic", "pattern": "GetRefer"})
        killed = post(
            service,
            "/v1/query",
            {"log": "clinic", "pattern": "GetRefer -> CheckIn",
             "options": {"deadline_ms": 0.001, "cache": False}},
        )
        post(service, "/v1/batch", {"log": "clinic", "patterns": ["GetRefer"]})
        assert ok.status == 200 and killed.status == 408

        events = service.journal.events
        validate_journal(events)
        kinds = [event["event"] for event in events]
        assert kinds.count("submit") == 3
        assert kinds.count("finish") == 2
        assert kinds.count("killed") == 1

        finish = next(e for e in events if e["event"] == "finish")
        submit = next(
            e for e in events if e["query_id"] == finish["query_id"]
            and e["event"] == "submit"
        )
        assert submit["op"] == "http.query"

    def test_response_ids_match_journal(self, make_service):
        service = make_service(journal=True)
        response = post(
            service, "/v1/query", {"log": "clinic", "pattern": "GetRefer"}
        )
        query_ids = {event["query_id"] for event in service.journal.events}
        assert response.headers["X-Query-Id"] in query_ids

    def test_close_flushes_and_drains(self, make_service, tmp_path):
        from repro.obs.journal import QueryJournal, read_journal

        service = make_service(journal=True)
        sink = tmp_path / "journal.jsonl"
        service.journal = QueryJournal(sink)
        post(service, "/v1/query", {"log": "clinic", "pattern": "GetRefer"})
        service.close()
        assert service.draining
        events = read_journal(sink)
        validate_journal(events)
        assert [event["event"] for event in events] == ["submit", "finish"]
