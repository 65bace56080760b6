"""Tests for the threaded HTTP query server (incl. concurrency parity)."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.index.query import query_tc_tree
from repro.serve.engine import IndexedWarehouse
from repro.serve.server import start_server_thread


def _get(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return json.load(response)


def _post(base: str, path: str, payload: dict) -> dict:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.load(response)


class TestEndpoints:
    def test_healthz(self, running_server):
        base, engine = running_server
        payload = _get(base, "/healthz")
        assert payload["status"] == "ok"
        assert payload["uptime_seconds"] >= 0.0
        assert payload["backend"] == "snapshot"
        assert payload["kind"] == engine.kind
        assert payload["generation"] == engine.generation
        assert payload["snapshot_path"].endswith(".tcsnap")

    def test_stats(self, running_server):
        base, engine = running_server
        stats = _get(base, "/stats")
        assert stats["backend"] == "snapshot"
        assert stats["indexed_trusses"] == engine.num_indexed_trusses

    def test_query_matches_engine(self, running_server, toy_warehouse):
        base, _engine = running_server
        payload = _get(base, "/query?alpha=0.35")
        expected = query_tc_tree(toy_warehouse.tree, alpha=0.35)
        expected.generation = _engine.generation
        assert payload == expected.to_payload()

    def test_query_with_pattern(self, running_server, toy_warehouse):
        base, _engine = running_server
        payload = _get(base, "/query?pattern=0&alpha=0.0")
        expected = query_tc_tree(
            toy_warehouse.tree, pattern=(0,), alpha=0.0
        )
        expected.generation = _engine.generation
        assert payload == expected.to_payload()

    def test_top_k(self, running_server, toy_warehouse):
        base, _engine = running_server
        payload = _get(base, "/top-k?k=2&alpha=0.1")
        assert payload["k"] <= 2
        for community in payload["communities"]:
            assert community["size"] >= 3
            assert community["members"] == sorted(community["members"])

    def test_batch_post(self, running_server, toy_warehouse):
        base, _engine = running_server
        payload = _post(
            base,
            "/query",
            {
                "queries": [
                    {"pattern": None, "alpha": 0.0},
                    {"pattern": [0], "alpha": 0.2},
                ]
            },
        )
        expected = [
            query_tc_tree(toy_warehouse.tree, alpha=0.0),
            query_tc_tree(toy_warehouse.tree, pattern=(0,), alpha=0.2),
        ]
        for answer in expected:
            answer.generation = _engine.generation
        assert payload["answers"] == [a.to_payload() for a in expected]

    def test_batch_coerces_string_item_ids(
        self, running_server, toy_warehouse
    ):
        """JSON-stringified ids behave like GET's pattern=0 parsing."""
        base, _engine = running_server
        payload = _post(
            base,
            "/query",
            {"queries": [{"pattern": ["0"], "alpha": 0.0}]},
        )
        expected = query_tc_tree(
            toy_warehouse.tree, pattern=(0,), alpha=0.0
        )
        expected.generation = _engine.generation
        assert payload["answers"] == [expected.to_payload()]

    def test_batch_rejects_string_pattern(self, running_server):
        """A bare "3,7" pattern must 400, not iterate into characters."""
        base, _engine = running_server
        request = urllib.request.Request(
            base + "/query",
            data=json.dumps(
                {"queries": [{"pattern": "0,1", "alpha": 0.0}]}
            ).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400


class TestSearchEndpoint:
    def _query_pair(self, toy_warehouse) -> list[int]:
        answer = query_tc_tree(toy_warehouse.tree, alpha=0.0)
        largest = max(
            (c for t in answer.trusses for c in t.communities()), key=len
        )
        return sorted(largest)[:2]

    def test_search_matches_library(self, running_server, toy_warehouse):
        from repro.search.attributed import attributed_community_search

        base, _engine = running_server
        members = self._query_pair(toy_warehouse)
        payload = _get(
            base,
            "/search?vertices="
            + ",".join(str(v) for v in members)
            + "&attributes=0,1",
        )
        expected = attributed_community_search(
            toy_warehouse.tree, members, (0, 1)
        )
        assert len(payload["matches"]) == len(expected)
        for got, want in zip(payload["matches"], expected):
            assert got["pattern"] == list(want.pattern)
            assert got["coverage"] == want.coverage
            assert got["strength"] == want.strength
            assert got["community"]["members"] == sorted(
                want.community.members
            )
            assert got["community"]["size"] == want.community.size

    def test_search_limit_caps_matches(self, running_server, toy_warehouse):
        base, _engine = running_server
        members = self._query_pair(toy_warehouse)
        vertex_param = ",".join(str(v) for v in members)
        full = _get(
            base, f"/search?vertices={vertex_param}&attributes=0,1"
        )
        capped = _get(
            base,
            f"/search?vertices={vertex_param}&attributes=0,1&limit=1",
        )
        assert len(capped["matches"]) == 1
        assert capped["matches"][0] == full["matches"][0]

    def test_search_missing_vertices_400(self, running_server):
        base, _engine = running_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                base + "/search?attributes=0,1", timeout=10
            )
        assert excinfo.value.code == 400
        assert "vertices" in json.load(excinfo.value)["error"]

    def test_search_missing_attributes_400(self, running_server):
        base, _engine = running_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                base + "/search?vertices=0,1", timeout=10
            )
        assert excinfo.value.code == 400
        assert "attributes" in json.load(excinfo.value)["error"]

    def test_search_bad_alpha_400(self, running_server):
        base, _engine = running_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                base + "/search?vertices=0&attributes=0&alpha=nan",
                timeout=10,
            )
        assert excinfo.value.code == 400


class TestMetricsEndpoint:
    def _metrics_text(self, base: str) -> tuple[str, str]:
        with urllib.request.urlopen(base + "/metrics", timeout=10) as resp:
            return (
                resp.read().decode("utf-8"),
                resp.headers.get("Content-Type", ""),
            )

    def test_exposition_format(self, running_server):
        from repro.obs.metrics import EXPOSITION_CONTENT_TYPE

        base, _engine = running_server
        # A served query's own latency observation lands after its
        # response is written, so issue one first and scrape second.
        _get(base, "/query?alpha=0.2")
        text, content_type = self._metrics_text(base)
        assert content_type == EXPOSITION_CONTENT_TYPE
        assert "# TYPE repro_http_request_seconds histogram" in text
        assert 'le="+Inf"' in text
        assert "# TYPE repro_http_requests_total counter" in text
        assert 'endpoint="/query"' in text

    def test_engine_collector_samples(self, running_server):
        base, engine = running_server
        _get(base, "/query?alpha=0.2")
        text, _content_type = self._metrics_text(base)
        served = engine.stats()["queries_served"]
        assert f"repro_engine_queries_served_total {served}" in text
        assert "repro_engine_generation 1" in text
        assert "repro_engine_indexed_trusses" in text
        assert 'repro_engine_cache_lookups_total{outcome="hit"}' in text
        assert 'repro_engine_query_nodes_total{outcome="visited"}' in text
        assert 'repro_engine_query_phase_seconds_total{phase="toc"}' in text

    def test_stats_reports_endpoint_latency(self, running_server):
        base, _engine = running_server
        _get(base, "/query?alpha=0.2")
        stats = _get(base, "/stats")
        assert stats["uptime_seconds"] >= 0.0
        endpoints = stats["endpoints"]
        entry = endpoints["GET /query"]
        assert entry["count"] >= 1
        assert entry["p50"] > 0.0
        assert entry["p50"] <= entry["p95"] <= entry["p99"]
        breakdown = stats["query_breakdown"]
        assert breakdown["queries"] >= 1
        assert breakdown["visited_nodes"] >= breakdown["retrieved_nodes"]
        assert breakdown["toc_seconds"] >= 0.0
        assert breakdown["decode_seconds"] >= 0.0


class TestErrorHandling:
    def _status_of(self, base: str, path: str) -> tuple[int, dict]:
        try:
            with urllib.request.urlopen(base + path, timeout=10) as resp:
                return resp.status, json.load(resp)
        except urllib.error.HTTPError as error:
            return error.code, json.load(error)

    def test_unknown_endpoint_404(self, running_server):
        base, _engine = running_server
        status, payload = self._status_of(base, "/nope")
        assert status == 404
        assert "error" in payload

    def test_404_body_is_structured(self, running_server):
        base, _engine = running_server
        status, payload = self._status_of(base, "/nope")
        assert status == 404
        assert payload["code"] == "not_found"
        assert payload["type"] == "UnknownEndpointError"
        assert "/nope" in payload["error"]

    def test_400_body_is_structured(self, running_server):
        base, _engine = running_server
        status, payload = self._status_of(base, "/query?alpha=abc")
        assert status == 400
        assert payload["code"] == "bad_request"
        assert payload["type"] == "BadRequestError"
        assert "alpha" in payload["error"]

    def test_500_body_is_structured(self, running_server):
        """An unexpected engine crash surfaces as a JSON 500 with the
        taxonomy fields, not a dropped connection."""
        base, engine = running_server
        original = engine.query
        engine.query = lambda *a, **k: (_ for _ in ()).throw(
            RuntimeError("boom")
        )
        try:
            status, payload = self._status_of(base, "/query?alpha=0.1")
        finally:
            engine.query = original
        assert status == 500
        assert payload["code"] == "internal_error"
        assert payload["type"] == "RuntimeError"
        assert "boom" in payload["error"]

    def test_errors_are_counted_with_status_label(self, running_server):
        base, _engine = running_server
        self._status_of(base, "/nope")
        with urllib.request.urlopen(base + "/metrics", timeout=10) as resp:
            text = resp.read().decode("utf-8")
        assert 'endpoint="other"' in text
        assert 'status="404"' in text

    def test_post_404_drains_body_on_keepalive(self, running_server):
        """A 404'd POST must consume its body: leftover bytes would be
        parsed as the next request on the persistent connection."""
        import http.client

        base, _engine = running_server
        host_port = base.removeprefix("http://")
        connection = http.client.HTTPConnection(host_port, timeout=10)
        try:
            connection.request(
                "POST", "/nope", body=json.dumps({"queries": []})
            )
            assert connection.getresponse().read() is not None
            # Reuse the same socket: this fails with a 400 parse error
            # if the body was left unread.
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()

    def test_bad_alpha_400(self, running_server):
        base, _engine = running_server
        status, payload = self._status_of(base, "/query?alpha=abc")
        assert status == 400
        assert "alpha" in payload["error"]

    def test_negative_alpha_400(self, running_server):
        base, _engine = running_server
        status, _payload = self._status_of(base, "/query?alpha=-1")
        assert status == 400

    def test_non_finite_alpha_400(self, running_server):
        """NaN/Infinity would serialize as invalid JSON literals."""
        base, _engine = running_server
        for raw in ("nan", "inf", "-inf"):
            status, payload = self._status_of(
                base, f"/query?alpha={raw}"
            )
            assert status == 400, raw
            assert "finite" in payload["error"]

    def test_bad_pattern_400(self, running_server):
        base, _engine = running_server
        status, payload = self._status_of(base, "/query?pattern=a,b")
        assert status == 400
        assert "pattern" in payload["error"]

    def test_non_object_batch_entry_400(self, running_server):
        """A scalar in the queries list must come back as a JSON 400,
        not an AttributeError-dropped connection."""
        base, _engine = running_server
        request = urllib.request.Request(
            base + "/query",
            data=json.dumps({"queries": [3]}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert "error" in json.load(excinfo.value)

    def test_non_object_batch_document_400(self, running_server):
        """A JSON body that is a list/scalar (not an object) must be a
        400, not a dropped connection."""
        base, _engine = running_server
        for body in (b"[1, 2]", b'"hi"', b"123"):
            request = urllib.request.Request(
                base + "/query", data=body,
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400

    def test_bad_batch_body_400(self, running_server):
        base, _engine = running_server
        request = urllib.request.Request(
            base + "/query", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400


class TestConcurrency:
    def test_concurrent_queries_share_one_engine(
        self, running_server, toy_warehouse
    ):
        """8 threads × mixed queries: every response equals the oracle.

        The engine instance is shared across request threads, so this
        exercises the carrier cache's locking and the snapshot buffer's
        concurrent reads.
        """
        base, engine = running_server
        specs = [
            ("/query?alpha=0.0", None, 0.0),
            ("/query?alpha=0.35", None, 0.35),
            ("/query?pattern=0&alpha=0.0", (0,), 0.0),
            ("/query?pattern=0,1&alpha=0.1", (0, 1), 0.1),
        ]
        def oracle(pattern, alpha):
            answer = query_tc_tree(
                toy_warehouse.tree, pattern=pattern, alpha=alpha
            )
            answer.generation = engine.generation
            return answer.to_payload()

        expected = {
            path: oracle(pattern, alpha) for path, pattern, alpha in specs
        }
        failures: list[str] = []
        barrier = threading.Barrier(8)

        def worker(worker_id: int) -> None:
            barrier.wait()
            for round_number in range(5):
                path = specs[(worker_id + round_number) % len(specs)][0]
                try:
                    if _get(base, path) != expected[path]:
                        failures.append(f"mismatch on {path}")
                except Exception as exc:  # pragma: no cover - diagnostic
                    failures.append(f"{path}: {exc!r}")

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not failures
        assert engine.stats()["queries_served"] >= 40


class TestAdminApplyDelta:
    @pytest.fixture()
    def live_server(self, toy_network, toy_warehouse, tmp_path):
        import copy

        from repro.index.updates import Delta, apply_deltas
        from repro.serve.live import LiveIndex
        from repro.serve.snapshot import write_delta_snapshot

        network = copy.deepcopy(toy_network)
        base_tree = toy_warehouse.tree
        vertex = sorted(network.databases)[0]
        result = apply_deltas(
            network, base_tree, [Delta.insert(vertex, [0, 1])],
            mode="incremental",
        )
        overlay = tmp_path / "gen2.tcdelta"
        write_delta_snapshot(
            base_tree, result.tree, overlay,
            generation=2, base_generation=1,
        )
        engine = IndexedWarehouse(tree=base_tree)
        live = LiveIndex(engine)
        server, _thread = start_server_thread(engine, live=live)
        base = f"http://127.0.0.1:{server.server_address[1]}"
        yield base, engine, overlay
        server.shutdown()
        server.server_close()
        engine.close()

    def test_apply_delta_bumps_generation(self, live_server):
        base, engine, overlay = live_server
        assert _get(base, "/healthz")["generation"] == 1
        summary = _post(
            base, "/admin/apply-delta", {"path": str(overlay)}
        )
        assert summary["generation"] == 2
        assert _get(base, "/healthz")["generation"] == 2
        # Answers now carry the new generation stamp.
        assert _get(base, "/query?alpha=0.0")["generation"] == 2

    def test_stale_overlay_400(self, live_server):
        base, engine, overlay = live_server
        _post(base, "/admin/apply-delta", {"path": str(overlay)})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, "/admin/apply-delta", {"path": str(overlay)})
        assert excinfo.value.code == 400
        body = json.load(excinfo.value)
        assert body["code"] == "bad_request"
        assert "base generation" in body["error"]

    def test_body_without_path_400(self, live_server):
        base, _engine, _overlay = live_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, "/admin/apply-delta", {"nope": 1})
        assert excinfo.value.code == 400

    def test_disabled_without_live_400(self, running_server, tmp_path):
        base, _engine = running_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, "/admin/apply-delta", {"path": "x.tcdelta"})
        assert excinfo.value.code == 400
        body = json.load(excinfo.value)
        assert "disabled" in body["error"]

    def test_stats_surfaces_live_writer(self, live_server):
        base, _engine, overlay = live_server
        stats = _get(base, "/stats")
        assert stats["live"]["deltas_applied"] == 0
        assert stats["live"]["watching"] is None
        _post(base, "/admin/apply-delta", {"path": str(overlay)})
        stats = _get(base, "/stats")
        assert stats["live"]["deltas_applied"] == 1
        assert stats["live"]["watch_errors"] == []

    def test_stats_omits_live_block_when_disabled(self, running_server):
        base, _engine = running_server
        assert "live" not in _get(base, "/stats")
