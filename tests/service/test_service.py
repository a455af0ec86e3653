"""Tests for the memoized bound server (:mod:`repro.service`): endpoint
contracts, error mapping, concurrent single-flight behavior, and two
clients sharing one store."""

import threading

import pytest

from repro.service import ServiceClient, ServiceError, make_server
from repro.store.analysis import fresh_bound, fresh_schedule, fresh_spill


@pytest.fixture
def server(tmp_path):
    srv = make_server(tmp_path / "svc.db", port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        thread.join(5.0)
        srv.service.close()
        srv.server_close()


@pytest.fixture
def client(server):
    return ServiceClient(f"http://127.0.0.1:{server.server_port}")


class TestIntrospection:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0
        assert health["store"].endswith("svc.db")

    def test_stats_reports_traffic_and_store(self, client):
        client.bound(builder="chain", params={"length": 8}, s=2)
        client.bound(builder="chain", params={"length": 8}, s=2)
        stats = client.stats()
        assert stats["requests"]["/v1/bound"] == 2
        store = stats["store"]
        assert store["journal_mode"] == "wal"
        assert store["entries"] >= 2  # compiled + bound
        assert store["counters"]["puts"] >= 2
        assert 0 < store["hit_rate"] <= 1


class TestEndpoints:
    def test_bound_cold_then_warm(self, client):
        cold = client.bound(builder="diamond",
                            params={"width": 3, "depth": 3}, s=2)
        warm = client.bound(builder="diamond",
                            params={"width": 3, "depth": 3}, s=2)
        assert cold["cached"] is False and warm["cached"] is True
        expected = fresh_bound("diamond", {"width": 3, "depth": 3}, s=2)
        assert warm["value"] == cold["value"] == expected["value"]
        assert warm["key"] == cold["key"] and len(cold["key"]) == 64

    def test_bound_methods(self, client):
        analytical = client.bound(builder="butterfly",
                                  params={"log_n": 3}, s=2,
                                  method="analytical")
        assert analytical["value"] == fresh_bound(
            "butterfly", {"log_n": 3}, s=2, method="analytical"
        )["value"]
        hong_kung = client.bound(builder="chain", params={"length": 12},
                                 s=2, method="hong_kung", u_upper=40.0)
        assert hong_kung["value"] == fresh_bound(
            "chain", {"length": 12}, s=2, method="hong_kung", u_upper=40.0
        )["value"]

    def test_compiled(self, client):
        r = client.compiled(builder="grid",
                            params={"shape": [4, 4], "timesteps": 2})
        assert r["cached"] is False
        assert r["n"] > 0 and r["m"] > 0 and r["nbytes"] > 0
        assert client.compiled(
            builder="grid", params={"shape": [4, 4], "timesteps": 2}
        )["cached"] is True

    def test_schedule_with_ids(self, client):
        r = client.schedule(builder="chain", params={"length": 6},
                            kind="dfs", include_ids=True)
        expected = fresh_schedule("chain", {"length": 6}, kind="dfs")
        assert r["length"] == len(expected)
        assert r["ids"] == [int(i) for i in expected]
        # ids are omitted unless asked for
        r2 = client.schedule(builder="chain", params={"length": 6})
        assert "ids" not in r2 and r2["cached"] is True

    def test_pebble(self, client):
        params = {"workload": "star", "ops": 8, "degree": 3}
        r = client.pebble(params=params)
        expected = fresh_spill(params)
        assert r["moves"] == expected["moves"]
        assert r["io"] == expected["io"]
        assert client.pebble(params=params)["cached"] is True


    def test_pebble_backends_agree(self, client):
        """Both spill backends answer, as distinct cached specs, with
        the same game apart from the backend label."""
        base = {"workload": "chains", "chains": 4, "length": 6}
        fast = client.pebble(params={**base, "backend": "batched"})
        ref = client.pebble(params={**base, "backend": "dict"})
        assert fast["cached"] is False and ref["cached"] is False
        for key in ("moves", "io", "vertical_io", "horizontal_io"):
            assert fast[key] == ref[key]
        assert (fast["backend"], ref["backend"]) == ("batched", "dict")

class TestErrors:
    def test_unknown_builder_is_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.bound(builder="nope")
        assert exc.value.status == 400
        assert "unknown builder" in exc.value.message

    def test_unknown_param_is_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.compiled(builder="chain", params={"bogus": 1})
        assert exc.value.status == 400

    def test_pebble_workers_param_is_400(self, client):
        """Spill games run in one process: ``workers`` is not a spill
        param, so the request is refused instead of forking a pool."""
        with pytest.raises(ServiceError) as exc:
            client.pebble(params={"workload": "star", "ops": 8,
                                  "workers": 2})
        assert exc.value.status == 400
        assert "unknown param 'workers'" in exc.value.message

    def test_pebble_kernel_backend_is_400(self, server):
        """``backend="kernel"`` is gone: the request is a client error
        naming the accepted backends, and nothing is stored."""
        service = server.service
        status, payload = service.handle(
            "POST", "/v1/pebble",
            {"params": {"workload": "star", "ops": 8, "backend": "kernel"}},
        )
        assert status == 400
        assert "'batched', 'dict'" in payload["error"]
        counters = service.metrics.snapshot()["counters"]
        assert counters["http.errors{POST /v1/pebble}"] == 1
        assert service.store.stats()["entries"] == 0

    def test_missing_u_upper_is_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.bound(builder="chain", method="hong_kung")
        assert exc.value.status == 400
        assert "u_upper" in exc.value.message

    @pytest.mark.parametrize("path, body, field", [
        ("/v1/pebble", {"seed": None}, "seed"),
        ("/v1/bound", {"builder": "chain", "s": None}, "s"),
        ("/v1/compiled", {"builder": "chain", "seed": [1]}, "seed"),
    ])
    def test_non_number_in_number_field_is_400(self, server, path, body,
                                               field):
        service = server.service
        status, payload = service.handle("POST", path, body)
        assert status == 400
        assert repr(field) in payload["error"]
        counters = service.metrics.snapshot()["counters"]
        assert counters[f"http.errors{{POST {path}}}"] == 1

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client.get("/v1/nothing")
        assert exc.value.status == 404

    def test_malformed_json_is_400(self, client):
        import urllib.request

        req = urllib.request.Request(
            client.base_url + "/v1/bound",
            data=b"not json{",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert exc.value.code == 400


class TestConcurrency:
    def test_identical_concurrent_requests_single_flight(self, server,
                                                         client):
        """N identical in-flight bound queries compute once; the rest
        wait on the single-flight lock and read the published bytes."""
        results = []
        errors = []

        def worker():
            try:
                results.append(
                    client.bound(builder="grid",
                                 params={"shape": [6, 6], "timesteps": 2},
                                 s=4)
                )
            except Exception as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert not errors
        assert len({r["value"] for r in results}) == 1
        assert len({r["key"] for r in results}) == 1
        counters = server.service.store.counters
        # one compiled + one bound artifact computed, everyone else hit
        assert counters["puts"] == 2
        assert sum(1 for r in results if not r["cached"]) <= 2

    def test_two_clients_share_one_store(self, server):
        """The CI concurrent-clients smoke: two independent clients see
        each other's artifacts through the shared store."""
        base = f"http://127.0.0.1:{server.server_port}"
        a, b = ServiceClient(base), ServiceClient(base)
        cold = a.bound(builder="tree", params={"num_leaves": 8}, s=2)
        warm = b.bound(builder="tree", params={"num_leaves": 8}, s=2)
        assert cold["cached"] is False
        assert warm["cached"] is True
        assert warm["value"] == cold["value"]
        assert warm["key"] == cold["key"]
