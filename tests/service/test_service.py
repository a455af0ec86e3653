"""Tests for the memoized bound server (:mod:`repro.service`): endpoint
contracts, error mapping, concurrent single-flight behavior, and two
clients sharing one store."""

import threading
import time

import pytest

from repro.service import ServiceClient, ServiceError, make_server
from repro.store.analysis import (
    MAX_CANDIDATES, MAX_CDAG_SIZE, fresh_bound, fresh_schedule, fresh_spill,
)


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
        srv.app.close()
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

    def test_uptime_ignores_wall_clock_steps(self, server, monkeypatch):
        """Every endpoint's ``uptime_s`` runs on the monotonic clock, so
        a wall clock stepped back an hour cannot make it negative."""
        real = time.time
        monkeypatch.setattr(time, "time", lambda: real() - 3600.0)
        for path in ("/health", "/stats", "/metrics"):
            status, payload = server.app.handle("GET", path, None)
            assert status == 200 and payload["uptime_s"] >= 0, path

    def test_stats_reports_traffic_and_store(self, client):
        client.bound(builder="chain", params={"length": 8}, s=2)
        client.bound(builder="chain", params={"length": 8}, s=2)
        stats = client.stats()
        assert stats["requests"]["/v1/bound"] == 2
        store = stats["store"]
        assert store["journal_mode"] == "wal"
        assert store["entries"] == 1  # the bound row only
        assert store["counters"]["puts"] == 1
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


    @pytest.mark.parametrize("path, body", [
        ("/v1/compiled", {"builder": "chain", "params": {"length": 5}}),
        ("/v1/schedule", {"builder": "tree", "kind": "minlive"}),
        ("/v1/bound", {"builder": "chain", "s": 2, "max_candidates": 4}),
        ("/v1/bound", {"builder": "chain", "s": 2, "method": "hong_kung",
                       "u_upper": 40}),
        ("/v1/bound", {"builder": "butterfly", "params": {"log_n": 3},
                       "s": 2, "method": "analytical"}),
    ])
    def test_response_key_names_the_stored_row(self, server, path, body):
        """Cold and warm, the ``key`` a query answers with is the row
        the store holds for it."""
        store = server.app.store
        for cached in (False, True):
            status, payload = server.app.handle("POST", path, body)
            assert status == 200 and payload["cached"] is cached
            assert store.get(payload["key"]) is not None

    @pytest.mark.parametrize("path, body", [
        ("/v1/bound", {"builder": "chain", "params": {"length": 7}, "s": 2}),
        ("/v1/schedule", {"builder": "chain", "params": {"length": 7}}),
    ])
    def test_derived_miss_leaves_compiled_cold(self, server, path, body):
        """``cached`` describes only the queried artifact: a bound or
        schedule miss stores its answer, not the CDAG's snapshot, so the
        first ``/v1/compiled`` request for that CDAG is a miss too."""
        status, payload = server.app.handle("POST", path, body)
        assert status == 200 and payload["cached"] is False
        assert server.app.store.counters["puts"] == 1
        status, payload = server.app.handle(
            "POST", "/v1/compiled",
            {"builder": "chain", "params": {"length": 7}},
        )
        assert status == 200 and payload["cached"] is False
        assert server.app.store.counters["puts"] == 2

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
        service = server.app
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
        service = server.app
        status, payload = service.handle("POST", path, body)
        assert status == 400
        assert repr(field) in payload["error"]
        counters = service.metrics.snapshot()["counters"]
        assert counters[f"http.errors{{POST {path}}}"] == 1

    @pytest.mark.parametrize("path, body", [
        ("/v1/compiled", {"builder": "chain", "params": {"length": [1]}}),
        ("/v1/pebble", {"params": {"ops": None}}),
        ("/v1/compiled", {"builder": "chain", "seed": 1e30}),
    ])
    def test_type_and_overflow_errors_are_400(self, server, path, body):
        """Bad input surfacing as ``TypeError`` or ``OverflowError``
        deep in an endpoint is a client error, not a server failure."""
        status, payload = server.app.handle("POST", path, body)
        assert status == 400, payload

    @pytest.mark.parametrize("field, value", [
        ("s", 0), ("s", -5), ("max_candidates", 0), ("max_candidates", -3),
    ])
    def test_bound_argument_below_one_is_400_and_not_stored(
        self, server, field, value
    ):
        service = server.app
        status, payload = service.handle(
            "POST", "/v1/bound", {"builder": "chain", "s": 2, field: value}
        )
        assert status == 400
        assert field in payload["error"]
        assert service.store.counters["misses"] == 0
        assert service.store.stats()["entries"] == 0

    def test_max_candidates_over_the_cap_is_400_and_not_stored(
        self, server, client
    ):
        """Over HTTP, ``max_candidates`` above ``MAX_CANDIDATES`` is
        refused like a value below one, before any store lookup; the
        cap itself is served."""
        with pytest.raises(ServiceError) as exc:
            client.bound(builder="chain", s=2,
                         max_candidates=MAX_CANDIDATES + 1)
        assert exc.value.status == 400
        assert "max_candidates" in exc.value.message
        assert server.app.store.counters["misses"] == 0
        served = client.bound(builder="chain", s=2,
                              max_candidates=MAX_CANDIDATES)
        assert served["max_candidates"] == MAX_CANDIDATES

    def test_out_of_range_int_is_400_before_any_compute(self, server):
        """An int field outside the store's signed 64-bit range is
        refused by the field parser: no build, no store lookup."""
        service = server.app
        status, payload = service.handle(
            "POST", "/v1/compiled", {"builder": "chain", "seed": 10**30}
        )
        assert status == 400
        assert "'seed'" in payload["error"]
        assert service.store.counters["misses"] == 0

    @pytest.mark.parametrize("path", ["/v1/compiled", "/v1/schedule",
                                      "/v1/bound"])
    @pytest.mark.parametrize("builder, params", [
        ("chain", {"length": 10**8}),
        ("dense", {"num_inputs": 10**5, "num_outputs": 10**5}),
    ], ids=["chain", "dense"])
    def test_spec_over_the_size_cap_is_400_before_any_build(
        self, server, path, builder, params
    ):
        """The size bound is computed from the params (``dense`` has few
        vertices but 10^10 edges): no build, no lookup, nothing stored."""
        service = server.app
        start = time.monotonic()
        status, payload = service.handle(
            "POST", path, {"builder": builder, "params": params}
        )
        assert time.monotonic() - start < 1.0
        assert status == 400
        assert f"{MAX_CDAG_SIZE:,} cap" in payload["error"]
        assert service.store.counters["misses"] == 0
        assert service.store.stats()["entries"] == 0

    @pytest.mark.parametrize("params", [
        {"workload": "star", "ops": 10**7},
        {"workload": "chains", "chains": 10**4, "length": 10**4},
        {"workload": "forest", "component_size": 10**4},
    ], ids=["star", "chains", "forest"])
    def test_pebble_over_the_size_cap_is_400_before_any_game(
        self, server, params
    ):
        """A spill workload's CDAG is sized from the params by the
        builder it plays on: no game, no lookup, nothing stored."""
        service = server.app
        start = time.monotonic()
        status, payload = service.handle("POST", "/v1/pebble",
                                         {"params": params})
        assert time.monotonic() - start < 1.0
        assert status == 400
        assert f"{MAX_CDAG_SIZE:,} cap" in payload["error"]
        assert service.store.counters["misses"] == 0
        assert service.store.stats()["entries"] == 0

    @pytest.mark.parametrize("path, params", [
        ("/v1/compiled", {"num_inputs": -3, "num_outputs": 2}),
        ("/v1/bound", {"num_inputs": 0, "num_outputs": 0}),
    ])
    def test_dense_size_below_one_is_400_and_not_stored(
        self, server, path, params
    ):
        service = server.app
        status, payload = service.handle(
            "POST", path, {"builder": "dense", "params": params}
        )
        assert status == 400
        assert "'num_inputs' must be >= 1" in payload["error"]
        assert service.store.counters["misses"] == 0
        assert service.store.stats()["entries"] == 0

    def test_pebble_unknown_policy_is_400(self, server):
        """P-RBW games (the star workload) ignore ``policy`` but still
        validate it: nothing is played or stored."""
        service = server.app
        status, payload = service.handle(
            "POST", "/v1/pebble",
            {"params": {"workload": "star", "policy": 3}},
        )
        assert status == 400
        assert "policy" in payload["error"]
        assert service.store.stats()["entries"] == 0

    def test_pebble_size_below_one_is_400_and_not_stored(self, server):
        """A workload size below one is refused by the size check before
        any lookup: a client error, and no store row is written."""
        service = server.app
        status, payload = service.handle(
            "POST", "/v1/pebble", {"params": {"workload": "star", "ops": -3}},
        )
        assert status == 400
        assert "'ops' must be >= 1" in payload["error"]
        assert service.store.counters["misses"] == 0
        assert service.store.stats()["entries"] == 0

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
        counters = server.app.store.counters
        # one bound artifact computed, everyone else hit
        assert counters["puts"] == 1
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
