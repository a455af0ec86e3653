"""``GET /metrics`` on the bound server: schema, pinned counter and
histogram values, monotonic-counter properties across scrapes, and the
mirrored artifact-store counters."""

import threading

import pytest

from repro.obs import OBS_SCHEMA
from repro.obs.metrics import dumps_snapshot
from repro.service import ServiceClient, make_server
from repro.service.server import SERVICE_SCHEMA


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


class TestSchema:
    def test_payload_shape(self, client):
        view = client.metrics()
        assert view["schema"] == SERVICE_SCHEMA
        assert view["obs_schema"] == OBS_SCHEMA
        assert view["uptime_s"] >= 0
        snap = view["metrics"]
        assert snap["schema"] == OBS_SCHEMA
        assert set(snap) == {"schema", "counters", "gauges", "histograms"}
        assert isinstance(view["events"], list)

    def test_canonical_json_round_trip(self, client):
        # the payload must survive the canonical encoder (sorted keys,
        # compact, non-finite rejected) — i.e. it is JSON-safe
        view = client.metrics()
        assert dumps_snapshot(view["metrics"])


class TestCounters:
    def test_request_counters_pinned(self, client):
        client.health()
        client.health()
        client.bound(builder="chain", params={"length": 8}, s=2)
        counters = client.metrics()["metrics"]["counters"]
        assert counters["http.requests{GET /health}"] == 2
        assert counters["http.requests{POST /v1/bound}"] == 1

    def test_error_counter(self, client):
        from repro.service import ServiceError

        with pytest.raises(ServiceError):
            client.bound(builder="nope", params={}, s=2)
        counters = client.metrics()["metrics"]["counters"]
        assert counters["http.errors{POST /v1/bound}"] == 1
        assert counters["http.requests{POST /v1/bound}"] == 1

    def test_counters_monotonic_across_scrapes(self, client):
        # a scrape's own request lands in the *next* snapshot (the
        # counter ticks after dispatch) — prime once so the counter
        # exists in both scrapes below
        client.metrics()
        first = client.metrics()["metrics"]["counters"]
        client.health()
        client.bound(builder="chain", params={"length": 8}, s=2)
        second = client.metrics()["metrics"]["counters"]
        for name, value in first.items():
            assert second.get(name, 0) >= value, name
        # the scrape counts itself: strictly increasing here
        assert second["http.requests{GET /metrics}"] > \
            first["http.requests{GET /metrics}"]


class TestHistograms:
    def test_latency_histograms_per_endpoint(self, client):
        client.health()
        client.bound(builder="chain", params={"length": 8}, s=2)
        hists = client.metrics()["metrics"]["histograms"]
        h = hists["http.latency_s{GET /health}"]
        assert h["count"] == 1
        assert sum(h["buckets"]) == 1
        assert len(h["buckets"]) == len(h["edges"]) + 1
        assert hists["http.latency_s{POST /v1/bound}"]["count"] == 1


class TestStoreMirror:
    def test_store_counters_surface_in_scrape(self, client):
        client.bound(builder="chain", params={"length": 8}, s=2)  # cold
        client.bound(builder="chain", params={"length": 8}, s=2)  # warm
        counters = client.metrics()["metrics"]["counters"]
        assert counters["store.puts"] == 1  # the bound row only
        assert counters["store.hits"] >= 1
        assert counters["store.misses"] >= 1

    def test_gc_pass_event_and_counters(self, tmp_path):
        from repro.service.server import BoundService
        from repro.store.db import ArtifactStore

        service = BoundService(ArtifactStore(tmp_path / "s.db"))
        try:
            service.store.gc()
            counters = service.metrics.snapshot()["counters"]
            assert counters["store.gc_passes"] == 1
            kinds = [e["kind"] for e in service.events.snapshot()]
            assert "gc.pass" in kinds
        finally:
            service.close()
