"""Fleet observability: controller metrics/events/failure rows, the
``GET /metrics`` endpoint, and the end-to-end failure dashboard — a
SIGKILLed cell surfaces in ``repro fleet status --failures`` with its
attempt count, signal name, and backoff state."""

import threading

import pytest

from repro.cli import main
from repro.evaluation.harness import ExperimentDef, RunSpec
from repro.fleet import FleetClient, FleetWorker, make_fleet_server
from repro.fleet.controller import FleetController, spec_to_wire
from repro.obs import OBS_SCHEMA


def _run_quick(params, seed):
    return [{"x": int(params.get("x", 2)), "seed": seed}]


TEST_REGISTRY = {"quick": ExperimentDef("quick", _run_quick, {"x": 2})}


def _quiet(msg):
    pass


def make_controller(root, **kw):
    kw.setdefault("registry", TEST_REGISTRY)
    kw.setdefault("log", _quiet)
    return FleetController(root, **kw)


def _submit(controller, n=1):
    controller.submit_grid([
        spec_to_wire(RunSpec("quick", {"x": i + 1}, 0, f"cell{i}"))
        for i in range(n)
    ])


class TestControllerInstrumentation:
    def test_lease_lifecycle_counters_and_events(self, tmp_path):
        clock = [0.0]
        c = make_controller(tmp_path, lease_ttl_s=5.0,
                            clock=lambda: clock[0])
        _submit(c)
        c.register("w1", slots=1)
        c.lease("w1")
        clock[0] += 10.0  # expire the lease
        view = c.metrics_view()
        counters = view["metrics"]["counters"]
        assert counters["fleet.grids_submitted"] == 1
        assert counters["fleet.workers_registered"] == 1
        assert counters["fleet.leases_granted"] == 1
        assert counters["fleet.leases_expired"] == 1
        assert counters["fleet.cells_requeued"] == 1
        kinds = [e["kind"] for e in view["events"]]
        for kind in ("grid.submitted", "worker.registered",
                     "lease.granted", "cell.started", "lease.expired",
                     "cell.requeued"):
            assert kind in kinds, kind

    def test_failure_report_carries_signal_name(self, tmp_path):
        c = make_controller(tmp_path, max_retries=0)
        _submit(c)
        c.lease("w1")
        c.report("w1", "cell0", ok=False,
                 error="worker killed by SIGKILL")
        view = c.metrics_view()
        assert view["metrics"]["counters"]["fleet.cells_failed"] == 1
        attempt = next(e for e in view["events"]
                       if e["kind"] == "cell.attempt_failed")
        assert attempt["signal"] == "SIGKILL"
        failed = next(e for e in view["events"]
                      if e["kind"] == "cell.failed")
        assert failed["signal"] == "SIGKILL"

    def test_failures_rows_shape(self, tmp_path):
        clock = [0.0]
        c = make_controller(tmp_path, max_retries=2, backoff_s=8.0,
                            clock=lambda: clock[0])
        _submit(c, n=2)
        c.lease("w1")
        c.report("w1", "cell0", ok=False,
                 error="worker killed by SIGSEGV")
        rows = c.failures()
        assert len(rows) == 1  # cell1 never failed: not a row
        row = rows[0]
        assert row["label"] == "cell0"
        assert row["state"] == "delayed"
        assert row["attempts"] == 1 and row["max_retries"] == 2
        assert row["last_signal"] == "SIGSEGV"
        assert row["backoff_in_s"] == pytest.approx(8.0)

    def test_clean_run_has_no_failure_rows(self, tmp_path):
        c = make_controller(tmp_path)
        _submit(c)
        assert c.failures() == []

    def test_metrics_view_schema(self, tmp_path):
        c = make_controller(tmp_path)
        view = c.metrics_view()
        assert view["obs_schema"] == OBS_SCHEMA
        assert view["uptime_s"] >= 0
        assert set(view) >= {"schema", "metrics", "events", "failures"}


@pytest.fixture
def fleet(tmp_path):
    """In-process fleet server with fault-friendly knobs; yields
    ``(url, root)``."""
    root = tmp_path / "fleet"
    server = make_fleet_server(
        root, port=0, lease_ttl_s=5.0, backoff_s=0.05, max_retries=1,
        registry=TEST_REGISTRY, log=_quiet,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", root
    finally:
        server.shutdown()
        thread.join(5.0)
        server.server_close()


class TestMetricsEndpoint:
    def test_http_scrape(self, fleet):
        url, _root = fleet
        client = FleetClient(url)
        client.submit_grid(
            [spec_to_wire(RunSpec("quick", {"x": 1}, 0, "only"))]
        )
        client.lease("w1")
        view = client.metrics()
        counters = view["metrics"]["counters"]
        assert counters["fleet.grids_submitted"] == 1
        assert counters["fleet.leases_granted"] == 1
        assert counters["http.requests{POST /v1/grid}"] == 1
        assert counters["http.requests{POST /v1/lease}"] == 1
        hists = view["metrics"]["histograms"]
        assert hists["http.latency_s{POST /v1/lease}"]["count"] == 1

    def test_scrape_counters_monotonic(self, fleet):
        url, _root = fleet
        client = FleetClient(url)
        client.metrics()  # prime the scrape's own counter
        first = client.metrics()["metrics"]["counters"]
        client.health()
        second = client.metrics()["metrics"]["counters"]
        for name, value in first.items():
            assert second.get(name, 0) >= value, name
        assert second["http.requests{GET /metrics}"] > \
            first["http.requests{GET /metrics}"]


class TestFailureDashboardEndToEnd:
    def test_sigkilled_cells_surface_in_fleet_status_failures(
            self, fleet, monkeypatch, capsys):
        """Fault injection end to end: every cell process SIGKILLs
        itself mid-run (REPRO_HARNESS_KILL_AT), the retry budget burns
        out, and the CLI dashboard names the cell, its attempts, and
        the signal."""
        url, root = fleet
        client = FleetClient(url)
        client.submit_grid(
            [spec_to_wire(RunSpec("quick", {"x": 1}, 0, "doomed"))]
        )
        # forked cell processes inherit the env: every attempt dies
        monkeypatch.setenv("REPRO_HARNESS_KILL_AT", "row:1")
        worker = FleetWorker(url, root, name="w1", slots=1,
                             registry=TEST_REGISTRY, log=_quiet)
        result = worker.run()
        assert result["failed"] >= 1

        status = client.status()
        assert status["complete"]
        assert "doomed" in status["failed"]

        # worker-side instrumentation saw the signal too
        assert worker.metrics.counter("worker.cells_failed").value >= 1
        failed_evt = worker.events.last("cell.failed")
        assert failed_evt["signal"] == "SIGKILL"

        assert main(["fleet", "status", url, "--failures"]) == 0
        out = capsys.readouterr().out
        assert "doomed" in out
        assert "SIGKILL" in out
        assert "failed" in out
        assert "2/2" in out  # 1 first run + max_retries=1, all burned

    def test_failures_flag_all_clear(self, fleet, capsys):
        url, _root = fleet
        assert main(["fleet", "status", url, "--failures"]) == 0
        assert "no failures" in capsys.readouterr().out
