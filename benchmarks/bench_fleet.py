"""Fleet-layer benchmarks: controller HTTP latencies and end-to-end
two-worker sweep throughput.

Three measurements back the fleet's operational story
(``docs/fleet.md``):

* **lease round-trip** — ``POST /v1/lease`` against an idle controller
  (the no-work fast path every polling worker hits between grids);
* **status round-trip** — ``GET /status`` (what ``fleet status`` and
  ``sweep --fleet`` polling pay per tick);
* **metrics scrape** — ``GET /metrics`` (the observability snapshot +
  event ring + failure rows; what a monitoring poller pays per scrape);
* **two-worker sweep** — a grid of trivial cells through a localhost
  controller + two polling workers: per-cell wall clock including
  lease/heartbeat/report traffic and per-cell process spawn.  This is
  the fleet's *overhead* benchmark — real cells dominate it in
  practice, so the number is the floor, not the story.

Entries land under ``fleet/`` in ``BENCH_core.json`` (guarded by
``benchmarks/check_bench.py``).  Sizes are identical in smoke and full
mode — the fleet path is cheap enough that the guard can always compare
like against like; smoke mode only trims repetition counts.
"""

import threading
import time

import numpy as np
import pytest

from conftest import smoke_mode

from repro.evaluation.harness import ExperimentDef, RunSpec
from repro.fleet import FleetClient, FleetWorker, fleet_sweep, make_fleet_server

CELLS = 8
WORKERS = 2


# Cell targets must be importable in worker subprocesses (fork/spawn).
def _run_quick(params, seed):
    return [{"x": int(params.get("x", 1)), "seed": seed}]


BENCH_REGISTRY = {"quick": ExperimentDef("quick", _run_quick, {"x": 1})}


@pytest.fixture
def fleet(tmp_path):
    server = make_fleet_server(
        tmp_path / "fleet", port=0, lease_ttl_s=10.0, poll_s=0.02,
        registry=BENCH_REGISTRY, log=lambda m: None,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", tmp_path / "fleet"
    finally:
        server.shutdown()
        thread.join(5.0)
        server.server_close()


def _percentiles(lat):
    return float(np.percentile(lat, 50)), float(np.percentile(lat, 99))


def test_http_lease_and_status_latency(fleet, bench_record, report_emitter):
    url, _root = fleet
    client = FleetClient(url)
    client.register("bench-worker", slots=1)
    n = 10 if smoke_mode() else 50
    lease_lat, status_lat = [], []
    for _ in range(n):
        t0 = time.perf_counter_ns()
        assert client.lease("bench-worker")["cell"] is None
        lease_lat.append(time.perf_counter_ns() - t0)
        t0 = time.perf_counter_ns()
        client.status()
        status_lat.append(time.perf_counter_ns() - t0)
    lease_p50, lease_p99 = _percentiles(lease_lat)
    status_p50, status_p99 = _percentiles(status_lat)
    bench_record("fleet/http_lease_idle", ns_per_op=lease_p50,
                 p99_ns=lease_p99, requests=n)
    bench_record("fleet/http_status", ns_per_op=status_p50,
                 p99_ns=status_p99, requests=n)
    report_emitter(
        "Fleet controller HTTP latency (idle queue)\n"
        f"  lease  p50 : {lease_p50 / 1e6:7.3f} ms   "
        f"p99 : {lease_p99 / 1e6:7.3f} ms\n"
        f"  status p50 : {status_p50 / 1e6:7.3f} ms   "
        f"p99 : {status_p99 / 1e6:7.3f} ms"
    )


def test_http_metrics_scrape_latency(fleet, bench_record, report_emitter):
    """``GET /metrics`` round-trip against a controller with a scrape's
    worth of traffic behind it (counters + histograms + event ring +
    failure rows all serialize per request)."""
    url, _root = fleet
    client = FleetClient(url)
    client.register("bench-worker", slots=1)
    for _ in range(20):  # populate counters/histograms/events
        client.lease("bench-worker")
    n = 10 if smoke_mode() else 50
    lat = []
    for _ in range(n):
        t0 = time.perf_counter_ns()
        view = client.metrics()
        lat.append(time.perf_counter_ns() - t0)
    assert view["metrics"]["counters"]["http.requests{POST /v1/lease}"] >= 20
    p50, p99 = _percentiles(lat)
    bench_record("fleet/metrics_scrape", ns_per_op=p50, p99_ns=p99,
                 requests=n)
    report_emitter(
        "Fleet controller GET /metrics scrape\n"
        f"  p50 : {p50 / 1e6:7.3f} ms   p99 : {p99 / 1e6:7.3f} ms"
    )


def test_two_worker_sweep_overhead(fleet, bench_record, report_emitter):
    """A grid of trivial cells through controller + 2 workers: the
    per-cell fleet overhead (scheduling traffic + process spawn)."""
    url, root = fleet
    specs = [
        RunSpec("quick", {"x": i + 1}, 0, f"cell{i:02d}") for i in range(CELLS)
    ]
    results = []

    def run_worker(i):
        worker = FleetWorker(
            url, root, name=f"bench-w{i}", slots=1,
            registry=BENCH_REGISTRY, log=lambda m: None,
        )
        results.append(worker.run())

    threads = [
        threading.Thread(target=run_worker, args=(i,), daemon=True)
        for i in range(WORKERS)
    ]
    t0 = time.perf_counter_ns()
    for t in threads:
        t.start()
    status = fleet_sweep(url, specs, poll_s=0.05, timeout_s=300,
                         log=lambda m: None)
    elapsed_ns = time.perf_counter_ns() - t0
    for t in threads:
        t.join(30.0)
    assert status["complete"] and not status["failed"]
    assert sum(r["executed"] for r in results) == CELLS
    per_cell = elapsed_ns / CELLS
    bench_record(f"fleet/sweep_{WORKERS}x1_quick{CELLS}",
                 ns_per_op=per_cell, cells=CELLS, workers=WORKERS,
                 total_ns=elapsed_ns)
    report_emitter(
        f"Two-worker fleet sweep, {CELLS} trivial cells\n"
        f"  total    : {elapsed_ns / 1e9:7.3f} s\n"
        f"  per cell : {per_cell / 1e6:7.3f} ms (scheduling + spawn "
        "overhead floor)"
    )
