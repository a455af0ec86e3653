"""End-to-end fleet sweeps over localhost HTTP: a controller plus two
polling workers produce results byte-identical to ``sweep --jobs 1``,
resubmission skips every committed cell, and the CLI surfaces wire the
same machinery."""

import json
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.evaluation.harness import ExperimentDef, RunSpec, run_grid, smoke_grid
from repro.fleet import FleetClient, FleetWorker, fleet_sweep, make_fleet_server
from repro.fleet.controller import spec_to_wire

ARTIFACTS = ("manifest.json", "metrics.jsonl", "summary.json")


def _cell_bytes(root):
    """Committed cell artifacts, byte for byte — except the manifest's
    ``created_utc`` wall-clock stamp, which legitimately differs between
    two otherwise-identical sweeps."""
    root = Path(root)
    out = {}
    for cell in sorted(p.name for p in root.iterdir() if p.is_dir()):
        for name in ARTIFACTS:
            raw = (root / cell / name).read_bytes()
            if name == "manifest.json":
                manifest = json.loads(raw)
                manifest.get("provenance", {}).pop("created_utc", None)
                raw = json.dumps(manifest, sort_keys=True).encode()
            out[(cell, name)] = raw
    return out


@pytest.fixture
def fleet(tmp_path):
    """A running controller over ``tmp_path / 'fleet'``; yields
    ``(url, root)``."""
    root = tmp_path / "fleet"
    server = make_fleet_server(
        root, port=0, lease_ttl_s=10.0, backoff_s=0.05, log=lambda m: None
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", root
    finally:
        server.shutdown()
        thread.join(5.0)
        server.server_close()


def _spawn_workers(url, root, n, slots=1):
    results = []

    def run(i):
        worker = FleetWorker(
            url, root, name=f"w{i}", slots=slots, log=lambda m: None
        )
        results.append(worker.run())

    threads = [
        threading.Thread(target=run, args=(i,), daemon=True)
        for i in range(n)
    ]
    for t in threads:
        t.start()
    return threads, results


def test_two_worker_fleet_matches_local_sweep(fleet, tmp_path):
    url, root = fleet
    specs = smoke_grid(seed=0)
    threads, worker_results = _spawn_workers(url, root, n=2)
    status = fleet_sweep(
        url, specs, poll_s=0.1, timeout_s=300, log=lambda m: None
    )
    for t in threads:
        t.join(30.0)
    assert status["complete"] and not status["failed"]
    assert sorted(status["done"]) == sorted(s.label for s in specs)
    # the work was actually split across both workers
    assert sum(r["executed"] for r in worker_results) == len(specs)
    assert all(r["failed"] == 0 for r in worker_results)
    # byte-identical to an uninterrupted local sequential sweep
    seq = run_grid(specs, tmp_path / "seq", log=lambda m: None)
    assert not seq.failed
    assert _cell_bytes(root) == _cell_bytes(tmp_path / "seq")

    # resubmitting the same grid is a pure resume: nothing re-executes
    # (no workers are even attached any more)
    resubmit = FleetClient(url).submit_grid(
        [
            {
                "experiment": s.experiment,
                "params": dict(s.params),
                "seed": s.seed,
                "label": s.label,
            }
            for s in specs
        ]
    )
    assert resubmit["queued"] == 0
    assert resubmit["skipped"] == len(specs)

    # ``sweep --fleet URL`` drives the same path from the CLI
    assert main(["sweep", "--grid", "smoke", "--fleet", url]) == 0

    # ``fleet status URL`` prints the controller state as JSON
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(["fleet", "status", url]) == 0
    printed = json.loads(buf.getvalue())
    assert printed["complete"] is True
    assert sorted(printed["skipped"]) == sorted(s.label for s in specs)


def test_health_endpoint(fleet):
    url, _root = fleet
    health = FleetClient(url).health()
    assert health["status"] == "ok"
    assert health["cells"]["total"] == 0
    assert health["complete"] is False  # no grid submitted yet


def _run_quick(params, seed):
    return [{"x": params["x"], "seed": seed}]


QUICK_REGISTRY = {"quick": ExperimentDef("quick", _run_quick, {"x": 1})}


def test_workers_wake_on_events_not_on_a_poll_timer(tmp_path, monkeypatch):
    """With a 30 s poll, two workers started before the grid exists pick
    it up when it is submitted, and both leave as soon as the last cell
    commits: each idle lease waits on the controller until the queue
    changes, and each worker waits on its cell's exit.  A worker that
    slept out a poll, or ticked on ``time.sleep``, would blow the
    budget."""

    def no_sleep(seconds):
        raise AssertionError(f"a worker slept {seconds}s on a timer")

    root = tmp_path / "fleet"
    server = make_fleet_server(root, port=0, lease_ttl_s=90.0, poll_s=30.0,
                               registry=QUICK_REGISTRY, log=lambda m: None)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_port}"
    results = []
    monkeypatch.setattr(time, "sleep", no_sleep)
    workers = [
        threading.Thread(
            target=lambda i=i: results.append(FleetWorker(
                url, root, name=f"w{i}", poll_s=30.0,
                registry=QUICK_REGISTRY, log=lambda m: None,
            ).run()),
            daemon=True,
        )
        for i in range(2)
    ]
    try:
        for worker in workers:
            worker.start()
        specs = [RunSpec("quick", {"x": x}, 0, f"q{x}") for x in range(1, 5)]
        start = time.monotonic()
        FleetClient(url).submit_grid([spec_to_wire(s) for s in specs])
        for worker in workers:
            worker.join(20.0)
        assert not any(worker.is_alive() for worker in workers)
        assert time.monotonic() - start < 10.0
        assert sum(r["executed"] for r in results) == len(specs)
        assert FleetClient(url).status()["complete"] is True
    finally:
        server.shutdown()
        thread.join(5.0)
        server.server_close()
