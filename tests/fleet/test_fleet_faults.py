"""Fleet fault injection: SIGKILLed workers, dropped heartbeats, and a
SIGKILLed controller mid-grid — the sweep survives all three, committed
cells never re-execute, and the final store is byte-identical to an
uninterrupted sequential sweep."""

import json
import os
import signal
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.evaluation.harness import (
    ExperimentDef,
    RunSpec,
    _mp_context,
    run_grid,
)
from repro.fleet import FleetClient, FleetWorker, fleet_sweep, serve_fleet
from repro.fleet.controller import spec_to_wire

ARTIFACTS = ("manifest.json", "metrics.jsonl", "summary.json")


def _cell_bytes(root):
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


# Worker/cell targets must be importable from the module under fork.
def _run_quick(params, seed):
    return [{"x": int(params.get("x", 2)), "seed": seed}]


def _run_first_run_hangs(params, seed):
    """Hangs (until killed) the first time it runs, instant afterwards:
    the flag file marks that a first execution started."""
    flag = params["flag"]
    if not os.path.exists(flag):
        Path(flag).touch()
        time.sleep(120.0)
    return [{"ok": 1, "seed": seed}]


def _run_gated(params, seed):
    """Blocks until the gate file exists (lets a test freeze a cell
    mid-execution deterministically)."""
    deadline = time.time() + 60.0
    while not os.path.exists(params["gate"]):
        if time.time() > deadline:  # pragma: no cover - hung test guard
            raise RuntimeError("gate never opened")
        time.sleep(0.02)
    return [{"ok": 1, "seed": seed}]


FAULT_REGISTRY = {
    "quick": ExperimentDef("quick", _run_quick, {"x": 2}),
    "first_run_hangs": ExperimentDef(
        "first_run_hangs", _run_first_run_hangs, {"flag": ""}
    ),
    "gated": ExperimentDef("gated", _run_gated, {"gate": ""}),
}


def _quiet(msg):
    pass


def _worker_proc_main(url, root, name):
    """Entry point for a worker process that a test will SIGKILL.  The
    new session puts the worker and its cell subprocesses in one process
    group, so killing the group models a machine dying mid-cell."""
    os.setsid()
    FleetWorker(
        url, root, name=name, slots=1, registry=FAULT_REGISTRY, log=_quiet
    ).run()


def _controller_proc_main(root, port):
    serve_fleet(
        root,
        port=port,
        lease_ttl_s=0.4,
        backoff_s=0.05,
        registry=FAULT_REGISTRY,
        log=_quiet,
    )


def _free_port():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def _wait(predicate, timeout_s=30.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval_s)
    raise AssertionError("condition not reached in time")


@pytest.fixture
def fault_fleet(tmp_path):
    """In-process controller with fault-friendly knobs (short TTL, short
    backoff, FAULT_REGISTRY); yields ``(url, root)``."""
    from repro.fleet import make_fleet_server

    root = tmp_path / "fleet"
    server = make_fleet_server(
        root, port=0, lease_ttl_s=0.4, backoff_s=0.05,
        registry=FAULT_REGISTRY, log=_quiet,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", root
    finally:
        server.shutdown()
        thread.join(5.0)
        server.server_close()


def test_sigkilled_worker_mid_cell_is_replaced(fault_fleet, tmp_path):
    """Kill a worker's whole process group while it executes a cell:
    the lease expires, the cell re-queues, and a healthy worker finishes
    the grid.  Final bytes match an uninterrupted sequential run."""
    url, root = fault_fleet
    flag = tmp_path / "started.flag"
    specs = [
        RunSpec("first_run_hangs", {"flag": str(flag)}, 0, "hangs"),
        RunSpec("quick", {"x": 3}, 0, "quick"),
    ]
    client = FleetClient(url)
    client.submit_grid([spec_to_wire(s) for s in specs])

    ctx = _mp_context()
    victim = ctx.Process(
        target=_worker_proc_main, args=(url, str(root), "victim")
    )
    victim.start()
    # wait until the victim is actually mid-cell on the hanging one
    _wait(flag.exists)
    _wait(lambda: any(
        lease["label"] == "hangs" for lease in client.status()["leases"]
    ))
    os.killpg(victim.pid, signal.SIGKILL)
    victim.join(10.0)
    assert victim.exitcode == -signal.SIGKILL

    status_mid = client.status()
    assert not status_mid["complete"]

    rescuer = FleetWorker(url, root, name="rescuer", slots=1,
                          registry=FAULT_REGISTRY, log=_quiet)
    result = rescuer.run()
    final = client.status()
    assert final["complete"] and not final["failed"]
    assert sorted(final["done"]) == ["hangs", "quick"]
    assert result["executed"] >= 1

    # reference: uninterrupted sequential run (flag exists, so the
    # flaky cell takes its instant path — same rows either way)
    ref = run_grid(specs, tmp_path / "ref", registry=FAULT_REGISTRY,
                   log=_quiet)
    assert not ref.failed
    assert _cell_bytes(root) == _cell_bytes(tmp_path / "ref")


def test_dropped_heartbeats_forfeit_the_lease(fault_fleet):
    """A worker that leases a cell and never heartbeats loses it after
    the TTL; its eventual report is acknowledged without effect."""
    url, _root = fault_fleet
    client = FleetClient(url)
    client.submit_grid(
        [spec_to_wire(RunSpec("quick", {"x": 1}, 0, "only"))]
    )
    zombie = FleetClient(url)
    zombie.register("zombie", slots=1)
    assert zombie.lease("zombie")["cell"]["label"] == "only"
    time.sleep(0.6)  # > lease_ttl_s, no heartbeat
    assert zombie.heartbeat("zombie", ["only"])["lost"] == ["only"]
    _wait(lambda: client.status()["cells"]["pending"] == 1)
    lease = client.lease("fresh-worker")
    assert lease["cell"]["label"] == "only" and lease["attempt"] == 1
    assert zombie.report("zombie", "only", ok=True)["accepted"] is False


def test_sigkilled_controller_restart_resumes_without_recompute(tmp_path):
    """SIGKILL the controller process mid-grid (cells committed, one
    leased and mid-execution), restart a fresh controller over the same
    results root, resubmit: committed cells are skipped untouched, the
    in-flight cell re-runs, and the final store is byte-identical to an
    uninterrupted sequential sweep."""
    root = tmp_path / "fleet"
    gate = tmp_path / "open.gate"
    specs = [
        RunSpec("quick", {"x": 1}, 0, "quick1"),
        RunSpec("quick", {"x": 2}, 0, "quick2"),
        RunSpec("gated", {"gate": str(gate)}, 0, "gated"),
    ]
    ctx = _mp_context()

    port = _free_port()
    controller = ctx.Process(target=_controller_proc_main,
                             args=(str(root), port))
    controller.start()
    url = f"http://127.0.0.1:{port}"
    client = FleetClient(url, retries=20, backoff_s=0.05)
    _wait(lambda: client.health()["status"] == "ok")
    client.submit_grid([spec_to_wire(s) for s in specs])

    # worker with a fail-fast client so it exits soon after the kill
    worker_exc = []

    def run_worker():
        try:
            FleetWorker(
                url, root, name="w1", slots=1, registry=FAULT_REGISTRY,
                client=FleetClient(url, retries=1, backoff_s=0.02),
                log=_quiet,
            ).run()
        except Exception as exc:  # the controller died under it
            worker_exc.append(exc)

    worker = threading.Thread(target=run_worker, daemon=True)
    worker.start()

    # grid order: both quick cells commit, then the gated cell blocks
    # mid-execution -> SIGKILL the controller exactly there
    _wait(lambda: sorted(client.status()["done"]) == ["quick1", "quick2"]
          and client.status()["cells"]["leased"] == 1)
    os.kill(controller.pid, signal.SIGKILL)
    controller.join(10.0)
    assert controller.exitcode == -signal.SIGKILL
    worker.join(30.0)
    assert not worker.is_alive()

    committed = {
        label: (root / label / "summary.json").stat().st_mtime_ns
        for label in ("quick1", "quick2")
    }

    # restart: fresh controller process, same results root
    gate.touch()  # un-freeze the gated experiment for the re-run
    port2 = _free_port()
    controller2 = ctx.Process(target=_controller_proc_main,
                              args=(str(root), port2))
    controller2.start()
    url2 = f"http://127.0.0.1:{port2}"
    client2 = FleetClient(url2, retries=20, backoff_s=0.05)
    _wait(lambda: client2.health()["status"] == "ok")

    rescue = threading.Thread(
        target=lambda: FleetWorker(
            url2, root, name="w2", slots=1, registry=FAULT_REGISTRY,
            log=_quiet,
        ).run(),
        daemon=True,
    )
    rescue.start()
    status = fleet_sweep(url2, specs, poll_s=0.1, timeout_s=60, log=_quiet)
    rescue.join(30.0)
    try:
        assert status["complete"] and not status["failed"]
        assert sorted(status["skipped"]) == ["quick1", "quick2"]
        assert status["done"] == ["gated"]
        # the committed cells were never touched, let alone re-executed
        for label, mtime_ns in committed.items():
            assert (
                root / label / "summary.json"
            ).stat().st_mtime_ns == mtime_ns
        ref = run_grid(specs, tmp_path / "ref", registry=FAULT_REGISTRY,
                       log=_quiet)
        assert not ref.failed
        assert _cell_bytes(root) == _cell_bytes(tmp_path / "ref")
    finally:
        os.kill(controller2.pid, signal.SIGTERM)
        controller2.join(10.0)
        if controller2.is_alive():  # pragma: no cover - stuck server
            controller2.kill()
            controller2.join()


def test_crashing_cell_exhausts_retries_and_fails_the_cell(fault_fleet):
    """A cell whose process dies by signal is retried with backoff and
    eventually marked failed, naming the signal; the rest of the grid
    still completes."""
    url, root = fault_fleet
    specs = [
        RunSpec("first_run_hangs", {"flag": "/nonexistent/dir/x"}, 0, "bad"),
        RunSpec("quick", {"x": 5}, 0, "good"),
    ]
    # os.path.exists on an unreadable path is False -> touch() raises ->
    # the cell process exits nonzero every attempt
    client = FleetClient(url)
    client.submit_grid([spec_to_wire(s) for s in specs])
    worker = FleetWorker(url, root, name="w1", slots=1,
                         registry=FAULT_REGISTRY, log=_quiet)
    result = worker.run()
    status = client.status()
    assert status["complete"]
    assert status["done"] == ["good"]
    assert "bad" in status["failed"]
    assert "exited with code" in status["failed"]["bad"]
    assert result["failed"] >= 1
