"""``run_grid(..., jobs=N)``: parallel per-cell worker processes are
byte-identical to the sequential sweep, isolate crashes, and enforce
per-cell timeouts with resumable partials."""

import json
import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest

from repro.evaluation.harness import (
    ExperimentDef,
    RunSpec,
    describe_worker_exit,
    plan_resume,
    run_grid,
    scan_results_root,
    smoke_grid,
)

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


# Worker targets must be importable from the module under fork/spawn.
def _run_sleepy(params, seed):
    time.sleep(float(params.get("sleep_s", 60.0)))
    return [{"x": 1}]


def _run_quick(params, seed):
    return [{"x": int(params.get("x", 2)), "seed": seed}]


def _run_crashy(params, seed):
    raise RuntimeError("worker goes down")


def _run_selfkill(params, seed):
    os.kill(os.getpid(), signal.SIGKILL)


TEST_REGISTRY = {
    "sleepy": ExperimentDef("sleepy", _run_sleepy, {"sleep_s": 60.0}),
    "quick": ExperimentDef("quick", _run_quick, {"x": 2}),
    "crashy": ExperimentDef("crashy", _run_crashy, {}),
    "selfkill": ExperimentDef("selfkill", _run_selfkill, {}),
}


def test_jobs_validation():
    with pytest.raises(ValueError, match="jobs"):
        run_grid([], "unused", jobs=0)
    with pytest.raises(ValueError, match="cell_timeout"):
        run_grid([], "unused", jobs=2, cell_timeout=0.0)


def test_parallel_matches_sequential_byte_for_byte(tmp_path):
    specs = smoke_grid(seed=0)
    seq = run_grid(specs, tmp_path / "seq", log=lambda m: None)
    par = run_grid(specs, tmp_path / "par", jobs=3, log=lambda m: None)
    assert not par.failed
    assert sorted(par.executed) == sorted(seq.executed)
    assert _cell_bytes(tmp_path / "par") == _cell_bytes(tmp_path / "seq")


def test_timeout_terminates_cell_and_leaves_resumable_partial(tmp_path):
    specs = [
        RunSpec("sleepy", {"sleep_s": 60.0}, 0, "sleepy"),
        RunSpec("quick", {"x": 2}, 0, "quick"),
    ]
    result = run_grid(specs, tmp_path, registry=TEST_REGISTRY, jobs=2,
                      cell_timeout=1.5, log=lambda m: None)
    assert result.executed == ["quick"]
    assert [label for label, _ in result.failed] == ["sleepy"]
    assert "timed out" in result.failed[0][1]
    # the timed-out cell is a partial -> --resume re-runs exactly it
    plan = plan_resume(specs, scan_results_root(tmp_path))
    assert plan.partial == ("sleepy",)
    assert plan.skip == ("quick",)


def test_crashing_worker_does_not_take_down_the_sweep(tmp_path):
    specs = [
        RunSpec("crashy", {}, 0, "crashy"),
        RunSpec("quick", {"x": 5}, 0, "quick"),
    ]
    result = run_grid(specs, tmp_path, registry=TEST_REGISTRY, jobs=2,
                      log=lambda m: None)
    assert result.executed == ["quick"]
    assert [label for label, _ in result.failed] == ["crashy"]
    assert "exited" in result.failed[0][1]
    # the crashed cell never committed a summary
    plan = plan_resume(specs, scan_results_root(tmp_path))
    assert plan.partial == ("crashy",)


def test_sequential_jobs1_still_raises(tmp_path):
    """Under jobs=1 cell errors propagate to the caller, unchanged."""
    specs = [RunSpec("crashy", {}, 0, "crashy")]
    with pytest.raises(RuntimeError, match="worker goes down"):
        run_grid(specs, tmp_path, registry=TEST_REGISTRY, log=lambda m: None)


def test_describe_worker_exit_names_signals():
    assert describe_worker_exit(-signal.SIGKILL) == "worker killed by SIGKILL"
    assert describe_worker_exit(-signal.SIGTERM) == "worker killed by SIGTERM"
    assert describe_worker_exit(1) == "worker exited with code 1"
    assert describe_worker_exit(None) == "worker exited with code None"


def test_signal_killed_cell_is_reported_by_signal_name(tmp_path):
    specs = [
        RunSpec("selfkill", {}, 0, "boom"),
        RunSpec("quick", {"x": 2}, 0, "quick"),
    ]
    result = run_grid(specs, tmp_path, registry=TEST_REGISTRY, jobs=2,
                      log=lambda m: None)
    assert result.executed == ["quick"]
    assert result.failed == [("boom", "worker killed by SIGKILL")]


def test_interrupted_schedule_loop_reaps_every_worker(tmp_path):
    """A KeyboardInterrupt (or any exception) escaping the scheduling
    loop must not orphan live cell processes: they are terminated and
    joined on the way out, leaving quiescent partials for --resume."""
    specs = [
        RunSpec("sleepy", {"sleep_s": 60.0}, 0, f"sleepy{i}")
        for i in range(2)
    ]
    scheduled = []

    def exploding_log(msg):
        if msg.lstrip().startswith("["):
            scheduled.append(msg)
            if len(scheduled) == 2:  # both cells are running now
                raise KeyboardInterrupt

    before = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_grid(specs, tmp_path, registry=TEST_REGISTRY, jobs=2,
                 log=exploding_log)
    # cleanup was prompt (termination, not waiting out the sleeps)...
    assert time.monotonic() - before < 30.0
    # ...and complete: no stray live cell processes remain
    assert all(
        not proc.is_alive() for proc in multiprocessing.active_children()
    )
    # the interrupted cells are resumable partials
    plan = plan_resume(specs, scan_results_root(tmp_path))
    assert set(plan.partial) == {"sleepy0", "sleepy1"}
