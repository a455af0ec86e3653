"""Unit tests for :class:`repro.fleet.FleetController` — queue, lease,
retry, and resume logic, exercised directly (no HTTP, no processes)."""

import time

import pytest

from repro.evaluation.harness import ExperimentDef, RunSpec, run_grid
from repro.fleet.controller import (
    FleetController,
    spec_from_wire,
    spec_to_wire,
)


def _run_quick(params, seed):
    return [{"x": int(params.get("x", 2)), "seed": seed}]


TEST_REGISTRY = {"quick": ExperimentDef("quick", _run_quick, {"x": 2})}


def _specs(n):
    return [RunSpec("quick", {"x": i}, 0, f"cell{i}") for i in range(n)]


def _wire(specs):
    return [spec_to_wire(s) for s in specs]


def make_controller(root, **kw):
    kw.setdefault("registry", TEST_REGISTRY)
    kw.setdefault("log", lambda m: None)
    return FleetController(root, **kw)


def _commit(specs, root):
    """Actually execute cells into ``root`` (the real commit protocol,
    so the controller's done-verification passes)."""
    run_grid(specs, root, registry=TEST_REGISTRY, log=lambda m: None)


class TestWire:
    def test_spec_roundtrip_preserves_hash(self):
        spec = RunSpec("quick", {"b": 2, "a": [1, 2]}, 7, "lbl")
        back = spec_from_wire(spec_to_wire(spec))
        assert back == spec and back.hash() == spec.hash()


class TestSubmit:
    def test_rejects_empty_unknown_and_duplicates(self, tmp_path):
        ctl = make_controller(tmp_path)
        with pytest.raises(ValueError, match="at least one"):
            ctl.submit_grid([])
        with pytest.raises(ValueError, match="unknown experiment"):
            ctl.submit_grid(
                [{"experiment": "nope", "params": {}, "label": "x"}]
            )
        cells = _wire(_specs(1))
        with pytest.raises(ValueError, match="duplicate"):
            ctl.submit_grid(cells + cells)

    def test_rejects_second_grid_while_active(self, tmp_path):
        ctl = make_controller(tmp_path)
        ctl.submit_grid(_wire(_specs(1)))
        with pytest.raises(ValueError, match="already active"):
            ctl.submit_grid(_wire(_specs(1)))

    def test_resume_skips_committed_cells(self, tmp_path):
        specs = _specs(3)
        _commit(specs[:2], tmp_path)
        ctl = make_controller(tmp_path)
        out = ctl.submit_grid(_wire(specs))
        assert out == {"queued": 1, "skipped": 2, "stale": 0, "partial": 0}
        resp = ctl.lease("w1")
        assert resp["cell"]["label"] == "cell2"


class TestLeaseAndReport:
    def test_verified_done_and_unverified_requeue(self, tmp_path):
        specs = _specs(2)
        ctl = make_controller(tmp_path, backoff_s=0.01)
        ctl.submit_grid(_wire(specs))
        lease = ctl.lease("w1")
        label = lease["cell"]["label"]
        # done-report without a committed summary -> treated as failure
        assert ctl.report("w1", label, ok=True)["accepted"]
        assert label not in ctl.status()["done"]
        # the real thing: execute the cell, then report
        time.sleep(0.03)
        lease = ctl.lease("w1")
        assert lease["cell"]["label"] == "cell1"
        _commit([specs[1]], tmp_path)
        assert ctl.report("w1", "cell1", ok=True)["accepted"]
        assert "cell1" in ctl.status()["done"]

    def test_report_requires_the_lease(self, tmp_path):
        ctl = make_controller(tmp_path)
        ctl.submit_grid(_wire(_specs(1)))
        ctl.lease("w1")
        out = ctl.report("intruder", "cell0", ok=True)
        assert out["accepted"] is False and "lease" in out["reason"]

    def test_slot_cap_is_enforced(self, tmp_path):
        ctl = make_controller(tmp_path)
        ctl.register("w1", slots=1)
        ctl.submit_grid(_wire(_specs(2)))
        assert ctl.lease("w1")["cell"] is not None
        denied = ctl.lease("w1")
        assert denied["cell"] is None and "capacity" in denied["reason"]
        # a second worker still gets the other cell
        assert ctl.lease("w2")["cell"] is not None

    def test_failure_backs_off_exponentially_then_fails(self, tmp_path):
        ctl = make_controller(tmp_path, backoff_s=0.02, max_retries=2)
        ctl.submit_grid(_wire(_specs(1)))
        for expected_delay in (0.02, 0.04):
            label = ctl.lease("w1")["cell"]["label"]
            ctl.report("w1", label, ok=False, error="boom")
            status = ctl.status()
            (entry,) = status["delayed"]
            assert entry["eligible_in_s"] <= expected_delay
            assert ctl.lease("w1")["cell"] is None  # still backing off
            time.sleep(expected_delay + 0.02)
        label = ctl.lease("w1")["cell"]["label"]
        ctl.report("w1", label, ok=False, error="boom")
        status = ctl.status()
        assert status["complete"] is True
        assert "boom" in status["failed"]["cell0"]


class TestLeaseExpiry:
    def test_expired_lease_requeues_for_another_worker(self, tmp_path):
        ctl = make_controller(tmp_path, lease_ttl_s=0.05, backoff_s=0.01)
        ctl.submit_grid(_wire(_specs(1)))
        assert ctl.lease("w1")["cell"]["label"] == "cell0"
        time.sleep(0.1)
        # w1's heartbeat now reports the cell as lost...
        assert ctl.heartbeat("w1", ["cell0"])["lost"] == ["cell0"]
        # ...and, once the re-queue backoff elapses, another worker
        # picks it up (attempt bumped)
        time.sleep(0.03)
        lease = ctl.lease("w2")
        assert lease["cell"]["label"] == "cell0" and lease["attempt"] == 1
        # the dead worker's late report is acknowledged without effect
        assert ctl.report("w1", "cell0", ok=True)["accepted"] is False

    def test_heartbeat_extends_the_lease(self, tmp_path):
        ctl = make_controller(tmp_path, lease_ttl_s=0.15)
        ctl.submit_grid(_wire(_specs(1)))
        ctl.lease("w1")
        deadline = time.monotonic() + 0.4
        while time.monotonic() < deadline:
            assert ctl.heartbeat("w1", ["cell0"])["lost"] == []
            time.sleep(0.03)
        assert ctl.status()["leases"][0]["worker"] == "w1"


class TestIntrospection:
    def test_health_and_status_shapes(self, tmp_path):
        ctl = make_controller(tmp_path)
        health = ctl.health()
        assert health["status"] == "ok" and health["complete"] is False
        ctl.register("w1", slots=2)
        ctl.submit_grid(_wire(_specs(2)))
        status = ctl.status()
        assert status["cells"]["pending"] == 2
        assert status["workers"][0]["slots"] == 2
        assert status["pending"] == ["cell0", "cell1"]

    @pytest.mark.parametrize(
        "label", ["../c0", "/tmp/c0", "a/b", "..", ".", "a\\b", "a\0b"]
    )
    def test_grid_rejects_labels_that_are_not_plain_names(self, tmp_path,
                                                          label):
        """A worker wipes and writes ``root / label``: a label with a
        path separator, or an absolute one, would escape the root."""
        ctl = make_controller(tmp_path)
        cells = [{"experiment": "quick", "label": "ok"},
                 {"experiment": "quick", "label": label}]
        status, body = ctl.handle("POST", "/v1/grid", {"cells": cells})
        assert status == 400
        assert repr(label) in body["error"]
        assert ctl.status()["pending"] == []
        assert ctl.lease("w1")["cell"] is None

    def test_http_dispatch_maps_errors(self, tmp_path):
        ctl = make_controller(tmp_path)
        assert ctl.handle("GET", "/nope", None)[0] == 404
        status, body = ctl.handle("POST", "/v1/grid", {"cells": "x"})
        assert status == 400 and "cells" in body["error"]
        status, body = ctl.handle("POST", "/v1/lease", {})
        assert status == 400
        assert ctl.handle("GET", "/health", None)[0] == 200

    @pytest.mark.parametrize("slots", [float("inf"), "x", 2**63])
    def test_register_slots_is_a_checked_number_field(self, tmp_path,
                                                       slots):
        ctl = make_controller(tmp_path)
        status, body = ctl.handle(
            "POST", "/v1/register", {"worker": "w", "slots": slots}
        )
        assert status == 400
        assert "'slots'" in body["error"]
        assert ctl.status()["workers"] == []
