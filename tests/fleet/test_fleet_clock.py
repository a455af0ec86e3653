"""Clock-correctness regression tests for the fleet controller: every
lease/backoff/staleness interval runs on the injectable monotonic
``clock``, so tests can step time deterministically and wall-clock
jumps (NTP corrections, VM resume) can neither mass-expire leases nor
immortalize them."""

import time

import pytest

from repro.evaluation.harness import ExperimentDef, RunSpec
from repro.fleet.controller import FleetController, spec_to_wire


def _run_quick(params, seed):
    return [{"x": int(params.get("x", 2)), "seed": seed}]


TEST_REGISTRY = {"quick": ExperimentDef("quick", _run_quick, {"x": 2})}


class SteppingClock:
    """A fake monotonic clock tests advance by hand."""

    def __init__(self, start=0.0):
        self.now = float(start)

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def make_controller(root, clock, **kw):
    kw.setdefault("registry", TEST_REGISTRY)
    kw.setdefault("log", lambda m: None)
    return FleetController(root, clock=clock, **kw)


def _submit(controller, n=1):
    controller.submit_grid([
        spec_to_wire(RunSpec("quick", {"x": i + 1}, 0, f"cell{i}"))
        for i in range(n)
    ])


class TestSteppedClock:
    def test_lease_expires_exactly_past_ttl(self, tmp_path):
        clock = SteppingClock()
        c = make_controller(tmp_path, clock, lease_ttl_s=10.0)
        _submit(c)
        assert c.lease("w1")["cell"]["label"] == "cell0"

        clock.advance(9.999)  # within the TTL: still leased
        assert c.status()["cells"]["leased"] == 1

        clock.advance(0.002)  # past it: expired and re-queued
        status = c.status()
        assert status["cells"]["leased"] == 0
        assert status["cells"]["pending"] + status["cells"]["delayed"] == 1

    def test_heartbeat_renews_on_the_stepped_clock(self, tmp_path):
        clock = SteppingClock()
        c = make_controller(tmp_path, clock, lease_ttl_s=10.0)
        _submit(c)
        c.lease("w1")
        clock.advance(8.0)
        assert c.heartbeat("w1", ["cell0"])["lost"] == []
        clock.advance(8.0)  # 16s total, but renewed at 8s: still live
        assert c.status()["cells"]["leased"] == 1
        clock.advance(10.5)
        assert c.heartbeat("w1", ["cell0"])["lost"] == ["cell0"]

    def test_backoff_eligibility_steps_with_the_clock(self, tmp_path):
        clock = SteppingClock()
        c = make_controller(tmp_path, clock, lease_ttl_s=10.0,
                            backoff_s=4.0, max_retries=3)
        _submit(c)
        c.lease("w1")
        c.report("w1", "cell0", ok=False, error="boom")
        # first re-queue backs off backoff_s * 2**0 = 4s
        assert c.lease("w1")["cell"] is None
        clock.advance(3.9)
        assert c.lease("w1")["cell"] is None
        clock.advance(0.2)
        assert c.lease("w1")["cell"]["label"] == "cell0"

    def test_uptime_reports_the_injected_clock(self, tmp_path):
        clock = SteppingClock(start=100.0)
        c = make_controller(tmp_path, clock)
        clock.advance(42.0)
        assert c.health()["uptime_s"] == pytest.approx(42.0)
        assert c.status()["uptime_s"] == pytest.approx(42.0)


class TestWallClockImmunity:
    def test_wall_clock_jump_does_not_expire_leases(self, tmp_path,
                                                    monkeypatch):
        """With the default monotonic clock, a huge forward wall-clock
        step must not touch lease arithmetic (the pre-fix behavior used
        ``time.time()`` and would mass-expire here)."""
        c = make_controller(tmp_path, time.monotonic, lease_ttl_s=30.0)
        _submit(c)
        assert c.lease("w1")["cell"]["label"] == "cell0"

        monkeypatch.setattr(time, "time", lambda: time.monotonic() + 1e9)
        status = c.status()
        assert status["cells"]["leased"] == 1
        assert status["cells"]["delayed"] == 0
        lease = status["leases"][0]
        assert lease["expires_in_s"] > 0

    def test_backwards_wall_clock_does_not_immortalize_backoff(
            self, tmp_path, monkeypatch):
        """A backwards wall-clock step must not push a delayed cell's
        eligibility into the far future."""
        clock = SteppingClock()
        c = make_controller(tmp_path, clock, backoff_s=1.0)
        _submit(c)
        c.lease("w1")
        c.report("w1", "cell0", ok=False, error="boom")
        monkeypatch.setattr(time, "time", lambda: -1e9)
        clock.advance(1.1)  # past the 1s backoff on the real interval
        assert c.lease("w1")["cell"]["label"] == "cell0"
