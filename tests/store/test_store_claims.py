"""Cross-process single-flight for :meth:`ArtifactStore.get_or_compute`:
one process per key computes while the rest wait-and-poll, crashed
leaders' claims go stale and are taken over, and followers surface the
leader's published bytes."""

import multiprocessing
import os
import threading
import time

from repro.store.db import ArtifactStore

KEY = "f" * 64


# Must be importable by worker processes (fork or spawn).
def _racing_proc(db_path, log_path, queue):
    with ArtifactStore(db_path, claim_poll_s=0.01) as store:
        def compute():
            # O_APPEND makes concurrent one-line writes atomic enough
            with open(log_path, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            time.sleep(0.3)  # long enough that the others must wait
            return b"computed-bytes"

        payload, _hit = store.get_or_compute(KEY, compute, kind="bound")
        queue.put(bytes(payload))


def _opening_proc(root, rounds, barrier, queue):
    """Open a fresh store file each round, in step with the other
    processes; report the opens that raised."""
    failed = []
    for r in range(rounds):
        barrier.wait(30)
        try:
            ArtifactStore(os.path.join(root, f"fresh{r}.db")).close()
        except Exception as exc:  # any failure is reported to the parent
            failed.append(f"round {r}: {exc!r}")
    queue.put(failed)


class TestConcurrentFirstOpen:
    def test_processes_opening_one_fresh_file_all_succeed(self, tmp_path):
        """Several ``repro serve`` or ``repro cache`` processes started
        on one new path race to open (and so create) the same store
        file; every open succeeds."""
        nprocs, rounds = 4, 30
        ctx = multiprocessing.get_context("fork")
        barrier, queue = ctx.Barrier(nprocs), ctx.Queue()
        procs = [
            ctx.Process(
                target=_opening_proc,
                args=(str(tmp_path), rounds, barrier, queue),
            )
            for _ in range(nprocs)
        ]
        for p in procs:
            p.start()
        failed = [f for _ in procs for f in queue.get(timeout=120)]
        for p in procs:
            p.join(10.0)
        assert not any(p.is_alive() for p in procs)
        assert failed == []


class TestCrossProcessSingleFlight:
    def test_racing_processes_compute_once(self, tmp_path):
        db = str(tmp_path / "store.db")
        log = str(tmp_path / "computes.log")
        ArtifactStore(db).close()  # create the schema up front
        ctx = multiprocessing.get_context()
        queue = ctx.Queue()
        procs = [
            ctx.Process(target=_racing_proc, args=(db, log, queue))
            for _ in range(4)
        ]
        for p in procs:
            p.start()
        results = [queue.get(timeout=30) for _ in procs]
        for p in procs:
            p.join(10.0)
        assert results == [b"computed-bytes"] * 4
        with open(log) as fh:
            computes = fh.read().splitlines()
        assert len(computes) == 1  # exactly one process computed

    def test_follower_adopts_foreign_leaders_publish(self, tmp_path):
        db = tmp_path / "store.db"
        leader = ArtifactStore(db)
        follower = ArtifactStore(db, claim_poll_s=0.01)
        assert leader._try_claim(KEY)  # a live foreign claim

        def publish():
            time.sleep(0.15)
            leader.put(KEY, b"from-leader", kind="bound")
            leader._release_claim(KEY)

        thread = threading.Thread(target=publish)
        thread.start()
        calls = []
        payload, hit = follower.get_or_compute(
            KEY, lambda: calls.append(1) or b"x", kind="bound"
        )
        thread.join(5.0)
        assert payload == b"from-leader" and hit is True
        assert calls == []  # the follower never computed
        assert follower.counters["cross_flights"] == 1
        leader.close()
        follower.close()

    def test_stale_claim_of_crashed_leader_is_taken_over(self, tmp_path):
        db = tmp_path / "store.db"
        crashed = ArtifactStore(db)
        assert crashed._try_claim(KEY)
        crashed.close()  # "dies" without releasing the claim
        survivor = ArtifactStore(db, claim_ttl_s=0.05, claim_poll_s=0.01)
        time.sleep(0.1)  # let the claim go stale
        payload, hit = survivor.get_or_compute(
            KEY, lambda: b"recovered", kind="bound"
        )
        assert payload == b"recovered" and hit is False
        assert survivor.counters["claim_takeovers"] == 1
        # the takeover also released the claim when done
        assert not survivor._claim_blocks(KEY)
        survivor.close()

    def test_claim_knob_validation(self, tmp_path):
        import pytest

        with pytest.raises(ValueError, match="claim"):
            ArtifactStore(tmp_path / "s.db", claim_ttl_s=0.0)
        with pytest.raises(ValueError, match="claim"):
            ArtifactStore(tmp_path / "s.db", claim_poll_s=-1.0)


class TestClockSkewTolerance:
    """Claim timestamps are wall clock (they compare across hosts), so
    a backwards clock step can leave a claim future-dated.  A claim
    future-dated beyond the TTL must be treated as abandoned — never as
    immortal."""

    def _plant_claim(self, store, acquired_s):
        conn = store._conn()
        conn.execute(
            "INSERT INTO claims (key, owner, acquired_s) VALUES (?, ?, ?)",
            (KEY, "time-traveler", acquired_s),
        )
        conn.commit()

    def test_future_dated_claim_is_taken_over_and_counted(self, tmp_path):
        store = ArtifactStore(tmp_path / "s.db", claim_ttl_s=1.0,
                              claim_poll_s=0.01)
        self._plant_claim(store, time.time() + 3600.0)  # far future
        payload, hit = store.get_or_compute(
            KEY, lambda: b"recovered", kind="bound"
        )
        assert payload == b"recovered" and hit is False
        assert store.counters["claim_takeovers"] == 1
        assert store.counters["claim_skew_takeovers"] == 1
        store.close()

    def test_slightly_future_claim_within_ttl_still_blocks(self, tmp_path):
        """Skew tolerance is the TTL itself: a claim a fraction of the
        TTL in the future (small skew between healthy hosts) is live,
        not a takeover target."""
        store = ArtifactStore(tmp_path / "s.db", claim_ttl_s=10.0)
        self._plant_claim(store, time.time() + 2.0)
        assert store._claim_blocks(KEY)
        assert not store._try_claim(KEY)
        assert store.counters["claim_skew_takeovers"] == 0
        store.close()

    def test_claim_state_classification(self, tmp_path):
        store = ArtifactStore(tmp_path / "s.db", claim_ttl_s=10.0)
        now = 1000.0
        assert store._claim_state(now, now) == "live"
        assert store._claim_state(now - 5.0, now) == "live"
        assert store._claim_state(now - 10.0, now) == "stale"
        assert store._claim_state(now + 5.0, now) == "live"  # small skew
        assert store._claim_state(now + 10.1, now) == "skewed"
        store.close()

    def test_takeover_emits_event_with_state(self, tmp_path):
        from repro.obs import EventRing, MetricsRegistry

        store = ArtifactStore(tmp_path / "s.db", claim_ttl_s=1.0,
                              claim_poll_s=0.01)
        store.bind_obs(MetricsRegistry(), EventRing())
        self._plant_claim(store, time.time() + 3600.0)
        store.get_or_compute(KEY, lambda: b"x", kind="bound")
        event = store.events.last("store.claim_takeover")
        assert event["state"] == "skewed"
        assert event["previous_owner"] == "time-traveler"
        snap = store.metrics.snapshot()["counters"]
        assert snap["store.claim_skew_takeovers"] == 1
        store.close()
