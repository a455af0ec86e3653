"""Request threads outlive their request (:class:`JsonServer`), and the
store invariant that makes this safe: no write leaves a transaction
open on its thread's connection.

* sequential warm queries reuse one or two threads, and so one or two
  SQLite connections;
* many concurrent clients under a short switch interval get correct,
  single-flight answers, and ``server_close()`` releases every thread
  the server started;
* a ``gc`` pass that fails after its first delete rolls back, so
  neither the same thread's next write nor another thread's waits out
  the busy timeout.
"""

import sqlite3
import sys
import threading
import time

import pytest

from repro.service import ServiceClient, make_server
from repro.store.db import ArtifactStore


def start(srv):
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    return thread


def stop(srv, thread):
    srv.shutdown()
    thread.join(5.0)
    srv.app.close()
    srv.server_close()
    assert not thread.is_alive()


def threads_started(srv):
    return srv.app.metrics.snapshot()["counters"]["server.threads_started"]


def test_sequential_warm_queries_reuse_threads_and_connections(
    tmp_path, monkeypatch
):
    """Each warm query finds an earlier query's thread waiting (the one
    before it may still be closing its socket), so 50 of them start at
    most a few threads and open at most a few SQLite connections."""
    srv = make_server(tmp_path / "svc.db", port=0)
    thread = start(srv)
    try:
        client = ServiceClient(f"http://127.0.0.1:{srv.server_port}")
        query = {"builder": "chain", "params": {"length": 8}, "s": 2}
        assert client.bound(**query)["cached"] is False
        connects = []
        real_connect = sqlite3.connect

        def counting_connect(*args, **kwargs):
            connects.append(threading.current_thread().name)
            return real_connect(*args, **kwargs)

        monkeypatch.setattr(sqlite3, "connect", counting_connect)
        before = threads_started(srv)
        for _ in range(50):
            assert client.bound(**query)["cached"] is True
        assert threads_started(srv) - before <= 4
        assert len(connects) <= 4
    finally:
        stop(srv, thread)


SPECS = [
    ("/v1/bound", {"builder": "chain", "params": {"length": 6}, "s": 2}),
    ("/v1/bound", {"builder": "tree", "params": {"num_leaves": 8}, "s": 2}),
    ("/v1/bound", {"builder": "diamond", "params": {"width": 3, "depth": 3},
                   "s": 3}),
    ("/v1/compiled", {"builder": "pyramid", "params": {"base": 5}}),
    ("/v1/compiled", {"builder": "forest", "seed": 2,
                      "params": {"components": 2, "component_size": 5}}),
    ("/v1/schedule", {"builder": "grid", "kind": "minlive",
                      "params": {"shape": [3, 3], "timesteps": 2}}),
    ("/v1/schedule", {"builder": "butterfly", "params": {"log_n": 2}}),
    ("/v1/pebble", {"params": {"workload": "star", "ops": 4,
                               "degree": 2}}),
]


def test_concurrent_clients_get_single_flight_answers_and_threads_end(
    tmp_path
):
    """16 clients x 25 requests over 8 specs, with thread switches
    forced every 10 us: every answer is 200 and equal per spec, each
    spec is computed and stored once, and after ``server_close()`` no
    thread the server started is left."""
    before = set(threading.enumerate())
    srv = make_server(tmp_path / "svc.db", port=0)
    thread = start(srv)
    client = ServiceClient(f"http://127.0.0.1:{srv.server_port}",
                           timeout_s=30.0)
    answers = [[] for _ in range(16)]
    errors = []

    def run(k):
        try:
            for i in range(25):
                spec = (k + 3 * i) % len(SPECS)
                path, body = SPECS[spec]
                payload = client.post(path, body)
                payload.pop("cached")
                answers[k].append((spec, payload))
        except Exception as exc:  # reported after the join
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clients = [threading.Thread(target=run, args=(k,), daemon=True)
                   for k in range(16)]
        for c in clients:
            c.start()
        for c in clients:
            c.join(120.0)
        assert not any(c.is_alive() for c in clients)
    finally:
        sys.setswitchinterval(interval)
        stop(srv, thread)
    assert errors == []
    reference = {}
    for per_client in answers:
        assert len(per_client) == 25
        for spec, payload in per_client:
            assert reference.setdefault(spec, payload) == payload, spec
    assert len(reference) == len(SPECS)
    assert srv.app.store.counters["puts"] == len(SPECS)
    deadline = time.monotonic() + 5.0
    while set(threading.enumerate()) - before and \
            time.monotonic() < deadline:
        time.sleep(0.01)
    assert set(threading.enumerate()) - before == set()


def test_failed_gc_leaves_no_open_transaction(tmp_path, monkeypatch):
    """``gc`` runs its three policies in one transaction.  One raising
    after the ``max_age_s`` delete (here: the code-version stamp of
    ``drop_stale_code``) rolls the delete back, so the thread's
    connection carries no write lock into its next request: another
    thread's write and this thread's next write both finish well inside
    the busy timeout."""
    import repro.store.keys as keys

    store = ArtifactStore(tmp_path / "gc.db", busy_timeout_s=2.0)
    key = "ab" * 32
    store.put(key, b"payload", kind="bound")

    def failing_code_version():
        raise RuntimeError("injected")

    monkeypatch.setattr(keys, "code_version", failing_code_version)
    with pytest.raises(RuntimeError, match="injected"):
        store.gc(max_age_s=0.0, drop_stale_code=True, now=time.time() + 60)
    assert not store._conn().in_transaction
    assert store.get(key) == b"payload"  # the delete was rolled back

    elapsed = []

    def timed_put(name):
        begin = time.monotonic()
        store.put(name * 32, b"payload", kind="bound")
        elapsed.append(time.monotonic() - begin)

    writer = threading.Thread(target=timed_put, args=("cd",))
    writer.start()
    writer.join(10.0)
    assert not writer.is_alive()
    timed_put("ef")
    assert len(elapsed) == 2
    assert max(elapsed) < 1.0, elapsed
    store.close()
