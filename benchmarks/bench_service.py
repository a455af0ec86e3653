"""Many-tenant load benchmark for the artifact store + bound service.

Three measurements back the service layer's performance story
(``docs/performance.md``, cold-vs-warm routing table):

* **cold vs warm compiled path** — rebuilding, compiling and
  serializing a CDAG's CSR snapshot versus reading the stored payload
  bytes; the warm read must be at least 10x faster (asserted — this is
  the reason the store exists);
* **warm HTTP bound latency** — end-to-end ``POST /v1/bound`` against a
  hot store (p50 is the headline, p99 rides along);
* **many-tenant load** — N concurrent clients replaying a mixed
  builder/param grid against one server: cold and warm p50/p99
  latency, peak RSS, and the store hit rate from ``/stats``.

Entries land under ``service/`` in ``BENCH_core.json`` (guarded by
``benchmarks/check_bench.py``) and in the bench run store
(``benchmarks/runs/``).  Sizes are identical in smoke and full mode —
the service path is cheap enough that the guard can always compare
like against like; smoke mode only trims repetition counts.
"""

import resource
import threading

import numpy as np
import pytest

from conftest import smoke_mode

from repro.service import ServiceClient, make_server
from repro.store import ArtifactStore
from repro.store.analysis import (
    cached_compiled_payload,
    fresh_compiled_payload,
)

GRID_PARAMS = {"shape": [16, 16], "timesteps": 4}

#: the mixed many-tenant query grid: every tenant replays this list
LOAD_GRID = [
    ("bound", {"builder": "chain", "params": {"length": 48}, "s": 4}),
    ("bound", {"builder": "diamond",
               "params": {"width": 6, "depth": 6}, "s": 4}),
    ("bound", {"builder": "butterfly", "params": {"log_n": 4},
               "method": "analytical", "s": 4}),
    ("compiled", {"builder": "grid", "params": GRID_PARAMS}),
    ("compiled", {"builder": "tree", "params": {"num_leaves": 32}}),
    ("schedule", {"builder": "chains",
                  "params": {"num_chains": 4, "length": 16}}),
    ("pebble", {"params": {"workload": "star", "ops": 32, "degree": 4}}),
]


@pytest.fixture
def server(tmp_path):
    srv = make_server(tmp_path / "bench-svc.db", port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        thread.join(5.0)
        srv.app.close()
        srv.server_close()


def test_compiled_cold_vs_warm(tmp_path, bench_record, bench_timer,
                               report_emitter):
    """The store's core invariant: reading the stored snapshot payload
    beats rebuilding + recompiling + serializing it by >= 10x."""
    with ArtifactStore(tmp_path / "cw.db") as store:
        cached_compiled_payload(store, "grid", GRID_PARAMS)  # publish
        reads = 5 if smoke_mode() else 20
        cold_ns = bench_timer(
            lambda: fresh_compiled_payload("grid", GRID_PARAMS),
            repeat=3, number=2,
        )
        warm_ns = bench_timer(
            lambda: cached_compiled_payload(store, "grid", GRID_PARAMS),
            repeat=3, number=reads,
        )
        hits = store.counters["hits"]
    speedup = cold_ns / warm_ns
    bench_record("service/compiled_cold_grid16", ns_per_op=cold_ns)
    bench_record("service/compiled_warm_grid16", ns_per_op=warm_ns,
                 speedup_vs_cold=speedup, warm_reads=hits)
    report_emitter(
        "Compiled snapshot, cold vs warm (grid 16x16 x 4 steps)\n"
        f"  cold (rebuild+compile+serialize) : {cold_ns / 1e6:8.3f} ms\n"
        f"  warm (store hit)                 : {warm_ns / 1e6:8.3f} ms\n"
        f"  speedup                          : {speedup:8.1f}x"
    )
    assert speedup >= 10.0, (
        f"warm compiled hit only {speedup:.1f}x faster than cold"
    )


def test_http_bound_warm_latency(server, bench_record, report_emitter):
    client = ServiceClient(f"http://127.0.0.1:{server.server_port}")
    client.bound(builder="chain", params={"length": 64}, s=4)  # warm it
    n = 10 if smoke_mode() else 50
    lat = []
    for _ in range(n):
        import time

        t0 = time.perf_counter_ns()
        assert client.bound(builder="chain", params={"length": 64},
                            s=4)["cached"] is True
        lat.append(time.perf_counter_ns() - t0)
    p50, p99 = float(np.percentile(lat, 50)), float(np.percentile(lat, 99))
    bench_record("service/http_bound_warm_chain64", ns_per_op=p50,
                 p99_ns=p99, requests=n)
    report_emitter(
        "Warm HTTP bound latency (chain 64, S=4)\n"
        f"  p50 : {p50 / 1e6:7.3f} ms\n"
        f"  p99 : {p99 / 1e6:7.3f} ms"
    )


def test_many_tenant_load(server, bench_record, report_emitter):
    """N concurrent clients x the mixed grid: cold pass then warm
    passes, per-request latencies split by phase."""
    import time

    clients = 6
    warm_passes = 1 if smoke_mode() else 4
    base = f"http://127.0.0.1:{server.server_port}"
    cold_lat, warm_lat, errors = [], [], []
    mu = threading.Lock()
    barrier = threading.Barrier(clients)

    def tenant(idx):
        client = ServiceClient(base, timeout_s=120)
        try:
            barrier.wait(30)
            for phase in range(1 + warm_passes):
                for method, kwargs in LOAD_GRID:
                    t0 = time.perf_counter_ns()
                    getattr(client, method)(**kwargs)
                    dt = time.perf_counter_ns() - t0
                    with mu:
                        (cold_lat if phase == 0 else warm_lat).append(dt)
        except Exception as exc:  # pragma: no cover - diagnostics
            with mu:
                errors.append(f"tenant {idx}: {exc!r}")

    threads = [threading.Thread(target=tenant, args=(i,))
               for i in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(300)
    assert not errors, errors

    stats = ServiceClient(base).stats()["store"]
    hit_rate = stats["hit_rate"]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cold_p50 = float(np.percentile(cold_lat, 50))
    cold_p99 = float(np.percentile(cold_lat, 99))
    warm_p50 = float(np.percentile(warm_lat, 50))
    warm_p99 = float(np.percentile(warm_lat, 99))
    bench_record(
        "service/load_mixed_c6", ns_per_op=warm_p50,
        warm_p99_ns=warm_p99, cold_p50_ns=cold_p50, cold_p99_ns=cold_p99,
        clients=clients, requests=len(cold_lat) + len(warm_lat),
        hit_rate=hit_rate, rss_kb=rss_kb,
    )
    report_emitter(
        f"Many-tenant load ({clients} clients x {len(LOAD_GRID)} mixed "
        f"queries, {warm_passes} warm pass(es))\n"
        f"  cold p50/p99 : {cold_p50 / 1e6:8.3f} / {cold_p99 / 1e6:8.3f} ms\n"
        f"  warm p50/p99 : {warm_p50 / 1e6:8.3f} / {warm_p99 / 1e6:8.3f} ms\n"
        f"  store hit rate : {hit_rate:.3f}   peak RSS : {rss_kb} kB"
    )
    # the mixed grid is fully memoizable: most lookups must be hits once
    # the first tenant pass has published everything
    assert hit_rate > 0.5
    assert warm_p50 <= cold_p50
