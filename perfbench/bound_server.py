"""``bound-server``: a seeded, Zipf-skewed query mix against ``repro serve``.

Each pass spawns ``repro serve --port 0`` on a fresh store and sends
the same 1200-request sequence from two closed-loop client threads.
The sequence draws from 40 distinct request specs — ``/v1/bound`` over
8 builders x 3 values of S, ``/v1/schedule`` (min-live),
``/v1/compiled`` and ``/v1/pebble`` — with Zipf weights, so about 3% of
requests are cold misses that build, compile, bound or play and write
the store, and the rest are warm reads.  Set-up is spawn until
``/health`` answers 200.
"""

from __future__ import annotations

import contextlib
import http.client
import itertools
import random
import threading
import time
from pathlib import Path

import common
import spans
from common import BenchError, Outcome, Proc

REQUESTS = 1200
CLIENTS = 2
ZIPF_S = 1.1


def request_specs(seed: int):
    """The 40 distinct ``(path, body)`` request specs."""
    specs = [("/v1/bound", {"builder": b, "s": s})
             for b in ("chain", "chains", "tree", "bcast", "diamond",
                       "grid", "butterfly", "pyramid")
             for s in (2, 4, 8)]
    specs += [("/v1/schedule", {"builder": b, "kind": "minlive"})
              for b in ("chain", "tree", "diamond", "grid", "butterfly",
                        "pyramid")]
    specs += [("/v1/compiled", {"builder": b, "seed": seed if b == "forest"
                                else 0})
              for b in ("chains", "bcast", "outer", "dense", "star_spill",
                        "forest")]
    specs += [
        ("/v1/pebble", {"params": {"workload": "star", "ops": 64}}),
        ("/v1/pebble", {"params": {"workload": "star", "policy": "belady"}}),
        ("/v1/pebble", {"params": {"workload": "chains"}}),
        ("/v1/pebble", {"params": {"workload": "forest"}, "seed": seed}),
    ]
    return specs


def request_sequence(seed: int):
    """Spec indices of the seeded request sequence.  The popularity
    ranking is fixed, so every seed sends the same mix of endpoints in
    a different order; the draws are Zipf over that ranking."""
    ranking = list(range(len(request_specs(seed))))
    random.Random(0).shuffle(ranking)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranking))]
    return random.Random(seed).choices(ranking, weights=weights, k=REQUESTS)


def check_responses(responses, outcome: Outcome) -> None:
    """No request fails, and all responses for a spec carry one payload
    (``cached`` aside), so every hit equals the miss that stored it."""
    reference = {}
    for spec, _lat, status, payload in responses:
        if status != 200:
            outcome.op(False, f"spec {spec}: HTTP {status} {payload}")
            continue
        body = {k: v for k, v in payload.items() if k != "cached"}
        outcome.op(reference.setdefault(spec, body) == body,
                   f"spec {spec}: payload differs from the first one")


def _http_pass(work: Path, index: int, seed: int, outcome: Outcome):
    """One server lifetime: returns (setup_s, wall_s, responses,
    /metrics payload, peak RSS MB)."""
    specs = request_specs(seed)
    sequence = request_sequence(seed)
    proc = Proc(common.repro_cmd("serve", "--db", str(work / f"s{index}.db"),
                                 "--port", "0"), work, f"serve{index}")
    try:
        _stamp, line = proc.wait_line("repro service listening")
        port = common.port_from_line(line)
        setup = common.wait_health(port) - proc.started
        responses = [None] * len(sequence)
        cursor = iter(range(len(sequence)))
        lock = threading.Lock()

        def client():
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                path, body = specs[sequence[i]]
                start = time.perf_counter()
                try:
                    status, payload = common.http_json(port, "POST", path,
                                                       body)
                except (OSError, http.client.HTTPException) as exc:
                    status, payload = 599, {"error": repr(exc)}
                responses[i] = (sequence[i], time.perf_counter() - start,
                                status, payload)

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start
        status, metrics = common.http_json(port, "GET", "/metrics")
        if status != 200:
            raise BenchError(f"GET /metrics answered {status}")
    finally:
        proc.stop()
    check_responses(responses, outcome)
    return setup, wall, responses, metrics, proc.peak_mb


def _setup_probe(work: Path, index: int) -> float:
    proc = Proc(common.repro_cmd("serve", "--db", str(work / f"probe{index}.db"),
                                 "--port", "0"), work, "setup-probe")
    try:
        _stamp, line = proc.wait_line("repro service listening")
        return common.wait_health(common.port_from_line(line)) - proc.started
    finally:
        proc.stop()


def measure(work: Path, seed: int, seconds: float) -> Outcome:
    started = time.perf_counter()
    outcome = Outcome()
    common.import_seconds("repro.cli", work)  # byte-compile once
    setups = [_setup_probe(work, i) for i in range(common.SETUP_SAMPLES)]
    index = itertools.count()
    passes = common.repeat_passes(seconds, started, lambda: _http_pass(
        work, next(index), seed, outcome))
    outcome.metrics.update(common.end_to_end(
        setups + [p[0] for p in passes], [p[1] for p in passes],
        [p[4] for p in passes]))
    return outcome


def _in_process(work: Path, tag: str, seed: int,
                timed=contextlib.nullcontext):
    """The same request sequence through ``BoundService.handle`` on a
    fresh store, one request at a time, inside ``timed()``; returns
    (seconds, [(cached, seconds) per request])."""
    from repro.service.server import BoundService
    from repro.store.db import ArtifactStore

    specs = request_specs(seed)
    service = BoundService(ArtifactStore(work / f"{tag}.db"))
    out = []
    try:
        with timed():
            begin = time.perf_counter()
            for index in request_sequence(seed):
                path, body = specs[index]
                start = time.perf_counter()
                status, payload = service.handle("POST", path, dict(body))
                out.append((payload.get("cached"),
                            time.perf_counter() - start))
                if status != 200:
                    raise BenchError(f"in-process {path} answered {status}")
            elapsed = time.perf_counter() - begin
    finally:
        service.close()
    return elapsed, out


def trace(work: Path, seed: int, seconds: float) -> Outcome:
    """One HTTP pass (latency split, store counters), then the sequence
    in-process: a warm-up, then alternately untraced (handler latency,
    overhead baseline) and traced (layer breakdown)."""
    outcome = Outcome()
    import_s = common.median(
        [common.import_seconds("repro.cli", work) for _ in range(3)])
    _setup, wall, responses, scraped, _peak = _http_pass(work, 0, seed,
                                                         outcome)
    warm = [lat for _s, lat, _st, p in responses if p.get("cached") is True]
    cold = [lat for _s, lat, _st, p in responses if p.get("cached") is False]
    counters = scraped.get("metrics", {}).get("counters", {})
    hits, misses = counters.get("store.hits", 0), counters.get("store.misses", 0)

    tags = itertools.count()
    handled = []

    def untraced() -> float:
        elapsed, per_request = _in_process(work, f"r{next(tags)}", seed)
        handled.extend(sec for cached, sec in per_request if cached is True)
        return elapsed

    untraced()  # warm-up
    handled.clear()
    untraced_s, traced_s, metrics, covered = spans.compare(
        untraced, lambda tracer: _in_process(
            work, f"r{next(tags)}", seed, timed=tracer.root)[0])
    handle_warm = common.percentile(handled, 50)
    warm_p50 = common.percentile(warm, 50)
    metrics.update({
        "cli.import_s": import_s,
        "store.hits": hits,
        "store.misses": misses,
        "store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "service.warm_p50_ms": 1000.0 * warm_p50,
        "service.warm_p99_ms": 1000.0 * common.percentile(warm, 99),
        "service.cold_p50_ms": 1000.0 * common.percentile(cold, 50),
        "service.queries_per_s": len(responses) / wall,
        "service.handle_warm_p50_ms": 1000.0 * handle_warm,
        "service.http_overhead_ms": 1000.0 * (warm_p50 - handle_warm),
        "trace.overhead_s": traced_s - untraced_s,
        "trace.layer_sum_frac": covered / untraced_s,
    })
    outcome.metrics.update(metrics)
    return outcome
