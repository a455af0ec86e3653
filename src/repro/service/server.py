"""The memoized bound server: analysis-as-a-service over the store.

A long-running, multi-threaded HTTP server (stdlib
:class:`http.server.ThreadingHTTPServer` — no framework dependency)
fronting one :class:`~repro.store.db.ArtifactStore`.  Every query is a
pure function of its JSON body, so the request handler is just: content
address -> store lookup -> (on miss) compute under the single-flight
lock -> publish -> respond.  N concurrent identical requests compute
once; everyone else waits for the leader and reads the published bytes.

Endpoints (full request/response examples in ``docs/service.md``):

=======================  ====================================================
``GET /health``          liveness: status, uptime, store path
``GET /stats``           store stats (hit rates, entries, DB size) +
                         per-endpoint request counters
``GET /metrics``         observability snapshot (:mod:`repro.obs`):
                         request counters + latency histograms + mirrored
                         store counters, plus the recent event ring —
                         canonical JSON, byte-stable per state
``POST /v1/compiled``    compile-snapshot query: ``{builder, params, seed}``
``POST /v1/schedule``    schedule query: ``+ {kind: dfs|minlive,
                         include_ids}``
``POST /v1/bound``       lower-bound query: ``+ {s, method, max_candidates,
                         u_upper}``
``POST /v1/pebble``      spill-strategy pebble game: the harness's spill
                         cell parameter set
=======================  ====================================================

Errors are JSON too: ``400`` for malformed bodies or unknown
builders/params (the ``ValueError`` text is the message), ``404`` for
unknown routes, ``500`` for unexpected failures.  Responses carry the
artifact ``key`` and a ``cached`` flag so clients (and the load
benchmark) can audit cold-vs-warm behavior per request.

Doctest::

    >>> import tempfile, os
    >>> from repro.service import make_server, ServiceClient
    >>> from threading import Thread
    >>> srv = make_server(os.path.join(tempfile.mkdtemp(), "s.db"), port=0)
    >>> Thread(target=srv.serve_forever, daemon=True).start()
    >>> client = ServiceClient(f"http://127.0.0.1:{srv.server_port}")
    >>> client.health()["status"]
    'ok'
    >>> r = client.bound(builder="chain", params={"length": 8}, s=2)
    >>> r["cached"], r["value"] >= 0
    (False, True)
    >>> client.bound(builder="chain", params={"length": 8}, s=2)["cached"]
    True
    >>> srv.shutdown(); srv.service.close()
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from ..evaluation.manifest import dumps_canonical
from ..obs import OBS_SCHEMA, EventRing, MetricsRegistry, labeled
from ..store.analysis import (
    cached_bound,
    cached_compiled_payload,
    cached_schedule,
    cached_spill,
    compiled_spec,
)
from ..store.codec import unpack_arrays
from ..store.db import ArtifactStore
from ..store.keys import artifact_key

__all__ = ["BoundService", "make_server", "serve", "DEFAULT_PORT"]

DEFAULT_PORT = 8177
SERVICE_SCHEMA = "repro-service/1"


def _number(body: Dict, name: str, default, kind=int):
    """``body[name]`` (or ``default``) converted by ``kind``.  A value
    that does not convert is a client error naming the field."""
    value = body.get(name, default)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(
            f"{name!r} must be a number, got {value!r}"
        ) from None


class BoundService:
    """Endpoint logic, independent of HTTP plumbing (unit-testable).

    Wraps one :class:`ArtifactStore` plus request accounting; every
    ``handle_*`` method takes the parsed JSON body and returns a
    JSON-safe response mapping.  Raises ``ValueError`` for client
    errors (mapped to 400 by the HTTP layer).
    """

    def __init__(self, store: ArtifactStore) -> None:
        self.store = store
        self.started_s = time.time()
        self._started_mono = time.monotonic()
        self._mu = threading.Lock()
        self.requests: Dict[str, int] = {}
        self.metrics = MetricsRegistry()
        self.events = EventRing()
        if store.metrics is None:
            # One scrape covers HTTP + store traffic; a store that came
            # in with its own registry keeps it.
            store.bind_obs(self.metrics, self.events)

    def _count(self, endpoint: str) -> None:
        with self._mu:
            self.requests[endpoint] = self.requests.get(endpoint, 0) + 1

    def close(self) -> None:
        self.store.close()

    # -- introspection -------------------------------------------------
    def health(self) -> Dict:
        self._count("/health")
        return {
            "status": "ok",
            "schema": SERVICE_SCHEMA,
            "uptime_s": time.time() - self.started_s,
            "store": str(self.store.path),
        }

    def stats(self) -> Dict:
        self._count("/stats")
        with self._mu:
            requests = dict(self.requests)
        return {
            "schema": SERVICE_SCHEMA,
            "uptime_s": time.time() - self.started_s,
            "requests": requests,
            "store": self.store.stats(),
        }

    # -- queries -------------------------------------------------------
    @staticmethod
    def _query_triple(body: Dict) -> Tuple[str, Optional[Dict], int]:
        builder = body.get("builder")
        if not isinstance(builder, str):
            raise ValueError("request must name a 'builder' (string)")
        params = body.get("params")
        if params is not None and not isinstance(params, dict):
            raise ValueError("'params' must be a mapping when present")
        return builder, params, _number(body, "seed", 0)

    def compiled(self, body: Dict) -> Dict:
        self._count("/v1/compiled")
        builder, params, seed = self._query_triple(body)
        payload, hit = cached_compiled_payload(
            self.store, builder, params, seed
        )
        _arrays, meta = unpack_arrays(payload)
        return {
            "key": artifact_key(
                "compiled", compiled_spec(builder, params, seed)
            ),
            "cached": hit,
            "n": meta["n"],
            "m": meta["m"],
            "nbytes": len(payload),
        }

    def schedule(self, body: Dict) -> Dict:
        self._count("/v1/schedule")
        builder, params, seed = self._query_triple(body)
        kind = body.get("kind", "dfs")
        ids, hit = cached_schedule(self.store, builder, params, seed, kind)
        spec = compiled_spec(builder, params, seed)
        spec["schedule"] = kind
        out = {
            "key": artifact_key("schedule", spec),
            "cached": hit,
            "kind": kind,
            "length": int(ids.size),
        }
        if body.get("include_ids"):
            out["ids"] = [int(i) for i in ids.tolist()]
        return out

    def bound(self, body: Dict) -> Dict:
        self._count("/v1/bound")
        builder, params, seed = self._query_triple(body)
        s = _number(body, "s", 16)
        method = body.get("method", "wavefront")
        max_candidates = _number(body, "max_candidates", 32)
        u_upper = body.get("u_upper")
        if u_upper is not None:
            u_upper = _number(body, "u_upper", None, float)
        result, hit = cached_bound(
            self.store,
            builder,
            params,
            seed,
            s=s,
            method=method,
            max_candidates=max_candidates,
            u_upper=u_upper,
        )
        spec = compiled_spec(builder, params, seed)
        spec["s"] = s
        spec["method"] = method
        if method == "wavefront":
            spec["max_candidates"] = max_candidates
        if method == "hong_kung":
            spec["u_upper"] = u_upper
        return {"key": artifact_key("bound", spec), "cached": hit, **result}

    def pebble(self, body: Dict) -> Dict:
        self._count("/v1/pebble")
        params = body.get("params")
        if params is not None and not isinstance(params, dict):
            raise ValueError("'params' must be a mapping when present")
        seed = _number(body, "seed", 0)
        row, hit = cached_spill(self.store, params, seed)
        return {"cached": hit, **row}

    # -- observability -------------------------------------------------
    def metrics_view(self) -> Dict:
        """The ``GET /metrics`` payload: instrument snapshot (request
        counters, per-endpoint latency histograms, mirrored ``store.*``
        counters) plus the recent event ring.  Canonical JSON on the
        wire, so two scrapes of the same state are byte-identical."""
        self._count("/metrics")
        return {
            "schema": SERVICE_SCHEMA,
            "obs_schema": OBS_SCHEMA,
            "uptime_s": time.monotonic() - self._started_mono,
            "metrics": self.metrics.snapshot(),
            "events": self.events.snapshot(limit=256),
        }

    # -- dispatch ------------------------------------------------------
    ROUTES = {
        ("GET", "/health"): "health",
        ("GET", "/stats"): "stats",
        ("GET", "/metrics"): "metrics_view",
        ("POST", "/v1/compiled"): "compiled",
        ("POST", "/v1/schedule"): "schedule",
        ("POST", "/v1/bound"): "bound",
        ("POST", "/v1/pebble"): "pebble",
    }

    def handle(self, method: str, path: str, body: Optional[Dict]):
        """``(status, response-mapping)`` for one request."""
        name = self.ROUTES.get((method, path))
        if name is None:
            self.metrics.counter("http.unmatched").inc()
            return 404, {"error": f"unknown endpoint {method} {path}"}
        endpoint = f"{method} {path}"
        start = time.perf_counter()
        try:
            if method == "GET":
                status, payload = 200, getattr(self, name)()
            else:
                status, payload = 200, getattr(self, name)(body or {})
        except ValueError as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        elapsed = time.perf_counter() - start
        self.metrics.counter(labeled("http.requests", endpoint)).inc()
        if status >= 400:
            self.metrics.counter(labeled("http.errors", endpoint)).inc()
        self.metrics.histogram(labeled("http.latency_s", endpoint)).observe(
            elapsed
        )
        return status, payload


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-service/1"

    def _respond(self, status: int, payload: Dict) -> None:
        raw = dumps_canonical(payload, indent=None).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def _dispatch(self, method: str) -> None:
        body = None
        if method == "POST":
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b""
            try:
                body = json.loads(raw.decode("utf-8")) if raw else {}
            except (ValueError, UnicodeDecodeError):
                self._respond(400, {"error": "request body is not valid JSON"})
                return
            if not isinstance(body, dict):
                self._respond(
                    400, {"error": "request body must be a JSON object"}
                )
                return
        status, payload = self.server.service.handle(method, self.path, body)
        self._respond(status, payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def log_message(self, fmt, *args) -> None:  # quiet by default
        pass


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    service: BoundService


def make_server(
    db_path,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    store: Optional[ArtifactStore] = None,
) -> _Server:
    """A ready-to-serve threading HTTP server bound to ``host:port``
    (``port=0`` picks a free port — see ``server_port``).  The caller
    owns the loop: ``serve_forever()`` / ``shutdown()``; close the
    store via ``server.service.close()``."""
    service = BoundService(store if store is not None
                           else ArtifactStore(db_path))
    server = _Server((host, port), _Handler)
    server.service = service
    return server


def serve(
    db_path,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    log=print,
) -> None:  # pragma: no cover - blocking CLI loop
    """Blocking entry point of ``repro serve``."""
    server = make_server(db_path, host=host, port=port)
    log(
        f"repro service listening on http://{host}:{server.server_port} "
        f"(store: {db_path})"
    )
    log("endpoints: GET /health /stats /metrics; "
        "POST /v1/compiled /v1/schedule /v1/bound /v1/pebble")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        log("shutting down")
    finally:
        server.shutdown()
        server.service.close()
