"""The memoized bound server: analysis-as-a-service over the store.

A long-running, multi-threaded HTTP server (the stdlib-only
:mod:`repro.service.http` layer it shares with the fleet controller)
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

Errors are JSON too, mapped to statuses by the shared HTTP layer
(:mod:`repro.service.http`).  Responses carry the artifact ``key`` and
a ``cached`` flag so clients (and the load benchmark) can audit
cold-vs-warm behavior per request.

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
    >>> srv.shutdown(); srv.app.close(); srv.server_close()
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..store.analysis import (
    bound_spec,
    cached_bound,
    cached_compiled_payload,
    cached_schedule,
    cached_spill,
    compiled_spec,
    schedule_spec,
)
from ..store.codec import unpack_arrays
from ..store.db import ArtifactStore
from ..store.keys import artifact_key
from .http import JsonApp, JsonServer, number, run_forever

__all__ = ["BoundService", "make_server", "serve", "DEFAULT_PORT"]

DEFAULT_PORT = 8177
SERVICE_SCHEMA = "repro-service/1"


class BoundService(JsonApp):
    """Endpoint logic, independent of HTTP plumbing (unit-testable).

    Wraps one :class:`ArtifactStore`; every query method takes the
    parsed JSON body and returns a JSON-safe response mapping.  Raises
    ``ValueError`` for client errors (mapped to 400 by the HTTP layer).
    """

    schema = SERVICE_SCHEMA

    def __init__(self, store: ArtifactStore) -> None:
        super().__init__()
        self.store = store
        if store.metrics is None:
            # One scrape covers HTTP + store traffic; a store that came
            # in with its own registry keeps it.
            store.bind_obs(self.metrics, self.events)
        self.routes = {
            ("GET", "/health"): lambda body: self.health(),
            ("GET", "/stats"): lambda body: self.stats(),
            ("GET", "/metrics"): lambda body: self.metrics_view(),
            ("POST", "/v1/compiled"): self.compiled,
            ("POST", "/v1/schedule"): self.schedule,
            ("POST", "/v1/bound"): self.bound,
            ("POST", "/v1/pebble"): self.pebble,
        }

    def close(self) -> None:
        self.store.close()

    def handle(self, method: str, path: str, body: Optional[Dict]):
        """``(status, response-mapping)`` for one request.  Defined on
        this class, not only inherited, because tracing tools wrap
        ``BoundService.handle`` itself."""
        return super().handle(method, path, body)

    # -- introspection -------------------------------------------------
    def health(self) -> Dict:
        return {
            "status": "ok",
            "schema": SERVICE_SCHEMA,
            "uptime_s": self.uptime_s(),
            "store": str(self.store.path),
        }

    def stats(self) -> Dict:
        return {
            "schema": SERVICE_SCHEMA,
            "uptime_s": self.uptime_s(),
            "requests": self.requests_by_path(),
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
        return builder, params, number(body, "seed", 0)

    def compiled(self, body: Dict) -> Dict:
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
        builder, params, seed = self._query_triple(body)
        kind = body.get("kind", "dfs")
        ids, hit = cached_schedule(self.store, builder, params, seed, kind)
        out = {
            "key": artifact_key(
                "schedule", schedule_spec(builder, params, seed, kind)
            ),
            "cached": hit,
            "kind": kind,
            "length": int(ids.size),
        }
        if body.get("include_ids"):
            out["ids"] = [int(i) for i in ids.tolist()]
        return out

    def bound(self, body: Dict) -> Dict:
        builder, params, seed = self._query_triple(body)
        s = number(body, "s", 16)
        method = body.get("method", "wavefront")
        max_candidates = number(body, "max_candidates", 32)
        u_upper = body.get("u_upper")
        if u_upper is not None:
            u_upper = number(body, "u_upper", None, float)
        args = (builder, params, seed, s, method, max_candidates, u_upper)
        result, hit = cached_bound(self.store, *args)
        key = artifact_key("bound", bound_spec(*args))
        return {"key": key, "cached": hit, **result}

    def pebble(self, body: Dict) -> Dict:
        params = body.get("params")
        if params is not None and not isinstance(params, dict):
            raise ValueError("'params' must be a mapping when present")
        seed = number(body, "seed", 0)
        row, hit = cached_spill(self.store, params, seed)
        return {"cached": hit, **row}


def make_server(
    db_path,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    store: Optional[ArtifactStore] = None,
) -> JsonServer:
    """A ready-to-serve threading HTTP server bound to ``host:port``
    (``port=0`` picks a free port — see ``server_port``).  The caller
    owns the loop: ``serve_forever()`` / ``shutdown()``, then
    ``server.app.close()`` (the store) and ``server_close()`` (the
    socket and the waiting request threads)."""
    service = BoundService(store if store is not None
                           else ArtifactStore(db_path))
    return JsonServer(service, host, port)


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
    run_forever(server, log)
