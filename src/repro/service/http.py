"""The one HTTP layer under the bound server and the fleet controller.

Each server is a :class:`JsonApp`: a route table mapping ``(method,
path)`` to ``handler(body) -> response mapping`` over its endpoint
methods.  This module owns the rest once: body framing (a malformed
``Content-Length`` or body is a 400, a body over :data:`MAX_BODY_BYTES`
a 413 and never read, a connection idle mid-request for
:data:`SOCKET_TIMEOUT_S` is dropped), the error map
(:data:`CLIENT_ERRORS` answer 400, other exceptions 500, unknown routes
404), the ``http.*`` accounting (three instruments per route, one
``http.unmatched`` counter for every unknown path, and one
``http.client_disconnects`` counter for clients that hang up before
their response instead of a traceback on stderr), the uptime clock,
the ``GET /metrics`` envelope and the serve loop.  Request threads
outlive their connection: once it is answered a thread waits for the
next one (at most :data:`MAX_IDLE_WORKERS` wait), so a warm query runs
on a thread that already holds its store connection, and every thread
started is counted as ``server.threads_started``.  The contract is
documented in ``docs/service.md`` ("HTTP contract").
"""

from __future__ import annotations

import json
import queue
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Tuple

from ..evaluation.manifest import dumps_canonical
from ..obs import OBS_SCHEMA, EventRing, MetricsRegistry, labeled

__all__ = ["CLIENT_ERRORS", "MAX_BODY_BYTES", "MAX_IDLE_WORKERS",
           "SOCKET_TIMEOUT_S", "JsonApp", "JsonServer", "number",
           "run_forever"]

#: Largest accepted request body.  The default grid's ``/v1/grid`` body
#: is ~2 KB, so this leaves room for grid files of ~25k cells.
MAX_BODY_BYTES = 4 << 20
#: Seconds a connection may sit idle mid-request before it is dropped.
SOCKET_TIMEOUT_S = 30.0
#: Most request threads that wait for the next connection; a thread
#: that finishes while this many wait exits instead.
MAX_IDLE_WORKERS = 8
#: Exceptions an endpoint raises on a malformed request (a field nested
#: too deep for the handlers is a ``RecursionError``): answered 400.
CLIENT_ERRORS = (KeyError, TypeError, ValueError, OverflowError,
                 RecursionError)

_INT64 = 1 << 63  # the store keeps ints in signed 64-bit columns


def number(body: Dict, name: str, default, kind=int):
    """``body[name]`` (or ``default``) converted by ``kind``.  A value
    that does not convert, or an ``int`` outside the signed 64-bit
    range, is a client error naming the field."""
    value = body.get(name, default)
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(
            f"{name!r} must be a number, got {value!r}"
        ) from None
    if kind is int and not -_INT64 <= out < _INT64:
        raise ValueError(
            f"{name!r} must fit in a signed 64-bit integer, got {value!r}"
        )
    return out


class JsonApp:
    """A route table plus the shared error map and ``http.*`` accounting.

    A subclass sets :attr:`schema` and fills :attr:`routes`; GET
    handlers receive an empty body.  ``clock`` is the interval clock
    behind :meth:`uptime_s` (never the wall clock).
    """

    schema = ""

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        events_capacity: int = 1024,
    ) -> None:
        self.clock = clock
        self._started = clock()
        self.metrics = MetricsRegistry()
        self.events = EventRing(capacity=events_capacity)
        self.routes: Dict[Tuple[str, str], Callable[[Dict], Dict]] = {}

    def close(self) -> None:
        """Release what the app holds (nothing by default)."""

    def uptime_s(self) -> float:
        return self.clock() - self._started

    def handle(self, method: str, path: str, body: Optional[Dict]):
        """``(status, response-mapping)`` for one request."""
        route = self.routes.get((method, path))
        if route is None:
            self.metrics.counter("http.unmatched").inc()
            return 404, {"error": f"unknown endpoint {method} {path}"}
        start = time.perf_counter()
        try:
            status, payload = 200, route(body or {})
        except CLIENT_ERRORS as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # an endpoint bug: answer, keep serving
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        elapsed = time.perf_counter() - start
        endpoint = f"{method} {path}"
        self.metrics.counter(labeled("http.requests", endpoint)).inc()
        if status >= 400:
            self.metrics.counter(labeled("http.errors", endpoint)).inc()
        self.metrics.histogram(labeled("http.latency_s", endpoint)).observe(
            elapsed
        )
        return status, payload

    def requests_by_path(self) -> Dict[str, int]:
        """Answered requests per routed path, read from the
        ``http.requests`` counters (a request counts once answered)."""
        counters = self.metrics.snapshot()["counters"]
        out: Dict[str, int] = {}
        for method, path in self.routes:
            n = counters.get(labeled("http.requests", f"{method} {path}"))
            if n:
                out[path] = out.get(path, 0) + n
        return out

    def metrics_view(self, **extra) -> Dict:
        """The ``GET /metrics`` payload: the instrument snapshot (request
        counters, per-route latency histograms and whatever else the app
        counts) and the newest events, plus the app's ``extra`` fields.
        Canonical JSON on the wire, so two scrapes of the same state are
        byte-identical."""
        return {
            "schema": self.schema,
            "obs_schema": OBS_SCHEMA,
            "uptime_s": self.uptime_s(),
            "metrics": self.metrics.snapshot(),
            "events": self.events.snapshot(limit=256),
            **extra,
        }


class _Handler(BaseHTTPRequestHandler):
    def setup(self) -> None:
        self.timeout = SOCKET_TIMEOUT_S  # StreamRequestHandler applies it
        self.server_version = self.server.app.schema
        super().setup()

    def _respond(self, status: int, payload: Dict) -> None:
        raw = dumps_canonical(payload, indent=None).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def _read_body(self) -> Tuple[int, Dict]:
        """``(200, body)``, or the ``(status, error)`` to answer instead."""
        header = (self.headers.get("Content-Length") or "0").strip()
        if not (header.isascii() and header.isdigit()):
            return 400, {"error": "Content-Length must be a non-negative "
                                  f"integer, got {header[:32]!r}"}
        digits = header.lstrip("0") or "0"  # int() refuses ~4300+ digits
        if len(digits) > len(str(MAX_BODY_BYTES)) or \
                int(digits) > MAX_BODY_BYTES:
            return 413, {"error": "Content-Length exceeds the "
                                  f"{MAX_BODY_BYTES}-byte body limit"}
        raw = self.rfile.read(int(digits))
        try:
            body = json.loads(raw.decode("utf-8")) if raw else {}
        except (ValueError, RecursionError):
            return 400, {"error": "request body is not valid JSON"}
        if not isinstance(body, dict):
            return 400, {"error": "request body must be a JSON object"}
        return 200, body

    def _dispatch(self, method: str) -> None:
        body = None
        if method == "POST":
            status, body = self._read_body()
            if status != 200:
                self._respond(status, body)
                return
        self._respond(*self.server.app.handle(method, self.path, body))

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def log_message(self, fmt, *args) -> None:  # quiet by default
        pass


class JsonServer(ThreadingHTTPServer):
    """A threading HTTP server answering every request from ``app``
    (``port=0`` picks a free port — see ``server_port``).  The caller
    owns the loop: ``serve_forever()`` / ``shutdown()``, then
    ``server_close()``.

    A request thread outlives its connection and waits for the next
    one, so what it set up (the store's per-thread SQLite connection,
    its statement and page caches) serves the next request too.  A new
    connection goes to a waiting thread if there is one and to a new
    thread otherwise, so it never queues behind a busy or stalled
    connection.  At most :data:`MAX_IDLE_WORKERS` threads wait;
    :meth:`server_close` releases them.
    """

    # socketserver's listen backlog of 5 overflows when more clients
    # connect at once than the accept loop has taken: the kernel then
    # drops SYNs (a 1 s client retry) or answers with SYN cookies, which
    # can end in a connection reset.
    request_queue_size = 128

    def __init__(self, app: JsonApp, host: str, port: int) -> None:
        super().__init__((host, port), _Handler)
        self.app = app
        self._handoff = queue.SimpleQueue()  # connections, or None
        self._idle_mu = threading.Lock()
        self._idle = 0  # threads waiting on _handoff, none handed to yet
        self._closed = False

    def process_request(self, request, client_address) -> None:
        with self._idle_mu:
            handed = self._idle > 0
            if handed:
                self._idle -= 1
        if handed:
            self._handoff.put((request, client_address))
            return
        self.app.metrics.counter("server.threads_started").inc()
        threading.Thread(target=self._serve_connections,
                         args=(request, client_address),
                         daemon=self.daemon_threads).start()

    def _serve_connections(self, request, client_address) -> None:
        while True:
            self.process_request_thread(request, client_address)
            with self._idle_mu:
                if self._closed or self._idle >= MAX_IDLE_WORKERS:
                    return
                self._idle += 1
            job = self._handoff.get()
            if job is None:  # released by server_close()
                return
            request, client_address = job

    def handle_error(self, request, client_address) -> None:
        """A client that hung up before its response (the socket write or
        read fails) is counted as ``http.client_disconnects``; any other
        error is printed with its traceback, as socketserver does."""
        if isinstance(sys.exc_info()[1], (BrokenPipeError,
                                          ConnectionResetError)):
            self.app.metrics.counter("http.client_disconnects").inc()
            return
        super().handle_error(request, client_address)

    def server_close(self) -> None:
        """Close the listening socket and release the waiting threads
        (a thread still answering a request exits once it is done)."""
        super().server_close()
        with self._idle_mu:
            self._closed = True
            waiting, self._idle = self._idle, 0
        for _ in range(waiting):
            self._handoff.put(None)


def run_forever(server: JsonServer, log: Callable[[str], None]) -> None:
    """Serve until interrupted, then close the server (its socket and
    waiting request threads) and the app.  Request threads are daemons:
    in-flight ones are not waited for."""
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        log("shutting down")
    finally:
        server.server_close()
        server.app.close()
