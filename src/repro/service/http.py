"""The one HTTP layer under the bound server and the fleet controller.

Each server is a :class:`JsonApp`: a route table mapping ``(method,
path)`` to ``handler(body) -> response mapping`` over its endpoint
methods.  This module owns the rest once: HTTP/1.0 framing on a plain
``socketserver`` stream (the request line and headers are read here,
only ``Content-Length`` is used, and every answer, framing errors
included, is one write of a status line, four headers and a canonical
JSON body), the framing rules (a malformed request line or header is a
400, a version other than HTTP/1.x a 505, a line over
:data:`MAX_LINE_BYTES` a 414 or 431, more than :data:`MAX_HEADERS`
headers a 431, a malformed or disagreeing ``Content-Length`` or a body
that is not a JSON object a 400, a body over :data:`MAX_BODY_BYTES` a
413 and never read, a connection idle mid-request for
:data:`SOCKET_TIMEOUT_S` is dropped), the error map
(:data:`CLIENT_ERRORS` answer 400, other exceptions 500, unknown
methods and paths 404), the ``http.*`` accounting (three instruments
per route, one ``http.unmatched`` counter for every unknown route, and
one ``http.client_disconnects`` counter for clients that hang up
before their response instead of a traceback on stderr), the uptime
clock, the ``GET /metrics`` envelope and the serve loop.  Request
threads outlive their connection: once it is answered a thread waits
for the next one (at most :data:`MAX_IDLE_WORKERS` wait), so a warm
query runs on a thread that already holds its store connection, and
every thread started is counted as ``server.threads_started``.  The
contract is documented in ``docs/service.md`` ("HTTP contract").
"""

from __future__ import annotations

import json
import queue
import socketserver
import sys
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from typing import Callable, Dict, Optional, Tuple

from ..evaluation.manifest import dumps_canonical
from ..obs import OBS_SCHEMA, EventRing, MetricsRegistry, labeled

__all__ = ["CLIENT_ERRORS", "MAX_BODY_BYTES", "MAX_HEADERS",
           "MAX_IDLE_WORKERS", "MAX_LINE_BYTES", "SOCKET_TIMEOUT_S",
           "JsonApp", "JsonServer", "number", "run_forever"]

#: Largest accepted request body.  The default grid's ``/v1/grid`` body
#: is ~2 KB, so this leaves room for grid files of ~25k cells.
MAX_BODY_BYTES = 4 << 20
#: Longest request line or header line, in bytes with its line end.
MAX_LINE_BYTES = 65536
#: Most header lines a request may carry.
MAX_HEADERS = 100
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
_REASONS = {status.value: status.phrase for status in HTTPStatus}


def number(body: Dict, name: str, default, kind=int):
    """``body[name]`` (or ``default``) as a ``kind``: a JSON integer for
    an ``int`` field, any JSON number for a ``float`` one, never a bool
    or a string.  Anything else, or an ``int`` field outside the signed
    64-bit range, is a client error naming the field."""
    value = body.get(name, default)
    if type(value) is not int and (kind is int or type(value) is not float):
        want = "an integer" if kind is int else "a number"
        raise ValueError(f"{name!r} must be {want}, got {value!r}")
    if kind is int and not -_INT64 <= value < _INT64:
        raise ValueError(
            f"{name!r} must fit in a signed 64-bit integer, got {value!r}"
        )
    return kind(value)


class JsonApp:
    """A route table plus the shared error map and ``http.*`` accounting.

    A subclass sets :attr:`schema` and fills :attr:`routes`; a handler
    receives the request's JSON object body, ``{}`` when none was sent
    (GET routes ignore it).  ``clock`` is the interval clock behind
    :meth:`uptime_s` (never the wall clock).
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


class _Hangup(Exception):
    """The client closed its connection mid-request."""


class _Handler(socketserver.StreamRequestHandler):
    """One HTTP/1.0 exchange per connection: read the request line,
    the headers and a ``Content-Length`` body, answer in one write,
    close."""

    def setup(self) -> None:
        self.timeout = SOCKET_TIMEOUT_S  # StreamRequestHandler applies it
        super().setup()

    def handle(self) -> None:
        app = self.server.app
        try:
            answer = self._answer(app)
            if answer is not None:
                self._send(*answer)
        except (_Hangup, BrokenPipeError, ConnectionResetError):
            app.metrics.counter("http.client_disconnects").inc()
        except TimeoutError:
            pass  # idle mid-request for SOCKET_TIMEOUT_S: dropped

    def _line(self) -> bytes:
        """One head line; a line over the cap is returned cut at
        ``MAX_LINE_BYTES + 1`` bytes."""
        line = self.rfile.readline(MAX_LINE_BYTES + 1)
        if len(line) <= MAX_LINE_BYTES and not line.endswith(b"\n"):
            raise _Hangup
        return line

    def _answer(self, app: JsonApp) -> Optional[Tuple[int, Dict]]:
        """``(status, payload)`` for the request, or ``None`` for a
        connection closed before it sent anything."""
        if not self.rfile.peek(1):
            return None  # closed before sending anything
        line = self._line()
        if len(line) > MAX_LINE_BYTES:
            return 414, {"error": "request line is longer than "
                                  f"{MAX_LINE_BYTES} bytes"}
        words = line.split()
        if len(words) != 3:
            return 400, {"error": "malformed request line"}
        method, target, version = (w.decode("latin-1") for w in words)
        major, dot, minor = version[5:].partition(".")
        if not (version.startswith("HTTP/") and dot and major.isdigit()
                and minor.isdigit() and version.isascii()):
            return 400, {"error": f"malformed HTTP version {version[:32]!r}"}
        if major != "1":
            return 505, {"error": "only HTTP/1.x is supported, got "
                                  f"{version[:32]!r}"}
        lengths = set()
        for _ in range(MAX_HEADERS + 1):
            line = self._line()
            if len(line) > MAX_LINE_BYTES:
                return 431, {"error": "a header line is longer than "
                                      f"{MAX_LINE_BYTES} bytes"}
            if line in (b"\r\n", b"\n"):
                break
            name, colon, value = line.partition(b":")
            if not colon or not name or name != name.strip():
                return 400, {"error": "malformed header line"}
            if name.lower() == b"content-length":
                lengths.add(value.strip().decode("latin-1"))
        else:
            return 431, {"error": f"more than {MAX_HEADERS} header lines"}
        if len(lengths) > 1:
            return 400, {"error": "Content-Length headers disagree"}
        status, body = self._read_body(lengths.pop() if lengths else "0")
        if status != 200:
            return status, body
        return app.handle(method, target, body)

    def _read_body(self, header: str) -> Tuple[int, Dict]:
        """``(200, body)`` read by ``Content-Length: header``, or the
        ``(status, error)`` to answer instead; raises :class:`_Hangup`
        when the body ends early."""
        if not (header.isascii() and header.isdigit()):
            return 400, {"error": "Content-Length must be a non-negative "
                                  f"integer, got {header[:32]!r}"}
        digits = header.lstrip("0") or "0"  # int() refuses ~4300+ digits
        if len(digits) > len(str(MAX_BODY_BYTES)) or \
                int(digits) > MAX_BODY_BYTES:
            return 413, {"error": "Content-Length exceeds the "
                                  f"{MAX_BODY_BYTES}-byte body limit"}
        length = int(digits)
        raw = self.rfile.read(length) if length else b""
        if len(raw) < length:
            raise _Hangup
        try:
            body = json.loads(raw.decode("utf-8")) if raw else {}
        except (ValueError, RecursionError):
            return 400, {"error": "request body is not valid JSON"}
        if not isinstance(body, dict):
            return 400, {"error": "request body must be a JSON object"}
        return 200, body

    def _send(self, status: int, payload: Dict) -> None:
        raw = dumps_canonical(payload, indent=None).encode("utf-8")
        head = (f"HTTP/1.0 {status} {_REASONS[status]}\r\n"
                f"Server: {self.server.server_version}\r\n"
                f"Date: {formatdate(usegmt=True)}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(raw)}\r\n\r\n")
        self.wfile.write(head.encode("latin-1") + raw)


class JsonServer(socketserver.ThreadingTCPServer):
    """A threading HTTP/1.0 server answering every request from ``app``
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

    allow_reuse_address = True
    daemon_threads = True
    # socketserver's listen backlog of 5 overflows when more clients
    # connect at once than the accept loop has taken: the kernel then
    # drops SYNs (a 1 s client retry) or answers with SYN cookies, which
    # can end in a connection reset.
    request_queue_size = 128

    def __init__(self, app: JsonApp, host: str, port: int) -> None:
        super().__init__((host, port), _Handler)
        self.app = app
        self.server_version = (f"{app.schema} "
                               f"Python/{sys.version.split()[0]}")
        self._handoff = queue.SimpleQueue()  # connections, or None
        self._idle_mu = threading.Lock()
        self._idle = 0  # threads waiting on _handoff, none handed to yet
        self._closed = False

    @property
    def server_port(self) -> int:
        return self.server_address[1]

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
