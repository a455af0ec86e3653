"""The HTTP layer's boundary: the error map (a field nested too deep
for the handlers is a 400 too), and request framing on both servers
over a real socket — a malformed ``Content-Length`` or body is a 400, a
length over the body cap is a 413 answered without reading the body,
and a client that stalls mid-body loses its connection after the socket
timeout while the server keeps answering others."""

import json
import socket
import threading
import time

import pytest

from repro.fleet import make_fleet_server
from repro.fleet.controller import FleetController
from repro.service import http as http_layer
from repro.service import make_server
from repro.service.server import BoundService
from repro.store.db import ArtifactStore


@pytest.mark.parametrize("exc, status", [
    (KeyError, 400), (TypeError, 400), (ValueError, 400),
    (OverflowError, 400), (RecursionError, 400), (AttributeError, 500),
    (RuntimeError, 500),
])
def test_error_map(exc, status):
    def route(body):
        raise exc("boom")

    app = http_layer.JsonApp()
    app.routes = {("POST", "/x"): route}
    assert app.handle("POST", "/x", {})[0] == status
    counters = app.metrics.snapshot()["counters"]
    assert counters["http.errors{POST /x}"] == 1


def nested(depth):
    value = 1
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("path, body", [
    (path, {"builder": "chain", "params": {"length": nested(600)}})
    for path in ("/v1/compiled", "/v1/schedule", "/v1/bound")
] + [("/v1/pebble", {"params": {"workload": "star", "ops": nested(600)}})])
def test_deeply_nested_field_is_400_on_the_bound_server(tmp_path, path,
                                                        body):
    app = BoundService(ArtifactStore(tmp_path / "svc.db"))
    try:
        assert app.handle("POST", path, body)[0] == 400
        assert app.store.counters["misses"] == 0
    finally:
        app.close()


def test_deeply_nested_field_is_400_on_the_controller(tmp_path):
    controller = FleetController(tmp_path / "root", log=lambda message: None)
    cell = {"experiment": "spill", "label": "a",
            "params": {"workload": nested(600)}}
    assert controller.handle("POST", "/v1/grid", {"cells": [cell]})[0] == 400
    assert controller.status()["cells"]["total"] == 0


@pytest.fixture(params=["service", "fleet"])
def server(request, tmp_path):
    """A running server of each kind; yields ``(port, POST path)``."""
    if request.param == "service":
        srv, path = make_server(tmp_path / "svc.db", port=0), "/v1/bound"
    else:
        srv = make_fleet_server(tmp_path / "root", port=0,
                                log=lambda message: None)
        path = "/v1/lease"
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv.server_port, path
    finally:
        srv.shutdown()
        thread.join(5.0)
        srv.app.close()
        srv.server_close()


def head(path, length):
    return (f"POST {path} HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {length}\r\n\r\n").encode()


def exchange(port, raw, timeout=5.0):
    """Send ``raw`` and read until the server closes; returns
    ``(status, payload)``, or ``(None, None)`` if it closed silently."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(raw)
        data = b""
        while chunk := s.recv(65536):
            data += chunk
    if not data:
        return None, None
    status_line, _, rest = data.partition(b"\r\n")
    return int(status_line.split()[1]), json.loads(rest.split(b"\r\n\r\n")[1])


@pytest.mark.parametrize("length", ["abc", "-5", "1e3"])
def test_malformed_content_length_is_400(server, length):
    port, path = server
    status, payload = exchange(port, head(path, length))
    assert status == 400
    assert "Content-Length" in payload["error"]


@pytest.mark.parametrize("length", [http_layer.MAX_BODY_BYTES + 1,
                                    "9" * 5000], ids=["cap+1", "5000-digits"])
def test_body_over_the_cap_is_413_without_reading_it(server, length):
    """The body is never sent: a server that tried to read it would
    block until the client gave up.  A length too long for ``int()`` to
    parse is a 413 too."""
    port, path = server
    status, payload = exchange(port, head(path, length))
    assert status == 413
    assert str(http_layer.MAX_BODY_BYTES) in payload["error"]


def test_deeply_nested_body_is_400(server):
    port, path = server
    body = b"[" * 100_000
    status, payload = exchange(port, head(path, len(body)) + body)
    assert status == 400
    assert "not valid JSON" in payload["error"]


def test_stalled_sender_does_not_hold_up_other_connections(server):
    """A connection stalled mid-body keeps its thread, so the next
    connection gets another thread and is answered at once.  The first
    request leaves a waiting thread behind, which the stalled
    connection takes; a fixed-size pool of one would queue /health."""
    port, path = server
    raw = b"GET /health HTTP/1.1\r\nHost: localhost\r\n\r\n"
    assert exchange(port, raw)[0] == 200
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as s:
        s.sendall(head(path, 10) + b'{"w')  # 3 of 10 body bytes
        time.sleep(0.1)  # let the server hand it to a thread
        start = time.monotonic()
        assert exchange(port, raw, timeout=1.0)[0] == 200
        assert time.monotonic() - start < 1.0


def test_stalled_sender_is_dropped_after_the_socket_timeout(server,
                                                            monkeypatch):
    monkeypatch.setattr(http_layer, "SOCKET_TIMEOUT_S", 0.3)
    port, path = server
    start = time.monotonic()
    # 3 of the 10 announced body bytes, then silence
    assert exchange(port, head(path, 10) + b'{"w', timeout=10.0) == \
        (None, None)
    assert time.monotonic() - start < 5.0
    raw = b"GET /health HTTP/1.1\r\nHost: localhost\r\n\r\n"
    assert exchange(port, raw)[0] == 200


def test_client_hang_up_is_counted_not_printed(server, capfd):
    """A client that closes before its response makes the server's
    write fail (``BrokenPipeError`` or ``ConnectionResetError``).  The
    server counts that as ``http.client_disconnects`` in ``GET
    /metrics`` and prints no traceback."""
    port, path = server
    for _ in range(3):
        with socket.create_connection(("127.0.0.1", port), timeout=5.0) as s:
            s.sendall(head(path, 10) + b'{"w')  # 3 of 10 body bytes
    raw = b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n"
    deadline = time.monotonic() + 5.0
    while True:
        status, payload = exchange(port, raw)
        assert status == 200
        count = payload["metrics"]["counters"].get(
            "http.client_disconnects", 0)
        if count >= 1 or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert count >= 1
    assert "Traceback" not in capfd.readouterr().err
