"""Analysis-as-a-service: the long-running memoized bound server.

``repro serve`` runs a threaded HTTP/1.0 server that answers
bound/schedule/pebbling/compile queries for many concurrent clients out
of the content-addressed artifact store (:mod:`repro.store`), with
single-flight deduplication of identical in-flight computations and
``/health`` + ``/stats`` introspection.  :mod:`repro.service.http` is
the HTTP layer it shares with the fleet controller, on the stdlib's
``socketserver`` (route tables, request framing, one-write answers,
error map, ``http.*`` metrics).  See
``docs/service.md`` for the service contract and
``benchmarks/bench_service.py`` for the many-tenant load benchmark.

``ServiceClient`` and ``ServiceError`` resolve on first use (a module
``__getattr__``), so a server process, which never uses the client,
does not load :mod:`repro.service.client` and with it
``urllib.request`` and ``http.client``.
"""

from .server import DEFAULT_PORT, BoundService, make_server, serve

_CLIENT_NAMES = ("ServiceClient", "ServiceError")


def __getattr__(name: str):
    if name in _CLIENT_NAMES:
        from . import client

        return getattr(client, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BoundService",
    "ServiceClient",
    "ServiceError",
    "DEFAULT_PORT",
    "make_server",
    "serve",
]
