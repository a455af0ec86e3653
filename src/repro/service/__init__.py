"""Analysis-as-a-service: the long-running memoized bound server.

``repro serve`` runs a threaded HTTP server that answers
bound/schedule/pebbling/compile queries for many concurrent clients out
of the content-addressed artifact store (:mod:`repro.store`), with
single-flight deduplication of identical in-flight computations and
``/health`` + ``/stats`` introspection.  :mod:`repro.service.http` is
the stdlib-only HTTP layer it shares with the fleet controller (route
tables, framing, error map, ``http.*`` metrics).  See
``docs/service.md`` for the service contract and
``benchmarks/bench_service.py`` for the many-tenant load benchmark.
"""

from .client import ServiceClient, ServiceError
from .server import DEFAULT_PORT, BoundService, make_server, serve

__all__ = [
    "BoundService",
    "ServiceClient",
    "ServiceError",
    "DEFAULT_PORT",
    "make_server",
    "serve",
]
