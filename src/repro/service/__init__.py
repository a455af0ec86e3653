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

Every name below resolves on first use (a module ``__getattr__``): a
bound server, which never uses the client, does not load
:mod:`repro.service.client` and with it ``urllib.request`` and
``http.client``, and the fleet controller, which uses only
:mod:`repro.service.http`, does not load the bound server and the
analysis stack (numpy, the store, the builders) behind it.
"""

from importlib import import_module

#: the submodule each exported name lives in
_EXPORTS = {
    **dict.fromkeys(("BoundService", "DEFAULT_PORT", "make_server",
                     "serve"), "server"),
    **dict.fromkeys(("ServiceClient", "ServiceError"), "client"),
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


__all__ = list(_EXPORTS)
