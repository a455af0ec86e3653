"""Controller/worker fleet: distributed experiment sweeps.

The layer above ``sweep --jobs N`` (per-cell worker processes on one
machine): a small stdlib-HTTP **controller** owns a persistent cell
queue derived from :func:`repro.evaluation.harness.plan_resume` over a
shared results root, and **workers** — on the same machine or any host
that can reach the controller and the results root — lease cells
(an idle worker's lease waits on the controller until the queue
changes), execute them through the harness's crash-isolated
cell-process machinery, and report back.  Leases carry a TTL renewed by heartbeats;
an expired lease re-queues its cell with bounded retries and
exponential backoff, so worker crashes, hangs and partitions cost one
lease window, never the sweep.  Results are byte-identical to
``sweep --jobs 1`` and the committed store *is* the controller's
durable state: restarting the controller re-plans over the results
root and never recomputes a committed cell.

See ``docs/fleet.md`` for the wire protocol and operational notes.

Every name below resolves on first use (a module ``__getattr__``), so
each process loads only its own role: the controller neither the
worker's cell-process machinery nor the HTTP client.
"""

from importlib import import_module

#: the submodule each exported name lives in
_EXPORTS = {
    "FleetClient": "client",
    **dict.fromkeys(("DEFAULT_FLEET_PORT", "FleetController",
                     "make_fleet_server", "serve_fleet"), "controller"),
    **dict.fromkeys(("FleetWorker", "fleet_sweep"), "worker"),
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


__all__ = list(_EXPORTS)
