"""The fleet controller: a persistent cell queue behind stdlib HTTP.

One :class:`FleetController` owns the authoritative schedule of a grid
sweep: which cells are pending, delayed (backing off after a failure),
leased to a worker, committed, or permanently failed.  The HTTP layer
(:func:`make_fleet_server`) is :mod:`repro.service.http`, shared with
the bound server — every endpoint is a route-table entry calling into
the controller (JSON in, JSON out) under one lock.

Design rules, in order:

* **The results root is the durable state.**  A cell is *done* when its
  run directory holds a committed ``summary.json`` whose config hash
  matches — the same commit protocol every other consumer of the
  harness uses.  The controller keeps no database: ``submit_grid``
  derives the queue from :func:`~repro.evaluation.harness.plan_resume`
  over the shared root, so a controller that is SIGKILLed mid-grid and
  restarted with the same grid re-queues exactly the unfinished cells
  and never recomputes a committed one.
* **Leases expire; work never disappears.**  A lease is valid for
  ``lease_ttl_s`` and renewed by worker heartbeats.  A worker that
  crashes, hangs, or partitions stops heartbeating; its lease expires
  and the cell is re-queued with exponential backoff
  (``backoff_s * 2**(attempt-1)``, capped at ``backoff_max_s``) up to
  ``max_retries`` re-queues, after which the cell is marked failed and
  the rest of the grid proceeds.
* **Completion is verified, not trusted.**  A worker's "done" report is
  accepted only if the committed summary is actually on disk with the
  right config hash; anything else is treated as a failure report.
* **Per-worker concurrency caps.**  Workers register with a slot count
  (their local process-pool width); the controller never leases a
  worker more cells than its slots, so one greedy lease loop cannot
  starve the fleet.
* **Idle leases wait for the queue to change.**  A lease that finds no
  cell for its worker may wait up to ``wait_s`` (capped at ``poll_s``)
  on a condition over the queue lock.  Submitting a grid, dropping a
  lease (a report or an expiry) and re-queueing a cell wake it, and so
  do the earliest delayed cell's eligibility and the earliest lease
  expiry; a complete grid answers at once.  The wait runs in real time
  (``Condition.wait``); every lease, backoff and expiry decision still
  reads ``clock``.

Duplicate execution is possible by design (a live worker past its TTL
races its replacement) and harmless by construction: cells are
deterministic, both workers write the same bytes, and the run-directory
commit protocol means the last committed summary wins.  ``/v1/report``
from a worker that lost its lease is acknowledged but changes nothing.

Two cross-cutting rules added with the observability layer:

* **Monotonic for intervals, wall for reported timestamps.**  Every
  piece of lease/backoff/staleness arithmetic runs on an injectable
  ``clock`` (default :func:`time.monotonic`): a wall-clock step — NTP
  correction, VM resume — can neither mass-expire every lease nor
  immortalize one.  Wall clock appears only in *reported* fields
  (event ``ts`` stamps).
* **Instrumented seams.**  The controller owns a
  :class:`~repro.obs.MetricsRegistry` (per-endpoint request counters +
  latency histograms, lease/requeue/failure counters) and a bounded
  :class:`~repro.obs.EventRing` (lease granted/expired, cell
  re-queued/committed/failed with the signal name when there is one).
  ``GET /metrics`` serves both plus the per-cell failure table that
  ``repro fleet status --failures`` renders (see
  ``docs/observability.md``).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..evaluation.harness import (
    REGISTRY,
    RunSpec,
    _validate_grid,
    plan_resume,
    scan_results_root,
)
from ..evaluation.manifest import canonical_config, read_summary
from ..obs import signal_from_error
from ..service.http import JsonApp, JsonServer, number, run_forever

__all__ = [
    "DEFAULT_FLEET_PORT",
    "FLEET_SCHEMA",
    "FleetController",
    "make_fleet_server",
    "serve_fleet",
]

DEFAULT_FLEET_PORT = 8199
FLEET_SCHEMA = "repro-fleet/1"


def spec_to_wire(spec: RunSpec) -> Dict:
    """The JSON form of one grid cell (inverse: :func:`spec_from_wire`)."""
    return {
        "experiment": spec.experiment,
        "params": canonical_config(spec.params),
        "seed": spec.seed,
        "label": spec.label,
    }


def spec_from_wire(cell: Mapping) -> RunSpec:
    """Rebuild a :class:`RunSpec` from its wire form.  Params are
    re-canonicalized, so the config hash matches the submitting side's
    byte for byte."""
    return RunSpec(
        experiment=str(cell["experiment"]),
        params=canonical_config(cell.get("params") or {}),
        seed=int(cell.get("seed", 0)),
        label=str(cell["label"]),
    )


def _expect_list(value, message: str) -> list:
    """``value`` if it is a JSON list, else a client error."""
    if not isinstance(value, list):
        raise ValueError(message)
    return value


@dataclass
class _Lease:
    label: str
    worker: str
    attempt: int
    expires_s: float
    acquired_s: float


@dataclass
class _Worker:
    name: str
    slots: int
    registered_s: float
    last_seen_s: float
    leased: set = field(default_factory=set)


class FleetController(JsonApp):
    """Queue + lease logic, independent of HTTP plumbing (unit-testable).

    Parameters
    ----------
    root:
        The shared results root every worker writes into (an NFS mount,
        a shared volume, or just a local path for a localhost fleet).
    lease_ttl_s:
        Lease validity window; heartbeats renew it.  Workers are told
        the TTL at registration and heartbeat at a fraction of it.
    max_retries:
        How many times a cell may be re-queued (lease expiry or failure
        report) before it is marked permanently failed.
    backoff_s / backoff_max_s:
        Exponential re-queue backoff: re-queue ``k`` becomes eligible
        after ``min(backoff_s * 2**(k-1), backoff_max_s)`` seconds.
    registry:
        Experiment registry used only to validate submitted grids
        (workers own the run callables).
    clock:
        Interval clock for every lease/backoff/staleness computation —
        :func:`time.monotonic` by default, injectable so tests can step
        it deterministically.  Must never jump backwards; wall clock
        (:func:`time.time`) is used only for reported timestamps.
    """

    schema = FLEET_SCHEMA

    def __init__(
        self,
        root,
        lease_ttl_s: float = 30.0,
        max_retries: int = 3,
        backoff_s: float = 1.0,
        backoff_max_s: float = 60.0,
        poll_s: float = 0.5,
        registry: Mapping = REGISTRY,
        log: Callable[[str], None] = print,
        clock: Callable[[], float] = time.monotonic,
        events_capacity: int = 1024,
    ) -> None:
        if lease_ttl_s <= 0:
            raise ValueError(f"lease_ttl_s must be positive, got {lease_ttl_s}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.lease_ttl_s = float(lease_ttl_s)
        self.max_retries = int(max_retries)
        self.backoff_s = float(backoff_s)
        self.backoff_max_s = float(backoff_max_s)
        self.poll_s = float(poll_s)
        self.registry = registry
        self.log = log
        super().__init__(clock=clock, events_capacity=events_capacity)
        self._mu = threading.Lock()
        #: notified whenever the queue or the leases change, so that an
        #: idle lease waiting on it can look again
        self._changed = threading.Condition(self._mu)
        self._specs: Dict[str, RunSpec] = {}
        self._order: List[str] = []
        self._queue: deque = deque()
        #: (eligible_at_s, label) re-queues waiting out their backoff
        #: (``clock`` timebase, like every other interval field here)
        self._delayed: List[Tuple[float, str]] = []
        self._leases: Dict[str, _Lease] = {}
        self._attempts: Dict[str, int] = {}
        self._done: List[str] = []
        self._skipped: List[str] = []
        self._failed: Dict[str, str] = {}
        self._last_error: Dict[str, str] = {}
        self._workers: Dict[str, _Worker] = {}
        self.routes = {
            ("GET", "/health"): lambda body: self.health(),
            ("GET", "/status"): lambda body: self.status(),
            ("GET", "/metrics"): lambda body: self.metrics_view(),
            ("POST", "/v1/grid"): lambda body: self.submit_grid(
                _expect_list(body.get("cells"),
                             "'cells' must be a list of cell objects")
            ),
            ("POST", "/v1/register"): lambda body: self.register(
                str(body.get("worker", "")), number(body, "slots", 1)
            ),
            ("POST", "/v1/lease"): lambda body: self.lease(
                str(body.get("worker", "")),
                number(body, "wait_s", 0.0, kind=float),
            ),
            ("POST", "/v1/heartbeat"): lambda body: self.heartbeat(
                str(body.get("worker", "")),
                _expect_list(body.get("labels") or [],
                             "'labels' must be a list"),
            ),
            ("POST", "/v1/report"): lambda body: self.report(
                str(body.get("worker", "")),
                str(body.get("label", "")),
                bool(body.get("ok", False)),
                str(body.get("error", "")),
            ),
        }

    # ------------------------------------------------------------------
    # Grid lifecycle
    # ------------------------------------------------------------------
    def submit_grid(self, cells: Sequence[Mapping]) -> Dict:
        """Install a grid: plan resume over the results root, queue the
        unfinished cells, record the committed ones as skipped.

        Raises ``ValueError`` while a previous grid still has pending,
        delayed, or leased cells (finished grids — including ones with
        permanently failed cells — may be replaced freely).
        """
        specs = [spec_from_wire(cell) for cell in cells]
        if not specs:
            raise ValueError("grid must contain at least one cell")
        _validate_grid(specs, self.registry)
        with self._mu:
            self._expire_leases_locked()
            if self._queue or self._delayed or self._leases:
                raise ValueError(
                    "a grid is already active (pending/leased cells "
                    "outstanding); wait for it to finish"
                )
            plan = plan_resume(specs, scan_results_root(self.root))
            self._specs = {spec.label: spec for spec in specs}
            self._order = [spec.label for spec in specs]
            self._queue = deque(
                label for label in self._order if label in set(plan.to_execute)
            )
            self._delayed = []
            self._leases = {}
            self._attempts = {label: 0 for label in self._order}
            self._done = []
            self._skipped = list(plan.skip)
            self._failed = {}
            self._last_error = {}
            self._changed.notify_all()
            self.log(
                f"grid submitted: {len(self._queue)} cell(s) queued, "
                f"{len(self._skipped)} already committed"
            )
            self.metrics.counter("fleet.grids_submitted").inc()
            self.events.emit(
                "grid.submitted",
                queued=len(self._queue), skipped=len(self._skipped),
                stale=len(plan.stale), partial=len(plan.partial),
            )
            return {
                "queued": len(self._queue),
                "skipped": len(self._skipped),
                "stale": len(plan.stale),
                "partial": len(plan.partial),
            }

    # ------------------------------------------------------------------
    # Worker-facing endpoints
    # ------------------------------------------------------------------
    def register(self, worker: str, slots: int = 1) -> Dict:
        if not worker:
            raise ValueError("worker registration needs a non-empty name")
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        now = self.clock()
        with self._mu:
            rec = self._workers.get(worker)
            if rec is None:
                self._workers[worker] = _Worker(
                    name=worker, slots=int(slots),
                    registered_s=now, last_seen_s=now,
                )
                self.log(f"worker registered: {worker} (slots={slots})")
                self.metrics.counter("fleet.workers_registered").inc()
                self.events.emit("worker.registered", worker=worker,
                                 slots=int(slots))
            else:  # re-registration updates the cap, keeps the leases
                rec.slots = int(slots)
                rec.last_seen_s = now
        return {
            "ok": True,
            "lease_ttl_s": self.lease_ttl_s,
            "poll_s": self.poll_s,
            "root": str(self.root),
        }

    def lease(self, worker: str, wait_s: float = 0.0) -> Dict:
        """Hand one pending cell to ``worker``, or explain why not
        (``complete`` grid, empty-but-backing-off queue, or the worker's
        slot cap).

        With no cell to hand out and the grid not complete, the call
        waits up to ``wait_s`` seconds (capped at ``poll_s``) for the
        queue to change, and looks again each time it does."""
        if not worker:
            raise ValueError("lease request needs a worker name")
        if not wait_s >= 0:  # NaN too
            raise ValueError(f"'wait_s' must be >= 0, got {wait_s!r}")
        until = time.monotonic() + min(wait_s, self.poll_s)
        with self._mu:
            while True:
                now = self.clock()
                rec = self._touch_locked(worker, now)
                self._expire_leases_locked(now)
                self._promote_delayed_locked(now)
                full = len(rec.leased) >= rec.slots
                if self._queue and not full:
                    break
                complete = self._complete_locked()
                left = until - time.monotonic()
                if complete or left <= 0:
                    return self._no_cell_locked(full, complete, now)
                # A delayed cell's eligibility and a lease's expiry change
                # the queue without a request to notify.
                due = [t for t, _ in self._delayed]
                due += [lease.expires_s for lease in self._leases.values()]
                if due:
                    left = min(left, min(due) - now)
                self._changed.wait(left)
            label = self._queue.popleft()
            attempt = self._attempts[label]
            self._leases[label] = _Lease(
                label=label, worker=worker, attempt=attempt,
                expires_s=now + self.lease_ttl_s, acquired_s=now,
            )
            rec.leased.add(label)
            self.log(f"[lease]   {label} -> {worker} (attempt {attempt})")
            self.metrics.counter("fleet.leases_granted").inc()
            self.events.emit("lease.granted", label=label, worker=worker,
                             attempt=attempt)
            self.events.emit("cell.started", label=label, worker=worker,
                             attempt=attempt)
            return {
                "cell": spec_to_wire(self._specs[label]),
                "attempt": attempt,
                "lease_ttl_s": self.lease_ttl_s,
                "complete": False,
            }

    def _no_cell_locked(self, full: bool, complete: bool,
                        now: float) -> Dict:
        """The answer to a lease that gets no cell."""
        if full:
            return {"cell": None, "complete": False,
                    "reason": "worker at slot capacity",
                    "retry_in_s": self.poll_s}
        retry = self.poll_s
        if self._delayed:
            retry = max(self.poll_s, min(t for t, _ in self._delayed) - now)
        return {"cell": None, "complete": complete,
                "reason": "no pending cells", "retry_in_s": retry}

    def heartbeat(self, worker: str, labels: Sequence[str]) -> Dict:
        """Renew ``worker``'s leases on ``labels``; returns the subset it
        no longer holds (expired and re-queued, or re-leased elsewhere)
        so the worker can abort those cell processes."""
        if not worker:
            raise ValueError("heartbeat needs a worker name")
        now = self.clock()
        lost: List[str] = []
        with self._mu:
            self._touch_locked(worker, now)
            self._expire_leases_locked(now)
            for label in labels:
                lease = self._leases.get(str(label))
                if lease is not None and lease.worker == worker:
                    lease.expires_s = now + self.lease_ttl_s
                else:
                    lost.append(str(label))
        return {"ok": True, "lost": lost}

    def report(self, worker: str, label: str, ok: bool,
               error: str = "") -> Dict:
        """Completion/failure report for one leased cell.

        A "done" report is verified against the results root (committed
        summary, matching config hash) before the cell is marked done;
        reports for leases the worker no longer holds are acknowledged
        without effect (its replacement owns the cell now).
        """
        if not worker or not label:
            raise ValueError("report needs a worker and a cell label")
        now = self.clock()
        with self._mu:
            self._touch_locked(worker, now)
            self._expire_leases_locked(now)
            lease = self._leases.get(label)
            if lease is None or lease.worker != worker:
                return {"accepted": False,
                        "reason": "lease not held by this worker"}
            self._drop_lease_locked(lease)
            if ok:
                spec = self._specs[label]
                summary = read_summary(self.root / label)
                if (
                    summary is not None
                    and summary.get("config_hash") == spec.hash()
                ):
                    self._done.append(label)
                    self.log(f"[done]    {label} ({worker})")
                    self.metrics.counter("fleet.cells_done").inc()
                    self.events.emit("cell.committed", label=label,
                                     worker=worker, attempt=lease.attempt)
                    return {"accepted": True}
                error = error or "reported done without a committed summary"
            self.events.emit(
                "cell.attempt_failed", label=label, worker=worker,
                attempt=lease.attempt, error=error,
                signal=signal_from_error(error),
            )
            self._requeue_locked(label, f"{error} (worker {worker})", now)
            return {"accepted": True}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def health(self) -> Dict:
        with self._mu:
            self._expire_leases_locked()
            return {
                "status": "ok",
                "schema": FLEET_SCHEMA,
                "uptime_s": self.uptime_s(),
                "root": str(self.root),
                "complete": self._complete_locked(),
                "cells": self._counts_locked(),
            }

    def status(self) -> Dict:
        now = self.clock()
        with self._mu:
            self._expire_leases_locked(now)
            self._promote_delayed_locked(now)
            return {
                "schema": FLEET_SCHEMA,
                "uptime_s": self.uptime_s(),
                "root": str(self.root),
                "complete": self._complete_locked(),
                "cells": self._counts_locked(),
                "pending": list(self._queue),
                "delayed": [
                    {"label": label, "eligible_in_s": max(0.0, t - now)}
                    for t, label in sorted(self._delayed)
                ],
                "leases": [
                    {
                        "label": lease.label,
                        "worker": lease.worker,
                        "attempt": lease.attempt,
                        "expires_in_s": lease.expires_s - now,
                    }
                    for lease in self._leases.values()
                ],
                "done": list(self._done),
                "skipped": list(self._skipped),
                "failed": dict(self._failed),
                "workers": [
                    {
                        "name": rec.name,
                        "slots": rec.slots,
                        "leased": sorted(rec.leased),
                        "last_seen_s_ago": now - rec.last_seen_s,
                    }
                    for rec in self._workers.values()
                ],
            }

    def failures(self) -> List[Dict]:
        """Per-cell failure rows for the dashboard: every cell that has
        been re-queued at least once or failed permanently, with its
        current state, attempt count, last error (and the signal name
        parsed out of it), and remaining backoff.  Rendered client-side
        by :func:`repro.obs.render_failure_table`
        (``repro fleet status --failures``)."""
        now = self.clock()
        with self._mu:
            self._expire_leases_locked(now)
            rows: List[Dict] = []
            delayed = {label: t for t, label in self._delayed}
            queued = set(self._queue)
            done = set(self._done)
            for label in self._order:
                attempts = self._attempts.get(label, 0)
                if attempts == 0 and label not in self._failed:
                    continue
                if label in self._failed:
                    state = "failed"
                elif label in self._leases:
                    state = "leased"
                elif label in delayed:
                    state = "delayed"
                elif label in queued:
                    state = "pending"
                elif label in done:
                    state = "done"
                else:
                    state = "unknown"
                lease = self._leases.get(label)
                error = self._last_error.get(label, "")
                rows.append({
                    "label": label,
                    "state": state,
                    "attempts": attempts,
                    "max_retries": self.max_retries,
                    "worker": lease.worker if lease is not None else "",
                    "backoff_in_s": (
                        max(0.0, delayed[label] - now)
                        if label in delayed else None
                    ),
                    "last_error": error,
                    "last_signal": signal_from_error(error),
                })
            return rows

    def metrics_view(self) -> Dict:
        """The ``GET /metrics`` payload: instrument snapshot (request
        counters, per-endpoint latency histograms, lease/requeue/failure
        counters), the recent event ring, and the per-cell failure rows.
        Canonical JSON on the wire, so two scrapes of the same state are
        byte-identical."""
        # failures() first: it sweeps expired leases, and the expiry
        # counters/events must land in this scrape, not the next one.
        failures = self.failures()
        return super().metrics_view(failures=failures)

    # ------------------------------------------------------------------
    # Internals (call with the lock held)
    # ------------------------------------------------------------------
    def _touch_locked(self, worker: str, now: float) -> _Worker:
        rec = self._workers.get(worker)
        if rec is None:  # self-registering agents: a poll implies a worker
            rec = _Worker(name=worker, slots=1,
                          registered_s=now, last_seen_s=now)
            self._workers[worker] = rec
            self.log(f"worker auto-registered: {worker}")
        rec.last_seen_s = now
        return rec

    def _drop_lease_locked(self, lease: _Lease) -> None:
        self._leases.pop(lease.label, None)
        rec = self._workers.get(lease.worker)
        if rec is not None:
            rec.leased.discard(lease.label)
        self._changed.notify_all()

    def _expire_leases_locked(self, now: Optional[float] = None) -> None:
        now = self.clock() if now is None else now
        for lease in [
            lease for lease in self._leases.values()
            if lease.expires_s <= now
        ]:
            self._drop_lease_locked(lease)
            self.log(f"[expire]  {lease.label} "
                     f"(lease of {lease.worker} timed out)")
            self.metrics.counter("fleet.leases_expired").inc()
            self.events.emit("lease.expired", label=lease.label,
                             worker=lease.worker, attempt=lease.attempt)
            self._requeue_locked(
                lease.label,
                f"lease expired (worker {lease.worker} stopped "
                "heartbeating)",
                now,
            )

    def _requeue_locked(self, label: str, reason: str, now: float) -> None:
        self._attempts[label] += 1
        attempt = self._attempts[label]
        self._last_error[label] = reason
        if attempt > self.max_retries:
            self._failed[label] = reason
            self.log(f"[failed]  {label} after {attempt} attempt(s): "
                     f"{reason}")
            self.metrics.counter("fleet.cells_failed").inc()
            self.events.emit("cell.failed", label=label, attempts=attempt,
                             error=reason, signal=signal_from_error(reason))
            return
        delay = min(
            self.backoff_s * (2 ** (attempt - 1)), self.backoff_max_s
        )
        self._delayed.append((now + delay, label))
        self._changed.notify_all()
        self.log(f"[requeue] {label} in {delay:g}s "
                 f"(attempt {attempt}: {reason})")
        self.metrics.counter("fleet.cells_requeued").inc()
        self.events.emit("cell.requeued", label=label, attempt=attempt,
                         delay_s=delay, error=reason,
                         signal=signal_from_error(reason))

    def _promote_delayed_locked(self, now: float) -> None:
        due = [(t, label) for t, label in self._delayed if t <= now]
        if not due:
            return
        self._delayed = [(t, label) for t, label in self._delayed if t > now]
        for _t, label in sorted(due):
            self._queue.append(label)

    def _complete_locked(self) -> bool:
        return bool(self._specs) and not (
            self._queue or self._delayed or self._leases
        )

    def _counts_locked(self) -> Dict[str, int]:
        return {
            "total": len(self._specs),
            "pending": len(self._queue),
            "delayed": len(self._delayed),
            "leased": len(self._leases),
            "done": len(self._done),
            "skipped": len(self._skipped),
            "failed": len(self._failed),
        }


def make_fleet_server(
    root,
    host: str = "127.0.0.1",
    port: int = DEFAULT_FLEET_PORT,
    controller: Optional[FleetController] = None,
    **controller_opts,
) -> JsonServer:
    """A ready-to-serve controller bound to ``host:port`` (``port=0``
    picks a free port — see ``server_port``).  The caller owns the
    loop: ``serve_forever()`` / ``shutdown()``, then ``server_close()``."""
    if controller is None:
        controller = FleetController(root, **controller_opts)
    return JsonServer(controller, host, port)


def serve_fleet(
    root,
    host: str = "127.0.0.1",
    port: int = DEFAULT_FLEET_PORT,
    grid: Optional[Sequence[RunSpec]] = None,
    log=print,
    **controller_opts,
) -> None:  # pragma: no cover - blocking CLI loop
    """Blocking entry point of ``repro fleet serve``.  With ``grid``,
    the controller self-submits it at startup (resume semantics: cells
    already committed under ``root`` are skipped)."""
    server = make_fleet_server(root, host=host, port=port, log=log,
                               **controller_opts)
    if grid is not None:
        server.app.submit_grid([spec_to_wire(s) for s in grid])
    log(
        f"repro fleet controller on http://{host}:{server.server_port} "
        f"(results root: {root})"
    )
    log("endpoints: GET /health /status /metrics; "
        "POST /v1/{grid,register,lease,heartbeat,report}")
    run_forever(server, log)
