"""Fleet worker: lease, execute, report.

A worker is a thin scheduling shell around the *same* per-cell
machinery ``sweep --jobs N`` uses: each leased cell runs in its own
process via :func:`~repro.evaluation.harness._cell_process_main`
(crash isolation, ``REPRO_HARNESS_KILL_AT`` fault injection), writing
into the shared results root under the exact run-directory commit
protocol — which is what makes a fleet sweep byte-identical to a local
one.

The loop, once per wake-up:

1. **Reap** finished cell processes; report exit 0 as done (the
   controller re-verifies the committed summary) and anything else as
   a failure named by :func:`describe_worker_exit`.
2. **Heartbeat** at a third of the lease TTL, listing the cells still
   running; any label the controller says is *lost* (lease expired or
   re-assigned) gets its process terminated — two owners of one run
   directory would be wasteful, though never incorrect.
3. **Lease** more cells while local slots are free (``slots`` is the
   per-worker concurrency cap; the controller enforces it too).  A
   worker with no running cell asks with ``wait_s = poll_s``, so the
   controller holds the request until the queue changes (a long poll);
   one with running cells asks without waiting.
4. **Wait** on the running cells' sentinels
   (:func:`~repro.evaluation.harness._wait_for_exit`) until a cell
   exits, the next heartbeat, the nearest ``cell_timeout`` deadline or
   the controller's ``retry_in_s``, whichever comes first.

Connection-level hiccups are absorbed by :class:`FleetClient`'s
bounded retry; if the controller stays down past that, the worker
terminates its cells and exits — the next controller re-queues the
unfinished cells from the results root.
"""

from __future__ import annotations

import os
import shutil
import socket
import time
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..evaluation.harness import (
    REGISTRY,
    RunSpec,
    _cell_process_main,
    _mp_context,
    _wait_for_exit,
    describe_worker_exit,
)
from ..obs import EventRing, MetricsRegistry, signal_from_error
from .client import FleetClient
from .controller import spec_from_wire, spec_to_wire

__all__ = ["FleetWorker", "fleet_sweep"]


class FleetWorker:
    """One worker process (hosting up to ``slots`` cell subprocesses)
    attached to a fleet controller.

    Parameters
    ----------
    url:
        Controller base URL, e.g. ``"http://127.0.0.1:8199"``.
    root:
        The shared results root; must be the same filesystem tree the
        controller plans over.
    name:
        Stable worker identity for leases; defaults to
        ``"<hostname>-<pid>"``.
    slots:
        Local concurrency cap — at most this many cell processes at
        once (mirrors ``sweep --jobs``).
    poll_s:
        The longest an idle lease waits on the controller (which caps
        it at its own ``poll_s``); defaults to the controller's.
    exit_when_done:
        Leave the lease loop once the controller reports the grid
        complete (the default); long-lived workers that should idle
        and wait for the next grid pass ``False``.
    cell_timeout:
        Optional per-cell wall-clock limit; a cell past it is
        terminated and reported failed (the controller's retry budget
        decides what happens next).
    """

    def __init__(
        self,
        url: str,
        root,
        name: Optional[str] = None,
        slots: int = 1,
        poll_s: Optional[float] = None,
        registry: Mapping = REGISTRY,
        exit_when_done: bool = True,
        cell_timeout: Optional[float] = None,
        client: Optional[FleetClient] = None,
        log: Callable[[str], None] = print,
    ) -> None:
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self.root = Path(root)
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.slots = int(slots)
        self.poll_s = poll_s
        self.registry = registry
        self.exit_when_done = exit_when_done
        self.cell_timeout = cell_timeout
        self.client = client if client is not None else FleetClient(url)
        self.log = log
        #: label -> (process, deadline | None)
        self._running: Dict[str, Tuple] = {}
        self._ctx = _mp_context()
        self.executed = 0
        self.reported_failed = 0
        self.metrics = MetricsRegistry()
        self.events = EventRing()

    # ------------------------------------------------------------------
    def run(self) -> Dict[str, int]:
        """Lease and run cells until the grid completes (or forever,
        with ``exit_when_done=False``); returns ``{"executed": n,
        "failed": m}`` counts for this worker."""
        info = self.client.register(self.name, self.slots)
        lease_ttl = float(info.get("lease_ttl_s", 30.0))
        poll_s = (
            self.poll_s if self.poll_s is not None
            else float(info.get("poll_s", 0.5))
        )
        heartbeat_every = max(lease_ttl / 3.0, 0.05)
        next_heartbeat = time.monotonic() + heartbeat_every
        self.log(
            f"fleet worker {self.name}: slots={self.slots}, "
            f"lease_ttl={lease_ttl:g}s, root={self.root}"
        )
        try:
            while True:
                self._reap()
                now = time.monotonic()
                if now >= next_heartbeat and self._running:
                    lost = self.client.heartbeat(
                        self.name, list(self._running)
                    ).get("lost", [])
                    for label in lost:
                        self._terminate(label, "lease lost")
                    next_heartbeat = now + heartbeat_every
                wake_at = None
                while len(self._running) < self.slots:
                    idle = not self._running
                    resp = self.client.lease(
                        self.name, wait_s=poll_s if idle else 0.0
                    )
                    cell = resp.get("cell")
                    if cell is None:
                        complete = resp.get("complete")
                        if complete and idle and self.exit_when_done:
                            self.log(
                                f"fleet worker {self.name}: grid complete "
                                f"({self.executed} cell(s) executed)"
                            )
                            return {
                                "executed": self.executed,
                                "failed": self.reported_failed,
                            }
                        # An idle lease has already waited on the
                        # controller, so it asks again at once.
                        if complete or not idle:
                            wake_at = time.monotonic() + max(
                                float(resp.get("retry_in_s", poll_s)), 0.01
                            )
                        break
                    self.metrics.counter("worker.leases_acquired").inc()
                    self._start_cell(spec_from_wire(cell))
                if self._running and (wake_at is None
                                      or wake_at > next_heartbeat):
                    wake_at = next_heartbeat
                _wait_for_exit(self._running, wake_at)
        finally:
            # Never orphan cell processes: on any exit path (controller
            # unreachable, KeyboardInterrupt) terminate and reap them.
            # Their leases expire and the cells are re-queued.
            for label in list(self._running):
                self._terminate(label, "worker shutting down")

    # ------------------------------------------------------------------
    def _start_cell(self, spec: RunSpec) -> None:
        run_dir = self.root / spec.label
        if run_dir.exists():
            shutil.rmtree(run_dir)
        run_dir.mkdir(parents=True)
        self.log(f"[run]     {spec.label}")
        proc = self._ctx.Process(
            target=_cell_process_main,
            args=(spec, str(run_dir), self.registry),
        )
        proc.start()
        deadline = (
            None if self.cell_timeout is None
            else time.monotonic() + self.cell_timeout
        )
        self._running[spec.label] = (proc, deadline)
        self.metrics.counter("worker.cells_started").inc()
        self.events.emit("cell.started", label=spec.label, worker=self.name)

    def _reap(self) -> None:
        for label, (proc, deadline) in list(self._running.items()):
            if proc.is_alive():
                if deadline is not None and time.monotonic() >= deadline:
                    self._kill_proc(proc)
                    del self._running[label]
                    self.reported_failed += 1
                    self.metrics.counter("worker.cells_timeout").inc()
                    self.events.emit("cell.timeout", label=label,
                                     worker=self.name,
                                     timeout_s=self.cell_timeout)
                    self.client.report(
                        self.name, label, ok=False,
                        error=f"timed out after {self.cell_timeout:g}s",
                    )
                    self.log(f"[timeout] {label}")
                continue
            proc.join()
            del self._running[label]
            if proc.exitcode == 0:
                self.executed += 1
                self.metrics.counter("worker.cells_done").inc()
                self.events.emit("cell.committed", label=label,
                                 worker=self.name)
                self.client.report(self.name, label, ok=True)
                self.log(f"[done]    {label}")
            else:
                reason = describe_worker_exit(proc.exitcode)
                self.reported_failed += 1
                self.metrics.counter("worker.cells_failed").inc()
                self.events.emit("cell.failed", label=label,
                                 worker=self.name, error=reason,
                                 signal=signal_from_error(reason))
                self.client.report(self.name, label, ok=False, error=reason)
                self.log(f"[failed]  {label} ({reason})")

    def _terminate(self, label: str, why: str) -> None:
        proc, _deadline = self._running.pop(label)
        if proc.is_alive():
            self._kill_proc(proc)
        self.metrics.counter("worker.cells_lost").inc()
        self.events.emit("cell.lost", label=label, worker=self.name,
                         reason=why)
        self.log(f"[drop]    {label} ({why})")

    @staticmethod
    def _kill_proc(proc) -> None:
        proc.terminate()
        proc.join(5.0)
        if proc.is_alive():  # pragma: no cover - stuck worker
            proc.kill()
            proc.join()


def fleet_sweep(
    url: str,
    specs: Sequence[RunSpec],
    poll_s: float = 0.5,
    timeout_s: Optional[float] = None,
    client: Optional[FleetClient] = None,
    log: Callable[[str], None] = print,
) -> Dict:
    """Drive a grid through a running fleet (``sweep --fleet URL``):
    submit the cells, poll ``/status`` until the grid completes, and
    return the final status mapping (``done`` / ``skipped`` / ``failed``
    tell the story; workers do the executing).
    """
    client = client if client is not None else FleetClient(url)
    submitted = client.submit_grid([spec_to_wire(s) for s in specs])
    log(
        f"fleet grid submitted: {submitted['queued']} queued, "
        f"{submitted['skipped']} already committed"
    )
    deadline = (
        None if timeout_s is None else time.monotonic() + timeout_s
    )
    last_done = -1
    while True:
        status = client.status()
        counts = status["cells"]
        finished = counts["done"] + counts["skipped"] + counts["failed"]
        if finished != last_done:
            log(
                f"fleet progress: {counts['done']} done, "
                f"{counts['skipped']} skipped, {counts['failed']} failed, "
                f"{counts['pending'] + counts['delayed']} pending, "
                f"{counts['leased']} leased "
                f"({len(status['workers'])} worker(s))"
            )
            last_done = finished
        if status["complete"]:
            return status
        if deadline is not None and time.monotonic() >= deadline:
            raise TimeoutError(
                f"fleet sweep did not complete within {timeout_s:g}s; "
                f"last status: {counts}"
            )
        time.sleep(poll_s)
