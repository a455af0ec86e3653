"""Fleet wire client: :class:`ServiceClient` plus the fleet endpoints.

The transport (stdlib ``urllib``, JSON bodies, :class:`ServiceError` on
HTTP error statuses) is inherited unchanged from the bound-service
client — including its bounded connection-level retry with exponential
backoff and jitter, which fleet callers turn **on** by default: a
worker's lease loop must survive the controller restarting (connection
refused for a few seconds) without dying, while HTTP-level errors
(``400 unknown experiment``) still fail fast.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..service.client import ServiceClient, ServiceError

__all__ = ["FleetClient", "ServiceError"]


class FleetClient(ServiceClient):
    """Talk to a running fleet controller.

    Same constructor as :class:`ServiceClient`, but ``retries`` defaults
    to 5 (with ``backoff_s=0.2`` that tolerates ~6 s of controller
    downtime per call before surfacing the ``URLError``).
    """

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 60.0,
        retries: int = 5,
        backoff_s: float = 0.2,
    ) -> None:
        super().__init__(
            base_url, timeout_s=timeout_s, retries=retries,
            backoff_s=backoff_s,
        )

    # -- endpoint mirrors ----------------------------------------------
    def status(self) -> Dict:
        return self.get("/status")

    def submit_grid(self, cells: Sequence[Dict]) -> Dict:
        return self.post("/v1/grid", {"cells": list(cells)})

    def register(self, worker: str, slots: int = 1) -> Dict:
        return self.post("/v1/register", {"worker": worker, "slots": slots})

    def lease(self, worker: str, wait_s: float = 0.0) -> Dict:
        return self.post("/v1/lease", {"worker": worker, "wait_s": wait_s})

    def heartbeat(self, worker: str, labels: Sequence[str]) -> Dict:
        return self.post(
            "/v1/heartbeat", {"worker": worker, "labels": list(labels)}
        )

    def report(
        self, worker: str, label: str, ok: bool, error: str = ""
    ) -> Dict:
        return self.post(
            "/v1/report",
            {"worker": worker, "label": label, "ok": ok, "error": error},
        )
