"""The fleet's HTTP front door: one address, N workers behind it.

The same handler as ``efes serve``
(:class:`~repro.service.http_api.ServiceHandler`) answers from the
supervisor's views, so clients built for the single service work
unchanged.  ``POST /jobs`` routes by content key to the owning worker
(shared-store hits are answered directly; a degraded fleet sheds
low-priority work as backpressure); job status, result and cancel are
proxied to the owner; ``/healthz`` reports per-worker liveness, epochs
and the ``fleet-degraded`` state; ``/metrics`` merges the workers'
telemetry, worker-labelled; and ``GET /fleet/status`` is the
supervisor's full status document.

The front end holds no job state of its own — the supervisor's routing
table is the source of truth — so a front-end restart loses nothing a
client cannot re-derive with its idempotency key.
"""

from __future__ import annotations

import dataclasses
import uuid

from ..runtime import MetricsSnapshot
from ..scenarios import IntegrationScenario
from ..service import SchedulerClosedError, SubmitEnvelope
from ..service.client import ServiceError
from ..service.http_api import FrontEnd
from ..service.store import job_key
from .supervisor import FleetSupervisor


class FleetServer(FrontEnd):
    """The front end of one :class:`FleetSupervisor` (``efes fleet
    serve``)."""

    server_version = "repro-fleet/1.0"

    def __init__(self, address, supervisor: FleetSupervisor) -> None:
        super().__init__(address)
        self.supervisor = supervisor

    def submit(
        self, envelope: SubmitEnvelope, scenario: IntegrationScenario
    ) -> dict:
        if not envelope.idempotency_key:
            envelope = dataclasses.replace(
                envelope, idempotency_key=uuid.uuid4().hex
            )
        store_key = job_key(scenario, envelope.kind, envelope.quality)
        try:
            route = self.supervisor.dispatch(envelope, store_key)
        except (ServiceError, OSError) as exc:
            message = f"fleet dispatch failed: {exc}"
            raise SchedulerClosedError(message) from exc
        return self.supervisor.job_doc(route.job_id) or {
            "id": route.job_id,
            "state": "queued",
        }

    def job(self, job_id: str) -> dict | None:
        return self.supervisor.job_doc(job_id)

    def result(self, job_id: str) -> tuple[int, dict] | None:
        return self.supervisor.result_doc(job_id)

    def cancel(self, job_id: str) -> dict | None:
        return self.supervisor.cancel(job_id)

    def health(self) -> dict:
        status = self.supervisor.status()
        return {
            "status": "ok" if not status["degraded"] else "degraded",
            "health": status["health"],
            "fleet": {
                "size": status["size"],
                "live": status["live"],
                "degraded": status["degraded"],
                "failovers": status["failovers"],
            },
            "workers": [
                {
                    "worker_id": worker["worker_id"],
                    "state": worker["state"],
                    "epoch": worker["epoch"],
                    "beats": worker["beats"],
                    "last_seen": worker["last_seen"],
                }
                for worker in status["workers"]
            ],
        }

    def metrics(self) -> tuple[MetricsSnapshot, dict[str, float], dict]:
        snapshot = self.supervisor.merged_metrics().snapshot()
        status = self.supervisor.status()
        gauges = {
            "fleet_size": float(status["size"]),
            "fleet_live": float(status["live"]),
            "fleet_failovers_total": float(status["failovers"]),
        }
        return snapshot, gauges, {"fleet": status["jobs"]}

    def resource(
        self, segments: list[str], query: dict[str, str]
    ) -> tuple[int, dict] | None:
        if segments == ["fleet", "status"]:
            return 200, self.supervisor.status()
        return None


def make_fleet_server(
    supervisor: FleetSupervisor,
    host: str = "127.0.0.1",
    port: int = 0,
) -> FleetServer:
    """Bind a fleet front end; ``port=0`` picks an ephemeral port."""
    return FleetServer((host, port), supervisor)
