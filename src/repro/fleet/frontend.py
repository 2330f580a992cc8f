"""The fleet's HTTP front door: one address, N workers behind it.

Mirrors the single-service API (clients built for ``efes serve`` work
unchanged) and adds the fleet resources::

    POST   /jobs             route by content key to the owning worker
                             (shared-store hits answered directly;
                             degraded fleets shed low-priority work
                             with 503 + Retry-After)
    GET    /jobs/<id>        proxied status (+ ``fleet`` placement doc)
    GET    /jobs/<id>/result proxied / store-served result
    DELETE /jobs/<id>        proxied cancel
    GET    /healthz          fleet health: per-worker liveness, epochs,
                             the ``fleet-degraded`` state
    GET    /metrics          merged worker-labelled metrics (JSON or
                             Prometheus text)
    GET    /fleet/status     the supervisor's full status document

The front end holds no job state of its own — the supervisor's routing
table is the source of truth — so a front-end restart loses nothing a
client cannot re-derive with its idempotency key.
"""

from __future__ import annotations

import json
import urllib.parse
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..core.quality import parse_quality
from ..observability import prometheus_text
from ..scenarios import ScenarioCache, UnknownScenarioError
from ..service import SubmitEnvelope
from ..service.client import ServiceError
from ..service.store import job_key
from .supervisor import FleetShedError, FleetSupervisor, NoWorkersError


class FleetServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`FleetSupervisor`."""

    daemon_threads = True

    def __init__(self, address, supervisor: FleetSupervisor) -> None:
        super().__init__(address, FleetHandler)
        self.supervisor = supervisor
        self.scenarios = ScenarioCache()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class FleetHandler(BaseHTTPRequestHandler):
    server_version = "repro-fleet/1.0"
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    @property
    def supervisor(self) -> FleetSupervisor:
        return self.server.supervisor

    # -- plumbing ---------------------------------------------------------

    def _send_json(self, status: int, doc: dict, headers: dict | None = None):
        body = json.dumps(doc, ensure_ascii=False).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, body: str, content_type: str) -> None:
        raw = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return {}
        raw = self.rfile.read(length)
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValueError("request body must be a JSON object")
        return doc

    def _segments(self) -> list[str]:
        path = self.path.split("?", 1)[0]
        return [segment for segment in path.split("/") if segment]

    def _query(self) -> dict[str, str]:
        parts = self.path.split("?", 1)
        if len(parts) < 2:
            return {}
        return {
            name: values[-1]
            for name, values in urllib.parse.parse_qs(parts[1]).items()
        }

    # -- routes -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        segments = self._segments()
        if segments == ["healthz"]:
            self._get_healthz()
            return
        if segments == ["metrics"]:
            self._get_metrics()
            return
        if segments == ["fleet", "status"]:
            self._send_json(200, self.supervisor.status())
            return
        if len(segments) == 2 and segments[0] == "jobs":
            doc = self.supervisor.job_doc(segments[1])
            if doc is None:
                self._send_json(404, {"error": f"unknown job {segments[1]!r}"})
            else:
                self._send_json(200, {"job": doc})
            return
        if (
            len(segments) == 3
            and segments[0] == "jobs"
            and segments[2] == "result"
        ):
            answer = self.supervisor.result_doc(segments[1])
            if answer is None:
                self._send_json(404, {"error": f"unknown job {segments[1]!r}"})
            else:
                self._send_json(answer[0], answer[1])
            return
        self._send_json(404, {"error": f"no such resource: {self.path}"})

    def _get_healthz(self) -> None:
        status = self.supervisor.status()
        health = status["health"]
        self._send_json(
            200,
            {
                "status": "ok" if not status["degraded"] else "degraded",
                "health": health,
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
            },
        )

    def _get_metrics(self) -> None:
        merged = self.supervisor.merged_metrics()
        snapshot = merged.snapshot()
        status = self.supervisor.status()
        accept = self.headers.get("Accept", "")
        wants_text = (
            "text/plain" in accept
            or self._query().get("format") == "prometheus"
        )
        if wants_text:
            gauges = {
                "fleet_size": float(status["size"]),
                "fleet_live": float(status["live"]),
                "fleet_failovers_total": float(status["failovers"]),
            }
            self._send_text(
                200,
                prometheus_text(snapshot, extra_gauges=gauges),
                "text/plain; version=0.0.4; charset=utf-8",
            )
            return
        self._send_json(200, {**snapshot.to_dict(), "fleet": status["jobs"]})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self._segments() != ["jobs"]:
            self._send_json(404, {"error": f"no such resource: {self.path}"})
            return
        try:
            body = self._read_body()
        except ValueError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        name = body.get("scenario")
        if not name:
            self._send_json(400, {"error": "missing required field 'scenario'"})
            return
        try:
            seed = int(body.get("seed", 1))
            scenario = self.server.scenarios.resolve(str(name), seed)
            kind = str(body.get("kind", "estimate"))
            quality = parse_quality(body.get("quality")).value
            timeout = body.get("timeout")
            if timeout is None:
                # Same contract as the worker HTTP API: the client's
                # X-Deadline-Ms header is the execution budget unless
                # the body names a timeout explicitly.
                deadline_ms = self.headers.get("X-Deadline-Ms")
                if deadline_ms is not None:
                    timeout = float(deadline_ms) / 1000.0
            envelope = SubmitEnvelope(
                scenario=str(name),
                kind=kind,
                quality=quality if kind == "estimate" else None,
                priority=int(body.get("priority", 0)),
                timeout=timeout,
                seed=seed,
                correlation_id=(
                    body.get("correlation_id")
                    or self.headers.get("X-Correlation-ID")
                ),
                idempotency_key=(
                    body.get("idempotency_key")
                    or self.headers.get("Idempotency-Key")
                    or uuid.uuid4().hex
                ),
            )
            store_key = job_key(
                scenario,
                kind,
                envelope.quality if kind == "estimate" else None,
            )
            route = self.supervisor.dispatch(envelope, store_key)
        except UnknownScenarioError as exc:
            self._send_json(404, {"error": str(exc)})
        except FleetShedError as exc:
            # Shed = backpressure: the body carries ``retry_after`` so
            # clients classify it exactly like queue saturation.
            self._send_json(
                503,
                {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": f"{exc.retry_after:g}"},
            )
        except NoWorkersError as exc:
            self._send_json(
                503,
                {"error": str(exc)},
                headers={"Retry-After": f"{exc.retry_after:g}"},
            )
        except (ServiceError, OSError) as exc:
            self._send_json(503, {"error": f"fleet dispatch failed: {exc}"})
        except (TypeError, ValueError) as exc:
            self._send_json(400, {"error": str(exc)})
        else:
            doc = self.supervisor.job_doc(route.job_id) or {
                "id": route.job_id,
                "state": "queued",
            }
            self._send_json(202, {"job": doc})

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        segments = self._segments()
        if len(segments) != 2 or segments[0] != "jobs":
            self._send_json(404, {"error": f"no such resource: {self.path}"})
            return
        doc = self.supervisor.cancel(segments[1])
        if doc is None:
            self._send_json(404, {"error": f"unknown job {segments[1]!r}"})
            return
        self._send_json(200, {"job": doc})


def make_fleet_server(
    supervisor: FleetSupervisor,
    host: str = "127.0.0.1",
    port: int = 0,
) -> FleetServer:
    """Bind a fleet front end; ``port=0`` picks an ephemeral port."""
    return FleetServer((host, port), supervisor)
