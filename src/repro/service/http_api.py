"""The stdlib-only HTTP front end of the assessment service.

Built on :class:`http.server.ThreadingHTTPServer` — no dependencies
beyond the standard library.  Resources::

    POST   /jobs             submit {"scenario", "kind", "quality",
                             "priority", "timeout", "seed",
                             "correlation_id", "idempotency_key"}
                             -> 202 job
                             (503 + Retry-After on queue saturation;
                             the X-Correlation-ID header also binds the
                             job's correlation ID; the Idempotency-Key
                             header dedups retried submissions — a
                             repeat inside the dedup window returns the
                             original job, even across a crash/restart
                             when a journal is configured; the
                             X-Deadline-Ms header is the job's execution
                             budget in milliseconds — equivalent to the
                             body's "timeout" field, which wins when
                             both are present)
    GET    /jobs             all known jobs (newest last); ``?state=``
                             filters by lifecycle state
    GET    /jobs/<id>        one job's status
    GET    /jobs/<id>/result 200 result doc | 202 still pending |
                             410 cancelled | 500 failed
    DELETE /jobs/<id>        cancel; returns the job status
    GET    /trace/<id>       the job's span tree (service.job:<id> root)
    GET    /healthz          liveness + queue depth + worker-slot
                             utilisation + report-store spool size +
                             SLO state + resource summary + journal lag +
                             crash-recovery summary + deadline posture
                             (jobs in grace, minimum remaining budget)
    GET    /metrics          RuntimeMetrics counters/stages/histograms +
                             scheduler queue stats + report-store totals +
                             worker/process resource gauges + SLO
                             burn-rate gauges; ``Accept: text/plain`` (or
                             ``?format=prometheus``) switches to
                             Prometheus text exposition
    GET    /slo              declarative SLOs with fast/slow-window
                             burn rates and the derived health state

Scenario references are either shipped catalogue names (``efes list``)
or scenario directories in the on-disk format; they resolve through one
:class:`~repro.scenarios.ScenarioCache` per server, so repeated
submissions do not regenerate instances.
"""

from __future__ import annotations

import json
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..observability import prometheus_text
from ..resilience import CircuitOpenError, fault_point
from ..scenarios import ScenarioCache, UnknownScenarioError
from .jobs import JobState, QueueFullError, SchedulerClosedError
from .scheduler import JobScheduler

#: Default bind address of ``efes serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765


class ServiceServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`JobScheduler`."""

    daemon_threads = True

    def __init__(self, address, scheduler: JobScheduler) -> None:
        super().__init__(address, ServiceHandler)
        self.scheduler = scheduler
        self.scenarios = ScenarioCache()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class ServiceHandler(BaseHTTPRequestHandler):
    server_version = "repro-service/1.0"
    protocol_version = "HTTP/1.1"

    # The default handler logs every request to stderr; the service logs
    # nothing (metrics are the observability surface).
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    @property
    def scheduler(self) -> JobScheduler:
        return self.server.scheduler

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

    def _send_text(self, status: int, body: str, content_type: str) -> None:
        raw = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

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
        try:
            fault_point("http.handler", method="GET", path=self.path)
        except OSError as exc:
            self._send_json(500, {"error": f"internal fault: {exc}"})
            return
        segments = self._segments()
        if segments == ["healthz"]:
            stats = self.scheduler.stats()
            store = self.scheduler.store
            self._send_json(
                200,
                {
                    "status": "ok" if stats["open"] else "closing",
                    "backend": self.scheduler.runtime.backend,
                    "health": self.scheduler.health_snapshot(),
                    "queue_depth": stats["queue_depth"],
                    "running": stats["running"],
                    "workers": {
                        "busy": stats["busy_workers"],
                        "total": stats["workers"],
                        "utilisation": stats["worker_utilisation"],
                    },
                    "store": {
                        "entries": len(store),
                        "spooled": store.spooled_count(),
                        "quarantined": store.quarantined_count(),
                    },
                    "journal": stats.get("journal"),
                    "recovery": stats.get("recovery"),
                    "deadlines": stats.get("deadlines"),
                },
            )
            return
        if segments == ["metrics"]:
            self._get_metrics()
            return
        if segments == ["slo"]:
            self._send_json(200, self.scheduler.slo_snapshot())
            return
        if segments == ["jobs"]:
            jobs = self.scheduler.jobs()
            state = self._query().get("state")
            if state is not None:
                jobs = [job for job in jobs if job.state.value == state]
            self._send_json(200, {"jobs": [job.snapshot() for job in jobs]})
            return
        if len(segments) == 2 and segments[0] == "trace":
            self._get_trace(segments[1])
            return
        if len(segments) == 2 and segments[0] == "jobs":
            job = self.scheduler.job(segments[1])
            if job is None:
                self._send_json(404, {"error": f"unknown job {segments[1]!r}"})
            else:
                self._send_json(200, {"job": job.snapshot()})
            return
        if (
            len(segments) == 3
            and segments[0] == "jobs"
            and segments[2] == "result"
        ):
            self._get_result(segments[1])
            return
        self._send_json(404, {"error": f"no such resource: {self.path}"})

    def _get_metrics(self) -> None:
        """JSON by default; Prometheus exposition under text/plain.

        Content negotiation keys on the ``Accept`` header (any
        ``text/plain`` preference) or an explicit ``?format=prometheus``.
        """
        # Point-in-time gauges (resources, utilization, burn rates) are
        # re-sampled per scrape, so Prometheus always sees fresh values.
        self.scheduler.refresh_observability()
        stats = self.scheduler.stats()
        store = self.scheduler.store
        snapshot = self.scheduler.metrics.snapshot()
        accept = self.headers.get("Accept", "")
        wants_text = (
            "text/plain" in accept
            or self._query().get("format") == "prometheus"
        )
        if wants_text:
            gauges = {
                "queue_depth": float(stats["queue_depth"]),
                "queue_capacity": float(stats["max_queue"]),
                "workers_busy": float(stats["busy_workers"]),
                "workers_total": float(stats["workers"]),
                "jobs_running": float(stats["running"]),
                "store_entries": float(len(store)),
                "store_spooled": float(store.spooled_count()),
                "store_quarantined": float(store.quarantined_count()),
            }
            self._send_text(
                200,
                prometheus_text(snapshot, extra_gauges=gauges),
                "text/plain; version=0.0.4; charset=utf-8",
            )
            return
        self._send_json(
            200,
            {
                **snapshot.to_dict(),
                "scheduler": stats,
                "store": {
                    "entries": len(store),
                    "spooled": store.spooled_count(),
                    "quarantined": store.quarantined_count(),
                },
            },
        )

    def _get_trace(self, job_id: str) -> None:
        job = self.scheduler.job(job_id)
        if job is None:
            self._send_json(404, {"error": f"unknown job {job_id!r}"})
        elif job.trace is not None:
            self._send_json(200, {"job": job.snapshot(), "trace": job.trace})
        elif not job.state.is_terminal:
            self._send_json(202, {"job": job.snapshot()})
        else:
            self._send_json(
                404,
                {
                    "job": job.snapshot(),
                    "error": f"no trace recorded for job {job_id!r} "
                    "(from-store results and tracing-disabled schedulers "
                    "produce none)",
                },
            )

    def _get_result(self, job_id: str) -> None:
        job = self.scheduler.job(job_id)
        if job is None:
            self._send_json(404, {"error": f"unknown job {job_id!r}"})
        elif job.state is JobState.DONE:
            result = job.result
            if result is None and job.store_key is not None:
                # A job recovered as settled after a crash keeps no
                # result in memory; the document lives in the store.
                result = self.scheduler.store.get(job.store_key)
            self._send_json(200, {"job": job.snapshot(), "result": result})
        elif job.state is JobState.FAILED:
            self._send_json(500, {"job": job.snapshot(), "error": job.error})
        elif job.state is JobState.CANCELLED:
            self._send_json(410, {"job": job.snapshot(), "error": "cancelled"})
        else:  # queued or running: not ready yet
            self._send_json(202, {"job": job.snapshot()})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        try:
            fault_point("http.handler", method="POST", path=self.path)
        except OSError as exc:
            self._send_json(500, {"error": f"internal fault: {exc}"})
            return
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
        kind = body.get("kind", "estimate")
        try:
            seed = int(body.get("seed", 1))
            scenario = self.server.scenarios.resolve(str(name), seed)
            correlation = body.get("correlation_id") or self.headers.get(
                "X-Correlation-ID"
            )
            idempotency = body.get("idempotency_key") or self.headers.get(
                "Idempotency-Key"
            )
            timeout = body.get("timeout")
            if timeout is None:
                deadline_ms = self.headers.get("X-Deadline-Ms")
                if deadline_ms is not None:
                    timeout = float(deadline_ms) / 1000.0
            job = self.scheduler.submit(
                scenario,
                kind=kind,
                quality=body.get("quality"),
                priority=int(body.get("priority", 0)),
                timeout=timeout,
                correlation_id=correlation,
                idempotency_key=idempotency,
                scenario_seed=seed,
            )
        except UnknownScenarioError as exc:
            self._send_json(404, {"error": str(exc)})
        except QueueFullError as exc:
            self._send_json(
                503,
                {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": f"{exc.retry_after:g}"},
            )
        except CircuitOpenError as exc:
            # The breaker is shedding load: explicit backoff, no body of
            # doomed work.  Unlike queue backpressure, the payload has no
            # ``retry_after`` key, so clients classify it as
            # ServiceUnavailableError and apply their retry policy.
            self._send_json(
                503,
                {"error": str(exc), "circuit": exc.name},
                headers={"Retry-After": f"{exc.retry_after:g}"},
            )
        except SchedulerClosedError as exc:
            self._send_json(503, {"error": str(exc)})
        except OSError as exc:
            # A failing journal append refuses the ack (write-ahead
            # contract): the client retries — with its idempotency key —
            # rather than trusting a job a crash could lose.
            self._send_json(503, {"error": f"journal unavailable: {exc}"})
        except (TypeError, ValueError) as exc:
            self._send_json(400, {"error": str(exc)})
        else:
            self._send_json(202, {"job": job.snapshot()})

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        segments = self._segments()
        if len(segments) != 2 or segments[0] != "jobs":
            self._send_json(404, {"error": f"no such resource: {self.path}"})
            return
        try:
            job = self.scheduler.cancel(segments[1])
        except KeyError:
            self._send_json(404, {"error": f"unknown job {segments[1]!r}"})
            return
        self._send_json(200, {"job": job.snapshot()})


def make_server(
    scheduler: JobScheduler,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
) -> ServiceServer:
    """Bind a service server; ``port=0`` picks an ephemeral port."""
    return ServiceServer((host, port), scheduler)


def serve(
    scheduler: JobScheduler,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
) -> None:
    """Blocking entry point used by ``efes serve``."""
    server = make_server(scheduler, host, port)
    try:
        server.serve_forever()
    finally:
        server.server_close()
