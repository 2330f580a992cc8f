"""The stdlib-only HTTP front end of the assessment service.

Built on :class:`http.server.ThreadingHTTPServer` — no dependencies
beyond the standard library.  :class:`ServiceServer` serves one
:class:`JobScheduler` (``efes serve``) through :class:`ServiceHandler`.
Resources::

    POST   /jobs             submit {"scenario", "kind", "quality",
                             "priority", "timeout", "seed",
                             "correlation_id", "idempotency_key"}
                             -> 202 job
                             (the X-Correlation-ID header also binds the
                             job's correlation ID; the Idempotency-Key
                             header dedups retried submissions — a repeat
                             inside the dedup window returns the original
                             job, even across a crash/restart when a
                             journal is configured; the X-Deadline-Ms
                             header is the job's execution budget in
                             milliseconds — equivalent to the body's
                             "timeout" field, which wins when both are
                             present)
    GET    /jobs             all known jobs (newest last); ``?state=``
                             filters by lifecycle state
    GET    /jobs/<id>        one job's status
    GET    /jobs/<id>/result 200 result doc | 202 still pending |
                             410 cancelled | 500 failed
    DELETE /jobs/<id>        cancel; returns the job status
    GET    /trace/<id>       the job's span tree (service.job:<id> root)
    GET    /healthz          liveness and health
    GET    /metrics          counters, stage timings and histograms plus
                             scheduler and store statistics;
                             ``Accept: text/plain`` (or
                             ``?format=prometheus``) switches to
                             Prometheus text exposition
    GET    /slo              declarative SLOs with fast/slow-window burn
                             rates and the derived health state

A submission is parsed once, by :meth:`SubmitEnvelope.from_request`,
and refused with:

* 400 — a body that is not a JSON object, a missing ``scenario``, an
  unknown ``kind`` or ``quality``, a ``priority`` or ``seed`` that does
  not convert to an integer, a ``timeout`` that is not a finite number
  of seconds > 0 (never a boolean), an ``X-Deadline-Ms`` header that is
  not a finite number of milliseconds > 0, or a scenario directory that
  cannot be read or parsed,
* 404 — an unknown scenario reference,
* 503 + ``Retry-After`` and a body ``retry_after`` — backpressure
  (:class:`~repro.service.jobs.QueueFullError`),
* 503 + ``Retry-After`` — an open circuit breaker,
* 503 — a closed scheduler, or a failing journal append.

An unknown path or job id is a 404 on every method, and an injected
``http.handler`` fault a 500.  Scenario references are either shipped
catalogue names (``efes list``) or scenario directories in the on-disk
format; they resolve through one :class:`~repro.scenarios.ScenarioCache`
per server, so repeated submissions do not regenerate instances.
"""

from __future__ import annotations

import json
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..observability import prometheus_text
from ..resilience import CircuitOpenError, fault_point
from ..runtime import MetricsSnapshot
from ..scenarios import (
    IntegrationScenario,
    ScenarioCache,
    UnknownScenarioError,
)
from .client import SubmitEnvelope
from .jobs import JobState, QueueFullError, SchedulerClosedError
from .scheduler import JobScheduler

#: Default bind address of ``efes serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765


class ServiceServer(ThreadingHTTPServer):
    """The HTTP front end of one :class:`JobScheduler` (``efes serve``).

    Its methods are the views :class:`ServiceHandler` answers from; one
    that takes a job id returns ``None`` for an unknown id, which the
    handler answers with 404.
    """

    daemon_threads = True
    server_version = "repro-service/1.0"

    def __init__(self, address, scheduler: JobScheduler) -> None:
        super().__init__(address, ServiceHandler)
        self.scenarios = ScenarioCache()
        self.scheduler = scheduler

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def submit(
        self, envelope: SubmitEnvelope, scenario: IntegrationScenario
    ) -> dict:
        return self.scheduler.submit(
            scenario,
            kind=envelope.kind,
            quality=envelope.quality,
            priority=envelope.priority,
            timeout=envelope.timeout,
            correlation_id=envelope.correlation_id,
            idempotency_key=envelope.idempotency_key or None,
            scenario_seed=envelope.seed,
        ).snapshot()

    def job(self, job_id: str) -> dict | None:
        job = self.scheduler.job(job_id)
        return None if job is None else job.snapshot()

    def result(self, job_id: str) -> tuple[int, dict] | None:
        job = self.scheduler.job(job_id)
        if job is None:
            return None
        if job.state is JobState.DONE:
            result = job.result
            if result is None and job.store_key is not None:
                # A job recovered as settled after a crash keeps no
                # result in memory; the document lives in the store.
                result = self.scheduler.store.get(job.store_key)
            return 200, {"job": job.snapshot(), "result": result}
        if job.state is JobState.FAILED:
            return 500, {"job": job.snapshot(), "error": job.error}
        if job.state is JobState.CANCELLED:
            return 410, {"job": job.snapshot(), "error": "cancelled"}
        return 202, {"job": job.snapshot()}  # queued or running

    def cancel(self, job_id: str) -> dict | None:
        try:
            return self.scheduler.cancel(job_id).snapshot()
        except KeyError:
            return None

    def health(self) -> dict:
        stats = self.scheduler.stats()
        return {
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
            "store": self.scheduler.store.stats(),
            "journal": stats.get("journal"),
            "recovery": stats.get("recovery"),
            "deadlines": stats.get("deadlines"),
        }

    def metrics(self) -> tuple[MetricsSnapshot, dict[str, float], dict]:
        # Point-in-time gauges (resources, utilization, burn rates) are
        # re-sampled per scrape, so Prometheus always sees fresh values.
        self.scheduler.refresh_observability()
        stats = self.scheduler.stats()
        store = self.scheduler.store.stats()
        gauges = {
            "queue_depth": float(stats["queue_depth"]),
            "queue_capacity": float(stats["max_queue"]),
            "workers_busy": float(stats["busy_workers"]),
            "workers_total": float(stats["workers"]),
            "jobs_running": float(stats["running"]),
            "store_entries": float(store["entries"]),
            "store_spooled": float(store["spooled"]),
            "store_quarantined": float(store["quarantined"]),
        }
        snapshot = self.scheduler.metrics.snapshot()
        return snapshot, gauges, {"scheduler": stats, "store": store}

    def jobs(self, state: str | None) -> dict:
        jobs = self.scheduler.jobs()
        if state is not None:
            jobs = [job for job in jobs if job.state.value == state]
        return {"jobs": [job.snapshot() for job in jobs]}

    def trace(self, job_id: str) -> tuple[int, dict]:
        job = self.scheduler.job(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        if job.trace is not None:
            return 200, {"job": job.snapshot(), "trace": job.trace}
        if not job.state.is_terminal:
            return 202, {"job": job.snapshot()}
        return 404, {
            "job": job.snapshot(),
            "error": f"no trace recorded for job {job_id!r} "
            "(from-store results and tracing-disabled schedulers "
            "produce none)",
        }


class ServiceHandler(BaseHTTPRequestHandler):
    """The request handler of :class:`ServiceServer`.

    It holds routing, reading and parsing a submission, JSON or
    Prometheus negotiation on ``/metrics``, the ``http.handler`` fault
    site and the refusal → status table.  What a resource says comes
    from the server's views.
    """

    protocol_version = "HTTP/1.1"

    # The default handler logs every request to stderr; the service logs
    # nothing (metrics are the observability surface).
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def version_string(self) -> str:
        return f"{self.server.server_version} {self.sys_version}"

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

    def _send_answer(self, answer: tuple[int, dict] | None, missing: str):
        """Send a view's ``(status, body)``, or a 404 saying ``missing``."""
        if answer is None:
            self._send_json(404, {"error": missing})
        else:
            self._send_json(*answer)

    def _send_job(self, job_id: str, doc: dict | None) -> None:
        self._send_answer(
            None if doc is None else (200, {"job": doc}),
            f"unknown job {job_id!r}",
        )

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

    # -- routes -----------------------------------------------------------

    def _handle(self) -> None:
        try:
            fault_point("http.handler", method=self.command, path=self.path)
        except OSError as exc:
            self._send_json(500, {"error": f"internal fault: {exc}"})
            return
        path, _, query_string = self.path.partition("?")
        segments = [segment for segment in path.split("/") if segment]
        query = {
            name: values[-1]
            for name, values in urllib.parse.parse_qs(query_string).items()
        }
        server = self.server
        match self.command, segments:
            case "POST", ["jobs"]:
                self._submit()
            case "GET", ["jobs", job_id]:
                self._send_job(job_id, server.job(job_id))
            case "DELETE", ["jobs", job_id]:
                self._send_job(job_id, server.cancel(job_id))
            case "GET", ["jobs", job_id, "result"]:
                self._send_answer(
                    server.result(job_id), f"unknown job {job_id!r}"
                )
            case "GET", ["healthz"]:
                self._send_json(200, server.health())
            case "GET", ["metrics"]:
                self._send_metrics(query)
            case "GET", ["jobs"]:
                self._send_json(200, server.jobs(query.get("state")))
            case "GET", ["slo"]:
                self._send_json(200, server.scheduler.slo_snapshot())
            case "GET", ["trace", job_id]:
                self._send_json(*server.trace(job_id))
            case _:
                self._send_json(
                    404, {"error": f"no such resource: {self.path}"}
                )

    do_GET = do_POST = do_DELETE = _handle  # noqa: N815 - stdlib naming

    def _send_metrics(self, query: dict[str, str]) -> None:
        """JSON by default; Prometheus exposition under text/plain.

        Content negotiation keys on the ``Accept`` header (any
        ``text/plain`` preference) or an explicit ``?format=prometheus``.
        """
        snapshot, gauges, extra = self.server.metrics()
        accept = self.headers.get("Accept", "")
        if "text/plain" in accept or query.get("format") == "prometheus":
            self._send_text(
                200,
                prometheus_text(snapshot, extra_gauges=gauges),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        else:
            self._send_json(200, {**snapshot.to_dict(), **extra})

    def _submit(self) -> None:
        try:
            envelope = SubmitEnvelope.from_request(
                self._read_body(), self.headers
            )
            try:
                scenario = self.server.scenarios.resolve(
                    envelope.scenario, envelope.seed
                )
            except OSError as exc:
                # An unreadable scenario directory is the request's
                # fault, not the journal's: 400, so clients do not retry.
                raise ValueError(
                    f"cannot read scenario {envelope.scenario!r}: {exc}"
                ) from exc
            job = self.server.submit(envelope, scenario)
        except UnknownScenarioError as exc:
            self._send_json(404, {"error": str(exc)})
        except QueueFullError as exc:
            self._send_json(
                503,
                {"error": str(exc), "retry_after": exc.retry_after},
                _retry_after(exc),
            )
        except CircuitOpenError as exc:
            # The breaker is shedding load: explicit backoff, no body of
            # doomed work.  Unlike queue backpressure, the payload has no
            # ``retry_after`` key, so clients classify it as
            # ServiceUnavailableError and apply their retry policy.
            self._send_json(
                503,
                {"error": str(exc), "circuit": exc.name},
                _retry_after(exc),
            )
        except SchedulerClosedError as exc:
            self._send_json(503, {"error": str(exc)})
        except OSError as exc:
            # A failing journal append refuses the ack (write-ahead
            # contract): the client retries — with its idempotency key —
            # rather than trusting a job a crash could lose.
            self._send_json(503, {"error": f"journal unavailable: {exc}"})
        except (TypeError, ValueError, OverflowError) as exc:
            self._send_json(400, {"error": str(exc)})
        else:
            self._send_json(202, {"job": job})


def _retry_after(exc: QueueFullError | CircuitOpenError) -> dict:
    """The ``Retry-After`` header for a refusal's hint."""
    return {"Retry-After": f"{exc.retry_after:g}"}


def make_server(
    scheduler: JobScheduler,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
) -> ServiceServer:
    """Bind a service server; ``port=0`` picks an ephemeral port."""
    return ServiceServer((host, port), scheduler)
