"""A small stdlib HTTP client for the assessment service.

Wraps :mod:`urllib.request` — no dependencies — and mirrors the service
resources one method each.  Error taxonomy:

* :class:`BackpressureError` — the queue is full (503 + ``retry_after``);
  **not retried by default** (the caller decides whether to shed or wait;
  pass ``retry_backpressure=True`` to opt in),
* :class:`ServiceUnavailableError` — the service is unreachable
  (connection refused/reset, timeout) or answered 503 for a non-queue
  reason (a closed scheduler, a failing journal).  Carries the last
  ``retry_after`` hint the service sent, and **is retried** under the
  client's :class:`~repro.resilience.RetryPolicy` (exponential backoff,
  full jitter, ``Retry-After`` honoured) before surfacing,
* :class:`ServiceError` — any other HTTP-level error, raised as-is,
* :class:`DeadlineExceededError` — the caller's end-to-end ``deadline=``
  passed before the request (or polled result) arrived.  Subclasses
  :class:`TimeoutError`, so existing ``except TimeoutError`` callers
  keep working; like :class:`BackpressureError` it is **never** retried
  automatically — a retry past the deadline can only waste budget the
  caller no longer has.

No bare :class:`urllib.error.URLError` ever escapes.  ``sleep`` is
injectable so retry behaviour is testable in virtual time::

    client = ServiceClient("http://127.0.0.1:8765")
    job = client.submit("s1-s2", kind="estimate", quality="high")
    doc = client.result(job["id"])          # polls until terminal
    print(doc["estimate"]["total_minutes"])
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
import urllib.error
import urllib.request
import uuid
from collections.abc import Callable

from ..core.quality import parse_quality
from ..resilience import RetryPolicy, call_with_retry
from .jobs import check_kind, check_timeout


class ServiceError(RuntimeError):
    """An HTTP-level error from the assessment service."""

    def __init__(self, status: int, payload: dict | None = None) -> None:
        message = (payload or {}).get("error") or f"HTTP {status}"
        super().__init__(message)
        self.status = status
        self.payload = payload or {}


class BackpressureError(ServiceError):
    """The service rejected a submission because its queue is full."""

    def __init__(self, status: int, payload: dict, retry_after: float) -> None:
        super().__init__(status, payload)
        self.retry_after = retry_after


class ServiceUnavailableError(ServiceError):
    """The service could not serve the request at all right now.

    Raised for transport failures (connection refused/reset, timeouts)
    and for 503 responses that are not queue backpressure — a closed
    scheduler or a failing journal append.  ``retry_after`` carries the
    service's hint when it sent a usable one (``None`` otherwise), and
    the retry combinator honours it as a minimum backoff.
    """

    def __init__(
        self,
        message: str,
        *,
        status: int = 503,
        payload: dict | None = None,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(status, {"error": message, **(payload or {})})
        self.retry_after = retry_after


class JobFailedError(ServiceError):
    """The polled job reached FAILED or CANCELLED instead of DONE."""


class DeadlineExceededError(ServiceError, TimeoutError):
    """The client-side deadline passed before the service answered.

    Dual-inherits :class:`TimeoutError` so callers that predate the
    deadline API (``except TimeoutError`` around ``result()``) keep
    working unchanged.
    """

    def __init__(
        self, message: str, *, deadline: float | None = None
    ) -> None:
        ServiceError.__init__(self, 504, {"error": message})
        self.deadline = deadline


#: Default client-side retry: a few quick attempts on unavailability
#: only; deterministic jitter so tests are reproducible.
DEFAULT_RETRY_POLICY = RetryPolicy(
    max_attempts=3,
    base_delay=0.05,
    max_delay=1.0,
    retry_on=(ServiceUnavailableError,),
    seed=0,
)

#: How many submit envelopes the client remembers for resubmission.
ENVELOPE_WINDOW = 256


@dataclasses.dataclass(frozen=True)
class SubmitEnvelope:
    """The complete, immutable description of one job submission.

    An idempotency key only guarantees exactly-once *admission*; for the
    retried submission to mean the same thing it must also carry the
    same scenario, kind, quality, **priority**, timeout, and seed.  The
    client therefore freezes every submission into an envelope, keeps a
    window of them keyed by idempotency key, and
    :meth:`ServiceClient.resubmit` replays the envelope verbatim —
    nothing is rebuilt from (possibly different) defaults.  The server
    parses a request into the same type (:meth:`from_request`).
    """

    scenario: str
    kind: str = "estimate"
    quality: str | None = None
    priority: int = 0
    timeout: float | None = None
    seed: int = 1
    correlation_id: str | None = None
    idempotency_key: str = ""
    #: End-to-end budget in seconds.  Rides as the ``X-Deadline-Ms``
    #: header (the service maps it to the job timeout unless the body
    #: already carries one) and bounds the client's own submit/poll
    #: cycle — see :meth:`ServiceClient.submit`.
    deadline: float | None = None

    def body(self) -> dict:
        """The full ``POST /jobs`` body — priority always included, so a
        resubmission can never silently fall back to the default."""
        doc: dict = {
            "scenario": self.scenario,
            "kind": self.kind,
            "seed": self.seed,
            "priority": self.priority,
        }
        if self.quality is not None:
            doc["quality"] = self.quality
        if self.timeout is not None:
            doc["timeout"] = self.timeout
        return doc

    def headers(self) -> dict:
        doc = {"Idempotency-Key": self.idempotency_key}
        if self.correlation_id:
            doc["X-Correlation-ID"] = self.correlation_id
        if self.deadline is not None:
            doc["X-Deadline-Ms"] = str(int(self.deadline * 1000))
        return doc

    @classmethod
    def from_request(cls, body: dict, headers) -> SubmitEnvelope:
        """Parse a ``POST /jobs``: the server side's inverse of
        :meth:`body` and :meth:`headers`.

        Raises ``ValueError``, ``TypeError`` or ``OverflowError`` for a
        missing ``scenario``, an unknown ``kind`` or ``quality``, a
        ``priority`` or ``seed`` that does not convert to an integer, and
        a ``timeout`` or ``X-Deadline-Ms`` that
        :func:`~repro.service.jobs.check_timeout` refuses.  The header is
        the job's timeout unless the body names one, so ``deadline``,
        which bounds a client's own submit/poll cycle, stays ``None``.
        """
        name = body.get("scenario")
        if not name:
            raise ValueError("missing required field 'scenario'")
        kind = check_kind(body.get("kind", "estimate"))
        quality = parse_quality(body.get("quality")).value
        timeout = body.get("timeout")
        deadline_ms = headers.get("X-Deadline-Ms")
        if timeout is None and deadline_ms is not None:
            timeout = float(deadline_ms) / 1000.0
        return cls(
            scenario=str(name),
            kind=kind,
            quality=quality if kind == "estimate" else None,
            priority=int(body.get("priority", 0)),
            timeout=check_timeout(timeout),
            seed=int(body.get("seed", 1)),
            correlation_id=(
                body.get("correlation_id") or headers.get("X-Correlation-ID")
            ),
            idempotency_key=(
                body.get("idempotency_key")
                or headers.get("Idempotency-Key")
                or ""
            ),
        )


def _retry_after_hint(payload: dict, headers) -> float | None:
    """The server's retry hint in seconds, if it is a finite number
    >= 0; anything else (``inf``, ``nan``, negative, not a number) is
    no hint, so a bad header can never become the client's sleep."""
    value = payload.get("retry_after")
    if value is None and headers is not None:
        value = headers.get("Retry-After")
    try:
        hint = float(value)
    except (TypeError, ValueError):
        return None
    return hint if math.isfinite(hint) and hint >= 0 else None


class ServiceClient:
    """Typed access to a running assessment service."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        *,
        retry_policy: RetryPolicy | None = None,
        retry_backpressure: bool = False,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        policy = (
            retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        )
        if retry_backpressure and BackpressureError not in policy.retry_on:
            policy = dataclasses.replace(
                policy, retry_on=(*policy.retry_on, BackpressureError)
            )
        self.retry_policy = policy
        self._sleep = sleep
        self.retries_total = 0
        #: Recent submissions by idempotency key, for full-envelope
        #: resubmission after a 503 (insertion-ordered, bounded window).
        self._envelopes: dict[str, SubmitEnvelope] = {}

    # -- plumbing ---------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        headers: dict | None = None,
        *,
        until: float | None = None,
    ) -> tuple[int, dict]:
        """One HTTP exchange, retried on :class:`ServiceUnavailableError`.

        ``until`` is an absolute monotonic limit: past it the exchange
        raises :class:`DeadlineExceededError` without touching the wire,
        and before it the retry policy's time budget is clamped to the
        remaining seconds — a retry never sleeps past the deadline.
        Without either, the budget is the client's ``timeout``: a retry
        hint longer than that re-raises the error that carries it.
        """

        def on_retry(attempt: int, delay: float, exc: BaseException) -> None:
            self.retries_total += 1

        policy = self.retry_policy
        if until is not None:
            remaining = until - time.monotonic()
            if remaining <= 0:
                raise DeadlineExceededError(
                    f"deadline exceeded before {method} {path}"
                )
            if policy.deadline is None or policy.deadline > remaining:
                policy = dataclasses.replace(policy, deadline=remaining)
        elif policy.deadline is None:
            policy = dataclasses.replace(policy, deadline=self.timeout)
        return call_with_retry(
            self._request_once,
            method,
            path,
            body,
            headers,
            policy=policy,
            sleep=self._sleep,
            on_retry=on_retry,
        )

    def _request_once(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        headers: dict | None = None,
    ) -> tuple[int, dict]:
        data = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        request = urllib.request.Request(
            f"{self.base_url}{path}",
            data=data,
            method=method,
            headers={
                **({"Content-Type": "application/json"} if data else {}),
                **(headers or {}),
            },
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.status, json.loads(response.read() or b"{}")
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read() or b"{}")
            except ValueError:
                payload = {}
            hint = _retry_after_hint(payload, exc.headers)
            if exc.code == 503:
                if "retry_after" in payload and hint is not None:
                    raise BackpressureError(exc.code, payload, hint) from None
                raise ServiceUnavailableError(
                    payload.get("error") or "service unavailable",
                    status=exc.code,
                    payload=payload,
                    retry_after=hint,
                ) from None
            raise ServiceError(exc.code, payload) from None
        except urllib.error.URLError as exc:
            raise ServiceUnavailableError(
                f"service at {self.base_url} is unreachable: {exc.reason}"
            ) from None
        except (ConnectionError, TimeoutError, OSError) as exc:
            raise ServiceUnavailableError(
                f"service at {self.base_url} is unreachable: {exc}"
            ) from None

    # -- resources --------------------------------------------------------

    def submit(
        self,
        scenario: str,
        kind: str = "estimate",
        quality: str | None = None,
        *,
        priority: int = 0,
        timeout: float | None = None,
        seed: int = 1,
        correlation_id: str | None = None,
        idempotency_key: str | None = None,
        deadline: float | None = None,
    ) -> dict:
        """Submit a job; returns its status snapshot (``job["id"]``...).

        ``deadline`` is the end-to-end budget in seconds: it rides to
        the service as ``X-Deadline-Ms`` (becoming the job's execution
        timeout unless ``timeout`` is given explicitly) and bounds this
        submission's own HTTP exchange — past it the client raises
        :class:`DeadlineExceededError` instead of retrying.

        Every submission carries an ``Idempotency-Key`` — the caller's,
        or an auto-generated one.  The same key rides every retry of
        this POST, so an ambiguous failure (the service accepted the job
        but the response was lost, or the process crashed right after
        the ack) resolves to the *original* job on resubmission instead
        of a duplicate execution — including across a service restart,
        because the journal carries the dedup window.

        The full submission is frozen into a :class:`SubmitEnvelope`
        remembered under its key (:meth:`envelope`), so a later
        :meth:`resubmit` after backpressure re-sends *exactly* what was
        sent the first time — same priority included, not whatever the
        call-site defaults happen to be.
        """
        envelope = SubmitEnvelope(
            scenario=scenario,
            kind=kind,
            quality=quality,
            priority=priority,
            timeout=timeout,
            seed=seed,
            correlation_id=correlation_id,
            idempotency_key=idempotency_key or uuid.uuid4().hex,
            deadline=deadline,
        )
        return self.submit_envelope(envelope)

    def submit_envelope(self, envelope: SubmitEnvelope) -> dict:
        """Submit one frozen envelope (the resubmission-safe path)."""
        if not envelope.idempotency_key:
            envelope = dataclasses.replace(
                envelope, idempotency_key=uuid.uuid4().hex
            )
        self._remember(envelope)
        until = (
            time.monotonic() + envelope.deadline
            if envelope.deadline is not None
            else None
        )
        _, doc = self._request(
            "POST",
            "/jobs",
            envelope.body(),
            headers=envelope.headers(),
            until=until,
        )
        return doc["job"]

    def resubmit(self, idempotency_key: str) -> dict:
        """Re-send the original envelope for ``idempotency_key``.

        The correct follow-up to a :class:`BackpressureError`: the same
        key *and* the same body ride again, so the service either dedups
        onto the original job or admits an identical one — never a
        default-priority clone of a high-priority submission.
        """
        envelope = self._envelopes.get(idempotency_key)
        if envelope is None:
            raise KeyError(
                f"no remembered envelope for idempotency key "
                f"{idempotency_key!r}"
            )
        return self.submit_envelope(envelope)

    def envelope(self, idempotency_key: str) -> SubmitEnvelope | None:
        """The remembered envelope for a key, if still in the window."""
        return self._envelopes.get(idempotency_key)

    def _remember(self, envelope: SubmitEnvelope) -> None:
        self._envelopes.pop(envelope.idempotency_key, None)
        self._envelopes[envelope.idempotency_key] = envelope
        while len(self._envelopes) > ENVELOPE_WINDOW:
            self._envelopes.pop(next(iter(self._envelopes)))

    def status(self, job_id: str) -> dict:
        _, doc = self._request("GET", f"/jobs/{job_id}")
        return doc["job"]

    def jobs(self, state: str | None = None) -> list[dict]:
        path = f"/jobs?state={state}" if state else "/jobs"
        _, doc = self._request("GET", path)
        return doc["jobs"]

    def trace(self, job_id: str) -> dict:
        """The job's serialised span tree (``GET /trace/<id>``)."""
        _, doc = self._request("GET", f"/trace/{job_id}")
        return doc["trace"]

    def cancel(self, job_id: str) -> dict:
        _, doc = self._request("DELETE", f"/jobs/{job_id}")
        return doc["job"]

    def result(
        self,
        job_id: str,
        *,
        wait: bool = True,
        deadline: float = 60.0,
        poll_interval: float = 0.05,
    ) -> dict:
        """The job's result document; polls until terminal by default.

        Raises :class:`JobFailedError` when the job failed or was
        cancelled, :class:`DeadlineExceededError` (a
        :class:`TimeoutError` subclass) when ``deadline`` elapses first.
        Polling stops the moment the deadline passes — no request and no
        retry ever runs on a spent budget.
        """
        limit = time.monotonic() + deadline
        while True:
            if time.monotonic() >= limit:
                raise DeadlineExceededError(
                    f"job {job_id} not finished within {deadline:g}s",
                    deadline=deadline,
                )
            try:
                status, doc = self._request(
                    "GET", f"/jobs/{job_id}/result", until=limit
                )
            except ServiceError as exc:
                if exc.status in (410, 500):  # cancelled / failed
                    raise JobFailedError(exc.status, exc.payload) from None
                raise
            if status == 200:
                return doc["result"]
            if not wait:
                raise TimeoutError(f"job {job_id} not finished yet")
            self._sleep(poll_interval)

    def healthz(self) -> dict:
        _, doc = self._request("GET", "/healthz")
        return doc

    def metrics(self) -> dict:
        _, doc = self._request("GET", "/metrics")
        return doc

    def metrics_text(self) -> str:
        """Prometheus text exposition of ``GET /metrics``."""
        request = urllib.request.Request(
            f"{self.base_url}/metrics", headers={"Accept": "text/plain"}
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return response.read().decode("utf-8")
        except urllib.error.URLError as exc:
            raise ServiceUnavailableError(
                f"service at {self.base_url} is unreachable: "
                f"{getattr(exc, 'reason', exc)}"
            ) from None
