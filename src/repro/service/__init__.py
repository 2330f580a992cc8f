"""The concurrent assessment service: job queue, report store, HTTP API.

EFES is consulted *repeatedly* — "to decide about the feasibility of such
a project before its start" — so the library needs a long-running shape:
many callers sharing one runtime, queued work with backpressure, and past
estimates retrievable without recomputation.  This subsystem provides it:

* :class:`JobScheduler` — submitted assess/estimate jobs with states
  (queued/running/done/failed/cancelled), priorities, a bounded queue
  that rejects with an explicit retry-after hint when full, per-job
  timeout + cancellation, executed on worker slots over the shared
  :class:`repro.runtime.Runtime`,
* :class:`ReportStore` — content-addressed persistence of serialised
  results (``repro.core.serialize``), keyed by the same content
  fingerprints the profile cache uses, with an on-disk spool that
  survives restarts — one CRC32-checked journal record per entry,
  quarantining damaged entries on a startup recovery scan instead of
  serving them,
* :mod:`~repro.service.http_api` — a stdlib ``ThreadingHTTPServer``
  exposing submit/status/result/cancel plus ``/healthz`` and
  ``/metrics``, with :class:`ServiceClient` as the Python counterpart
  (retrying transient unavailability under a
  :class:`~repro.resilience.RetryPolicy`).

The scheduler embeds the resilience layer: a
:class:`~repro.resilience.CircuitBreaker` guards job admission, a
:class:`~repro.resilience.HealthMonitor` drives ``/healthz``'s
healthy/degraded/draining state, and :meth:`JobScheduler.close` drains
gracefully — running jobs finish, queued jobs fail with a
``retry_after`` hint.

It also embeds the durability layer (:mod:`repro.durability`): pass a
:class:`~repro.durability.JobJournal` to :class:`JobScheduler` and every
acknowledged submission survives ``kill -9`` — journalled ahead of the
ack, replayed by a :class:`~repro.durability.RecoveryManager` on the
next start, deduped across the crash by client ``Idempotency-Key``
headers.

``efes serve`` / ``efes submit`` / ``efes recover`` are the CLI entry
points.
"""

from .client import (
    BackpressureError,
    DeadlineExceededError,
    JobFailedError,
    ServiceClient,
    ServiceError,
    ServiceUnavailableError,
    SubmitEnvelope,
)
from .http_api import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    ServiceServer,
    make_server,
)
from .jobs import (
    Job,
    JobCancelled,
    JobState,
    QueueFullError,
    SchedulerClosedError,
)
from .scheduler import DRAINING_ERROR, JobScheduler
from .store import ReportStore, job_key

__all__ = [
    "BackpressureError",
    "DeadlineExceededError",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DRAINING_ERROR",
    "Job",
    "JobCancelled",
    "JobFailedError",
    "JobScheduler",
    "JobState",
    "QueueFullError",
    "ReportStore",
    "SchedulerClosedError",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "ServiceUnavailableError",
    "SubmitEnvelope",
    "job_key",
    "make_server",
]
