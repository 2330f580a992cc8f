"""The shared assessment runtime: content-keyed caching, deadlines, and
instrumentation for the EFES estimate pipeline.

Public surface:

* :class:`Runtime` — :class:`ProfileCache` + :class:`RuntimeMetrics`
  behind one object; pass one to :class:`repro.core.Efes` (or activate
  it) to give assessments a private cache and metrics,
* :func:`default_runtime` / :func:`get_runtime` /
  :func:`set_default_runtime` — the process-wide default and the
  active-runtime resolution used by the profiling entry points,
* :class:`CancelScope` / :func:`checkpoint` — deadlines and cooperative
  cancellation (:mod:`repro.runtime.deadline`).
"""

from .cache import (
    ContentKey,
    ProfileCache,
    fingerprint_database,
    fingerprint_scenario,
)
from .deadline import (
    CancelScope,
    Deadline,
    DeadlineExceededError,
    OperationCancelled,
    checkpoint,
    current_scope,
)
from .engine import (
    Runtime,
    default_runtime,
    get_runtime,
    set_default_runtime,
)
from .metrics import MetricsSnapshot, RuntimeMetrics

__all__ = [
    "CancelScope",
    "ContentKey",
    "Deadline",
    "DeadlineExceededError",
    "MetricsSnapshot",
    "OperationCancelled",
    "ProfileCache",
    "Runtime",
    "RuntimeMetrics",
    "checkpoint",
    "current_scope",
    "default_runtime",
    "fingerprint_database",
    "fingerprint_scenario",
    "get_runtime",
    "set_default_runtime",
]
