"""The shared assessment runtime: parallel execution, content-keyed
caching, and instrumentation for the EFES estimate pipeline.

Public surface:

* :class:`Runtime` — a ``serial`` or ``process`` backend (see
  :data:`BACKENDS`) + :class:`ProfileCache` + :class:`RuntimeMetrics`
  behind one object; pass one to :class:`repro.core.Efes` (or activate
  it) to control how assessments execute,
* :func:`default_runtime` / :func:`get_runtime` /
  :func:`set_default_runtime` — the process-wide default and the
  active-runtime resolution used by the profiling entry points,
* :class:`ProcessExecutor` — the process pool behind the ``process``
  backend, with deterministic result ordering,
* :class:`ScenarioSpool` — the content-addressed on-disk spool the
  process backend ships scenarios to workers through.
"""

from .cache import ProfileCache, fingerprint_database, fingerprint_scenario
from .deadline import (
    CancelScope,
    Deadline,
    DeadlineExceededError,
    OperationCancelled,
    WorkerReapedError,
    checkpoint,
    current_scope,
    remaining_scope,
    wire_deadline,
)
from .engine import (
    BACKEND_ENV_VAR,
    BACKENDS,
    Runtime,
    default_runtime,
    get_runtime,
    set_default_runtime,
)
from .executor import ProcessExecutor, auto_worker_count, in_process_worker
from .metrics import MetricsSnapshot, RuntimeMetrics, StageTiming
from .spool import (
    SPOOL_ENV_VAR,
    ScenarioSpool,
    SpoolCorruptionError,
    SpoolError,
    SpoolMissError,
)

__all__ = [
    "BACKEND_ENV_VAR",
    "BACKENDS",
    "CancelScope",
    "Deadline",
    "DeadlineExceededError",
    "MetricsSnapshot",
    "OperationCancelled",
    "ProcessExecutor",
    "ProfileCache",
    "Runtime",
    "RuntimeMetrics",
    "SPOOL_ENV_VAR",
    "ScenarioSpool",
    "SpoolCorruptionError",
    "SpoolError",
    "SpoolMissError",
    "StageTiming",
    "WorkerReapedError",
    "auto_worker_count",
    "checkpoint",
    "current_scope",
    "default_runtime",
    "fingerprint_database",
    "fingerprint_scenario",
    "get_runtime",
    "in_process_worker",
    "remaining_scope",
    "set_default_runtime",
    "wire_deadline",
]
