"""Resilience: fault injection, graceful degradation, self-healing.

EFES is a *pre-project* estimator run over messy, untrusted scenarios —
precisely the setting where integration tooling historically collapses
on dirty inputs and partial failures (Doan et al., "Toward a System
Building Agenda for Data Integration").  This package is the toolbox the
rest of the stack uses to degrade instead of die:

* :mod:`~repro.resilience.faults` — a deterministic, seeded
  fault-injection framework (:class:`FaultPlan`/:class:`FaultPoint`,
  ``raise``/``delay``/``corrupt`` actions) armed via
  ``$REPRO_FAULT_PLAN`` or programmatically, with named injection sites
  in detectors, the profiler, store I/O, scheduler dispatch, and the
  HTTP handler — every hardening claim below is testable,
* :mod:`~repro.resilience.degradation` — :class:`DegradedResult`
  tombstones for failed detectors/planners, surfaced on
  ``AssessmentOutcome.degradations``, in service result documents, in
  ``/metrics`` (``degraded_total``), and via a distinct CLI exit code,
* :mod:`~repro.resilience.retry` — an exponential-backoff / full-jitter
  / deadline-budget :func:`call_with_retry` combinator (stdlib only)
  adopted by :class:`~repro.service.ServiceClient` and spool I/O.
"""

from .degradation import DegradedResult, format_exception, split_degraded
from .faults import (
    CORRUPTION_MARKER,
    FAULT_ACTIONS,
    FAULT_PLAN_ENV_VAR,
    FaultError,
    FaultPlan,
    FaultPoint,
    active_fault_plan,
    corrupt_text,
    fault_plan_from_env,
    fault_point,
    injected_faults,
    install_fault_plan,
    reset_fault_plan,
)
from .retry import RetryPolicy, call_with_retry

__all__ = [
    "CORRUPTION_MARKER",
    "DegradedResult",
    "FAULT_ACTIONS",
    "FAULT_PLAN_ENV_VAR",
    "FaultError",
    "FaultPlan",
    "FaultPoint",
    "RetryPolicy",
    "active_fault_plan",
    "call_with_retry",
    "corrupt_text",
    "fault_plan_from_env",
    "fault_point",
    "format_exception",
    "injected_faults",
    "install_fault_plan",
    "reset_fault_plan",
    "split_degraded",
]
