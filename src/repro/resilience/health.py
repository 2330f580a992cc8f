"""The service health state machine: healthy / slo-warning / degraded /
draining.

``/healthz`` needs more nuance than alive-or-dead: a service whose
circuit breaker is open, whose report store has quarantined entries, or
whose watchdog found stuck workers is *up* but *degraded* — load
balancers should prefer other replicas without killing this one.  A
service whose SLO error budget is burning faster than sustainable (but
not yet critically) is in *slo-warning* — still routable, but operators
should look.  A service that has begun graceful shutdown is *draining* —
it finishes running jobs but accepts nothing new.

State machine::

    HEALTHY <──> SLO-WARNING <──> DEGRADED
       │              │               │
       └──────────────┴──> DRAINING <─┘
                  (terminal: shutdown began)

:class:`HealthMonitor` tracks two named sets: *reasons* (hard
degradation) and *warnings* (soft, advisory).  The derived state is
``draining`` permanently once :meth:`start_draining` is called, else
``degraded`` while any reason is flagged, else ``slo-warning`` while any
warning is flagged, else ``healthy``.  All of it is part of the snapshot
so operators see *why*, not just *what*.
"""

from __future__ import annotations

import enum
import threading


class HealthState(enum.Enum):
    HEALTHY = "healthy"
    SLO_WARNING = "slo-warning"
    DEGRADED = "degraded"
    DRAINING = "draining"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class HealthMonitor:
    """A thread-safe reason/warning-set with a derived health state."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._reasons: set[str] = set()
        self._warnings: set[str] = set()
        self._draining = False

    def flag(self, reason: str) -> None:
        """Mark a degradation reason active (idempotent)."""
        with self._lock:
            self._reasons.add(reason)

    def clear(self, reason: str) -> None:
        """Retire a degradation reason (idempotent)."""
        with self._lock:
            self._reasons.discard(reason)

    def set_reason(self, reason: str, active: bool) -> None:
        if active:
            self.flag(reason)
        else:
            self.clear(reason)

    def warn(self, warning: str) -> None:
        """Mark an advisory warning active (idempotent)."""
        with self._lock:
            self._warnings.add(warning)

    def clear_warning(self, warning: str) -> None:
        """Retire an advisory warning (idempotent)."""
        with self._lock:
            self._warnings.discard(warning)

    def set_warning(self, warning: str, active: bool) -> None:
        if active:
            self.warn(warning)
        else:
            self.clear_warning(warning)

    def start_draining(self) -> None:
        """Enter the terminal draining state (graceful shutdown began)."""
        with self._lock:
            self._draining = True

    def _state_locked(self) -> HealthState:
        if self._draining:
            return HealthState.DRAINING
        if self._reasons:
            return HealthState.DEGRADED
        if self._warnings:
            return HealthState.SLO_WARNING
        return HealthState.HEALTHY

    @property
    def state(self) -> HealthState:
        with self._lock:
            return self._state_locked()

    @property
    def reasons(self) -> list[str]:
        with self._lock:
            return sorted(self._reasons)

    @property
    def warnings(self) -> list[str]:
        with self._lock:
            return sorted(self._warnings)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self._state_locked().value,
                "reasons": sorted(self._reasons),
                "warnings": sorted(self._warnings),
            }

    def __repr__(self) -> str:
        snapshot = self.snapshot()
        reasons = ",".join(snapshot["reasons"]) or "-"
        return f"HealthMonitor({snapshot['state']}, reasons={reasons})"
