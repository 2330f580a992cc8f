"""Partial-failure results: what survives when a pipeline stage dies.

The paper's *Generality* requirement ("an automatic estimation is still
desirable" even for inputs that break formal assumptions) extends to the
runtime itself: one crashing detector should cost its module's report,
not the whole assessment.  A :class:`DegradedResult` is the tombstone
left in a failed stage's place — it names the module, the phase that
failed (``assess`` or ``plan``), the stringified exception, and the time
burnt before the failure — and every outcome surface (CLI tables,
service result documents, ``/metrics`` ``degraded_total``, traces)
carries the list of them so a degraded answer is never mistaken for a
complete one.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class DegradedResult:
    """Record of one module whose detector or planner failed."""

    #: Name of the estimation module that failed.
    module: str
    #: Pipeline phase that failed: ``"load"`` (a relation CSV of a
    #: scenario directory), ``"assess"`` or ``"plan"``.
    phase: str
    #: ``"ExceptionType: message"`` of the failure.
    error: str
    #: Seconds spent in the stage before it failed.
    elapsed_seconds: float = 0.0
    #: Scenario being processed when the failure happened.
    scenario: str = ""

    def describe(self) -> str:
        return (
            f"{self.module}/{self.phase} degraded after "
            f"{self.elapsed_seconds:.3f}s: {self.error}"
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "DegradedResult":
        return cls(
            module=doc["module"],
            phase=doc["phase"],
            error=doc["error"],
            elapsed_seconds=float(doc.get("elapsed_seconds", 0.0)),
            scenario=doc.get("scenario", ""),
        )


def split_degraded(reports: dict) -> tuple[dict, list[DegradedResult]]:
    """Separate a (possibly mixed) report dict into clean reports and the
    degradation records a non-strict assessment left behind."""
    clean: dict = {}
    degraded: list[DegradedResult] = []
    for name, report in reports.items():
        if isinstance(report, DegradedResult):
            degraded.append(report)
        else:
            clean[name] = report
    return clean, degraded


def format_exception(exc: BaseException) -> str:
    """The canonical ``"TypeName: message"`` rendering used everywhere a
    degradation or job failure is stringified."""
    return f"{type(exc).__name__}: {exc}"
