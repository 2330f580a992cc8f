"""The EFES framework (Section 3): modules, assessment, estimation.

EFES "handles different kinds of integration challenges by accepting a
dedicated estimation module to cope with each of them independently".  A
module couples a *data complexity detector* with a *task planner*
(Figure 3); the framework runs all detectors (phase 1, complexity
assessment), all planners (phase 2 input), and prices the resulting tasks
with the execution settings' effort-calculation functions (phase 2, effort
estimation).

:meth:`Efes.run` is the one pipeline of both phases: the CLI's
``estimate`` and ``trace``, the benchmarks and the service's estimate
jobs all call it.  Every entry point takes a plain ``strict`` flag —
``True`` by default for ``assess``, ``plan`` and ``estimate``, ``False``
for ``run`` — and both degradation boundaries (the runtime's detector
loop and :meth:`Efes.plan`) apply :func:`~repro.runtime.deadline.degrades`
to decide whether a failure costs its module or the call.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Sequence

import time

from ..observability import Span, Tracer, tracing
from ..resilience import DegradedResult, format_exception, split_degraded
from ..runtime import Runtime, RuntimeMetrics, get_runtime
from ..runtime.deadline import checkpoint as deadline_checkpoint, degrades
from ..scenarios.scenario import IntegrationScenario
from .effort import (
    EffortEstimate,
    ExecutionSettings,
    default_execution_settings,
    price_tasks,
)
from .quality import ResultQuality
from .reports import ComplexityReport
from .tasks import Task


def _require_quality(quality: object) -> None:
    """Raise ``TypeError`` unless ``quality`` is a :class:`ResultQuality`.

    The entry points check first, so a bad argument fails before any
    detector runs rather than as a degraded planner afterwards.
    """
    if not isinstance(quality, ResultQuality):
        raise TypeError(
            f"quality must be a ResultQuality, not {type(quality).__name__} "
            f"{quality!r}"
        )


class EstimationModule:
    """One estimation module = complexity detector + task planner."""

    #: Stable module identifier (used as report key and task provenance).
    name: str = "module"

    def assess(self, scenario: IntegrationScenario) -> ComplexityReport:
        """Phase 1: extract complexity indicators into a report."""
        raise NotImplementedError

    def plan(
        self,
        scenario: IntegrationScenario,
        report: ComplexityReport,
        quality: ResultQuality,
    ) -> list[Task]:
        """Phase 2 input: derive tasks that overcome the reported issues."""
        raise NotImplementedError


class TaskAdjustment:
    """A user revision of the proposed task list (Section 6.1).

    "If a data complexity aspect was properly recognized but we preferred
    a different integration task, we have adapted the proposed tasks" —
    e.g. swapping *Add missing values* for *Reject tuples* when the
    missing FreeDB disc IDs cannot possibly be provided.  An adjustment is
    a callable mapping the proposed task list to the revised one.
    """

    def __call__(self, tasks: list[Task]) -> list[Task]:  # pragma: no cover
        raise NotImplementedError


@dataclasses.dataclass
class AssessmentOutcome:
    """Everything one full pipeline run produces, kept together.

    The assessment service stores/ships this as one document: the phase-1
    reports plus the phase-2 estimate (whose entries carry the planned
    task list).  ``quality`` is the estimate's expected result quality.
    """

    scenario_name: str
    quality: ResultQuality
    reports: dict[str, ComplexityReport]
    estimate: EffortEstimate
    #: Root span of the traced run (``Efes.run(..., trace=True)``), else
    #: ``None``; serialisable via :func:`repro.core.serialize.span_to_dict`.
    trace: Span | None = None
    #: The scenario's load tombstones, then the modules whose detector
    #: or planner failed, in a non-strict run; empty on a fully
    #: successful pipeline.  A non-empty list means
    #: ``reports``/``estimate`` are *partial* — usable, but missing the
    #: named modules' contributions.
    degradations: list[DegradedResult] = dataclasses.field(
        default_factory=list
    )

    @property
    def tasks(self) -> list[Task]:
        return [entry.task for entry in self.estimate.entries]

    @property
    def is_degraded(self) -> bool:
        return bool(self.degradations)


class Efes:
    """The effort estimation framework.

    Assemble with any set of modules; the three shipped ones are in
    :func:`repro.core.default_modules`.
    """

    def __init__(
        self,
        modules: Sequence[EstimationModule],
        settings: ExecutionSettings | None = None,
        runtime: Runtime | None = None,
    ) -> None:
        names = [module.name for module in modules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate module names: {names}")
        self.modules = list(modules)
        self.settings = settings or default_execution_settings()
        #: Optional dedicated runtime; ``None`` resolves to the active
        #: runtime at call time (see :mod:`repro.runtime`).
        self.runtime = runtime

    def _resolve_runtime(self) -> Runtime:
        return self.runtime if self.runtime is not None else get_runtime()

    @property
    def metrics(self) -> RuntimeMetrics:
        """The instrumentation of the runtime this framework executes on."""
        return self._resolve_runtime().metrics

    # ------------------------------------------------------------------
    # Phase 1: complexity assessment
    # ------------------------------------------------------------------

    def assess(
        self, scenario: IntegrationScenario, strict: bool = True
    ) -> dict[str, ComplexityReport]:
        """Run every module's detector; returns reports keyed by module.

        Detectors run one after another on the runtime, in module
        declaration order.  A scenario loaded leniently from disk may
        carry ``phase="load"`` tombstones on ``scenario.load_degradations``
        (see :func:`repro.scenarios.io.load_scenario`): malformed relation
        CSVs that loaded empty.  With ``strict=True`` (the default here)
        the first of them raises
        :class:`~repro.scenarios.io.ScenarioFormatError` and a failing
        detector's exception propagates.  With ``strict=False`` the load
        tombstones come first in the dict, keyed by their ``module`` and
        counted on ``degraded_total`` and ``loads_degraded``, a failed
        detector's slot holds a :class:`~repro.resilience.DegradedResult`
        instead of a report, and the other reports survive.
        """
        loaded = getattr(scenario, "load_degradations", ())
        if loaded and strict:
            from ..scenarios.io import ScenarioFormatError

            raise ScenarioFormatError(loaded[0].error)
        runtime = self._resolve_runtime()
        if loaded:
            runtime.metrics.increment("degraded_total", len(loaded))
            runtime.metrics.increment("loads_degraded", len(loaded))
        reports: dict = {tombstone.module: tombstone for tombstone in loaded}
        reports.update(
            runtime.run_detectors(self.modules, scenario, strict=strict)
        )
        return reports

    # ------------------------------------------------------------------
    # Phase 2: effort estimation
    # ------------------------------------------------------------------

    def plan(
        self,
        scenario: IntegrationScenario,
        quality: ResultQuality,
        reports: dict[str, ComplexityReport] | None = None,
        strict: bool = True,
        degradations: list[DegradedResult] | None = None,
    ) -> list[Task]:
        """Run every module's planner on its report; concatenated tasks.

        With ``strict=True`` (the default) a missing report raises
        ``KeyError`` and a failing planner propagates.  With
        ``strict=False`` missing modules are skipped and a planner
        failure becomes a :class:`~repro.resilience.DegradedResult`.
        Tombstones in ``reports`` are never planned.  They, then the
        planners' own, are appended to the ``degradations`` accumulator
        when the caller provides one.
        """
        _require_quality(quality)
        runtime = self._resolve_runtime()
        if reports is None:
            reports = self.assess(scenario, strict=strict)
        if degradations is not None:
            degradations.extend(
                report
                for report in reports.values()
                if isinstance(report, DegradedResult)
            )
        tasks: list[Task] = []
        with runtime.activated(), runtime.metrics.stage("plan"):
            for module in self.modules:
                report = (
                    reports[module.name]
                    if strict
                    else reports.get(module.name)
                )
                if report is None or isinstance(report, DegradedResult):
                    continue
                with tracing.span(f"planner:{module.name}") as span:
                    started = time.perf_counter()
                    try:
                        # Past a deadline this raises per planner, so each
                        # unrun module tombstones (non-strict) and the
                        # surviving tasks still get priced — the partial
                        # estimate a timed-out job settles with.
                        deadline_checkpoint("planner", module=module.name)
                        planned = module.plan(scenario, report, quality)
                    except Exception as exc:  # noqa: BLE001 - degradation
                        if not degrades(exc, strict):
                            raise
                        error = format_exception(exc)
                        span.set_attribute("error", error)
                        runtime.metrics.increment("degraded_total")
                        runtime.metrics.increment("planners_degraded")
                        if degradations is not None:
                            degradations.append(
                                DegradedResult(
                                    module=module.name,
                                    phase="plan",
                                    error=error,
                                    elapsed_seconds=(
                                        time.perf_counter() - started
                                    ),
                                    scenario=scenario.name,
                                )
                            )
                        continue
                tasks.extend(planned)
        return tasks

    def estimate(
        self,
        scenario: IntegrationScenario,
        quality: ResultQuality,
        adjustments: Iterable[TaskAdjustment] = (),
        reports: dict[str, ComplexityReport] | None = None,
        strict: bool = True,
        degradations: list[DegradedResult] | None = None,
    ) -> EffortEstimate:
        """The full pipeline: assess → plan → (adjust) → price.

        Callers that already hold complexity reports (e.g. when pricing
        several qualities of the same scenario) pass them via ``reports``
        and the assessment phase is skipped entirely — the detectors run
        exactly once per scenario, not once per estimate.  ``strict`` and
        ``degradations`` flow through to :meth:`plan`; a degraded
        estimate prices only the surviving modules' tasks.
        """
        _require_quality(quality)
        runtime = self._resolve_runtime()
        runtime.metrics.increment("estimates")
        with tracing.span("estimate", scenario=scenario.name):
            tasks = self.plan(
                scenario,
                quality,
                reports=reports,
                strict=strict,
                degradations=degradations,
            )
            for adjustment in adjustments:
                tasks = adjustment(tasks)
            with runtime.metrics.stage("price"):
                return price_tasks(
                    scenario.name, quality, tasks, self.settings
                )

    def run(
        self,
        scenario: IntegrationScenario,
        quality: ResultQuality,
        adjustments: Iterable[TaskAdjustment] = (),
        trace: bool = False,
        strict: bool = False,
    ) -> AssessmentOutcome:
        """Both phases as one deliverable: reports + tasks + estimate.

        This is the unit of work the assessment service executes and
        stores; :func:`repro.core.serialize` round-trips every part.
        With ``trace=True`` the whole run executes under a fresh
        :class:`~repro.observability.Tracer` and the outcome carries the
        completed root span (``run:<scenario>``) — detectors, profiling,
        planning, and pricing appear as its descendants.

        Unless ``strict=True``, a failing detector or planner does not
        abort the run: the failed module is skipped, recorded on
        ``outcome.degradations`` after the scenario's load tombstones
        (see :meth:`assess`), counted on the runtime's
        ``degraded_total``, and annotated on its span — the returned
        outcome covers every module that survived.  Under
        ``strict=True`` the first load tombstone raises
        :class:`~repro.scenarios.io.ScenarioFormatError`.
        """
        _require_quality(quality)

        def execute() -> AssessmentOutcome:
            reports, degradations = split_degraded(
                self.assess(scenario, strict=strict)
            )
            estimate = self.estimate(
                scenario,
                quality,
                adjustments=adjustments,
                reports=reports,
                strict=strict,
                degradations=degradations,
            )
            return AssessmentOutcome(
                scenario.name,
                quality,
                reports,
                estimate,
                degradations=degradations,
            )

        if not trace:
            return execute()
        tracer = Tracer()
        with tracer.activated(), tracing.span(
            f"run:{scenario.name}", quality=quality.value
        ) as root_span:
            outcome = execute()
            if outcome.degradations:
                root_span.set_attribute(
                    "degraded", len(outcome.degradations)
                )
        outcome.trace = tracer.root
        return outcome

    def with_settings(self, settings: ExecutionSettings) -> "Efes":
        return Efes(self.modules, settings, runtime=self.runtime)

    def with_runtime(self, runtime: Runtime | None) -> "Efes":
        """The same framework bound to a different execution runtime."""
        return Efes(self.modules, self.settings, runtime=runtime)
