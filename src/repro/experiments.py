"""The experiment harness of Section 6: Figures 6 and 7, end to end.

For each domain (bibliographic, music) the harness:

1. builds the four scenarios,
2. measures ground-truth effort by running the practitioner simulator on
   each (scenario, quality) cell,
3. produces raw EFES and attribute-counting estimates,
4. calibrates each estimator's single free scale parameter on the *other*
   domain's measurements (cross validation, exactly as in Section 6.2),
5. reports per-cell comparisons plus the relative rmse of both estimators.

Every number is deterministic given the seeds.  Each scenario is
assessed once, in process, and both quality cells price its reports.
:func:`run_experiments` degrades a failing module by default (its
casualties land on the report's ``degradations``), while
:func:`evaluate_domain` called directly fails fast unless given
``strict=False``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from collections.abc import Callable, Sequence
from pathlib import Path

from .core import (
    AttributeCountingBaseline,
    Efes,
    ResultQuality,
    default_efes,
)
from .core.calibration import (
    ComparisonRow,
    DomainResult,
    EstimateSummary,
    combined_rmse,
    optimal_scale,
    relative_rmse,
)
from .core.tasks import TaskCategory
from .practitioner import PractitionerSimulator
from .resilience import DegradedResult, split_degraded
from .scenarios import bibliographic_scenarios, music_scenarios
from .scenarios.scenario import IntegrationScenario

QUALITIES = (ResultQuality.LOW_EFFORT, ResultQuality.HIGH_QUALITY)

MAPPING = TaskCategory.MAPPING.value
STRUCTURE = TaskCategory.CLEANING_STRUCTURE.value
VALUES = TaskCategory.CLEANING_VALUES.value


@dataclasses.dataclass
class Cell:
    """One (scenario, quality) cell with its three raw numbers."""

    scenario: IntegrationScenario
    quality: ResultQuality
    measured_total: float
    measured_breakdown: dict[str, float]
    efes_total: float
    efes_breakdown: dict[str, float]
    counting_attributes: int

    @property
    def key(self) -> tuple[str, str]:
        return (self.scenario.name, self.quality.label)


def evaluate_domain(
    scenarios: Sequence[IntegrationScenario],
    efes: Efes | None = None,
    simulator: PractitionerSimulator | None = None,
    trace_dir: str | Path | None = None,
    strict: bool = True,
    degradations: dict[str, list[DegradedResult]] | None = None,
) -> list[Cell]:
    """Measure + raw-estimate every (scenario, quality) cell of a domain.

    ``trace_dir`` enables tracing and writes one span tree per scenario
    to ``<trace_dir>/<scenario>.trace.json``.  With ``strict=False``, a
    failing detector or planner degrades the affected module instead of
    aborting the whole evaluation; the tombstones land in the
    ``degradations`` accumulator keyed by scenario name.
    """
    from .observability import Tracer, tracing

    efes = efes or default_efes()
    simulator = simulator or PractitionerSimulator()
    cells: list[Cell] = []
    for scenario in scenarios:
        tracer = Tracer() if trace_dir is not None else None
        scope = (
            contextlib.nullcontext()
            if tracer is None
            else tracer.activated()
        )
        with scope, tracing.span(f"scenario:{scenario.name}"):
            # Assess once per scenario; both quality cells price the
            # same complexity reports (the detectors are
            # quality-independent).
            reports, scenario_degraded = split_degraded(
                efes.assess(scenario, strict=strict)
            )
            for quality in QUALITIES:
                result = simulator.integrate(scenario, quality)
                estimate = efes.estimate(
                    scenario,
                    quality,
                    reports=reports,
                    strict=strict,
                    degradations=scenario_degraded,
                )
                cells.append(
                    Cell(
                        scenario=scenario,
                        quality=quality,
                        measured_total=result.total_minutes,
                        measured_breakdown=result.breakdown(),
                        efes_total=estimate.total_minutes,
                        efes_breakdown={
                            category.value: minutes
                            for category, minutes in (
                                estimate.by_category().items()
                            )
                        },
                        counting_attributes=(
                            scenario.total_source_attributes()
                        ),
                    )
                )
        if degradations is not None and scenario_degraded:
            degradations.setdefault(scenario.name, []).extend(
                scenario_degraded
            )
        if tracer is not None and tracer.root is not None:
            _write_trace(trace_dir, scenario.name, tracer.root)
    return cells


def _write_trace(trace_dir: str | Path, name: str, root) -> None:
    """Persist one scenario's span tree as pretty-printed JSON."""
    from .observability import span_to_dict

    directory = Path(trace_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.trace.json"
    with path.open("w", encoding="utf-8") as handle:
        json.dump(span_to_dict(root), handle, indent=2, sort_keys=True)
        handle.write("\n")


def calibrate_efes_scale(training: Sequence[Cell]) -> float:
    """Least-squares scale for EFES on the training cells."""
    return optimal_scale(
        [cell.measured_total for cell in training],
        [cell.efes_total for cell in training],
    )


def calibrate_counting_rate(training: Sequence[Cell]) -> float:
    """Least-squares minutes-per-attribute rate for the baseline."""
    return optimal_scale(
        [cell.measured_total for cell in training],
        [float(cell.counting_attributes) for cell in training],
    )


def _summaries(
    cell: Cell,
    efes_scale: float,
    counting_rate: float,
    baseline: AttributeCountingBaseline,
) -> ComparisonRow:
    efes_total = cell.efes_total * efes_scale
    efes_summary = EstimateSummary(
        estimator="Efes",
        scenario_name=cell.scenario.name,
        quality_label=cell.quality.label,
        total_minutes=efes_total,
        breakdown={
            category: minutes * efes_scale
            for category, minutes in cell.efes_breakdown.items()
        },
    )
    measured_summary = EstimateSummary(
        estimator="Measured",
        scenario_name=cell.scenario.name,
        quality_label=cell.quality.label,
        total_minutes=cell.measured_total,
        breakdown=dict(cell.measured_breakdown),
    )
    counting_total = counting_rate * cell.counting_attributes
    counting_summary = EstimateSummary(
        estimator="Counting",
        scenario_name=cell.scenario.name,
        quality_label=cell.quality.label,
        total_minutes=counting_total,
        breakdown={
            MAPPING: counting_total * baseline.mapping_share,
            "Cleaning": counting_total * (1.0 - baseline.mapping_share),
        },
    )
    return ComparisonRow(
        scenario_name=cell.scenario.name,
        quality_label=cell.quality.label,
        efes=efes_summary,
        measured=measured_summary,
        counting=counting_summary,
    )


def cross_validated_results(
    domains: dict[str, Sequence[Cell]],
    baseline: AttributeCountingBaseline | None = None,
) -> list[DomainResult]:
    """Calibrate each domain's estimators on the union of the *other*
    domains and evaluate on the domain itself (Section 6.2)."""
    baseline = baseline or AttributeCountingBaseline()
    results: list[DomainResult] = []
    for domain, cells in domains.items():
        training = [
            cell
            for other, other_cells in domains.items()
            if other != domain
            for cell in other_cells
        ]
        if not training:
            training = list(cells)  # single-domain fallback: self-calibrate
        efes_scale = calibrate_efes_scale(training)
        counting_rate = calibrate_counting_rate(training)
        rows = tuple(
            _summaries(cell, efes_scale, counting_rate, baseline)
            for cell in cells
        )
        measured = [row.measured.total_minutes for row in rows]
        results.append(
            DomainResult(
                domain=domain,
                rows=rows,
                efes_rmse=relative_rmse(
                    measured, [row.efes.total_minutes for row in rows]
                ),
                counting_rmse=relative_rmse(
                    measured, [row.counting.total_minutes for row in rows]
                ),
            )
        )
    return results


@dataclasses.dataclass
class ExperimentReport:
    """Everything Section 6.2 reports: both domains plus the pooled rmse."""

    bibliographic: DomainResult
    music: DomainResult
    overall_efes_rmse: float
    overall_counting_rmse: float
    #: Per-scenario degradation records from a non-strict run; empty when
    #: every detector and planner succeeded.  A non-empty dict means the
    #: rmse numbers were computed over *partial* module coverage.
    degradations: dict[str, list[DegradedResult]] = dataclasses.field(
        default_factory=dict
    )

    @property
    def is_degraded(self) -> bool:
        return bool(self.degradations)

    @property
    def overall_improvement(self) -> float:
        if self.overall_efes_rmse == 0:
            return float("inf")
        return self.overall_counting_rmse / self.overall_efes_rmse


def run_experiments(
    seed: int = 1,
    efes_factory: Callable[[], Efes] | None = None,
    simulator: PractitionerSimulator | None = None,
    runtime=None,
    trace_dir: str | Path | None = None,
    strict: bool = False,
) -> ExperimentReport:
    """The full Section 6 evaluation (Figures 6 + 7 and the rmse numbers).

    ``runtime`` optionally supplies a :class:`repro.runtime.Runtime` for
    the default framework (a shared profile cache); the
    cross-validation folds then re-profile each scenario from cache
    instead of from scratch.  ``trace_dir`` enables per-scenario
    tracing; one ``<scenario>.trace.json`` span tree lands there per
    scenario.

    By default (``strict=False``) a crashing detector or planner costs
    its module's contribution to the affected scenario, not the whole
    evaluation; the report's ``degradations`` dict names every casualty
    per scenario.  ``strict=True`` restores fail-fast semantics.
    """
    if efes_factory is not None:
        efes = efes_factory()
    else:
        efes = default_efes(runtime=runtime)
    simulator = simulator or PractitionerSimulator()
    degradations: dict[str, list[DegradedResult]] = {}
    domains = {
        "bibliographic": evaluate_domain(
            bibliographic_scenarios(seed), efes, simulator,
            trace_dir=trace_dir, strict=strict, degradations=degradations,
        ),
        "music": evaluate_domain(
            music_scenarios(seed), efes, simulator,
            trace_dir=trace_dir, strict=strict, degradations=degradations,
        ),
    }
    results = {
        result.domain: result for result in cross_validated_results(domains)
    }
    overall_efes, overall_counting = combined_rmse(list(results.values()))
    return ExperimentReport(
        bibliographic=results["bibliographic"],
        music=results["music"],
        overall_efes_rmse=overall_efes,
        overall_counting_rmse=overall_counting,
        degradations=degradations,
    )
