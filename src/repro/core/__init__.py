"""EFES — the Effort Estimation framework (Section 3).

The public entry points:

* :func:`default_efes` — the framework with the paper's three modules and
  Table 9 execution settings,
* :class:`Efes` — assemble your own module set (extensibility),
* :class:`AttributeCountingBaseline` — the comparison baseline [14],
* :mod:`~repro.core.calibration` — the rmse metric and cross-domain
  calibration of Section 6.2.
"""

from .baseline import (
    HARDEN_TASKS,
    HOURS_PER_ATTRIBUTE,
    MAPPING_SHARE,
    AttributeCountingBaseline,
    BaselineEstimate,
)
from .calibration import (
    ComparisonRow,
    DomainResult,
    EstimateSummary,
    combined_rmse,
    optimal_scale,
    relative_rmse,
)
from .effort import (
    EffortEstimate,
    ExecutionSettings,
    TaskEffort,
    constant,
    default_execution_settings,
    linear,
    per_unit,
    price_tasks,
    threshold_per_unit,
    tool_assisted_settings,
)
from .framework import (
    AssessmentOutcome,
    Efes,
    EstimationModule,
    TaskAdjustment,
)
from .modules import (
    InfiniteCleaningLoopError,
    MappingModule,
    StructureModule,
    ValueModule,
    make_drop_instead_of_add,
)
from .quality import ResultQuality, parse_quality
from .reports import (
    REPORT_TYPES,
    ComplexityReport,
    MappingComplexityReport,
    MappingConnection,
    StructureComplexityReport,
    StructureViolation,
    ValueComplexityReport,
    ValueHeterogeneityFinding,
)
from .serialize import (
    SerializationError,
    estimate_from_dict,
    estimate_to_dict,
    report_from_dict,
    report_to_dict,
    reports_from_dict,
    reports_to_dict,
    task_from_dict,
    task_to_dict,
    tasks_from_dicts,
    tasks_to_dicts,
)
from .tasks import (
    STRUCTURE_TASK_CATALOGUE,
    VALUE_TASK_CATALOGUE,
    StructuralConflict,
    Task,
    TaskCategory,
    TaskType,
    ValueHeterogeneity,
)


def default_modules() -> list[EstimationModule]:
    """The paper's three estimation modules, in report order."""
    return [MappingModule(), StructureModule(), ValueModule()]


def default_efes(
    settings: ExecutionSettings | None = None,
    runtime=None,
) -> Efes:
    """EFES with the shipped modules and (by default) Table 9 settings.

    ``runtime`` optionally binds a dedicated :class:`repro.runtime.Runtime`
    (profile cache + metrics); by default the process-wide runtime is
    used.  The failure policy is per call: each entry point takes
    ``strict`` (fail-fast for ``assess``/``plan``/``estimate``, graceful
    for ``run``).
    """
    return Efes(default_modules(), settings, runtime=runtime)


__all__ = [
    "AssessmentOutcome",
    "AttributeCountingBaseline",
    "BaselineEstimate",
    "ComparisonRow",
    "ComplexityReport",
    "DomainResult",
    "Efes",
    "EffortEstimate",
    "EstimateSummary",
    "EstimationModule",
    "ExecutionSettings",
    "HARDEN_TASKS",
    "HOURS_PER_ATTRIBUTE",
    "InfiniteCleaningLoopError",
    "MAPPING_SHARE",
    "MappingComplexityReport",
    "MappingConnection",
    "MappingModule",
    "REPORT_TYPES",
    "ResultQuality",
    "STRUCTURE_TASK_CATALOGUE",
    "SerializationError",
    "StructuralConflict",
    "StructureComplexityReport",
    "StructureModule",
    "StructureViolation",
    "Task",
    "TaskAdjustment",
    "TaskCategory",
    "TaskEffort",
    "TaskType",
    "VALUE_TASK_CATALOGUE",
    "ValueComplexityReport",
    "ValueHeterogeneity",
    "ValueHeterogeneityFinding",
    "ValueModule",
    "combined_rmse",
    "constant",
    "default_efes",
    "default_execution_settings",
    "default_modules",
    "estimate_from_dict",
    "estimate_to_dict",
    "linear",
    "make_drop_instead_of_add",
    "optimal_scale",
    "per_unit",
    "price_tasks",
    "relative_rmse",
    "report_from_dict",
    "report_to_dict",
    "reports_from_dict",
    "reports_to_dict",
    "task_from_dict",
    "task_to_dict",
    "tasks_from_dicts",
    "tasks_to_dicts",
    "threshold_per_unit",
    "tool_assisted_settings",
]
