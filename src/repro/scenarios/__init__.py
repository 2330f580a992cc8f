"""Integration scenarios: the running example and both case-study domains.

All instances are synthesised deterministically (see DESIGN.md §1 for the
substitution rationale); every builder takes a seed.  User scenarios are
read from one format, the CSV directory of :mod:`repro.scenarios.io`.
"""

from .bibliographic import (
    bibliographic_scenarios,
    scenario_multi_source,
    scenario_s1_s2,
    scenario_s1_s3,
    scenario_s3_s4,
    scenario_s4_s4,
)
from .catalogue import (
    SCENARIO_BUILDERS,
    ScenarioCache,
    UnknownScenarioError,
    resolve_scenario,
    scenario_catalogue,
)
from .example import ExampleParameters, example_scenario
from .generators import DataGenerator
from .io import (
    ScenarioFormatError,
    load_database,
    load_scenario,
    save_database,
    save_scenario,
)
from .music import (
    music_scenarios,
    scenario_d1_d2,
    scenario_f1_m2,
    scenario_m1_d2,
    scenario_m1_f2,
)
from .scenario import IntegrationScenario

__all__ = [
    "DataGenerator",
    "ExampleParameters",
    "IntegrationScenario",
    "SCENARIO_BUILDERS",
    "ScenarioCache",
    "ScenarioFormatError",
    "UnknownScenarioError",
    "load_database",
    "load_scenario",
    "save_database",
    "save_scenario",
    "bibliographic_scenarios",
    "example_scenario",
    "music_scenarios",
    "resolve_scenario",
    "scenario_catalogue",
    "scenario_d1_d2",
    "scenario_f1_m2",
    "scenario_m1_d2",
    "scenario_m1_f2",
    "scenario_multi_source",
    "scenario_s1_s2",
    "scenario_s1_s3",
    "scenario_s3_s4",
    "scenario_s4_s4",
]
