"""Tracing observes the computation; it never takes part in it.

One scenario per family (running example, bibliographic case study,
music case study) runs through ``Efes.run`` twice on fresh runtimes,
once untraced and once traced.  The serialized reports, estimate and
task catalogue must be byte-identical, the ProfileCache must end up
holding exactly the same content keys, and the runtime must record the
same ``stage_seconds`` series with the same sample counts.
"""

import json

import pytest

from repro.core import Efes, ResultQuality, default_modules
from repro.core.serialize import (
    dumps,
    estimate_to_dict,
    reports_to_dict,
    tasks_to_dicts,
)
from repro.runtime import Runtime
from repro.scenarios import (
    example_scenario,
    scenario_m1_f2,
    scenario_s1_s2,
)
from repro.scenarios.example import ExampleParameters

#: One representative scenario per family; builders return fresh
#: instances so no state leaks between the two runs.
SCENARIO_FAMILIES = {
    "example": lambda: example_scenario(
        ExampleParameters(
            albums=200,
            multi_artist_albums=50,
            detached_artists=12,
            target_records=40,
            seed=9,
        )
    ),
    "bibliographic": lambda: scenario_s1_s2(seed=9),
    "music": lambda: scenario_m1_f2(seed=9),
}


def run_pipeline(build_scenario, trace: bool):
    """One full Efes run on a fresh runtime; returns serialized artefacts."""
    runtime = Runtime()
    scenario = build_scenario()
    efes = Efes(default_modules(), runtime=runtime)
    outcome = efes.run(scenario, ResultQuality.HIGH_QUALITY, trace=trace)
    assert (outcome.trace is not None) == trace
    assert not outcome.degradations
    tasks = efes.plan(
        scenario, ResultQuality.HIGH_QUALITY, reports=outcome.reports
    )
    return {
        "reports": dumps(reports_to_dict(outcome.reports)),
        "estimate": dumps(estimate_to_dict(outcome.estimate)),
        "tasks": json.dumps(tasks_to_dicts(tasks), sort_keys=True),
        "cache_keys": runtime.cache.keys(),
        "stage_counts": {
            histogram.labels: histogram.count
            for histogram in runtime.metrics.snapshot().histograms
            if histogram.name == "stage_seconds"
        },
    }


@pytest.mark.parametrize("family", sorted(SCENARIO_FAMILIES))
def test_tracing_only_observes(family):
    build = SCENARIO_FAMILIES[family]
    untraced = run_pipeline(build, trace=False)
    traced = run_pipeline(build, trace=True)
    assert traced == untraced
