"""The value detector's findings, cached per source content.

The detector keeps its findings in the runtime's ``ProfileCache`` under
the source's content key, next to the structure detector's violations.
These tests pin what that cache may and may not change: a re-quote on a
warm runtime profiles nothing yet serializes the same bytes as a fresh
run, the source name stays out of the entry, a changed source or target
(a constraint included) recomputes, a failed miss caches nothing, and a
caller cannot change a cached finding.
"""

import dataclasses
import json

import pytest

from repro.core import Efes, ResultQuality, default_modules
from repro.core.serialize import (
    dumps,
    estimate_to_dict,
    reports_to_dict,
    tasks_to_dicts,
)
from repro.core.tasks import StructuralConflict
from repro.relational import (
    Database,
    ForeignKey,
    FunctionalDependencyConstraint,
    Schema,
    Unique,
)
from repro.resilience import FaultPlan, FaultPoint, injected_faults
from repro.runtime import Runtime, fingerprint_database
from repro.scenarios import IntegrationScenario, scenario_s1_s2
from repro.scenarios.catalogue import SCENARIO_BUILDERS


def run(scenario, runtime, quality=ResultQuality.HIGH_QUALITY):
    """Serialized reports, estimate and tasks of one ``Efes.run``."""
    outcome = Efes(default_modules(), runtime=runtime).run(scenario, quality)
    assert not outcome.degradations
    return {
        "reports": dumps(reports_to_dict(outcome.reports)),
        "estimate": dumps(estimate_to_dict(outcome.estimate)),
        "tasks": json.dumps(tasks_to_dicts(outcome.tasks), sort_keys=True),
    }


def lookups(runtime) -> int:
    return runtime.metrics.cache_hits + runtime.metrics.cache_misses


def profiled(runtime) -> int:
    """How many column profiles the runtime computed."""
    histogram = runtime.metrics.histogram("stage_seconds", stage="profile")
    return histogram.count if histogram is not None else 0


def value_keys(runtime, database) -> list[tuple]:
    fingerprint = fingerprint_database(database)
    return [
        key
        for key in runtime.cache.keys()
        if key[0] == fingerprint and key[1] == "values"
    ]


def renamed(source: Database, name: str) -> Database:
    """A content-identical copy of ``source`` under another name."""
    copy = Database(
        Schema(name, source.schema.relations, source.schema.constraints)
    )
    for relation in source.schema.relations:
        copy.insert_all(relation.name, source.table(relation.name).rows)
    return copy


def with_twin(scenario) -> IntegrationScenario:
    """``scenario`` plus a content-identical copy of its source."""
    (source,) = scenario.sources
    twin = renamed(source, source.name + "_twin")
    correspondences = scenario.correspondences[source.name]
    return IntegrationScenario(
        scenario.name,
        [source, twin],
        scenario.target,
        {source.name: correspondences, twin.name: correspondences},
    )


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_warm_requote_matches_a_fresh_run(name, seed):
    build = SCENARIO_BUILDERS[name]
    scenario = build(seed)
    runtime = Runtime()
    for quality in ResultQuality:
        run(scenario, runtime, quality)
    computed = profiled(runtime)
    for quality in ResultQuality:
        warm = run(scenario, runtime, quality)
        assert warm == run(build(seed), Runtime(), quality)
    assert profiled(runtime) == computed


@pytest.mark.parametrize("twin", [False, True], ids=["one-source", "twin"])
@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_requote_is_one_lookup_per_detector_per_source(name, twin):
    scenario = SCENARIO_BUILDERS[name](1)
    if twin:
        scenario = with_twin(scenario)
    runtime = Runtime()
    run(scenario, runtime)
    before, misses = lookups(runtime), runtime.metrics.cache_misses
    efes = Efes(default_modules(), runtime=runtime)
    outcome = efes.run(scenario, ResultQuality.LOW_EFFORT, trace=True)
    assert not outcome.degradations
    assert lookups(runtime) - before == 2 * len(scenario.sources)
    assert runtime.metrics.cache_misses == misses
    assert outcome.trace.find("profile") == []


def test_identical_content_under_two_names():
    scenario = with_twin(scenario_s1_s2(seed=9))
    source, twin = scenario.sources
    assert fingerprint_database(twin) == fingerprint_database(source)
    runtime = Runtime()
    findings = Efes(default_modules(), runtime=runtime).assess(scenario)[
        "values"
    ].findings
    # The twin's findings are the source's cache entry.
    assert len(value_keys(runtime, source)) == 1
    own = [f for f in findings if f.source_database == source.name]
    twins = [f for f in findings if f.source_database == twin.name]
    assert own and len(own) + len(twins) == len(findings)
    assert [
        dataclasses.replace(f, source_database=twin.name) for f in own
    ] == twins


#: A row for each side of s1-s2: an article whose year does not parse,
#: and a person named in the target only.
ROWS = {
    "source": (
        "articles",
        (10_001, "Untitled", "Ann Author", None, "n.d.", "1-2"),
    ),
    "target": ("persons", (10_001, "Zed Zebra")),
}


@pytest.mark.parametrize("side", sorted(ROWS))
def test_inserted_row_recomputes_and_matches_a_fresh_run(side):
    scenario = scenario_s1_s2(seed=9)
    runtime = Runtime()
    run(scenario, runtime)
    computed = profiled(runtime)
    database = scenario.sources[0] if side == "source" else scenario.target
    database.insert(*ROWS[side])
    after = run(scenario, runtime)
    assert profiled(runtime) > computed
    assert after == run(scenario, Runtime())


@pytest.mark.parametrize("side", ["source", "target"])
def test_invalidate_drops_the_value_entry(side):
    # The entry sits under the source's key and names the target second;
    # invalidating either side drops it.
    scenario = scenario_s1_s2(seed=9)
    (source,) = scenario.sources
    runtime = Runtime()
    first = run(scenario, runtime)
    computed = profiled(runtime)
    assert value_keys(runtime, source)
    runtime.cache.invalidate(source if side == "source" else scenario.target)
    assert value_keys(runtime, source) == []
    hits = runtime.metrics.cache_hits
    assert run(scenario, runtime) == first
    assert value_keys(runtime, source)
    # The invalidated side's columns are profiled again; the other
    # side's still hit.
    assert profiled(runtime) > computed
    assert runtime.metrics.cache_hits > hits


def test_added_constraints_reach_both_detectors():
    """A constraint added to an assessed target changes its content key:
    the warm run matches a fresh one, not the run before the addition."""
    scenario = scenario_s1_s2(seed=1)
    runtime = Runtime()
    before = run(scenario, runtime)
    target = scenario.target
    fingerprint = fingerprint_database(target)
    # Structure: an FD and a composite UNIQUE that the source violates.
    target.schema.add_constraint(
        FunctionalDependencyConstraint("publications", "title", "venue")
    )
    target.schema.add_constraint(Unique("publications", ("title", "venue")))
    # Values: a foreign key is re-generated by the mapping, so the value
    # detector skips the attribute that holds it.
    target.schema.add_constraint(
        ForeignKey("persons", ("name",), "publications", ("title",))
    )
    assert fingerprint_database(target) != fingerprint
    after = run(scenario, runtime)
    assert after == run(scenario, Runtime())
    assert after != before
    reports = Efes(default_modules(), runtime=runtime).assess(scenario)
    counts = {}
    for violation in reports["structure"].violations:
        counts[violation.conflict] = (
            counts.get(violation.conflict, 0) + violation.violation_count
        )
    assert counts[StructuralConflict.UNIQUE_VIOLATED] == 1
    assert counts[StructuralConflict.FD_VIOLATED] == 8
    assert "persons.name" not in {
        finding.target_attribute for finding in reports["values"].findings
    }


def test_a_failed_miss_caches_nothing():
    scenario = scenario_s1_s2(seed=9)
    (source,) = scenario.sources
    runtime = Runtime()
    plan = FaultPlan([FaultPoint(site="profile", times=1)])
    with injected_faults(plan):
        outcome = Efes(default_modules(), runtime=runtime).run(
            scenario, ResultQuality.HIGH_QUALITY
        )
    assert [d.module for d in outcome.degradations] == ["values"]
    assert value_keys(runtime, source) == []
    assert run(scenario, runtime) == run(scenario_s1_s2(seed=9), Runtime())


def test_a_returned_finding_cannot_change_the_entry():
    scenario = scenario_s1_s2(seed=9)
    runtime = Runtime()
    efes = Efes(default_modules(), runtime=runtime)
    first = efes.assess(scenario)["values"].findings
    expected = [dict(finding.parameters) for finding in first]
    assert expected
    for finding in first:
        finding.parameters["values"] = -1.0
    again = efes.assess(scenario)["values"].findings
    assert [finding.parameters for finding in again] == expected
