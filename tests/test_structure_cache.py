"""The structure detector's violations, cached per source content.

The detector keeps its result in the runtime's ``ProfileCache`` under the
source's content key.  These tests pin what that cache may and
may not change: a re-quote on a warm runtime converts no CSG yet
serializes the same bytes as a fresh run, a mutation recounts, the source
name stays out of the entry, and invalidation drops it.
"""

import dataclasses
import gc
import json

import pytest

from repro.core import Efes, ResultQuality, default_modules
from repro.core.serialize import (
    dumps,
    estimate_to_dict,
    reports_to_dict,
    tasks_to_dicts,
)
from repro.relational import Database, Schema
from repro.runtime import Runtime, fingerprint_database, fingerprint_scenario
from repro.scenarios import (
    IntegrationScenario,
    example_scenario,
    scenario_m1_f2,
    scenario_s1_s2,
)
from repro.scenarios.example import ExampleParameters

#: How to build each scenario, and a row whose insertion changes one of
#: its structure counts: an album without artists, an article without a
#: journal, and a repeated (release, position) key.
SCENARIOS = {
    "example-200": (
        lambda: example_scenario(
            ExampleParameters(
                albums=200,
                multi_artist_albums=50,
                detached_artists=12,
                target_records=40,
                seed=9,
            )
        ),
        "albums",
        (10_001, "Unlisted Album", None),
    ),
    "s1-s2": (
        lambda: scenario_s1_s2(seed=9),
        "articles",
        (10_001, "Untitled", "Ann Author", None, "2001", "1-2"),
    ),
    "m1-f2": (
        lambda: scenario_m1_f2(seed=9),
        "rtracks",
        (1, 1, "Repeated Track", 1000),
    ),
}


def run(scenario, runtime):
    """Serialized reports, estimate and tasks of one ``Efes.run``."""
    efes = Efes(default_modules(), runtime=runtime)
    outcome = efes.run(scenario, ResultQuality.HIGH_QUALITY)
    assert not outcome.degradations
    return {
        "reports": dumps(reports_to_dict(outcome.reports)),
        "estimate": dumps(estimate_to_dict(outcome.estimate)),
        "tasks": json.dumps(tasks_to_dicts(outcome.tasks), sort_keys=True),
    }


def conversions(runtime) -> int:
    histogram = runtime.metrics.histogram("stage_seconds", stage="csg")
    return histogram.count if histogram is not None else 0


def structure_keys(runtime, database) -> list[tuple]:
    fingerprint = fingerprint_database(database)
    return [
        key
        for key in runtime.cache.keys()
        if key[0] == fingerprint and key[1] == "structure"
    ]


def renamed(source: Database, name: str) -> Database:
    """A content-identical copy of ``source`` under another name."""
    copy = Database(
        Schema(name, source.schema.relations, source.schema.constraints)
    )
    for relation in source.schema.relations:
        copy.insert_all(relation.name, source.table(relation.name).rows)
    return copy


@pytest.mark.parametrize("name", sorted(SCENARIOS))
class TestStructureCache:
    def test_requote_converts_nothing_and_matches_a_fresh_run(self, name):
        build, _, _ = SCENARIOS[name]
        scenario = build()
        runtime = Runtime()
        first = run(scenario, runtime)
        assert conversions(runtime) == 1
        assert run(scenario, runtime) == first
        assert conversions(runtime) == 1
        assert run(build(), Runtime()) == first

    def test_keys_hold_no_object_identity(self, name):
        # Two builds of one scenario share no objects; equal keys show
        # that no object identity leaks into them.
        build, _, _ = SCENARIOS[name]
        scenario, rebuilt = build(), build()
        runtime, other = Runtime(), Runtime()
        run(scenario, runtime)
        run(rebuilt, other)
        keys = structure_keys(runtime, scenario.sources[0])
        assert len(keys) == 1
        assert keys == structure_keys(other, rebuilt.sources[0])

    def test_inserted_row_recounts_and_matches_a_fresh_run(self, name):
        build, relation, row = SCENARIOS[name]
        scenario = build()
        runtime = Runtime()
        before = run(scenario, runtime)
        scenario.sources[0].insert(relation, row)
        after = run(scenario, runtime)
        assert conversions(runtime) == 2
        assert after == run(scenario, Runtime())
        assert after["reports"] != before["reports"]

    def test_identical_content_under_two_names(self, name):
        build, _, _ = SCENARIOS[name]
        scenario = build()
        (source,) = scenario.sources
        twin = renamed(source, source.name + "_twin")
        assert fingerprint_database(twin) == fingerprint_database(source)
        correspondences = scenario.correspondences[source.name]
        both = IntegrationScenario(
            scenario.name,
            [source, twin],
            scenario.target,
            {source.name: correspondences, twin.name: correspondences},
        )
        runtime = Runtime()
        violations = Efes(default_modules(), runtime=runtime).assess(both)[
            "structure"
        ].violations
        # The twin's violations are the source's cache entry.
        assert conversions(runtime) == 1
        own = [v for v in violations if v.source_database == source.name]
        twins = [v for v in violations if v.source_database == twin.name]
        assert len(own) + len(twins) == len(violations)
        assert [
            dataclasses.replace(v, source_database=twin.name) for v in own
        ] == twins

    def test_invalidate_drops_the_structure_entry(self, name):
        build, _, _ = SCENARIOS[name]
        scenario = build()
        (source,) = scenario.sources
        runtime = Runtime()
        first = run(scenario, runtime)
        assert structure_keys(runtime, source)
        runtime.cache.invalidate(source)
        assert structure_keys(runtime, source) == []
        assert run(scenario, runtime) == first
        assert conversions(runtime) == 2


@pytest.mark.parametrize(
    "fingerprinted, hits, misses", [(True, 2, 0), (False, 2, 12)]
)
def test_twin_of_a_collected_scenario(fingerprinted, hits, misses):
    """A rebuilt twin shares its collected predecessor's entries only if
    the predecessor's keys were resolved: it was fingerprinted before its
    run, as every service job is.  Then its two detectors hit once each.
    Otherwise the twin recomputes, and still serializes the same bytes:
    it misses both detectors and ten column profiles, and hits the two
    target columns that two correspondences each read."""
    runtime = Runtime()
    scenario = scenario_s1_s2(seed=4)
    if fingerprinted:
        fingerprint_scenario(scenario)
    first = run(scenario, runtime)
    del scenario
    gc.collect()
    metrics = runtime.metrics
    before = metrics.cache_hits, metrics.cache_misses
    assert run(scenario_s1_s2(seed=4), runtime) == first
    assert (
        metrics.cache_hits - before[0],
        metrics.cache_misses - before[1],
    ) == (hits, misses)
