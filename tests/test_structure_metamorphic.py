"""Metamorphic checks of the structure module (paper §4).

Two properties that need no expected numbers: declaring a source's
relations in another order changes no report and no estimate, and a
source whose schema is the target's has no structural conflicts.  The
order check also runs on a warm runtime, where the reordered source hits
the CSG path counts cached under the original order.
"""

import pytest

from repro.core import Efes, ResultQuality, default_modules
from repro.core.serialize import dumps, estimate_to_dict, reports_to_dict
from repro.relational import Database, Schema
from repro.runtime import Runtime, fingerprint_database
from repro.scenarios import IntegrationScenario, resolve_scenario

PAIRWISE = ("s1-s2", "s1-s3", "s3-s4", "s4-s4", "f1-m2", "m1-d2", "m1-f2", "d1-d2")


def reversed_relations(source: Database) -> Database:
    """``source`` with its relations declared in reverse order."""
    relations = source.schema.relations[::-1]
    copy = Database(Schema(source.name, relations, source.schema.constraints))
    for relation in relations:
        copy.insert_all(relation.name, source.table(relation.name).rows)
    return copy


def serialized(scenario, runtime, quality) -> str:
    outcome = Efes(default_modules(), runtime=runtime).run(scenario, quality)
    assert not outcome.degradations
    return dumps(
        {
            "reports": reports_to_dict(outcome.reports),
            "estimate": estimate_to_dict(outcome.estimate),
        }
    )


@pytest.mark.parametrize("name", PAIRWISE)
@pytest.mark.parametrize("quality", list(ResultQuality), ids=lambda q: q.value)
def test_relation_order_changes_nothing(name, quality):
    scenario = resolve_scenario(name, seed=3)
    reordered = IntegrationScenario(
        scenario.name,
        [reversed_relations(source) for source in scenario.sources],
        scenario.target,
        scenario.correspondences,
    )
    for source, copy in zip(scenario.sources, reordered.sources):
        assert copy.schema.relation_names == source.schema.relation_names[::-1]
        assert fingerprint_database(copy) == fingerprint_database(source)
    warm = Runtime()
    expected = serialized(scenario, warm, quality)
    assert serialized(reordered, Runtime(), quality) == expected
    assert serialized(reordered, warm, quality) == expected


@pytest.mark.parametrize("name", ["s4-s4", "d1-d2"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_identical_schemas_need_no_structural_cleaning(name, seed):
    scenario = resolve_scenario(name, seed=seed)
    outcome = Efes(default_modules(), runtime=Runtime()).run(
        scenario, ResultQuality.HIGH_QUALITY
    )
    assert outcome.reports["structure"].violations == []
    assert [task for task in outcome.tasks if task.module == "structure"] == []
