"""Tests for the scenario machinery and both case-study domains."""

import sys
import threading

import pytest

from repro.matching import CorrespondenceSet, attribute_correspondence
from repro.relational.validation import assert_valid
from repro.runtime import fingerprint_scenario
from repro.scenarios import (
    SCENARIO_BUILDERS,
    DataGenerator,
    IntegrationScenario,
    ScenarioCache,
    UnknownScenarioError,
    bibliographic_scenarios,
    example_scenario,
    music_scenarios,
    resolve_scenario,
    scenario_catalogue,
)
from repro.scenarios.example import ExampleParameters


class TestIntegrationScenario:
    def test_single_source_shorthand(self, example):
        assert len(example.sources) == 1
        assert example.correspondences[example.sources[0].name]

    def test_pairs(self, example):
        pairs = list(example.pairs())
        assert len(pairs) == 1
        source, cset = pairs[0]
        assert source.name == "source" and len(cset) > 0

    def test_source_lookup(self, example):
        assert example.source("source") is example.sources[0]
        with pytest.raises(KeyError):
            example.source("nope")

    def test_total_source_attributes(self, example):
        assert example.total_source_attributes() == 11

    def test_duplicate_source_names_rejected(self, example):
        with pytest.raises(ValueError):
            IntegrationScenario(
                "dup",
                [example.sources[0], example.sources[0]],
                example.target,
                {},
            )

    def test_unknown_correspondence_source_rejected(self, example):
        with pytest.raises(ValueError):
            IntegrationScenario(
                "bad",
                example.sources,
                example.target,
                {"ghost": CorrespondenceSet()},
            )

    def test_correspondences_validated_against_schemas(self, example):
        bad = CorrespondenceSet(
            [attribute_correspondence("albums.nope", "records.title")]
        )
        with pytest.raises(Exception):
            IntegrationScenario(
                "bad", example.sources, example.target, bad
            )


class TestDataGenerator:
    def test_deterministic(self):
        a, b = DataGenerator(7), DataGenerator(7)
        assert [a.title() for _ in range(5)] == [b.title() for _ in range(5)]

    def test_seeds_differ(self):
        a, b = DataGenerator(7), DataGenerator(8)
        assert [a.title() for _ in range(5)] != [b.title() for _ in range(5)]

    def test_distinct_person_names_are_distinct(self):
        names = DataGenerator(1).distinct_person_names(500)
        assert len(set(names)) == 500

    def test_inverted_names_have_comma(self):
        names = DataGenerator(1).distinct_person_names(10, inverted=True)
        assert all("," in name for name in names)

    def test_distinct_titles(self):
        titles = DataGenerator(1).distinct_titles(300)
        assert len(set(titles)) == 300

    def test_ms_to_mss(self):
        assert DataGenerator.ms_to_mss(283_000) == "4:43"
        assert DataGenerator.ms_to_mss(60_000) == "1:00"

    def test_seconds_to_mss_pads(self):
        assert DataGenerator.seconds_to_mss(61) == "1:01"


class TestExampleScenario:
    def test_sources_are_locally_valid(self, example):
        assert_valid(example.sources[0])

    def test_target_is_locally_valid(self, example):
        assert_valid(example.target)

    def test_paper_counts_are_exact(self, example):
        source = example.sources[0]
        assert len(source.table("albums")) == 2000
        lists = len(source.table("artist_lists"))
        assert lists == 2000 + 102

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            example_scenario(
                ExampleParameters(albums=10, multi_artist_albums=20)
            )

    def test_known_transformations_attached(self, example):
        transformation = example.known_transformations[
            ("songs.length", "tracks.duration")
        ]
        assert transformation(283_000) == "4:43"


@pytest.mark.parametrize("builder", [bibliographic_scenarios, music_scenarios])
class TestDomains:
    def test_four_scenarios(self, builder):
        assert len(builder()) == 4

    def test_all_locally_valid(self, builder):
        for scenario in builder():
            for source in scenario.sources:
                assert_valid(source)
            assert_valid(scenario.target)

    def test_deterministic(self, builder):
        names_a = [
            (s.name, s.sources[0].total_rows(), s.target.total_rows())
            for s in builder(seed=3)
        ]
        names_b = [
            (s.name, s.sources[0].total_rows(), s.target.total_rows())
            for s in builder(seed=3)
        ]
        assert names_a == names_b

    def test_seed_changes_instances(self, builder):
        rows_a = [s.sources[0].total_rows() for s in builder(seed=1)]
        rows_b = [s.sources[0].total_rows() for s in builder(seed=2)]
        assert rows_a != rows_b

    def test_identity_scenario_present(self, builder):
        names = [s.name for s in builder()]
        assert any(
            name.split("-")[0].rstrip("0123456789")
            == name.split("-")[1].rstrip("0123456789")
            for name in names
        )


class TestDomainHeterogeneities:
    """Each non-identity scenario must exhibit detectable heterogeneity;
    identity scenarios must not (the s4-s4 / d1-d2 argument of §6.2)."""

    @pytest.fixture(scope="class")
    def assessments(self, efes):
        result = {}
        for scenario in bibliographic_scenarios() + music_scenarios():
            result[scenario.name] = efes.assess(scenario)
        return result

    def test_identity_scenarios_are_clean(self, assessments):
        for name in ("s4-s4", "d1-d2"):
            assert assessments[name]["structure"].is_empty()
            assert assessments[name]["values"].is_empty()

    def test_non_identity_scenarios_have_findings(self, assessments):
        for name in ("s1-s2", "s1-s3", "s3-s4", "f1-m2", "m1-d2", "m1-f2"):
            reports = assessments[name]
            assert (
                not reports["structure"].is_empty()
                or not reports["values"].is_empty()
            ), name

    def test_s3_s4_structure_conflicts(self, assessments):
        from repro.core.tasks import StructuralConflict

        conflicts = {
            v.conflict
            for v in assessments["s3-s4"]["structure"].violations
        }
        assert StructuralConflict.MULTIPLE_ATTRIBUTE_VALUES in conflicts
        assert StructuralConflict.VALUE_WITHOUT_ENCLOSING_TUPLE in conflicts

    def test_value_conflicts_name_the_attributes(self, assessments):
        findings = assessments["m1-d2"]["values"].findings
        pairs = {(f.source_attribute, f.target_attribute) for f in findings}
        assert ("rtracks.length_ms", "tracklist.duration") in pairs


#: ``fingerprint_scenario`` of every catalogue scenario, recorded before
#: the generators loaded rows in batches: generated content must not move.
PINNED_FINGERPRINTS = {
    1: {
        "example": "7e43002bb79ec26b08d79cdfa611ecb3a7f7a389",
        "s1-s2": "0467818693d9d6a769cd5cb4ddb28e662f26b817",
        "s1-s3": "4148beefc05440e3f6edeb5a2a28626d6fcb5897",
        "s3-s4": "e58e4698407428841bf855d85a916f7449405982",
        "s4-s4": "93f8af117631b878006ea82f215a76473a1273ab",
        "f1-m2": "3af5b75a52c3e8cfe50564a66ed70aadd302b536",
        "m1-d2": "0128fa751036f85887eb73d7e7c050eed839c6ad",
        "m1-f2": "050c483d4bdb717721400b2ac9e52109eefbcafa",
        "d1-d2": "68a4c1beaafb456ea6c8ee150c03cbccdaa8c9e3",
    },
    2: {
        "example": "7e43002bb79ec26b08d79cdfa611ecb3a7f7a389",
        "s1-s2": "b0ff1111c34b23ae79c42f02355bfe5ba7469cc2",
        "s1-s3": "1993795d39e81070bd6208153928afcac5881788",
        "s3-s4": "f7bc6c6215dc79e0888e1970efba8b1845967a98",
        "s4-s4": "8515c762224d846882185959df57981fad67ff57",
        "f1-m2": "f00601db0b3f43fb0f2405234bbb7f8362b68867",
        "m1-d2": "0d2fc181a3f490bf5fc4d1d5ab8045abfe1b7fb1",
        "m1-f2": "6ab8e4facc59bd67d4b5763d32fec8de8c310294",
        "d1-d2": "1eaf5948e88610aac3732f3950e228db5e4a7c0f",
    },
}
EXAMPLE_1000_FINGERPRINT = "ed52d17b40c75586d0cbec26e0190147a7fa6271"


@pytest.fixture(scope="module")
def catalogue_fingerprints():
    return {
        seed: {
            name: fingerprint_scenario(scenario)
            for name, scenario in scenario_catalogue(seed).items()
        }
        for seed in PINNED_FINGERPRINTS
    }


class TestCatalogue:
    def test_generated_content_is_pinned(self, catalogue_fingerprints):
        assert catalogue_fingerprints == PINNED_FINGERPRINTS
        example = example_scenario(ExampleParameters(albums=1000))
        assert fingerprint_scenario(example) == EXAMPLE_1000_FINGERPRINT

    @pytest.mark.parametrize("seed", sorted(PINNED_FINGERPRINTS))
    def test_resolving_a_name_builds_the_catalogue_entry(
        self, seed, catalogue_fingerprints
    ):
        for name in SCENARIO_BUILDERS:
            resolved = resolve_scenario(name, seed)
            assert resolved.name == name
            assert (
                fingerprint_scenario(resolved)
                == catalogue_fingerprints[seed][name]
            )

    def test_resolving_builds_only_the_named_scenario(self, monkeypatch):
        calls = _count_builds(monkeypatch)
        resolve_scenario("m1-d2", 4)
        assert calls == {"m1-d2": [4]}

    def test_unknown_name_builds_nothing(self, monkeypatch):
        calls = _count_builds(monkeypatch)
        with pytest.raises(UnknownScenarioError):
            resolve_scenario("no-such-scenario", 1)
        assert calls == {}

    def test_efes_list_calls_no_builder(self, monkeypatch, capsys):
        from repro.cli import main

        def refuse(seed):
            raise AssertionError("efes list built a scenario")

        for name in SCENARIO_BUILDERS:
            monkeypatch.setitem(SCENARIO_BUILDERS, name, refuse)
        assert main(["list"]) == 0
        assert capsys.readouterr().out.split() == list(SCENARIO_BUILDERS)


@pytest.mark.parametrize("name", list(SCENARIO_BUILDERS))
def test_building_calls_no_caster(name, caster_calls):
    """The generators emit values of each column's native type, so the
    column-at-a-time load casts none of them."""
    scenario = SCENARIO_BUILDERS[name](1)
    assert scenario.target.total_rows() > 0
    assert not caster_calls


def _count_builds(monkeypatch, delay=0.0, fail=None):
    """Replace every catalogue builder with a stub that records its seed.

    Each stub returns a fresh object, so identity shows which build a
    caller got.  ``fail`` names builders whose first call raises.
    """
    calls: dict[str, list[int]] = {}
    lock = threading.Lock()
    release = threading.Event()
    if not delay:
        release.set()

    def stub(name):
        def build(seed):
            with lock:
                calls.setdefault(name, []).append(seed)
                first = len(calls[name]) == 1
            release.wait(delay)
            if fail is not None and name in fail and first:
                raise RuntimeError(f"{name} build failed")
            return object()

        return build

    for name in list(SCENARIO_BUILDERS):
        monkeypatch.setitem(SCENARIO_BUILDERS, name, stub(name))
    return calls


def _race(threads, target):
    """Run ``target(index)`` on ``threads`` threads released together;
    returns each thread's result or exception."""
    barrier = threading.Barrier(threads)
    outcomes = [None] * threads

    def run(index):
        barrier.wait(timeout=10)
        try:
            outcomes[index] = target(index)
        except Exception as exc:  # noqa: BLE001 - the test inspects it
            outcomes[index] = exc

    workers = [
        threading.Thread(target=run, args=(index,)) for index in range(threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    return outcomes


class TestScenarioCache:
    def test_concurrent_first_requests_share_one_build(self, monkeypatch):
        calls = _count_builds(monkeypatch, delay=0.05)
        cache = ScenarioCache()
        names = list(SCENARIO_BUILDERS)
        outcomes = _race(
            12, lambda index: cache.resolve(names[index % len(names)], 7)
        )
        assert calls == {name: [7] for name in names}
        catalogue = cache.catalogue(7)
        for index, outcome in enumerate(outcomes):
            assert outcome is catalogue[names[index % len(names)]]

    def test_example_is_built_once_for_every_seed(self, monkeypatch):
        calls = _count_builds(monkeypatch)
        cache = ScenarioCache()
        examples = {cache.resolve("example", seed) for seed in (1, 2, 3)}
        assert len(examples) == 1
        assert len(calls["example"]) == 1
        # A request for the example still warms its seed's catalogue.
        assert calls["s1-s2"] == [1, 2, 3]
        assert cache.resolve("d1-d2", 3) is cache.catalogue(3)["d1-d2"]
        assert cache.resolve("d1-d2", 3) is not cache.resolve("d1-d2", 2)

    def test_failed_build_reaches_every_waiter_then_retries(
        self, monkeypatch
    ):
        calls = _count_builds(monkeypatch, delay=0.05, fail={"s3-s4"})
        cache = ScenarioCache()
        outcomes = _race(6, lambda index: cache.resolve("s1-s2", 9))
        assert all(isinstance(outcome, RuntimeError) for outcome in outcomes)
        assert calls["s3-s4"] == [9]
        assert cache.resolve("s1-s2", 9) is cache.catalogue(9)["s1-s2"]
        assert calls["s3-s4"] == [9, 9]
        assert calls["s1-s2"] == [9, 9]

    def test_directory_is_loaded_once_per_name_and_seed(
        self, tmp_path, monkeypatch
    ):
        from repro.scenarios import catalogue as catalogue_module
        from repro.scenarios import save_scenario

        directory = tmp_path / "saved"
        save_scenario(
            example_scenario(
                ExampleParameters(albums=40, multi_artist_albums=5,
                                  detached_artists=3, target_records=10)
            ),
            directory,
        )
        loads = []
        load = catalogue_module.load_scenario
        monkeypatch.setattr(
            catalogue_module,
            "load_scenario",
            lambda name: loads.append(name) or load(name),
        )
        calls = _count_builds(monkeypatch)
        cache = ScenarioCache()
        # A directory is read again on every resolve, so an edited CSV
        # is seen at once; only catalogue builds are cached.
        first = cache.resolve(str(directory), 1)
        assert cache.resolve(str(directory), 1) is not first
        assert loads == [str(directory)] * 2
        assert calls == {}

    def test_unknown_reference_raises(self):
        with pytest.raises(UnknownScenarioError):
            ScenarioCache().resolve("no-such-scenario", 1)
