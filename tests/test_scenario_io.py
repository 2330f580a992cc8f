"""Tests for scenario serialization (save/load round trips)."""

import json
import threading

import pytest

from repro.core import ResultQuality, default_efes
from repro.relational import FunctionalDependencyConstraint
from repro.runtime import Runtime
from repro.scenarios.bibliographic import scenario_multi_source
from repro.scenarios.io import (
    ScenarioFormatError,
    constraint_from_dict,
    constraint_to_dict,
    load_database,
    load_scenario,
    save_database,
    save_scenario,
)


class TestConstraintRoundTrip:
    def test_all_kinds_round_trip(self, example):
        for constraint in (
            example.sources[0].schema.constraints
            + example.target.schema.constraints
        ):
            restored = constraint_from_dict(constraint_to_dict(constraint))
            assert restored == constraint

    def test_functional_dependency_round_trip(self):
        fd = FunctionalDependencyConstraint("r", "a", "b")
        assert constraint_from_dict(constraint_to_dict(fd)) == fd

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioFormatError):
            constraint_from_dict({"kind": "check", "relation": "r"})


class TestDatabaseRoundTrip:
    def test_schema_and_rows_survive(self, small_example, tmp_path):
        source = small_example.sources[0]
        save_database(source, tmp_path / "db")
        restored = load_database(tmp_path / "db")
        assert restored.schema.name == source.schema.name
        assert restored.schema.relation_names == source.schema.relation_names
        for rel in source.schema.relations:
            assert restored.table(rel.name).rows == source.table(rel.name).rows

    def test_constraints_survive(self, small_example, tmp_path):
        source = small_example.sources[0]
        save_database(source, tmp_path / "db")
        restored = load_database(tmp_path / "db")
        original = {c.describe() for c in source.schema.constraints}
        assert {c.describe() for c in restored.schema.constraints} == original

    def test_missing_schema_rejected(self, tmp_path):
        with pytest.raises(ScenarioFormatError):
            load_database(tmp_path)


class TestScenarioRoundTrip:
    @pytest.fixture(scope="class")
    def round_tripped(self, small_example, tmp_path_factory):
        directory = tmp_path_factory.mktemp("scenario")
        save_scenario(small_example, directory)
        return load_scenario(directory)

    def test_name_and_structure(self, round_tripped, small_example):
        assert round_tripped.name == small_example.name
        assert [s.name for s in round_tripped.sources] == [
            s.name for s in small_example.sources
        ]
        assert round_tripped.target.name == small_example.target.name

    def test_correspondences_survive(self, round_tripped, small_example):
        original = small_example.correspondences["source"]
        restored = round_tripped.correspondences["source"]
        assert {(c.source, c.target) for c in restored} == {
            (c.source, c.target) for c in original
        }

    def test_estimates_are_identical(self, round_tripped, small_example, efes):
        original = efes.estimate(small_example, ResultQuality.HIGH_QUALITY)
        restored = efes.estimate(round_tripped, ResultQuality.HIGH_QUALITY)
        assert restored.total_minutes == original.total_minutes
        assert [e.task.describe() for e in restored.entries] == [
            e.task.describe() for e in original.entries
        ]

    def test_multi_source_round_trip(self, tmp_path):
        scenario = scenario_multi_source()
        save_scenario(scenario, tmp_path / "multi")
        restored = load_scenario(tmp_path / "multi")
        assert [s.name for s in restored.sources] == ["s1", "s3"]
        efes = default_efes()
        original_total = efes.estimate(
            scenario, ResultQuality.LOW_EFFORT
        ).total_minutes
        restored_total = efes.estimate(
            restored, ResultQuality.LOW_EFFORT
        ).total_minutes
        assert restored_total == original_total


class TestStoreRoundTrip:
    """On-disk scenarios driven through the service's report store."""

    def test_saved_scenario_has_the_same_content_address(
        self, small_example, tmp_path
    ):
        from repro.service import job_key

        save_scenario(small_example, tmp_path / "scenario")
        restored = load_scenario(tmp_path / "scenario")
        # Content addressing ignores where the scenario came from: the
        # CSV round trip preserves every value, so the store key matches.
        assert job_key(restored, "assess") == job_key(small_example, "assess")

    def test_assessment_of_loaded_scenario_round_trips_via_spool(
        self, small_example, tmp_path, efes
    ):
        from repro.core.serialize import reports_from_dict, reports_to_dict
        from repro.service import ReportStore, job_key

        save_scenario(small_example, tmp_path / "scenario")
        restored = load_scenario(tmp_path / "scenario")
        reports = efes.assess(restored)

        key = job_key(restored, "assess")
        ReportStore(tmp_path / "spool").put(key, reports_to_dict(reports))
        # A fresh store (fresh process) serves the spooled document, and
        # deserialisation reproduces the reports exactly.
        document = ReportStore(tmp_path / "spool").get(key)
        assert reports_from_dict(document) == reports
        assert reports_from_dict(document) == efes.assess(small_example)


class TestFormatValidation:
    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ScenarioFormatError):
            load_scenario(tmp_path)

    def test_wrong_version_rejected(self, small_example, tmp_path):
        save_scenario(small_example, tmp_path)
        manifest = json.loads((tmp_path / "scenario.json").read_text())
        manifest["version"] = 99
        (tmp_path / "scenario.json").write_text(json.dumps(manifest))
        with pytest.raises(ScenarioFormatError):
            load_scenario(tmp_path)


class TestMalformedRelationData:
    """Bad relation CSVs degrade by default and fail fast under strict."""

    def _mangle_first_csv(self, directory):
        victim = sorted(directory.rglob("*.csv"))[0]
        lines = victim.read_text(encoding="utf-8").splitlines()
        lines.insert(1, "one-lonely-cell")
        victim.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return victim

    def test_lenient_load_leaves_tombstone(self, small_example, tmp_path):
        save_scenario(small_example, tmp_path)
        victim = self._mangle_first_csv(tmp_path)
        scenario = load_scenario(tmp_path)
        degradations = scenario.load_degradations
        assert len(degradations) == 1
        assert degradations[0].phase == "load"
        assert f"{victim}:2:" in degradations[0].error
        assert degradations[0].scenario == scenario.name

    def test_strict_load_raises_with_location(self, small_example, tmp_path):
        save_scenario(small_example, tmp_path)
        victim = self._mangle_first_csv(tmp_path)
        with pytest.raises(ScenarioFormatError) as excinfo:
            load_scenario(tmp_path, strict=True)
        assert f"{victim}:2:" in str(excinfo.value)

    def test_run_merges_load_tombstones(self, small_example, tmp_path):
        save_scenario(small_example, tmp_path)
        self._mangle_first_csv(tmp_path)
        scenario = load_scenario(tmp_path)
        outcome = default_efes().run(scenario, ResultQuality.HIGH_QUALITY)
        assert outcome.is_degraded
        assert any(d.phase == "load" for d in outcome.degradations)

    def test_run_strict_upgrades_tombstone_to_error(
        self, small_example, tmp_path
    ):
        save_scenario(small_example, tmp_path)
        self._mangle_first_csv(tmp_path)
        scenario = load_scenario(tmp_path)
        with pytest.raises(ScenarioFormatError):
            default_efes().run(
                scenario, ResultQuality.HIGH_QUALITY, strict=True
            )

    def test_assess_puts_load_tombstones_first(self, small_example, tmp_path):
        save_scenario(small_example, tmp_path)
        self._mangle_first_csv(tmp_path)
        scenario = load_scenario(tmp_path)
        efes = default_efes(runtime=Runtime())
        (tombstone,) = scenario.load_degradations
        reports = efes.assess(scenario, strict=False)
        assert list(reports) == [
            tombstone.module, "mapping", "structure", "values"
        ]
        assert reports[tombstone.module] is tombstone
        assert efes.metrics.counter("loads_degraded") == 1
        with pytest.raises(ScenarioFormatError):
            efes.assess(scenario)

    def test_service_results_of_both_kinds_carry_the_tombstone(
        self, small_example, tmp_path
    ):
        from repro.service import JobScheduler, ServiceClient, make_server

        save_scenario(small_example, tmp_path)
        victim = self._mangle_first_csv(tmp_path)
        scheduler = JobScheduler(workers=1)
        server = make_server(scheduler, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(server.url)
            for kind in ("assess", "estimate"):
                job = client.submit(str(tmp_path), kind=kind)
                doc = client.result(job["id"], deadline=120)
                load = doc["degradations"][0]
                assert load["phase"] == "load"
                assert f"{victim}:2:" in load["error"]
                # A partial result is not stored under its content key.
                again = client.submit(str(tmp_path), kind=kind)
                assert not again["from_store"]
        finally:
            server.shutdown()
            server.server_close()
            scheduler.close(wait=True, timeout=5.0)
            thread.join(timeout=5.0)

    def test_service_reads_a_repaired_directory_again(self, tmp_path):
        from repro.scenarios import scenario_s4_s4
        from repro.service import JobScheduler, ServiceClient, make_server

        save_scenario(scenario_s4_s4(1), tmp_path)
        original = sorted(tmp_path.rglob("*.csv"))[0].read_bytes()
        victim = self._mangle_first_csv(tmp_path)
        scheduler = JobScheduler()
        server = make_server(scheduler, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(server.url)
            job = client.submit(str(tmp_path), kind="assess")
            doc = client.result(job["id"], deadline=120)
            assert [d["phase"] for d in doc["degradations"]] == ["load"]
            victim.write_bytes(original)
            job = client.submit(str(tmp_path), kind="assess")
            doc = client.result(job["id"], deadline=120)
            assert not doc.get("degradations")
            # Read again, unchanged content still keys its stored result.
            assert client.submit(str(tmp_path), kind="assess")["from_store"]
        finally:
            server.shutdown()
            server.server_close()
            scheduler.close(wait=True, timeout=5.0)
            thread.join(timeout=5.0)

    def test_cli_assess_exits_degraded_and_strict_fails(
        self, small_example, tmp_path, capsys
    ):
        from repro.cli import EXIT_DEGRADED, main

        save_scenario(small_example, tmp_path)
        victim = self._mangle_first_csv(tmp_path)
        assert main(["assess", str(tmp_path)]) == EXIT_DEGRADED
        out = capsys.readouterr().out
        assert "Degraded modules (partial results)" in out
        assert f"{victim}:2:" in out
        assert main(["--strict", "assess", str(tmp_path)]) == 2
        assert f"{victim}:2:" in capsys.readouterr().err

    def test_clean_scenario_has_no_tombstones(self, small_example, tmp_path):
        save_scenario(small_example, tmp_path)
        scenario = load_scenario(tmp_path)
        assert not hasattr(scenario, "load_degradations")
