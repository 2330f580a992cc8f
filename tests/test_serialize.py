"""Round-trip tests for the JSON codecs of reports, tasks, estimates."""

import json

import pytest

from repro.core import (
    ResultQuality,
    SerializationError,
    default_efes,
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
from repro.core.reports import ComplexityReport
from repro.core.tasks import Task, TaskType


def through_json(doc):
    """Force a real JSON round trip, not just dict identity."""
    return json.loads(json.dumps(doc))


class TestReportRoundTrip:
    def test_every_shipped_report_shape(self, example_reports):
        for name, report in example_reports.items():
            doc = through_json(report_to_dict(report))
            restored = report_from_dict(doc)
            assert restored == report, name
            assert restored.module == report.module

    def test_reports_dict_preserves_module_order(self, example_reports):
        doc = through_json(reports_to_dict(example_reports))
        restored = reports_from_dict(doc)
        assert list(restored) == list(example_reports)
        assert restored == example_reports

    def test_unknown_kind_rejected(self):
        with pytest.raises(SerializationError):
            report_from_dict({"kind": "sentiment", "findings": []})

    def test_unregistered_report_type_rejected(self):
        class CustomReport(ComplexityReport):
            module = "custom"

        with pytest.raises(SerializationError):
            report_to_dict(CustomReport())


class TestTaskRoundTrip:
    def test_plain_task(self):
        task = Task(
            TaskType.CONVERT_VALUES,
            ResultQuality.HIGH_QUALITY,
            "albums.length -> records.length",
            {"values": 1000.0, "representations": 2.0},
            module="values",
        )
        assert task_from_dict(through_json(task_to_dict(task))) == task

    def test_planned_task_list(self, small_example, efes):
        outcome = efes.run(small_example, ResultQuality.HIGH_QUALITY)
        docs = through_json(tasks_to_dicts(outcome.tasks))
        assert tasks_from_dicts(docs) == outcome.tasks

    def test_malformed_task_rejected(self):
        with pytest.raises(SerializationError):
            task_from_dict({"type": "Not a task", "quality": "high_quality"})


class TestEstimateRoundTrip:
    @pytest.mark.parametrize(
        "quality", [ResultQuality.LOW_EFFORT, ResultQuality.HIGH_QUALITY]
    )
    def test_estimate(self, small_example, efes, quality):
        estimate = efes.estimate(small_example, quality)
        doc = through_json(estimate_to_dict(estimate))
        restored = estimate_from_dict(doc)
        assert restored == estimate
        assert restored.total_minutes == pytest.approx(estimate.total_minutes)
        assert restored.by_category() == estimate.by_category()

    def test_headline_total_matches_entries(self, small_example, efes):
        estimate = efes.estimate(small_example, ResultQuality.HIGH_QUALITY)
        doc = estimate_to_dict(estimate)
        assert doc["total_minutes"] == pytest.approx(
            sum(entry["minutes"] for entry in doc["entries"])
        )

    def test_malformed_estimate_rejected(self):
        with pytest.raises(SerializationError):
            estimate_from_dict({"scenario_name": "x", "quality": "nope"})


class TestOutcome:
    def test_run_bundles_reports_and_estimate(self, small_example):
        efes = default_efes()
        outcome = efes.run(small_example, ResultQuality.HIGH_QUALITY)
        assert set(outcome.reports) == {"mapping", "structure", "values"}
        assert outcome.scenario_name == small_example.name
        assert outcome.tasks == [e.task for e in outcome.estimate.entries]
        # The bundled estimate equals a standalone one over the same reports.
        standalone = efes.estimate(
            small_example, ResultQuality.HIGH_QUALITY, reports=outcome.reports
        )
        assert outcome.estimate == standalone


class TestJournalCodec:
    """Property-style round trips for the write-ahead journal lines.

    The decoder's WAL truncation contract: any byte-level truncation of
    an encoded stream decodes exactly the untouched prefix of records
    and counts the torn tail — never garbage, never a partial record.
    """

    @staticmethod
    def random_records(rng, count):
        from repro.durability import (
            dispatched_record,
            settled_record,
            submitted_record,
        )
        from repro.service.jobs import Job

        records = []
        for index in range(count):
            kind = rng.choice(("submitted", "dispatched", "settled"))
            if kind == "submitted":
                job = Job(
                    kind=rng.choice(("assess", "estimate", "callable")),
                    scenario_name=f"scn-{rng.randint(0, 99)}",
                    quality=rng.choice(("high_quality", "low_effort", None)),
                    priority=rng.randint(-5, 5),
                    idempotency_key=(
                        f"key-{rng.randint(0, 9)}" if rng.random() < 0.7
                        else None
                    ),
                )
                records.append(
                    submitted_record(
                        job,
                        scenario_ref=f"ref-{index}",
                        seed=rng.randint(1, 1000),
                    )
                )
            elif kind == "dispatched":
                records.append(dispatched_record(f"job-{index:04x}"))
            else:
                records.append(
                    settled_record(
                        f"job-{index:04x}",
                        rng.choice(("done", "failed", "cancelled")),
                        error="boom éµ" if rng.random() < 0.3
                        else None,
                        store_key=f"sk-{index}" if rng.random() < 0.5
                        else None,
                    )
                )
        return records

    def test_single_record_round_trip(self):
        import random

        from repro.core.serialize import (
            journal_record_from_line,
            journal_record_to_line,
        )

        rng = random.Random(0xC0DEC)
        for record in self.random_records(rng, 200):
            line = journal_record_to_line(record)
            assert line.endswith("\n") and "\n" not in line[:-1]
            assert journal_record_from_line(line) == json.loads(
                json.dumps(record)
            )

    def test_torn_truncation_drops_exactly_the_tail(self):
        import random

        from repro.core.serialize import (
            decode_journal_text,
            journal_record_to_line,
        )

        rng = random.Random(0x7EA6)
        for _ in range(30):
            records = self.random_records(rng, rng.randint(1, 8))
            lines = [journal_record_to_line(r) for r in records]
            text = "".join(lines)
            # Intact stream: everything decodes, nothing torn.
            decoded, torn = decode_journal_text(text)
            assert torn == 0
            assert decoded == json.loads(json.dumps(records))
            # Truncate at a random byte inside the final record.
            cut = rng.randrange(
                len(text) - len(lines[-1]), len(text) - 1
            ) + 1
            decoded, torn = decode_journal_text(text[:cut])
            assert decoded == json.loads(json.dumps(records[:-1]))
            assert torn == 1

    def test_truncation_at_every_offset_never_yields_garbage(self):
        import random

        from repro.core.serialize import (
            decode_journal_text,
            journal_record_to_line,
        )

        rng = random.Random(0x0FF5E7)
        records = self.random_records(rng, 4)
        lines = [journal_record_to_line(r) for r in records]
        text = "".join(lines)
        starts = [0]
        for line in lines:
            starts.append(starts[-1] + len(line))
        expected = json.loads(json.dumps(records))
        for cut in range(len(text) + 1):
            decoded, torn = decode_journal_text(text[:cut])
            # The decoded prefix is exactly the records whose full line
            # (newline included) fits inside the cut.
            whole = sum(1 for start in starts[1:] if start <= cut)
            assert decoded == expected[:whole]
            assert torn == (0 if cut in starts else 1)

    def test_corrupted_line_invalidates_segment_tail(self):
        from repro.core.serialize import (
            decode_journal_text,
            journal_record_to_line,
        )

        lines = [
            journal_record_to_line({"type": "dispatched", "job_id": str(i)})
            for i in range(5)
        ]
        # Flip one byte in the middle record's body: CRC catches it and
        # WAL semantics discard it plus everything after it.
        bad = lines[2][:-3] + ("X" if lines[2][-3] != "X" else "Y") + lines[2][-2:]
        decoded, torn = decode_journal_text("".join(lines[:2] + [bad] + lines[3:]))
        assert [r["job_id"] for r in decoded] == ["0", "1"]
        assert torn == 3
