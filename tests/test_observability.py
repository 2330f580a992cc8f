"""Tracing, histograms, resource telemetry, and their exporters."""

from __future__ import annotations

import json
import math
import os
import threading
import time

import pytest

from repro.core import ResultQuality, default_efes
from repro.core.serialize import (
    SerializationError,
    span_from_dict,
    span_to_dict,
)
from repro.observability import (
    Histogram,
    Tracer,
    escape_label_value,
    prometheus_text,
    render_span_tree,
    resource_summary,
    sample_resources,
    span,
)
from repro.resilience import FaultPlan, FaultPoint, injected_faults
from repro.runtime import Runtime, RuntimeMetrics
from repro.scenarios import scenario_s1_s2


# ----------------------------------------------------------------------
# Spans and tracers
# ----------------------------------------------------------------------


class TestTracing:
    def test_disabled_by_default_returns_shared_noop(self):
        first = span("anything")
        second = span("anything else")
        assert first is second
        assert not first.is_recording
        with first as handle:
            handle.set_attribute("ignored", True)  # must not raise

    def test_span_tree_nesting(self):
        tracer = Tracer()
        with tracer.activated():
            with span("root"):
                with span("child-a"):
                    with span("grandchild"):
                        pass
                with span("child-b"):
                    pass
        root = tracer.root
        assert root.name == "root"
        assert [child.name for child in root.children] == [
            "child-a",
            "child-b",
        ]
        assert root.children[0].children[0].name == "grandchild"
        assert all(
            node.duration_seconds is not None for node in root.walk()
        )
        assert all(
            node.trace_id == root.trace_id for node in root.walk()
        )

    def test_exception_recorded_as_error_attribute(self):
        tracer = Tracer()
        with tracer.activated():
            with pytest.raises(ValueError):
                with span("doomed"):
                    raise ValueError("boom")
        assert tracer.root.attributes["error"] == "ValueError: boom"

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.activated():
            with span("invisible"):
                pass
        assert tracer.root is None


class TestRunTraced:
    def test_untraced_run_has_no_trace(self, small_example):
        outcome = default_efes().run(
            small_example, ResultQuality.HIGH_QUALITY
        )
        assert outcome.trace is None

    def test_traced_run_covers_the_pipeline_once(self, small_example):
        started = time.perf_counter()
        outcome = default_efes().run(
            small_example, ResultQuality.HIGH_QUALITY, trace=True
        )
        wall = time.perf_counter() - started
        root = outcome.trace
        assert root is not None
        assert root.name == f"run:{small_example.name}"
        # The root total approximates the observed wall-clock (5% plus a
        # small absolute allowance for interpreter noise on tiny runs).
        assert abs(root.total_seconds - wall) <= 0.05 * wall + 0.010
        names = [node.name for node in root.walk()]
        for stage in (
            "assess",
            "estimate",
            "plan",
            "price",
            "detector:mapping",
            "detector:structure",
            "detector:values",
            "planner:mapping",
            "planner:structure",
            "planner:values",
        ):
            assert names.count(stage) == 1, stage

    def test_profile_spans_annotate_cache_hits(self, small_example):
        runtime = Runtime(backend="serial")
        efes = default_efes(runtime=runtime)
        cold = efes.run(
            small_example, ResultQuality.HIGH_QUALITY, trace=True
        )
        warm = efes.run(
            small_example, ResultQuality.HIGH_QUALITY, trace=True
        )
        cold_profiles = cold.trace.find("profile")
        warm_profiles = warm.trace.find("profile")
        assert cold_profiles and warm_profiles
        assert not any(
            node.attributes["cache_hit"] for node in cold_profiles
        )
        assert all(node.attributes["cache_hit"] for node in warm_profiles)


# ----------------------------------------------------------------------
# Span serialisation + rendering
# ----------------------------------------------------------------------


class TestSpanCodec:
    def test_round_trip_through_core_serialize(self, small_example):
        outcome = default_efes().run(
            small_example, ResultQuality.HIGH_QUALITY, trace=True
        )
        doc = span_to_dict(outcome.trace)
        json.dumps(doc)  # JSON-compatible all the way down
        restored = span_from_dict(doc)
        assert span_to_dict(restored) == doc
        assert [node.name for node in restored.walk()] == [
            node.name for node in outcome.trace.walk()
        ]

    def test_malformed_document_raises_serialization_error(self):
        with pytest.raises(SerializationError):
            span_from_dict({"name": "orphan"})  # missing ids/duration

    def test_render_span_tree_alignment_and_annotations(self):
        tracer = Tracer()
        with tracer.activated():
            with span("root"):
                with span("hit", cache_hit=True):
                    pass
                with span("miss", cache_hit=False):
                    pass
        text = render_span_tree(tracer.root)
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert "├─ hit" in lines[1] and "[cache hit]" in lines[1]
        assert "└─ miss" in lines[2] and "[cache hit]" not in lines[2]
        # Every row carries aligned total/self columns.
        columns = {line.index("total ") for line in lines}
        assert len(columns) == 1


# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------


class TestHistograms:
    def test_quantiles_bracket_the_data(self):
        histogram = Histogram("latency_seconds")
        for value in (0.001, 0.002, 0.004, 0.008, 0.100):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot.count == 5
        assert snapshot.min == 0.001
        assert snapshot.max == 0.100
        assert snapshot.p50 <= snapshot.p95 <= snapshot.p99
        assert 0.001 <= snapshot.p50 <= 0.100
        assert snapshot.quantile(1.0) == pytest.approx(0.100)

    def test_cumulative_buckets_are_monotone_and_end_at_count(self):
        histogram = Histogram("latency_seconds")
        for exponent in range(12):
            histogram.observe(1e-6 * (3**exponent % 97))
        pairs = histogram.snapshot().cumulative_buckets()
        counts = [cumulative for _, cumulative in pairs]
        assert counts == sorted(counts)
        assert pairs[-1][0] == float("inf")
        assert pairs[-1][1] == 12

    def test_labelled_series_are_distinct(self):
        metrics = RuntimeMetrics()
        metrics.observe("detector_seconds", 0.1, detector="mapping")
        metrics.observe("detector_seconds", 0.2, detector="values")
        metrics.observe("detector_seconds", 0.3, detector="values")
        mapping = metrics.histogram("detector_seconds", detector="mapping")
        values = metrics.histogram("detector_seconds", detector="values")
        assert mapping.count == 1
        assert values.count == 2
        assert metrics.histogram("detector_seconds", detector="nope") is None

    def test_to_dict_reports_quantiles_and_sparse_buckets(self):
        histogram = Histogram("x", labels=(("stage", "assess"),))
        histogram.observe(0.5)
        doc = histogram.snapshot().to_dict()
        assert doc["labels"] == {"stage": "assess"}
        assert doc["count"] == 1
        assert set(doc["quantiles"]) == {"p50", "p95", "p99"}
        assert len(doc["buckets"]) == 1  # only the non-empty bucket


# ----------------------------------------------------------------------
# Stages: one span and one stage_seconds sample per timed block
# ----------------------------------------------------------------------


def stage_spans(root, name):
    """The spans ``stage(name)`` opened under ``root`` that recorded a
    sample: not a cache hit, and not the database-scope ``profile``
    container, which is a plain span."""
    return [
        node
        for node in root.find(name)
        if node.attributes.get("cache_hit") is not True
        and node.attributes.get("scope") != "database"
    ]


class TestStageTimings:
    def test_traced_stage_sample_is_the_span_duration(self):
        metrics = RuntimeMetrics()
        tracer = Tracer()
        with tracer.activated(), metrics.stage("csg", database="d"):
            time.sleep(0.002)
        root = tracer.root
        assert root.name == "csg"
        assert root.attributes == {"database": "d"}
        histogram = metrics.histogram("stage_seconds", stage="csg")
        assert histogram.count == 1
        assert histogram.sum == root.duration_seconds

    @pytest.mark.parametrize("traced", [False, True])
    def test_cache_hit_keeps_its_span_and_records_no_sample(self, traced):
        metrics = RuntimeMetrics()
        tracer = Tracer(enabled=traced)
        with tracer.activated():
            with metrics.stage("profile", cache_hit=True):
                pass
            with metrics.stage("profile", cache_hit=True) as stage:
                stage.set_attribute("cache_hit", False)
        histogram = metrics.histogram("stage_seconds", stage="profile")
        assert histogram.count == 1
        if traced:
            hit, miss = tracer.roots
            assert hit.attributes["cache_hit"] is True
            assert miss.attributes["cache_hit"] is False
            assert histogram.sum == miss.duration_seconds

    def test_failing_block_records_and_raises(self):
        metrics = RuntimeMetrics()
        with pytest.raises(ValueError):
            with metrics.stage("plan"):
                raise ValueError("planner exploded")
        assert metrics.histogram("stage_seconds", stage="plan").count == 1

    def test_concurrent_stages_each_record_one_sample(self):
        metrics = RuntimeMetrics()

        def busy():
            with metrics.stage("overlap"):
                time.sleep(0.05)

        threads = [threading.Thread(target=busy) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        histogram = metrics.histogram("stage_seconds", stage="overlap")
        assert histogram.count == 4
        assert histogram.sum >= 0.9 * 4 * 0.05
        assert histogram.max <= histogram.sum

    def test_spans_and_histograms_read_one_clock(self):
        runtime = Runtime()
        efes = default_efes(runtime=runtime)
        scenario = scenario_s1_s2(seed=1)
        cold = efes.run(scenario, ResultQuality.HIGH_QUALITY, trace=True)
        # The warm re-quote's profile and csg spans are cache hits: they
        # stay in its trace and add no sample.
        warm = efes.run(scenario, ResultQuality.HIGH_QUALITY, trace=True)
        assert all(
            node.attributes["cache_hit"] is True
            for name in ("profile", "csg")
            for node in warm.trace.find(name)
        )
        series = [
            histogram
            for histogram in runtime.metrics.snapshot().histograms
            if histogram.name == "stage_seconds"
        ]
        assert {dict(h.labels)["stage"]: h.count for h in series} == {
            "assess": 2,
            "detector:mapping": 2,
            "detector:structure": 2,
            "detector:values": 2,
            "csg": 1,
            "profile": 10,
            "plan": 2,
            "price": 2,
        }
        for histogram in series:
            name = dict(histogram.labels)["stage"]
            spans = stage_spans(cold.trace, name) + stage_spans(
                warm.trace, name
            )
            assert histogram.count == len(spans)
            assert math.isclose(
                histogram.sum,
                sum(node.duration_seconds for node in spans),
                rel_tol=1e-9,
            )

    def test_a_failed_profile_miss_is_no_cache_hit(self):
        # A miss stopped by a fault (or a deadline) before profiling is
        # still a miss: its span must not read as a cache hit.
        runtime = Runtime()
        plan = FaultPlan([FaultPoint(site="profile", times=1)])
        with injected_faults(plan):
            outcome = default_efes(runtime=runtime).run(
                scenario_s1_s2(seed=1),
                ResultQuality.HIGH_QUALITY,
                trace=True,
                strict=False,
            )
        assert [d.module for d in outcome.degradations] == ["values"]
        (failed,) = [
            node
            for node in outcome.trace.find("profile")
            if "error" in node.attributes
        ]
        assert failed.attributes["cache_hit"] is False
        histogram = runtime.metrics.histogram("stage_seconds", stage="profile")
        assert histogram.count == len(stage_spans(outcome.trace, "profile"))

    def test_snapshot_to_dict_includes_mean_and_timestamp(self):
        metrics = RuntimeMetrics()
        metrics.observe("stage_seconds", 2.0, stage="assess")
        metrics.observe("stage_seconds", 4.0, stage="assess")
        before = time.time()
        doc = metrics.snapshot().to_dict()
        assert set(doc) == {"timestamp", "counters", "histograms"}
        (assess,) = doc["histograms"]
        assert assess["labels"] == {"stage": "assess"}
        assert assess["count"] == 2
        assert assess["mean"] == pytest.approx(3.0)
        assert assess["max"] == pytest.approx(4.0)
        assert before - 1.0 <= doc["timestamp"] <= time.time() + 1.0


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------


class TestPrometheusText:
    def test_label_values_are_escaped(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'
        metrics = RuntimeMetrics()
        metrics.observe("weird_seconds", 0.1, label='quo"te\nnl')
        text = prometheus_text(metrics.snapshot())
        assert 'label="quo\\"te\\nnl"' in text

    def test_histogram_exposition_is_valid(self):
        metrics = RuntimeMetrics()
        for value in (0.001, 0.010, 0.100):
            metrics.observe("stage_seconds", value, stage="assess")
        text = prometheus_text(metrics.snapshot())
        assert "# TYPE repro_stage_seconds histogram" in text
        bucket_lines = [
            line
            for line in text.splitlines()
            if line.startswith("repro_stage_seconds_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in bucket_lines]
        assert counts == sorted(counts)  # cumulative => monotone
        assert bucket_lines[-1].rsplit(" ", 1)[1] == "3"
        assert 'le="+Inf"' in bucket_lines[-1]
        assert 'repro_stage_seconds_count{stage="assess"} 3' in text
        assert "repro_stage_seconds_sum" in text
        assert 'quantile="0.5"' in text
        assert "repro_metrics_snapshot_timestamp_seconds" in text

    def test_counters_stages_and_extra_gauges(self):
        metrics = RuntimeMetrics()
        metrics.increment("cache_hits", 3)
        metrics.observe("stage_seconds", 1.5, stage="assess")
        text = prometheus_text(
            metrics.snapshot(), extra_gauges={"queue_depth": 2.0}
        )
        assert "repro_cache_hits_total 3" in text
        assert 'repro_stage_seconds_sum{stage="assess"} 1.5' in text
        assert 'repro_stage_seconds_count{stage="assess"} 1' in text
        # Stages are one histogram family, with no separate series.
        assert "repro_stage_work_seconds" not in text
        assert "repro_stage_calls_total" not in text
        assert "repro_queue_depth 2.0" in text


# ----------------------------------------------------------------------
# Service-level observability (HTTP -> scheduler -> trace)
# ----------------------------------------------------------------------


#: The gauge families of ``GET /metrics`` after one job, as README's
#: "Resource telemetry" lists them.
GAUGE_FAMILIES = {
    "repro_cache_hit_rate",
    "repro_jobs_running",
    "repro_metrics_snapshot_timestamp_seconds",
    "repro_process_cpu_seconds",
    "repro_process_cpu_system_seconds",
    "repro_process_cpu_user_seconds",
    "repro_process_gc_gen0_collections",
    "repro_process_gc_gen1_collections",
    "repro_process_gc_gen2_collections",
    "repro_process_rss_bytes",
    "repro_queue_capacity",
    "repro_queue_depth",
    "repro_scheduler_deadline_min_remaining_seconds",
    "repro_scheduler_jobs_in_grace",
    "repro_scheduler_worker_utilisation",
    "repro_stage_seconds_quantile",
    "repro_store_entries",
    "repro_store_quarantined",
    "repro_store_spooled",
    "repro_workers_busy",
    "repro_workers_total",
}


@pytest.fixture()
def service():
    from repro.service import JobScheduler, make_server

    scheduler = JobScheduler(workers=2, max_queue=8)
    server = make_server(scheduler, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, scheduler
    finally:
        server.shutdown()
        server.server_close()
        scheduler.close(wait=True, timeout=5.0)
        thread.join(timeout=5.0)


class TestServiceObservability:
    def test_correlation_id_flows_from_http_to_the_trace(self, service):
        from repro.service import ServiceClient

        server, _ = service
        client = ServiceClient(server.url)
        job = client.submit(
            "s4-s4", kind="assess", correlation_id="req-e2e"
        )
        assert job["correlation_id"] == "req-e2e"
        client.result(job["id"], deadline=120)
        root = span_from_dict(client.trace(job["id"]))
        assert root.name == f"service.job:{job['id']}"
        assert root.attributes["correlation_id"] == "req-e2e"

    def test_correlation_id_defaults_to_the_job_id(self, service):
        from repro.service import ServiceClient

        server, scheduler = service
        client = ServiceClient(server.url)
        job = client.submit("s4-s4", kind="assess", seed=2)
        assert job["correlation_id"] == job["id"]

    def test_trace_endpoint_returns_the_job_span_tree(self, service):
        from repro.service import ServiceClient

        server, _ = service
        client = ServiceClient(server.url)
        job = client.submit("s4-s4", kind="estimate", quality="low")
        client.result(job["id"], deadline=120)
        doc = client.trace(job["id"])
        root = span_from_dict(doc)
        assert root.name == f"service.job:{job['id']}"
        names = [node.name for node in root.walk()]
        assert "assess" in names
        assert "serialize" in names

    def test_trace_endpoint_unknown_job_is_404(self, service):
        from repro.service import ServiceClient, ServiceError

        server, _ = service
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError) as excinfo:
            client.trace("nope")
        assert excinfo.value.status == 404

    def test_healthz_reports_workers_and_store(self, service):
        from repro.service import ServiceClient

        server, _ = service
        client = ServiceClient(server.url)
        doc = client.healthz()
        assert doc["workers"]["total"] == 2
        assert 0 <= doc["workers"]["busy"] <= 2
        assert 0.0 <= doc["workers"]["utilisation"] <= 1.0
        assert doc["store"] == {"entries": 0, "spooled": 0, "quarantined": 0}
        assert doc["health"]["state"] == "healthy"

    def test_healthz_embeds_the_resource_summary(self, service):
        from repro.service import ServiceClient

        server, _ = service
        client = ServiceClient(server.url)
        doc = client.healthz()
        resources = doc["health"]["resources"]
        assert resources["pid"] == os.getpid()
        assert resources["rss_bytes"] > 0

    def test_metrics_expose_resource_gauges(self, service):
        from repro.service import ServiceClient

        server, _ = service
        client = ServiceClient(server.url)
        job = client.submit("s4-s4", kind="assess", seed=5)
        client.result(job["id"], deadline=120)
        text = client.metrics_text()
        assert "repro_process_rss_bytes" in text
        assert "repro_process_cpu_seconds" in text
        assert "repro_cache_hit_rate" in text
        assert "repro_scheduler_worker_utilisation" in text

    def test_each_gauge_is_one_family_under_one_name(self, service):
        from repro.service import ServiceClient

        server, _ = service
        client = ServiceClient(server.url)
        job = client.submit("s4-s4", kind="assess", seed=4)
        client.result(job["id"], deadline=120)
        families = {
            line.split()[2]
            for line in client.metrics_text().splitlines()
            if line.startswith("# TYPE ") and line.endswith(" gauge")
        }
        assert families == GAUGE_FAMILIES
        gauges = client.metrics()["gauges"]
        assert {f"repro_{name}" for name in gauges} <= families

    def test_metrics_content_negotiation(self, service):
        from repro.service import ServiceClient

        server, _ = service
        client = ServiceClient(server.url)
        job = client.submit("s4-s4", kind="assess", seed=3)
        client.result(job["id"], deadline=120)
        text = client.metrics_text()
        assert "# TYPE repro_stage_seconds histogram" in text
        assert 'repro_stage_seconds_count{stage="service.job"}' in text
        assert "repro_queue_depth" in text
        assert "repro_workers_total 2.0" in text
        # The default JSON face carries the same snapshot.
        doc = client.metrics()
        assert doc["counters"]["jobs_completed"] >= 1
        assert "stages" not in doc
        assert any(
            h["name"] == "stage_seconds"
            and h["labels"] == {"stage": "service.job"}
            for h in doc["histograms"]
        )


# ----------------------------------------------------------------------
# CLI surfacing
# ----------------------------------------------------------------------


class TestTraceCli:
    def test_trace_prints_span_tree_and_writes_json(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        output = tmp_path / "trace.json"
        assert main(["trace", "s4-s4", "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "Trace of s4-s4" in out
        assert "run:s4-s4" in out
        for stage in ("assess", "estimate", "plan", "price"):
            assert stage in out
        for name in ("mapping", "structure", "values"):
            assert f"detector:{name}" in out
            assert f"planner:{name}" in out
        doc = json.loads(output.read_text(encoding="utf-8"))
        assert doc["name"] == "run:s4-s4"

    def test_trace_domain_alias_covers_every_scenario(self, capsys):
        from repro.cli import main
        from repro.scenarios import music_scenarios

        assert main(["trace", "music", "--quality", "low"]) == 0
        out = capsys.readouterr().out
        for scenario in music_scenarios(1):
            assert f"run:{scenario.name}" in out


class TestExperimentTraces:
    def test_evaluate_domain_writes_one_trace_file_per_scenario(
        self, tmp_path
    ):
        from repro.experiments import evaluate_domain
        from repro.scenarios import bibliographic_scenarios

        scenarios = bibliographic_scenarios(1)[:2]
        evaluate_domain(scenarios, trace_dir=tmp_path)
        for scenario in scenarios:
            path = tmp_path / f"{scenario.name}.trace.json"
            assert path.exists()
            root = span_from_dict(
                json.loads(path.read_text(encoding="utf-8"))
            )
            assert root.name == f"scenario:{scenario.name}"
            assert root.find("assess")


# ----------------------------------------------------------------------
# Resource telemetry
# ----------------------------------------------------------------------


class TestResourceTelemetry:
    def test_sample_resources_document(self):
        doc = sample_resources()
        assert doc["pid"] == os.getpid()
        assert doc["rss_bytes"] > 0
        assert doc["cpu_seconds"] >= 0.0
        assert doc["cpu_seconds"] == pytest.approx(
            doc["cpu_user_seconds"] + doc["cpu_system_seconds"]
        )
        assert "gc_gen0_collections" in doc
        # Spool state is the report store's (``store.spooled``); the
        # process document carries none.
        summary = resource_summary()
        assert not [
            key for key in (*doc, *summary) if key.startswith("spool_")
        ]
