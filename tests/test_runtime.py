"""Tests for the assessment runtime: report order, exception
propagation, backend selection, stage instrumentation, and
single-assessment metrics."""

import pytest

from repro.core import (
    Efes,
    EstimationModule,
    ResultQuality,
    default_efes,
)
from repro.runtime import Runtime, get_runtime
from repro.scenarios import (
    bibliographic_scenarios,
    music_scenarios,
    scenario_s1_s2,
)


@pytest.fixture(scope="module")
def domain_scenarios():
    return bibliographic_scenarios(seed=1) + music_scenarios(seed=1)


def _assess_all(scenarios, backend):
    """Assess every scenario on a fresh runtime; fresh cache per call so
    the comparison exercises real computation, not shared cache entries."""
    runtime = Runtime(backend=backend)
    efes = default_efes(runtime=runtime)
    return [efes.assess(scenario) for scenario in scenarios]


class TestBackendEquivalence:
    def test_report_order_follows_module_order(self, domain_scenarios):
        reports = _assess_all([domain_scenarios[0]], "serial")[0]
        assert list(reports) == ["mapping", "structure", "values"]


class FailingModule(EstimationModule):
    name = "failing"

    def assess(self, scenario):
        raise ValueError("detector exploded")

    def plan(self, scenario, report, quality):  # pragma: no cover
        return []


class TestExceptionPropagation:
    @pytest.mark.parametrize("backend", ["serial"])
    def test_detector_exception_reaches_caller(
        self, backend, domain_scenarios
    ):
        runtime = Runtime(backend=backend)
        efes = Efes([FailingModule()], runtime=runtime)
        with pytest.raises(ValueError, match="detector exploded"):
            efes.assess(domain_scenarios[0])

    def test_failure_does_not_poison_the_runtime(self, domain_scenarios):
        runtime = Runtime()
        efes = Efes([FailingModule()], runtime=runtime)
        with pytest.raises(ValueError):
            efes.assess(domain_scenarios[0])
        healthy = default_efes(runtime=runtime)
        reports = healthy.assess(domain_scenarios[0])
        assert list(reports) == ["mapping", "structure", "values"]


class TestExecutors:
    @pytest.mark.parametrize(
        "backend", ["threads", "auto", "seriall", "process"]
    )
    def test_unknown_backend_names_the_two(self, backend):
        with pytest.raises(ValueError, match="expected 'serial'$"):
            Runtime(backend)


def stage_counts(runtime) -> dict[str, int]:
    """Samples per ``stage_seconds`` series, keyed by stage name."""
    return {
        dict(histogram.labels)["stage"]: histogram.count
        for histogram in runtime.metrics.snapshot().histograms
        if histogram.name == "stage_seconds"
    }


class TestSerialInstrumentation:
    def test_run_records_every_stage_once_per_unit(self):
        # Pins the stage names and call counts the serial loops record,
        # so no stage can silently drop out of the metrics.
        runtime = Runtime("serial")
        scenario = scenario_s1_s2(seed=1)
        default_efes(runtime=runtime).run(scenario, ResultQuality.HIGH_QUALITY)
        assert stage_counts(runtime) == {
            "assess": 1,
            "detector:mapping": 1,
            "detector:structure": 1,
            "detector:values": 1,
            "csg": 1,
            "profile": 10,
            "plan": 1,
            "price": 1,
        }
        # The serial path dispatches no pool tasks.
        assert runtime.metrics.counter("tasks_submitted") == 0
        # A re-quote reads every CSG path count from the cache: it fills
        # no CSG instance and profiles nothing.
        default_efes(runtime=runtime).run(scenario, ResultQuality.HIGH_QUALITY)
        counts = stage_counts(runtime)
        assert counts["csg"] == 1
        assert counts["profile"] == 10
        assert counts["assess"] == 2


class TestSingleAssessment:
    """The Efes.estimate fix: callers holding reports never re-assess."""

    def test_estimate_with_reports_skips_assessment(self, small_example):
        runtime = Runtime()
        efes = default_efes(runtime=runtime)
        reports = efes.assess(small_example)
        assert runtime.metrics.counter("assessments") == 1
        efes.estimate(small_example, ResultQuality.HIGH_QUALITY, reports=reports)
        efes.estimate(small_example, ResultQuality.LOW_EFFORT, reports=reports)
        assert runtime.metrics.counter("assessments") == 1
        assert runtime.metrics.counter("estimates") == 2

    def test_estimate_without_reports_assesses_once(self, small_example):
        runtime = Runtime()
        efes = default_efes(runtime=runtime)
        efes.estimate(small_example, ResultQuality.HIGH_QUALITY)
        assert runtime.metrics.counter("assessments") == 1

    def test_estimate_reuse_matches_fresh_assessment(self, small_example):
        efes = default_efes(runtime=Runtime())
        reports = efes.assess(small_example)
        reused = efes.estimate(
            small_example, ResultQuality.HIGH_QUALITY, reports=reports
        )
        fresh = efes.estimate(small_example, ResultQuality.HIGH_QUALITY)
        assert repr(reused) == repr(fresh)


class TestRuntimeResolution:
    def test_default_runtime_used_when_unbound(self):
        efes = default_efes()
        assert efes.metrics is get_runtime().metrics

    def test_with_runtime_rebinds(self):
        runtime = Runtime()
        efes = default_efes().with_runtime(runtime)
        assert efes.metrics is runtime.metrics

    def test_activated_overrides_default(self):
        runtime = Runtime()
        with runtime.activated():
            assert get_runtime() is runtime
        assert get_runtime() is not runtime
