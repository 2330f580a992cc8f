"""Differential backend harness: serial is the oracle.

Every scenario family (running example, bibliographic case study, music
case study) runs through the serial and process backends;
the serialized reports, estimates, and task catalogues must be
**byte-identical** and the ProfileCache must end up holding exactly the
same content keys regardless of which backend computed the entries.
The fine-grained profiling/discovery primitives get the same treatment
on a shared database.
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

BACKENDS = ("serial", "process")

#: One representative scenario per family; builders return fresh
#: instances so no state leaks between backend runs.
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


def run_pipeline(backend: str, build_scenario, trace: bool = False):
    """One full Efes run on a fresh runtime; returns serialized artefacts."""
    runtime = Runtime(backend=backend, max_workers=4)
    scenario = build_scenario()
    efes = Efes(default_modules(), runtime=runtime)
    outcome = efes.run(scenario, ResultQuality.HIGH_QUALITY, trace=trace)
    tasks = efes.plan(
        scenario, ResultQuality.HIGH_QUALITY, reports=outcome.reports
    )
    artefacts = {
        "reports": dumps(reports_to_dict(outcome.reports)),
        "estimate": dumps(estimate_to_dict(outcome.estimate)),
        "tasks": json.dumps(tasks_to_dicts(tasks), sort_keys=True),
        "cache_keys": runtime.cache.keys(),
        "degradations": len(outcome.degradations),
        "fallbacks": runtime.metrics.counter("process_fallbacks"),
        "fault_fallbacks": runtime.metrics.counter(
            "process_fallbacks", reason="fault"
        ),
        "telemetry_dropped": runtime.metrics.counter(
            "worker_telemetry_dropped"
        ),
    }
    if trace:
        nodes = list(outcome.trace.walk())
        ids = {node.span_id for node in nodes}
        artefacts["trace_ids"] = {node.trace_id for node in nodes}
        artefacts["orphans"] = sum(
            1
            for node in nodes
            if node.parent_id is not None and node.parent_id not in ids
        )
        artefacts["worker_spans"] = sum(
            1
            for node in nodes
            if node.attributes.get("backend") == "process"
            and node.attributes.get("pid")
        )
    runtime.close()
    return artefacts


@pytest.mark.parametrize("family", sorted(SCENARIO_FAMILIES))
class TestBackendEquivalence:
    def test_reports_estimates_tasks_byte_identical(self, family):
        build = SCENARIO_FAMILIES[family]
        oracle = run_pipeline("serial", build)
        assert oracle["degradations"] == 0
        for backend in BACKENDS[1:]:
            candidate = run_pipeline(backend, build)
            assert candidate["degradations"] == 0, backend
            assert candidate["reports"] == oracle["reports"], backend
            assert candidate["estimate"] == oracle["estimate"], backend
            assert candidate["tasks"] == oracle["tasks"], backend

    def test_cache_keys_backend_independent(self, family):
        build = SCENARIO_FAMILIES[family]
        oracle = run_pipeline("serial", build)
        for backend in BACKENDS[1:]:
            candidate = run_pipeline(backend, build)
            assert candidate["cache_keys"] == oracle["cache_keys"], backend

    def test_process_backend_did_not_silently_fall_back(self, family):
        # A fallback would still be *correct* (serial semantics), but
        # then this harness would not be exercising the process path at
        # all; require the happy path to actually stay on it.
        build = SCENARIO_FAMILIES[family]
        artefacts = run_pipeline("process", build)
        assert artefacts["fallbacks"] == 0


class TestPrimitiveEquivalence:
    """profile_database / discover_* agree across backends on one db."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return SCENARIO_FAMILIES["example"]()

    @pytest.mark.parametrize("backend", BACKENDS[1:])
    def test_primitives_match_serial(self, scenario, backend):
        serial = Runtime(backend="serial")
        candidate = Runtime(backend=backend, max_workers=4)
        for database in (*scenario.sources, scenario.target):
            assert candidate.profile_database(database) == (
                serial.profile_database(database)
            )
            assert candidate.discover_uccs(database) == (
                serial.discover_uccs(database)
            )
            assert candidate.discover_inds(database) == (
                serial.discover_inds(database)
            )
            assert candidate.discover_fds(database) == (
                serial.discover_fds(database)
            )
        assert candidate.cache.keys() == serial.cache.keys()
        assert candidate.metrics.counter("process_fallbacks") == 0
        candidate.close()
        serial.close()

    def test_one_worker_process_backend_runs_inline(self, scenario):
        # --workers 1 must not pay any IPC tax: every task runs in the
        # parent and the pool is never even created.
        runtime = Runtime(backend="process", max_workers=1)
        database = scenario.sources[0]
        runtime.profile_database(database)
        runtime.discover_uccs(database)
        assert runtime.executor._pool is None
        runtime.close()


@pytest.fixture
def env_fault_plan(monkeypatch):
    """Arm a fault plan via the environment so pool workers — which
    re-resolve ``$REPRO_FAULT_PLAN`` on startup — inherit it, and so
    the engine keeps the process path eligible."""
    from repro.resilience.faults import reset_fault_plan

    def arm(plan: dict) -> None:
        monkeypatch.setenv("REPRO_FAULT_PLAN", json.dumps(plan))
        reset_fault_plan()

    yield arm
    monkeypatch.undo()
    reset_fault_plan()


class TestTracedEquivalence:
    """Tracing must observe the computation, never participate in it."""

    def test_traced_process_run_matches_untraced_serial_oracle(self):
        build = SCENARIO_FAMILIES["example"]
        oracle = run_pipeline("serial", build)
        traced = run_pipeline("process", build, trace=True)
        assert traced["reports"] == oracle["reports"]
        assert traced["estimate"] == oracle["estimate"]
        assert traced["tasks"] == oracle["tasks"]
        assert traced["cache_keys"] == oracle["cache_keys"]
        assert traced["degradations"] == 0
        assert traced["fallbacks"] == 0
        # The traced run actually exercised cross-process propagation:
        # worker-side spans merged into one seamless, orphan-free tree.
        assert traced["worker_spans"] > 0
        assert len(traced["trace_ids"]) == 1
        assert traced["orphans"] == 0

    def test_traced_and_untraced_process_runs_agree(self):
        build = SCENARIO_FAMILIES["bibliographic"]
        untraced = run_pipeline("process", build)
        traced = run_pipeline("process", build, trace=True)
        assert traced["reports"] == untraced["reports"]
        assert traced["estimate"] == untraced["estimate"]
        assert traced["cache_keys"] == untraced["cache_keys"]


class TestCrashedWorkerTelemetry:
    def test_crashed_worker_never_corrupts_results_or_trace(
        self, env_fault_plan
    ):
        build = SCENARIO_FAMILIES["example"]
        oracle = run_pipeline("serial", build)
        # Each worker process crashes its first task at the
        # process.worker site — before its telemetry session even
        # opens, exactly like a worker dying mid-dispatch.
        env_fault_plan(
            {
                "name": "worker-crash",
                "points": [
                    {
                        "site": "process.worker",
                        "action": "raise",
                        "times": 1,
                    }
                ],
            }
        )
        traced = run_pipeline("process", build, trace=True)
        # The engine fell back (labelled with the injected reason) and
        # still produced the oracle's bytes with zero degradations.
        assert traced["fallbacks"] >= 1
        assert traced["fault_fallbacks"] >= 1
        assert traced["reports"] == oracle["reports"]
        assert traced["estimate"] == oracle["estimate"]
        assert traced["cache_keys"] == oracle["cache_keys"]
        assert traced["degradations"] == 0
        # A crashed worker ships no telemetry blob; whatever partial
        # work it did must never tear the parent's trace: one trace id,
        # no orphaned spans, nothing counted as dropped.
        assert len(traced["trace_ids"]) == 1
        assert traced["orphans"] == 0
        assert traced["telemetry_dropped"] == 0
