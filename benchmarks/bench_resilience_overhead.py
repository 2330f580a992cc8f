"""Resilience overhead benchmark — disarmed vs empty-fault-plan runs.

The resilience layer threads named injection sites (``fault_point``),
retry wrappers, and checksummed spool writes through the hot path; this
bench guards their price when nothing is injected.  Two configurations
of a full ``Efes.run`` over a mid-size generated scenario:

* **disarmed** — no fault plan installed: every ``fault_point`` is one
  module-global read and a ``None`` check (the production default),
* **armed-empty** — an installed plan with zero points: every site takes
  the full match-scan path (lock + rule loop) and still injects nothing.
  This is the worst happy-path case a chaos-enabled CI run pays.

The armed-empty-over-disarmed overhead is gated at ``OVERHEAD_GATE``
(5%), per the resilience ISSUE's acceptance criterion.  A second,
informational section times the checksummed + retried report-store spool
(put + cold get per document) so regressions in the crash-safety
machinery show up in the JSON even though they are off the estimator's
critical path.

On noisy CI hosts timing jitter can exceed the relative gate for this
sub-second workload, so the JSON records a rationale instead of failing
when the absolute delta is below ``NOISE_FLOOR_SECONDS``.

Emits ``BENCH_resilience_overhead.json`` next to the repo root.
``REPRO_BENCH_SMOKE=1`` shrinks the scenario and repetition count so CI
can exercise the gate in seconds.
"""

import json
import os
import time
from pathlib import Path

from repro.core import default_efes
from repro.core.quality import ResultQuality
from repro.reporting import render_table
from repro.resilience import FaultPlan, injected_faults
from repro.runtime import Runtime
from repro.scenarios.example import ExampleParameters, example_scenario
from repro.service import ReportStore
from conftest import run_once

OUTPUT = (
    Path(__file__).resolve().parent.parent
    / "BENCH_resilience_overhead.json"
)

#: Armed-empty-plan overhead must stay below this fraction of the
#: disarmed time (the ISSUE's <5% acceptance gate).
OVERHEAD_GATE = 0.05

#: Absolute deltas below this are indistinguishable from scheduler noise
#: on shared CI runners; the gate then records a rationale instead of
#: failing.
NOISE_FLOOR_SECONDS = 0.050

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"


def _scenario():
    if SMOKE:
        return example_scenario(
            ExampleParameters(
                albums=200, multi_artist_albums=50, detached_artists=10
            )
        )
    return example_scenario(
        ExampleParameters(
            albums=1000, multi_artist_albums=250, detached_artists=50
        )
    )


def _min_run_seconds(scenario, repetitions, plan):
    """Best-of-N full pipeline runs, each on a fresh (cold) runtime."""
    best = float("inf")
    outcome = None
    for _ in range(repetitions):
        runtime = Runtime(backend="serial")
        efes = default_efes(runtime=runtime)
        if plan is None:
            started = time.perf_counter()
            outcome = efes.run(scenario, ResultQuality.HIGH_QUALITY)
            best = min(best, time.perf_counter() - started)
        else:
            with injected_faults(plan):
                started = time.perf_counter()
                outcome = efes.run(scenario, ResultQuality.HIGH_QUALITY)
                best = min(best, time.perf_counter() - started)
    return best, outcome


def _store_roundtrip_seconds(tmp_dir, documents):
    """Seconds per (checksummed put + cold-cache get) spool round trip."""
    store = ReportStore(tmp_dir)
    payload = {
        "kind": "assess",
        "reports": {"mapping": {"rows": list(range(200))}},
    }
    started = time.perf_counter()
    for index in range(documents):
        store.put(f"key-{index}", payload)
    put_seconds = time.perf_counter() - started
    cold = ReportStore(tmp_dir)  # restart: reads verify checksums
    started = time.perf_counter()
    for index in range(documents):
        assert cold.get(f"key-{index}") is not None
    get_seconds = time.perf_counter() - started
    return put_seconds / documents, get_seconds / documents


def test_resilience_overhead(benchmark, tmp_path):
    scenario = _scenario()
    repetitions = 3 if SMOKE else 5

    disarmed_seconds, disarmed = _min_run_seconds(
        scenario, repetitions, plan=None
    )
    empty_plan = FaultPlan(points=[], name="empty")
    armed_seconds, armed = _min_run_seconds(
        scenario, repetitions, plan=empty_plan
    )

    # An empty plan must never change the answer, only cost scan time.
    assert empty_plan.trip_count() == 0
    assert not armed.is_degraded and not disarmed.is_degraded
    assert (
        armed.estimate.total_minutes == disarmed.estimate.total_minutes
    )

    overhead = armed_seconds / disarmed_seconds - 1.0
    delta_seconds = armed_seconds - disarmed_seconds

    rationale = None
    within_gate = overhead < OVERHEAD_GATE
    if not within_gate and delta_seconds < NOISE_FLOOR_SECONDS:
        rationale = (
            f"absolute delta {delta_seconds * 1e3:.1f}ms is below the "
            f"{NOISE_FLOOR_SECONDS * 1e3:.0f}ms noise floor for this "
            "sub-second workload; relative gate waived"
        )
    assert within_gate or rationale is not None, (
        f"resilience overhead {overhead:.1%} exceeds the "
        f"{OVERHEAD_GATE:.0%} gate "
        f"({disarmed_seconds:.4f}s -> {armed_seconds:.4f}s)"
    )

    documents = 50 if SMOKE else 200
    put_seconds, get_seconds = _store_roundtrip_seconds(
        tmp_path / "spool", documents
    )

    payload = {
        "bench": "resilience_overhead",
        "scenario": scenario.name,
        "smoke": SMOKE,
        "repetitions": repetitions,
        "disarmed_seconds": round(disarmed_seconds, 4),
        "armed_empty_plan_seconds": round(armed_seconds, 4),
        "overhead_fraction": round(overhead, 4),
        "overhead_gate": OVERHEAD_GATE,
        "within_gate": within_gate,
        "rationale": rationale,
        "store_documents": documents,
        "store_put_seconds_each": round(put_seconds, 6),
        "store_cold_get_seconds_each": round(get_seconds, 6),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    bench_runtime = Runtime(backend="serial")
    bench_efes = default_efes(runtime=bench_runtime)
    run_once(
        benchmark,
        bench_efes.run,
        scenario,
        ResultQuality.HIGH_QUALITY,
    )

    print()
    print(
        render_table(
            ["Configuration", "Seconds", "Overhead"],
            [
                ("no fault plan", f"{disarmed_seconds:.4f}", "—"),
                (
                    "empty fault plan",
                    f"{armed_seconds:.4f}",
                    f"{overhead:+.1%}",
                ),
            ],
            title=f"Resilience overhead on {scenario.name} "
            f"({'smoke' if SMOKE else 'full'} mode)",
        )
    )
    print(
        f"spool round trip: put {put_seconds * 1e3:.2f}ms, "
        f"cold get {get_seconds * 1e3:.2f}ms per document; "
        f"wrote {OUTPUT.name}"
    )
    if rationale:
        print(f"gate waived: {rationale}")
