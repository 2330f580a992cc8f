"""Deadline checkpoint overhead benchmark — bare vs scoped runs.

The deadline layer threads cooperative checkpoints through the
super-linear hot paths (per-detector loops, per-column profiling, the
dependency lattice search); this bench guards their price when no
budget is in play.  Two configurations of a full ``Efes.run`` over a
mid-size generated scenario:

* **bare** — no cancel scope active: every ``checkpoint()`` is one
  contextvar read and a ``None`` check (the production default for
  deadline-free submissions),
* **scoped** — an active :class:`CancelScope` with a far-future
  deadline: every checkpoint consults the scope, reads the monotonic
  clock, and passes through the (disarmed) ``deadline.checkpoint``
  fault site.  This is the worst happy-path case a deadline-bounded
  run pays while its budget is healthy.

The scoped-over-bare overhead is gated at ``OVERHEAD_GATE`` (5%), per
the deadline ISSUE's acceptance criterion.  On noisy CI hosts timing
jitter can exceed the relative gate for this sub-second workload, so
the JSON records a rationale instead of failing when the absolute
delta is below ``NOISE_FLOOR_SECONDS``.

Emits ``BENCH_deadline_overhead.json`` next to the repo root.
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
from repro.runtime import CancelScope, Deadline, Runtime
from repro.scenarios.example import ExampleParameters, example_scenario
from conftest import run_once

OUTPUT = (
    Path(__file__).resolve().parent.parent / "BENCH_deadline_overhead.json"
)

#: Scoped-checkpoint overhead must stay below this fraction of the bare
#: time (the ISSUE's <5% acceptance gate on deadline-free runs).
OVERHEAD_GATE = 0.05

#: Absolute deltas below this are indistinguishable from scheduler noise
#: on shared CI runners; the gate then records a rationale instead of
#: failing.
NOISE_FLOOR_SECONDS = 0.050

#: Far enough out that no checkpoint ever observes an expired budget.
FAR_DEADLINE_SECONDS = 3600.0

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


def _min_run_seconds(scenario, repetitions, scoped):
    """Best-of-N full pipeline runs, each on a fresh (cold) runtime."""
    best = float("inf")
    outcome = None
    for _ in range(repetitions):
        runtime = Runtime(backend="serial")
        efes = default_efes(runtime=runtime)
        if scoped:
            scope = CancelScope(
                deadline=Deadline.after(FAR_DEADLINE_SECONDS),
                label="bench",
            )
            with scope.activated():
                started = time.perf_counter()
                outcome = efes.run(scenario, ResultQuality.HIGH_QUALITY)
                best = min(best, time.perf_counter() - started)
        else:
            started = time.perf_counter()
            outcome = efes.run(scenario, ResultQuality.HIGH_QUALITY)
            best = min(best, time.perf_counter() - started)
    return best, outcome


def test_deadline_overhead(benchmark):
    scenario = _scenario()
    repetitions = 3 if SMOKE else 5

    bare_seconds, bare = _min_run_seconds(
        scenario, repetitions, scoped=False
    )
    scoped_seconds, scoped = _min_run_seconds(
        scenario, repetitions, scoped=True
    )

    # A healthy-budget scope must never change the answer, only cost
    # clock reads.
    assert not bare.is_degraded and not scoped.is_degraded
    assert scoped.estimate.total_minutes == bare.estimate.total_minutes

    overhead = scoped_seconds / bare_seconds - 1.0
    delta_seconds = scoped_seconds - bare_seconds

    rationale = None
    within_gate = overhead < OVERHEAD_GATE
    if not within_gate and delta_seconds < NOISE_FLOOR_SECONDS:
        rationale = (
            f"absolute delta {delta_seconds * 1e3:.1f}ms is below the "
            f"{NOISE_FLOOR_SECONDS * 1e3:.0f}ms noise floor for this "
            "sub-second workload; relative gate waived"
        )
    assert within_gate or rationale is not None, (
        f"deadline checkpoint overhead {overhead:.1%} exceeds the "
        f"{OVERHEAD_GATE:.0%} gate "
        f"({bare_seconds:.4f}s -> {scoped_seconds:.4f}s)"
    )

    payload = {
        "bench": "deadline_overhead",
        "scenario": scenario.name,
        "smoke": SMOKE,
        "repetitions": repetitions,
        "bare_seconds": round(bare_seconds, 4),
        "scoped_seconds": round(scoped_seconds, 4),
        "overhead_fraction": round(overhead, 4),
        "overhead_gate": OVERHEAD_GATE,
        "within_gate": within_gate,
        "rationale": rationale,
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
                ("no cancel scope", f"{bare_seconds:.4f}", "—"),
                (
                    "active scope, far deadline",
                    f"{scoped_seconds:.4f}",
                    f"{overhead:+.1%}",
                ),
            ],
            title=f"Deadline checkpoint overhead on {scenario.name} "
            f"({'smoke' if SMOKE else 'full'} mode)",
        )
    )
    print(f"wrote {OUTPUT.name}")
    if rationale:
        print(f"gate waived: {rationale}")
