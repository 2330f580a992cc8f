"""Durability overhead benchmark — journal-off vs journal-on scheduling.

The write-ahead job journal puts one fsynced ``submitted`` record in
front of every acknowledged submission and batches the advisory
``dispatched``/``settled`` records behind it; this bench guards what
that costs on a representative service workload: a batch of estimate
jobs (real ``Efes.run`` payloads over a generated scenario) driven
through a live :class:`JobScheduler`, with and without a journal under
the default batch flush policy.

The journal-on-over-off overhead is gated at ``OVERHEAD_GATE`` (5%),
per the durability ISSUE's acceptance criterion.  As with the
resilience bench, timing jitter on shared CI hosts can exceed the
relative gate for this sub-second workload, so the JSON records a
rationale instead of failing when the absolute delta is below
``NOISE_FLOOR_SECONDS``.

Two informational sections ride along: raw journal append throughput
under each flush policy (the strict-vs-batch dial), and the replay +
recovery-plan speed over a populated journal — the startup price of a
crash.

Emits ``BENCH_durability_overhead.json`` next to the repo root.
``REPRO_BENCH_SMOKE=1`` shrinks the workload so CI can exercise the
gate in seconds.
"""

import json
import os
import time
from pathlib import Path

from repro.core import default_efes
from repro.core.quality import ResultQuality
from repro.durability import (
    FlushPolicy,
    JobJournal,
    RecoveryManager,
    dispatched_record,
    settled_record,
    submitted_record,
)
from repro.reporting import render_table
from repro.runtime import Runtime
from repro.scenarios.example import ExampleParameters, example_scenario
from repro.service.jobs import Job
from repro.service.scheduler import JobScheduler
from conftest import run_once

OUTPUT = (
    Path(__file__).resolve().parent.parent
    / "BENCH_durability_overhead.json"
)

#: Journal-on overhead must stay below this fraction of the journal-off
#: time (the ISSUE's <5% acceptance gate).
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
                albums=150, multi_artist_albums=40, detached_artists=8
            )
        )
    return example_scenario(
        ExampleParameters(
            albums=400, multi_artist_albums=100, detached_artists=20
        )
    )


def _batch_seconds(runtime, payload, jobs, journal_dir):
    """Wall seconds to submit + settle a batch of journalled jobs."""
    journal = (
        JobJournal(journal_dir, flush=FlushPolicy.batched())
        if journal_dir is not None
        else None
    )
    scheduler = JobScheduler(
        runtime=runtime, workers=2, journal=journal, trace=False
    )
    started = time.perf_counter()
    submitted = [
        scheduler.submit_callable(
            payload, payload_ref=f"bench-{index}",
            idempotency_key=f"bench-{index}",
        )
        for index in range(jobs)
    ]
    for job in submitted:
        finished = scheduler.wait(job.id, timeout=120)
        assert finished.error is None, finished.error
    elapsed = time.perf_counter() - started
    scheduler.close()
    return elapsed


def _append_throughput(directory, policy, records):
    """Records per second of raw journal appends under one policy."""
    journal = JobJournal(directory, flush=policy)
    job = Job(kind="callable", scenario_name="bench")
    started = time.perf_counter()
    for index in range(records):
        journal.append(submitted_record(job, payload_ref=f"r{index}"))
        journal.append(dispatched_record(job.id))
        journal.append(settled_record(job.id, "done"))
    elapsed = time.perf_counter() - started
    journal.close()
    return (records * 3) / elapsed


def _replay_seconds(directory):
    """Startup price: replay + plan over the journal just written."""
    journal = JobJournal(directory)
    started = time.perf_counter()
    summary = RecoveryManager(journal).inspect()
    elapsed = time.perf_counter() - started
    journal.close()
    return elapsed, summary["records"]


def test_durability_overhead(benchmark, tmp_path):
    scenario = _scenario()
    jobs = 8 if SMOKE else 16
    repetitions = 3 if SMOKE else 5

    runtime = Runtime(backend="serial")
    efes = default_efes(runtime=runtime)
    efes.run(scenario, ResultQuality.HIGH_QUALITY)  # warm caches/imports

    def payload(job):
        outcome = efes.run(scenario, ResultQuality.HIGH_QUALITY)
        return {"total_minutes": outcome.estimate.total_minutes}

    off_seconds = min(
        _batch_seconds(runtime, payload, jobs, None)
        for _ in range(repetitions)
    )
    on_seconds = min(
        _batch_seconds(
            runtime, payload, jobs, tmp_path / f"journal-{index}"
        )
        for index in range(repetitions)
    )

    overhead = on_seconds / off_seconds - 1.0
    delta_seconds = on_seconds - off_seconds

    rationale = None
    within_gate = overhead < OVERHEAD_GATE
    if not within_gate and delta_seconds < NOISE_FLOOR_SECONDS:
        rationale = (
            f"absolute delta {delta_seconds * 1e3:.1f}ms is below the "
            f"{NOISE_FLOOR_SECONDS * 1e3:.0f}ms noise floor for this "
            "sub-second workload; relative gate waived"
        )
    assert within_gate or rationale is not None, (
        f"journal overhead {overhead:.1%} exceeds the "
        f"{OVERHEAD_GATE:.0%} gate "
        f"({off_seconds:.4f}s -> {on_seconds:.4f}s)"
    )

    append_records = 100 if SMOKE else 500
    strict_rps = _append_throughput(
        tmp_path / "strict", FlushPolicy.strict(), append_records
    )
    batch_rps = _append_throughput(
        tmp_path / "batch", FlushPolicy.batched(), append_records
    )
    replay_seconds, replayed_records = _replay_seconds(tmp_path / "batch")

    payload_doc = {
        "bench": "durability_overhead",
        "scenario": scenario.name,
        "smoke": SMOKE,
        "jobs": jobs,
        "repetitions": repetitions,
        "journal_off_seconds": round(off_seconds, 4),
        "journal_on_seconds": round(on_seconds, 4),
        "overhead_fraction": round(overhead, 4),
        "overhead_gate": OVERHEAD_GATE,
        "within_gate": within_gate,
        "rationale": rationale,
        "append_records": append_records * 3,
        "strict_appends_per_second": round(strict_rps),
        "batch_appends_per_second": round(batch_rps),
        "replay_records": replayed_records,
        "replay_seconds": round(replay_seconds, 4),
    }
    OUTPUT.write_text(
        json.dumps(payload_doc, indent=2) + "\n", encoding="utf-8"
    )

    run_once(
        benchmark,
        _batch_seconds,
        runtime,
        payload,
        jobs,
        tmp_path / "journal-bench",
    )

    print()
    print(
        render_table(
            ["Configuration", "Seconds", "Overhead"],
            [
                ("journal off", f"{off_seconds:.4f}", "—"),
                (
                    "journal on (batch)",
                    f"{on_seconds:.4f}",
                    f"{overhead:+.1%}",
                ),
            ],
            title=f"Durability overhead, {jobs} estimate jobs on "
            f"{scenario.name} ({'smoke' if SMOKE else 'full'} mode)",
        )
    )
    print(
        f"appends/s: strict {strict_rps:,.0f}, batch {batch_rps:,.0f}; "
        f"replay of {replayed_records} records took "
        f"{replay_seconds * 1e3:.1f}ms; wrote {OUTPUT.name}"
    )
    if rationale:
        print(f"gate waived: {rationale}")
