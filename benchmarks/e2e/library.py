"""Library workloads, in a process of their own so its peak RSS is the job's.

``run.py`` starts this script; it writes one JSON document to ``--out``::

    python3 benchmarks/e2e/library.py --workload library-cold --seed 1 \\
        --trace 0 --max-jobs 0 --answer-key K --workdir D --out F

Each record holds two scaled times of its job: ``ms``, the ``Efes.run``
call, and ``work_ms``, the program's whole share of the loop: runtime
construction, ``default_efes`` and ``Efes.run``.  Scenario builds, speed
probes and answer checks are the benchmark's own work and lie outside
both.  So does a full garbage collection before each job, which keeps one
job's leftovers off the next job's clock; the collections a job's own
allocations trigger while it runs stay on its clock.
"""

from __future__ import annotations

import argparse
import gc
import json
import time
from pathlib import Path

from common import normalised, peak_rss_mb, probe_seconds, use_checkout_src


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=("library-cold", "library-requote"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--max-jobs", type=int, required=True)
    parser.add_argument("--answer-key", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    use_checkout_src()

    from repro import ResultQuality, Runtime, default_efes
    from repro.service import job_key

    import answers
    import layers
    import workloads

    key = answers.load(args.answer_key)
    recorder = layers.Recorder() if args.trace else None
    replayer = layers.Replayer(recorder, args.workdir) if args.trace else None
    cold = args.workload == "library-cold"

    def build(job, index):
        if recorder is None:
            return workloads.build_scenario(job)
        with recorder.scaled(), recorder.span("scenarios.build", index):
            return workloads.build_scenario(job)

    if cold:
        stream = workloads.library_cold(args.seed)
    else:
        contents, stream = workloads.library_requote(args.seed)
        warm = Runtime("serial")
        built = {}
        for job in contents:
            content = (job.name, job.seed, job.albums)
            if content not in built:
                built[content] = build(job, -1)
            default_efes(runtime=warm).run(built[content], ResultQuality(job.quality))
    # First-call costs of a fresh interpreter, on content outside the pool.
    default_efes(runtime=Runtime("serial")).run(
        workloads.build_scenario(workloads.Job("s4-s4", 0, workloads.HIGH)),
        ResultQuality.HIGH_QUALITY,
    )

    records = []
    hits = misses = 0
    end = time.perf_counter() + workloads.WINDOW_SECONDS
    for index, job in enumerate(stream):
        if time.perf_counter() >= end or (args.max_jobs and index >= args.max_jobs):
            break
        if cold:
            scenario = build(job, index)
        else:
            scenario = built[(job.name, job.seed, job.albums)]
        # The last job's garbage is collected here, not on this job's clock.
        gc.collect()
        before = probe_seconds()
        work_started = time.perf_counter()
        runtime = Runtime("serial") if cold else warm
        efes = default_efes(runtime=runtime)
        hits -= runtime.metrics.cache_hits
        misses -= runtime.metrics.cache_misses
        started = time.perf_counter()
        outcome = efes.run(scenario, ResultQuality(job.quality))
        seconds = time.perf_counter() - started
        work = time.perf_counter() - work_started
        probe = (before + probe_seconds()) / 2
        hits += runtime.metrics.cache_hits
        misses += runtime.metrics.cache_misses
        doc = answers.outcome_document(outcome)
        records.append({
            "key": job.key,
            "ms": 1000.0 * normalised(seconds, probe),
            "work_ms": 1000.0 * normalised(work, probe),
            "raw_ms": 1000.0 * seconds,
            "error": answers.check(job, doc, len(outcome.degradations), key),
        })
        if replayer is None:
            continue
        root = recorder.add("job", index, started, seconds, scale=normalised(1.0, probe))
        copy = workloads.build_scenario(job) if cold else scenario
        replay_runtime = Runtime("serial") if cold else runtime
        store_key = job_key(scenario, "estimate", job.quality)
        # The replays start from a collected heap, as the job did.
        gc.collect()
        with recorder.scaled():
            replayer.fingerprint(index, root.id, copy)
            result = replayer.pipeline(
                index, root.id, scenario, job.quality, replay_runtime
            )
            replayed = replayer.serialize(index, None, result)
            replayer.store_get(index, None, store_key)
            replayer.store_put(index, None, store_key, replayed)
            replayer.journal_append(index, None, job.name, job.quality, store_key)

    result = {"records": records, "peak_rss_mb": peak_rss_mb()}
    if replayer is not None:
        replayer.close()
        rows, metrics = layers.summarise(recorder, hits, misses)
        result["layers"] = {"rows": rows, "metrics": metrics}
        recorder.write(args.workdir / "trace.json", workload=args.workload, seed=args.seed)
    args.out.write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
