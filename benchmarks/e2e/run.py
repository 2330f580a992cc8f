"""End-to-end benchmark of EFES: four workloads, end-to-end and per-layer.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--trace [0|1]]

Without ``--workload`` it runs all four workloads in turn.  Each workload
prints its metrics by name with their units and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics,
or with ``--trace`` the per-layer metrics of a separate traced pass, whose
per-layer table it prints too.  Every output is checked against
``expected.json``; the exit status is 1 when any output was wrong and 2
when the checkout has no ``src/repro`` to measure.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from common import (
    HASH_SEED,
    HERE,
    PROGRAM_CPU,
    SETUP_STARTS,
    WORK,
    CheckoutError,
    child_env,
    normalised,
    percentile,
    pin,
    probe_seconds,
    use_checkout_src,
)

LIBRARY_SETUP = "import repro; repro.default_efes()"


def run_library(workload, args, workdir: Path) -> dict:
    """Cold starts of the library, then the workload in a child process.

    This process, the cold starts and the child all run on one CPU, so
    the probes taken here measure the CPU the library ran on.
    """
    pin(PROGRAM_CPU)
    setup = []
    for _ in range(SETUP_STARTS):
        before = probe_seconds()
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", LIBRARY_SETUP], env=child_env(), check=True
        )
        seconds = time.perf_counter() - started
        setup.append(normalised(seconds, (before + probe_seconds()) / 2))
    out = workdir / "library.json"
    subprocess.run(
        [
            sys.executable, str(HERE / "library.py"),
            "--workload", workload, "--seed", str(args.seed),
            "--trace", str(args.trace),
            "--max-jobs", str(args.max_jobs),
            "--answer-key", str(args.answer_key),
            "--workdir", str(workdir), "--out", str(out),
        ],
        env=child_env(), check=True, timeout=170,
    )
    data = json.loads(out.read_text(encoding="utf-8"))
    records = data["records"]
    latencies = [record["ms"] for record in records]
    return {
        "setup": setup,
        "attempted": len(records),
        "errors": [r["error"] for r in records if r["error"] is not None],
        "latencies_ms": latencies,
        # Jobs over the program's scaled time in the loop, not over the
        # Efes.run calls alone: runtime construction counts too.
        "jobs_per_s": 1000.0 * len(records) / sum(r["work_ms"] for r in records)
        if records else 0.0,
        "peak_rss_mb": data["peak_rss_mb"],
        "extra": {
            "raw_job_p50_ms": percentile([r["raw_ms"] for r in records], 0.5)
            if records else 0.0,
        },
        "layers": data.get("layers"),
    }


def run_workload(workload: str, args, key: dict) -> bool:
    import service

    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    if workload.startswith("library-"):
        outcome = run_library(workload, args, workdir)
    else:
        outcome = service.run(
            workload, args.seed, bool(args.trace), args.max_jobs, key, workdir
        )
    latencies = outcome["latencies_ms"] or [0.0]
    end_to_end = {
        "setup_s": (statistics.median(outcome["setup"]), "s"),
        "job_p50_ms": (percentile(latencies, 0.5), "ms"),
        "job_p95_ms": (percentile(latencies, 0.95), "ms"),
        "jobs_per_s": (outcome["jobs_per_s"], "1/s"),
        "peak_rss_mb": (outcome["peak_rss_mb"], "MiB"),
    }
    errors = outcome["errors"]
    correct = not errors and bool(outcome["latencies_ms"])

    print(
        f"== {workload}: seed {args.seed}, {workloads.WINDOW_SECONDS} s, "
        f"{outcome['attempted']} jobs attempted, {len(errors)} failed"
        f"{', traced' if args.trace else ''}"
    )
    for problem in errors[:10]:
        print(f"   wrong output: {problem}")
    for name, (value, unit) in end_to_end.items():
        print(f"   {name:28} {value:14.4f} {unit}")
    for name, value in outcome["extra"].items():
        print(f"   {name:28} {value:14.4f} (this workload only)")
    metrics = end_to_end
    if args.trace:
        import layers

        table = outcome["layers"]
        (workdir / "layers.json").write_text(json.dumps(table) + "\n", encoding="utf-8")
        print(layers.render(table["rows"], f"-- per-layer self time, {workload}"))
        for name, value in table.get("service", {}).items():
            print(f"   {name:28} {value:14.4f} ms (service path only)")
        metrics = {name: tuple(pair) for name, pair in table["metrics"].items()}
        for name, (value, unit) in metrics.items():
            print(f"   {name:32} {value:14.4f} {unit}")
    result = {
        "correct": correct,
        "attempted": max(1, outcome["attempted"]),
        "failed": len(errors),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default=None,
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=1,
                        help="picks the inputs; the same seed gives the same jobs")
    parser.add_argument("--seconds", type=float, default=workloads.WINDOW_SECONDS,
                        help="the measured window; part of the workloads, so "
                        f"only {workloads.WINDOW_SECONDS} is accepted")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="run the traced per-layer pass")
    parser.add_argument("--max-jobs", type=int, default=0,
                        help="stop each workload after this many jobs (0: no limit)")
    parser.add_argument("--answer-key", type=Path, default=HERE / "expected.json",
                        help="digests every output must match")
    parser.add_argument("--write-answer-key", metavar="REASON",
                        help="re-pin every digest from the library path and exit")
    args = parser.parse_args(argv)
    if args.seconds != workloads.WINDOW_SECONDS:
        parser.error(
            f"--seconds {args.seconds:g}: every workload measures "
            f"{workloads.WINDOW_SECONDS} s, and runs of other lengths "
            "would not be comparable"
        )
    try:
        use_checkout_src()
    except CheckoutError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    import answers

    if args.write_answer_key is not None:
        if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
            argv = sys.argv[1:] if argv is None else argv
            return subprocess.run(
                [sys.executable, __file__, *argv], env=child_env()
            ).returncode
        count = answers.write(args.write_answer_key, args.answer_key)
        print(f"pinned {count} digests in {args.answer_key}")
        return 0
    key = answers.load(args.answer_key)
    ok = True
    for workload in [args.workload] if args.workload else workloads.WORKLOADS:
        ok = run_workload(workload, args, key) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
