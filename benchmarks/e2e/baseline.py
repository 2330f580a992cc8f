"""Record ``BENCH_e2e.json``: untraced runs and one traced run per workload.

    python3 benchmarks/e2e/baseline.py

Each run is a separate invocation of ``run.py`` on its own seed
(1..``RUNS``); the traced run uses seed 1.  The file keeps every run's
metrics, their medians and quartiles, the traced per-layer table, and the
host facts.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

import service
import workloads
from common import HERE, WORK

#: Untraced runs per workload.
RUNS = 5


def invoke(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace),
        ],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median}


def main() -> int:
    document = {
        "bench": "e2e",
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "backend": "serial",
            "job_slots": 2,
            "journal_flush": "batch",
            "poll_interval_s": service.POLL_INTERVAL,
            "client_threads": service.CLIENT_THREADS,
            "mixed_rate_per_s": workloads.MIXED_RATE,
        },
        "seconds": workloads.WINDOW_SECONDS,
        "workloads": {},
    }
    for workload in workloads.WORKLOADS:
        runs = [invoke(workload, seed, 0) for seed in range(1, RUNS + 1)]
        traced = invoke(workload, 1, 1)
        table = json.loads((WORK / workload / "layers.json").read_text(encoding="utf-8"))
        names = runs[0]["metrics"]
        document["workloads"][workload] = {
            "runs": runs,
            "end_to_end": {
                name: {
                    "unit": names[name]["unit"],
                    **summary([run["metrics"][name]["value"] for run in runs]),
                }
                for name in names
            },
            "traced": traced,
            "per_layer_table": table,
        }
        print(f"{workload}: {len(runs)} runs + 1 traced", file=sys.stderr)
    (HERE / "BENCH_e2e.json").write_text(
        json.dumps(document, indent=1) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
