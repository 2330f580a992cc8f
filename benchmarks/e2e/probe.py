"""Samples the speed of one CPU while the service runs on it.

    python3 benchmarks/e2e/probe.py --cpu 0 --out samples.txt

Writes ``<perf_counter seconds> <probe CPU seconds> <stolen seconds>``
once per ``INTERVAL`` until it is terminated.  ``perf_counter`` reads the
system's monotonic clock, so the benchmark process can line samples up
with jobs.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time

from common import pin, probe_seconds, stolen_seconds

#: About 2 % of the CPU the service runs on.
INTERVAL = 0.05


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    pin(args.cpu)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    with open(args.out, "w", encoding="ascii") as out:
        while True:
            out.write(
                f"{time.perf_counter()} {probe_seconds()} {stolen_seconds(args.cpu)}\n"
            )
            out.flush()
            time.sleep(INTERVAL)


if __name__ == "__main__":
    raise SystemExit(main())
