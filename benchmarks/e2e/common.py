"""Paths, statistics and process helpers shared by the end-to-end benchmark."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: Scratch space of a run (spools, journals, traces); ignored by git.
WORK = ROOT / ".bench_e2e"
#: Cold starts per run; ``setup_s`` is their median.
SETUP_STARTS = 5


class CheckoutError(RuntimeError):
    """The benchmark is not running from a checkout that holds ``src/``."""


def use_checkout_src() -> None:
    """Import ``repro`` from this checkout's ``src/`` and from nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(
            f"no repro package under {SRC}; run from the repository root "
            "of a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


#: The program's value-fit scores differ in their last digit with the
#: string-hash order, so every process that runs the program uses this
#: hash seed, the one the answer key was written under.
HASH_SEED = "0"


def child_env() -> dict[str, str]:
    """The environment of a child process that runs the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


#: Probe CPU time at the reference speed.  Each CPU of a shared host
#: alternates between speeds up to 2x apart every second or so, and the
#: two CPUs do so independently, so every time the benchmark reports is
#: scaled by ``REFERENCE_PROBE_S / probe``, the probe measured on the CPU
#: that did the work at the time it did it.  The program, its load and
#: the probe all run pinned to one CPU for that reason.
REFERENCE_PROBE_S = 0.001


def probe_seconds() -> float:
    """CPU time of a fixed piece of pure-Python work: the CPU's speed now."""
    started = time.thread_time()
    counts = {}
    for number in range(3000):
        key = str(number)
        counts[key] = len(key) + number % 7
    sorted(counts.items(), key=lambda item: item[1])
    return time.thread_time() - started


def stolen_seconds(cpu: int) -> float:
    """Time the hypervisor ran something else while ``cpu`` had work to do.

    The steal column of ``/proc/stat``, in 10 ms ticks.  The probe cannot
    see it: a thread's CPU time stands still while its virtual CPU is
    not running.
    """
    prefix = f"cpu{cpu} "
    with open("/proc/stat", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(prefix):
                return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    raise RuntimeError(f"no {prefix.strip()} line in /proc/stat")


def normalised(seconds: float, probe: float) -> float:
    """``seconds`` as they would read at the reference speed."""
    return seconds * REFERENCE_PROBE_S / probe


PROGRAM_CPU = min(os.sched_getaffinity(0))


def pin(cpu: int) -> None:
    """Keep the calling process, and what it starts later, on one CPU."""
    os.sched_setaffinity(0, {cpu})


def stop_process(process: subprocess.Popen, timeout: float = 10.0) -> None:
    """SIGTERM, wait, and SIGKILL if the process will not go."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            print(
                f"warning: {' '.join(map(str, process.args))} was still "
                f"running {timeout:g} s after SIGTERM; killed it",
                file=sys.stderr,
            )
            process.kill()
    process.wait()


def percentile(values, fraction: float) -> float:
    """Linear interpolation between closest ranks (NumPy's default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM (peak resident set) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")
