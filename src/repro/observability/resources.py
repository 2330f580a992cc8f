"""Process resource telemetry: RSS, CPU time, GC activity.

The machine-cost complement to tracing and histograms: spans say
*where* time went, histograms say *how it distributes*, and this module
says *what it cost the machine*.  Everything here is stdlib-only:
:func:`os.times` for CPU seconds, :mod:`resource` (``getrusage``) for
peak RSS, and :mod:`gc` for collection counts.

The service samples its own process on demand, once per scrape and
never from a background thread: ``/metrics`` publishes the
:data:`GAUGE_KEYS` of one :func:`sample_resources` document as
``process_*`` gauges, and ``/healthz`` embeds :func:`resource_summary`.
"""

from __future__ import annotations

import gc
import os

try:  # pragma: no cover - resource is POSIX-only
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX host
    _resource = None

import sys


def _rss_bytes() -> int:
    """Peak resident set size in bytes (0 when unavailable).

    ``ru_maxrss`` is kilobytes on Linux but bytes on macOS — normalise
    to bytes so dashboards read one unit.
    """
    if _resource is None:
        return 0
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(peak)
    return int(peak) * 1024


def sample_resources() -> dict:
    """One point-in-time resource document for the calling process.

    Keys are stable and flat (every value numeric, ``pid`` an int) so
    the document turns into gauges verbatim.
    """
    times = os.times()
    counts = gc.get_count()
    collections = [0, 0, 0]
    for generation, stats in enumerate(gc.get_stats()):
        if generation < 3:
            collections[generation] = int(stats.get("collections", 0))
    return {
        "pid": os.getpid(),
        "rss_bytes": _rss_bytes(),
        "cpu_user_seconds": times.user,
        "cpu_system_seconds": times.system,
        "cpu_seconds": times.user + times.system,
        "gc_gen0_objects": counts[0],
        "gc_gen1_objects": counts[1],
        "gc_gen2_objects": counts[2],
        "gc_gen0_collections": collections[0],
        "gc_gen1_collections": collections[1],
        "gc_gen2_collections": collections[2],
    }


#: Resource-document keys published as gauges (``pid`` never is).
GAUGE_KEYS = (
    "rss_bytes",
    "cpu_user_seconds",
    "cpu_system_seconds",
    "cpu_seconds",
    "gc_gen0_collections",
    "gc_gen1_collections",
    "gc_gen2_collections",
)


def resource_summary() -> dict:
    """The compact resource document ``/healthz`` embeds."""
    doc = sample_resources()
    return {
        "pid": doc["pid"],
        "rss_bytes": doc["rss_bytes"],
        "cpu_seconds": round(doc["cpu_seconds"], 3),
        "gc_collections": (
            doc["gc_gen0_collections"]
            + doc["gc_gen1_collections"]
            + doc["gc_gen2_collections"]
        ),
    }
