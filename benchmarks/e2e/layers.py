"""Per-layer tracing from outside the program: spans, replays, self time.

The traced pass wraps each real end-to-end call in a ``job`` span, then
replays the leaf layers on the same content by calling each layer's
public functions, one span per call.  A replayed span's parent is the
span whose work it explains, so a layer's self time is its duration minus
its children's durations, wherever in time the children ran.  What is
left of the ``job`` span (and, on the service path, of its submit and
wait spans) is the residual that no replayed layer explains.

Every span is scaled to the reference CPU speed, as the end-to-end
times are: the replays of one job by two probes taken around them all,
as the job itself was, and a span of the service's run by the probe
samples of the service CPU.  Self time is then taken between scaled
durations, so a layer and the job it is subtracted from are compared at
one speed even when the host changed speed between them.  A probe pair
around each short replay would read faster than the pair around a job,
its code and data still cached from the probe just before, and so
inflate the replays against the job.

A span with no parent that is not a ``job`` is *off path*: the layer was
replayed on the job's content but is not a step of this workload's job
(the report store on the library path, say).  Its times are reported, and
it counts in no share.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

from common import normalised, percentile, probe_seconds

#: Layers whose self time no replay explains: the job's residual.
RESIDUAL_LAYERS = ("job", "service.submit", "service.wait")


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    notes: dict
    #: Reference-speed seconds per wall second while the span ran.
    scale: float = 1.0

    @property
    def seconds(self) -> float:
        """The span's duration at the reference CPU speed."""
        return (self.end - self.start) * self.scale


class Recorder:
    """Spans kept in memory, written out once when the run ends.

    ``overhead`` is the wall time spent inside the recorder itself, the
    cost tracing adds to the work it brackets.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.overhead = 0.0
        self._lock = threading.Lock()

    def _new(self, name, job, parent, notes) -> Span:
        with self._lock:
            span = Span(len(self.spans), name, 0.0, 0.0, parent, job, notes)
            self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str, job: int, parent: int | None = None, **notes):
        entered = time.perf_counter()
        span = self._new(name, job, parent, notes)
        span.start = time.perf_counter()
        self.overhead += span.start - entered
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self.overhead += time.perf_counter() - span.end

    @contextlib.contextmanager
    def scaled(self):
        """Scale the spans recorded inside by probes taken around them all."""
        first = len(self.spans)
        before = probe_seconds()
        yield
        scale = speed_scale(before, probe_seconds())
        for span in self.spans[first:]:
            span.scale = scale

    def add(self, name: str, job: int, start: float, seconds: float,
            parent: int | None = None, *, scale: float = 1.0, **notes) -> Span:
        """A span measured elsewhere (a server-side interval, a difference).

        ``seconds`` is wall time; ``scale`` turns it into reference time.
        """
        span = self._new(name, job, parent, notes)
        span.start, span.end, span.scale = start, start + seconds, scale
        return span

    def write(self, path: Path, **header) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {**header, "spans": [dataclasses.asdict(s) for s in self.spans]}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its children, seconds."""
    children = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            children[span.parent] += span.seconds
    return {span.id: span.seconds - children[span.id] for span in spans}


def speed_scale(before: float, after: float) -> float:
    """Reference seconds per wall second, from probes before and after."""
    return normalised(1.0, (before + after) / 2)


def _time(function, *args):
    started = time.perf_counter()
    result = function(*args)
    return result, started, time.perf_counter() - started


class Replayer:
    """Replays each leaf layer of one job on its content, one span each."""

    def __init__(self, recorder: Recorder, workdir: Path) -> None:
        from repro.core import default_execution_settings
        from repro.durability import JobJournal
        from repro.service import ReportStore

        self.recorder = recorder
        self.settings = default_execution_settings()
        self.store = ReportStore(directory=workdir / "replay-store")
        self.journal = JobJournal(workdir / "replay-journal")
        self._profiled: dict[str, list] = {}

    def close(self) -> None:
        self.journal.close()

    def _profiles(self, scenario, fresh_runtime) -> list:
        """The column profiles the value module reads for ``scenario``.

        Served from the cache or not, so a re-quote reports the same
        columns and rows as its first quote.  ``fresh_runtime``, when
        given, has just assessed the scenario from an empty cache and
        holds exactly those profiles; otherwise a fresh runtime profiles
        the scenario once per content.
        """
        from repro import Runtime
        from repro.core import ValueModule
        from repro.runtime import fingerprint_scenario

        content = fingerprint_scenario(scenario)
        if content not in self._profiled:
            runtime = fresh_runtime
            if runtime is None:
                runtime = Runtime("serial")
                with runtime.activated():
                    ValueModule().assess(scenario)
            self._profiled[content] = [entry for _, entry in runtime.cache.entries()]
        return self._profiled[content]

    def fingerprint(self, job: int, parent, scenario) -> None:
        from repro.runtime import fingerprint_scenario

        with self.recorder.span("runtime.fingerprint", job, parent):
            fingerprint_scenario(scenario)

    def pipeline(self, job: int, parent, scenario, quality, runtime):
        """Mapping, structure, CSG conversion, values, profiling, plan, price.

        ``runtime`` must be in the cache state the real job saw: fresh
        for new content, the warm one for re-quoted content.  The first
        value assessment then pays what the job paid for profiling, the
        second is the value module's own work.
        """
        from repro import ResultQuality, default_efes
        from repro.core import (
            MappingModule,
            StructureModule,
            ValueModule,
            price_tasks,
        )
        from repro.csg.convert import database_to_csg, schema_to_csg

        span = self.recorder.span
        with span("core.mapping", job, parent):
            mapping = MappingModule().assess(scenario)
        with span("core.structure", job, parent) as structure_span:
            structure = StructureModule().assess(scenario)
        with span("csg.convert", job, structure_span.id):
            for source in scenario.sources:
                database_to_csg(source)
            schema_to_csg(scenario.target.schema)

        fresh = not runtime.cache.entries()
        with runtime.activated():
            values, cold_start, cold = _time(ValueModule().assess, scenario)
            _, _, warm = _time(ValueModule().assess, scenario)
        profiles = self._profiles(scenario, runtime if fresh else None)
        values_span = self.recorder.add("core.values", job, cold_start, cold, parent)
        self.recorder.add(
            "profiling", job, cold_start, cold - warm, values_span.id,
            columns=len(profiles),
            rows=sum(entry.row_count for entry in profiles),
        )

        reports = {"mapping": mapping, "structure": structure, "values": values}
        resolved = ResultQuality(quality)
        efes = default_efes(runtime=runtime)
        with span("core.plan", job, parent):
            tasks = efes.plan(scenario, resolved, reports=reports, strict=True)
        with span("core.price", job, parent):
            estimate = price_tasks(scenario.name, resolved, tasks, self.settings)
        return {"reports": reports, "estimate": estimate}

    def serialize(self, job: int, parent, outcome) -> dict:
        from repro.core.serialize import estimate_to_dict, reports_to_dict

        with self.recorder.span("core.serialize", job, parent) as span:
            doc = {
                "reports": reports_to_dict(outcome["reports"]),
                "estimate": estimate_to_dict(outcome["estimate"]),
            }
            span.notes["bytes"] = len(json.dumps(doc).encode("utf-8"))
        return doc

    def store_get(self, job: int, parent, key: str) -> None:
        with self.recorder.span("service.store_get", job, parent):
            self.store.get(key)

    def store_put(self, job: int, parent, key: str, doc: dict) -> None:
        with self.recorder.span("service.store_put", job, parent):
            self.store.put(key, doc)

    def journal_append(self, job: int, parent, name: str, quality: str, key: str) -> None:
        from repro.durability.journal import submitted_record
        from repro.service import Job

        record = submitted_record(
            Job(kind="estimate", scenario_name=name, quality=quality, store_key=key)
        )
        with self.recorder.span("durability.journal_append", job, parent):
            self.journal.append(record)


def _p50_ms(values) -> float:
    return percentile(values, 0.5) * 1000.0 if values else 0.0


def summarise(recorder: Recorder, cache_hits: int, cache_misses: int):
    """The per-layer table rows and the per-layer metrics of a traced run."""
    spans = recorder.spans
    own = self_times(spans)
    roots = [s for s in spans if s.name == "job"]
    job_seconds = sum(s.seconds for s in roots) or float("nan")
    job_wall = sum(s.end - s.start for s in roots) or float("nan")
    by_layer: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_layer[span.name].append(span)

    def on_path(span: Span) -> bool:
        return span.parent is not None or span.name == "job"

    rows = []
    for name in sorted(by_layer, key=lambda n: (n != "job", n)):
        layer = by_layer[name]
        selfs = [own[s.id] for s in layer]
        path_self = sum(own[s.id] for s in layer if on_path(s))
        rows.append({
            "layer": name,
            "count": len(layer),
            "p50_self_ms": percentile(selfs, 0.5) * 1000.0,
            "p95_self_ms": percentile(selfs, 0.95) * 1000.0,
            "share": path_self / job_seconds,
            "on_path": any(on_path(s) for s in layer),
        })

    residual = defaultdict(float)
    for span in spans:
        if span.name in RESIDUAL_LAYERS:
            residual[span.job] += own[span.id]

    def selfs(name):
        return [own[s.id] for s in by_layer.get(name, [])]

    def share(*names):
        return sum(
            own[s.id] for n in names for s in by_layer.get(n, []) if on_path(s)
        ) / job_seconds

    profiling = by_layer.get("profiling", [])
    profiled_rows = sum(s.notes["rows"] for s in profiling)
    serialized = [s.notes["bytes"] for s in by_layer.get("core.serialize", [])]
    lookups = cache_hits + cache_misses
    metrics = {
        "scenarios.build_ms": (_p50_ms(selfs("scenarios.build")), "ms"),
        "scenarios.build_share": (share("scenarios.build"), "ratio"),
        "runtime.fingerprint_ms": (_p50_ms(selfs("runtime.fingerprint")), "ms"),
        "runtime.profile_cache_hit_ratio": (
            cache_hits / lookups if lookups else 0.0, "ratio"
        ),
        "profiling.job_ms": (_p50_ms(selfs("profiling")), "ms"),
        "profiling.columns": (
            sum(s.notes["columns"] for s in profiling) / len(profiling)
            if profiling else 0.0,
            "count",
        ),
        "profiling.us_per_row": (
            sum(s.seconds for s in profiling) * 1e6 / profiled_rows
            if profiled_rows else 0.0,
            "us",
        ),
        "profiling.share": (share("profiling"), "ratio"),
        "csg.convert_ms": (_p50_ms(selfs("csg.convert")), "ms"),
        "csg.share": (share("csg.convert"), "ratio"),
        "core.structure_self_ms": (_p50_ms(selfs("core.structure")), "ms"),
        "core.values_self_ms": (_p50_ms(selfs("core.values")), "ms"),
        "core.mapping_ms": (_p50_ms(selfs("core.mapping")), "ms"),
        "core.plan_ms": (_p50_ms(selfs("core.plan")), "ms"),
        "core.price_ms": (_p50_ms(selfs("core.price")), "ms"),
        "core.serialize_ms": (_p50_ms(selfs("core.serialize")), "ms"),
        "core.result_bytes": (
            percentile(serialized, 0.5) if serialized else 0.0, "bytes"
        ),
        "service.store_get_ms": (_p50_ms(selfs("service.store_get")), "ms"),
        "service.store_put_ms": (_p50_ms(selfs("service.store_put")), "ms"),
        "durability.journal_append_ms": (
            _p50_ms(selfs("durability.journal_append")), "ms"
        ),
        "job.residual_ms": (_p50_ms(list(residual.values())), "ms"),
        "job.residual_share": (sum(residual.values()) / job_seconds, "ratio"),
        "bench.tracing_overhead_pct": (
            100.0 * recorder.overhead / job_wall, "%"
        ),
    }
    return rows, metrics


def render(rows: list[dict], title: str) -> str:
    lines = [
        title,
        f"{'layer':28} {'spans':>6} {'p50 self ms':>12} {'p95 self ms':>12} {'share':>8}",
    ]
    for row in rows:
        share = f"{100 * row['share']:7.1f}%" if row["on_path"] else "off path"
        lines.append(
            f"{row['layer']:28} {row['count']:6d} {row['p50_self_ms']:12.3f} "
            f"{row['p95_self_ms']:12.3f} {share:>8}"
        )
    return "\n".join(lines)
