"""The shared assessment runtime: backend + cache + metrics in one place.

Phase-1 complexity assessment (paper Section 3, Figure 3) is
embarrassingly parallel — module detectors are independent, column
profiles are independent, per-relation dependency discovery is
independent — and wholly repeatable, because every result is a pure
function of immutable instances.  :class:`Runtime` exploits both facts:

* on the ``serial`` backend the detectors, column profiles and
  per-relation discovery run in plain loops; on the ``process`` backend
  they fan out to a :class:`~repro.runtime.executor.ProcessExecutor`,
  and ``run_detectors`` keeps module order in the returned report dict
  either way,
* the cached profiling entry points (``profile_column``,
  ``profile_database``, ``discover_uccs/inds/fds``) memoise results in a
  content-keyed :class:`~repro.runtime.cache.ProfileCache`,
* everything is instrumented on a :class:`RuntimeMetrics` instance that
  :class:`~repro.core.framework.Efes`, the CLI, and the benchmark
  conftest can query.

One process-wide default runtime exists (``default_runtime``); code that
wants a private backend/cache builds its own ``Runtime`` and either
passes it to :class:`Efes` or activates it with ``with runtime.activated()``.
"""

from __future__ import annotations

import contextvars
import os
import time
from collections.abc import Callable, Sequence
from contextlib import contextmanager

from ..observability import tracing
from ..observability.context import SpanContext, merge_worker_telemetry
from ..resilience import DegradedResult, fault_point, format_exception
from .cache import ProfileCache
from .deadline import (
    OperationCancelled,
    WorkerReapedError,
    checkpoint,
    wire_deadline,
)
from .executor import ProcessExecutor, in_process_worker
from .metrics import RuntimeMetrics

#: Environment variable selecting the default runtime's backend.
BACKEND_ENV_VAR = "REPRO_RUNTIME_BACKEND"

#: The runtime backends: plain in-process loops, or a process pool.
BACKENDS = ("serial", "process")

_ACTIVE: contextvars.ContextVar["Runtime | None"] = contextvars.ContextVar(
    "repro_active_runtime", default=None
)


class Runtime:
    """An execution engine for EFES assessments and profiling."""

    def __init__(
        self,
        backend: str = "serial",
        max_workers: int | None = None,
        cache: ProfileCache | None = None,
        metrics: RuntimeMetrics | None = None,
        spool=None,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown runtime backend {backend!r}; "
                "expected 'serial' or 'process'"
            )
        self.backend = backend
        self.metrics = metrics if metrics is not None else RuntimeMetrics()
        #: The process pool; ``None`` on the serial backend.
        self.executor = (
            ProcessExecutor(max_workers) if backend == "process" else None
        )
        # An empty ProfileCache is falsy (it has __len__), so never use
        # `or` here — a caller's fresh cache must not be discarded.
        self.cache = (
            cache if cache is not None else ProfileCache(metrics=self.metrics)
        )
        #: Scenario spool for the process backend; lazily created so the
        #: spool directory only materialises when processes are used.
        self._spool = spool
        #: Event sink for worker telemetry + fallback records.  The
        #: service scheduler injects its own log here; standalone runs
        #: get one lazily only when ``$REPRO_EVENT_LOG`` asks for it.
        self.events = None

    def spool(self):
        """The scenario spool shipping inputs to worker processes."""
        if self._spool is None:
            from .spool import ScenarioSpool

            self._spool = ScenarioSpool(metrics=self.metrics)
        return self._spool

    def _process_eligible(self, task_count: int) -> bool:
        """Whether to route a fan-out through the process pool."""
        from ..resilience.faults import FAULT_PLAN_ENV_VAR, active_fault_plan

        if not (
            self.executor is not None
            and self.executor.max_workers > 1
            and task_count > 1
            and not in_process_worker()
        ):
            return False
        # A chaos plan installed programmatically (injected_faults /
        # install_fault_plan) is parent-local: forked workers never see
        # it, so its detector/profile points would silently stop firing.
        # Keep such runs in-parent; env-armed plans reach workers (the
        # pool initializer re-resolves $REPRO_FAULT_PLAN) and stay on
        # the process path.
        if active_fault_plan() is not None and not os.environ.get(
            FAULT_PLAN_ENV_VAR
        ):
            return False
        return True

    # -- activation -------------------------------------------------------

    @contextmanager
    def activated(self):
        """Make this runtime the one :func:`get_runtime` resolves to."""
        token = _ACTIVE.set(self)
        try:
            yield self
        finally:
            _ACTIVE.reset(token)

    # -- execution --------------------------------------------------------

    def run_detectors(
        self, modules: Sequence, scenario, on_error: str = "raise"
    ) -> dict:
        """Phase 1 for every module; reports in module order.

        With ``on_error="raise"`` (the default), exceptions from a
        failing detector propagate to the caller (first module in
        declaration order wins when several fail).  With
        ``on_error="degrade"`` a failing detector yields a
        :class:`~repro.resilience.DegradedResult` in the report dict
        instead — the other modules' reports survive, the failure is
        counted on ``degraded_total``, and the detector's span carries an
        ``error`` annotation.  Each detector runs under a
        ``detector:<name>`` span and records its latency into the
        ``detector_seconds`` histogram, so per-detector p50/p95/p99
        survive on either backend.
        """
        if on_error not in ("raise", "degrade"):
            raise ValueError(
                f"on_error must be 'raise' or 'degrade', got {on_error!r}"
            )
        self.metrics.increment("assessments")
        self.metrics.increment("detector_runs", by=len(modules))

        def run_one(module):
            with tracing.span(f"detector:{module.name}") as span:
                started = time.perf_counter()
                try:
                    checkpoint("detector", detector=module.name)
                    fault_point(
                        "detector", name=module.name, scenario=scenario.name
                    )
                    return module.assess(scenario)
                except Exception as exc:  # noqa: BLE001 - degradation boundary
                    if on_error == "raise":
                        raise
                    elapsed = time.perf_counter() - started
                    error = format_exception(exc)
                    span.set_attribute("error", error)
                    self.metrics.increment("degraded_total")
                    self.metrics.increment("detectors_degraded")
                    return DegradedResult(
                        module=module.name,
                        phase="assess",
                        error=error,
                        elapsed_seconds=elapsed,
                        scenario=scenario.name,
                    )
                finally:
                    self.metrics.observe(
                        "detector_seconds",
                        time.perf_counter() - started,
                        detector=module.name,
                    )

        with tracing.span("assess", scenario=scenario.name), \
                self.metrics.time_stage("assess"):
            if self._process_eligible(len(modules)):
                try:
                    processed = self._run_detectors_process(
                        modules, scenario, on_error
                    )
                except OperationCancelled as exc:
                    # A deadline abort (worker self-abort or pool reap)
                    # is not an infra failure: never re-run serially.
                    # Per-task attribution was lost with the pool, so
                    # every module tombstones in degrade mode.
                    if on_error == "raise":
                        raise
                    processed = self._cancelled_reports(
                        modules, scenario, exc
                    )
                if processed is not None:
                    return processed
            reports = {}
            with self.activated():
                for module in modules:
                    with self.metrics.time_stage("assess.detector"):
                        reports[module.name] = run_one(module)
        return reports

    def _run_detectors_process(
        self, modules: Sequence, scenario, on_error: str
    ) -> dict | None:
        """Fan detector modules out across worker processes.

        Returns the report dict, or ``None`` when the process machinery
        itself fails (broken pool, unpicklable module, spool trouble,
        injected dispatch fault) — the caller then falls back to the
        in-process path, counted on ``process_fallbacks``.  Module
        exceptions are **not** infrastructure: workers return them
        tagged, and raise/degrade semantics are reproduced here exactly
        as the serial path would.
        """
        import pickle

        from . import workers

        try:
            fault_point(
                "process.dispatch", stage="detectors", scenario=scenario.name
            )
            spool = self.spool()
            fingerprint = spool.put_scenario(scenario)
            context = SpanContext.capture()
            budget = wire_deadline()
            tasks = [
                (
                    str(spool.directory),
                    fingerprint,
                    pickle.dumps(module),
                    budget,
                    context,
                )
                for module in modules
            ]
            self.metrics.increment("tasks_submitted", by=len(tasks))
            outcomes = self.executor.run_tasks(workers.assess_module, tasks)
        except OperationCancelled as exc:
            self._note_cancelled(exc, stage="detectors")
            raise
        except Exception as exc:  # noqa: BLE001 - degrade to serial, never fail
            self._note_process_fallback(exc, stage="detectors")
            return None
        reports: dict = {}
        for module, outcome in zip(modules, outcomes):
            status, payload, error_text, elapsed, cache_entries, telemetry = (
                outcome
            )
            for key, value in cache_entries:
                self.cache.put_raw(key, value)
            self.metrics.observe(
                "detector_seconds", elapsed, detector=module.name
            )
            self.metrics.increment("tasks_completed")
            merged = merge_worker_telemetry(
                telemetry, self.metrics, events=self._event_sink()
            )
            # The worker's own detector span landed in the tree when its
            # telemetry merged; only open a stub here when it did not
            # (untraced runs, or a dropped blob).
            handle = (
                tracing.NOOP_SPAN
                if merged
                else tracing.span(f"detector:{module.name}", backend="process")
            )
            with handle as span:
                if status == workers.OK:
                    reports[module.name] = payload
                    continue
                span.set_attribute("error", error_text)
                if on_error == "raise":
                    if payload is not None:
                        raise pickle.loads(payload)
                    raise RuntimeError(error_text)
                self.metrics.increment("degraded_total")
                self.metrics.increment("detectors_degraded")
                reports[module.name] = DegradedResult(
                    module=module.name,
                    phase="assess",
                    error=error_text,
                    elapsed_seconds=elapsed,
                    scenario=scenario.name,
                )
        return reports

    # -- cached profiling -------------------------------------------------

    def profile_column(
        self, database, relation_name: str, attribute_name: str, datatype=None
    ):
        from ..profiling import profiler

        resolved = (
            datatype
            if datatype is not None
            else database.schema.attribute(relation_name, attribute_name).datatype
        )
        def compute():
            checkpoint(
                "profile", relation=relation_name, attribute=attribute_name
            )
            fault_point(
                "profile", relation=relation_name, attribute=attribute_name
            )
            return self._timed(
                "profile",
                profiler.compute_column_profile,
                database,
                relation_name,
                attribute_name,
                resolved,
                span=span,
            )

        with tracing.span(
            "profile",
            relation=relation_name,
            attribute=attribute_name,
            cache_hit=True,
        ) as span:
            return self.cache.get_or_compute(
                database,
                ("profile_column", relation_name, attribute_name, str(resolved)),
                compute,
            )

    def profile_database(self, database):
        def compute():
            span.set_attribute("cache_hit", False)
            pairs = [
                (relation.name, attribute.name)
                for relation in database.schema.relations
                for attribute in relation.attributes
            ]
            if self._process_eligible(len(pairs)):
                profiles = self._profile_columns_process(database, pairs)
                if profiles is not None:
                    return dict(zip(pairs, profiles))
            with self.activated():
                return {
                    pair: self.profile_column(database, *pair) for pair in pairs
                }

        with tracing.span(
            "profile", scope="database", database=database.name, cache_hit=True
        ) as span:
            return self.cache.get_or_compute(
                database, ("profile_database",), compute
            )

    def _profile_columns_process(self, database, pairs) -> list | None:
        """Profile columns on worker processes; ``None`` → serial fallback.

        Columns already warm in the cache (probed with ``peek``) are not
        re-farmed; fresh results land in the cache under exactly the keys
        :meth:`profile_column` would have used, so the backend leaves no
        trace in the cache's key set.
        """
        from . import workers

        def column_key(pair):
            datatype = database.schema.attribute(pair[0], pair[1]).datatype
            return (
                ("profile_column", pair[0], pair[1], str(datatype)),
                datatype,
            )

        try:
            fault_point(
                "process.dispatch", stage="profile", database=database.name
            )
            spool = self.spool()
            fingerprint = spool.put_database(database)
            context = SpanContext.capture()
            keyed = {pair: column_key(pair) for pair in pairs}
            missing = [
                pair
                for pair in pairs
                if self.cache.peek(database, keyed[pair][0]) is None
            ]
            budget = wire_deadline()
            tasks = [
                (
                    str(spool.directory),
                    fingerprint,
                    pair[0],
                    pair[1],
                    keyed[pair][1].value,
                    budget,
                    context,
                )
                for pair in missing
            ]
            self.metrics.increment("tasks_submitted", by=len(tasks))
            outcomes = self.executor.run_tasks(workers.profile_column, tasks)
        except OperationCancelled as exc:
            self._note_cancelled(exc, stage="profile")
            raise
        except Exception as exc:  # noqa: BLE001 - degrade to serial, never fail
            self._note_process_fallback(exc, stage="profile")
            return None
        for pair, (profile, elapsed, telemetry) in zip(missing, outcomes):
            self.metrics.record_stage("profile", elapsed)
            self.metrics.increment("tasks_completed")
            self.cache.put(database, keyed[pair][0], profile)
            merge_worker_telemetry(
                telemetry, self.metrics, events=self._event_sink()
            )
        return [self.cache.peek(database, keyed[pair][0]) for pair in pairs]

    def discover_uccs(self, database, max_arity: int = 2):
        from ..profiling import dependencies

        def compute():
            chunks = self._relation_chunks_process(
                database, "relation_uccs", "uccs", extra=(max_arity,)
            )
            if chunks is not None:
                span.set_attribute("cache_hit", False)
                return [ucc for chunk in chunks for ucc in chunk]
            return self._timed(
                "dependencies",
                dependencies.compute_uccs,
                database,
                max_arity,
                span=span,
            )

        with tracing.span(
            "ucc", database=database.name, cache_hit=True
        ) as span:
            return self.cache.get_or_compute(
                database, ("uccs", max_arity), compute
            )

    def discover_inds(self, database, min_values: int = 1):
        from ..profiling import dependencies

        def compute():
            chunks = self._relation_chunks_process(
                database, "relation_value_sets", "inds"
            )
            if chunks is not None:
                span.set_attribute("cache_hit", False)
                # Chunks arrive in schema relation order, each in schema
                # attribute order — the same insertion order the serial
                # path produces, so IND results stay canonical.
                value_sets = {
                    key: values for chunk in chunks for key, values in chunk
                }
                return dependencies._inds_from_value_sets(
                    value_sets, min_values
                )
            return self._timed(
                "dependencies",
                dependencies.compute_inds,
                database,
                min_values,
                span=span,
            )

        with tracing.span(
            "ind", database=database.name, cache_hit=True
        ) as span:
            return self.cache.get_or_compute(
                database, ("inds", min_values), compute
            )

    def discover_fds(self, database):
        from ..profiling import dependencies

        def compute():
            chunks = self._relation_chunks_process(
                database, "relation_fds", "fds"
            )
            if chunks is not None:
                span.set_attribute("cache_hit", False)
                return [fd for chunk in chunks for fd in chunk]
            return self._timed(
                "dependencies",
                dependencies.compute_fds,
                database,
                span=span,
            )

        with tracing.span(
            "fd", database=database.name, cache_hit=True
        ) as span:
            return self.cache.get_or_compute(database, ("fds",), compute)

    def _relation_chunks_process(
        self, database, worker_name: str, stage: str, extra: tuple = ()
    ) -> list | None:
        """Fan per-relation discovery tasks out to worker processes.

        Returns per-relation result chunks in schema relation order, or
        ``None`` when the process backend is ineligible or its machinery
        fails (then counted on ``process_fallbacks``) — callers fall
        back to the in-process loop.
        """
        relations = database.schema.relations
        if not self._process_eligible(len(relations)):
            return None
        from . import workers

        try:
            fault_point(
                "process.dispatch", stage=stage, database=database.name
            )
            spool = self.spool()
            fingerprint = spool.put_database(database)
            context = SpanContext.capture()
            budget = wire_deadline()
            tasks = [
                (
                    str(spool.directory),
                    fingerprint,
                    relation.name,
                    *extra,
                    budget,
                    context,
                )
                for relation in relations
            ]
            self.metrics.increment("tasks_submitted", by=len(tasks))
            outcomes = self.executor.run_tasks(
                getattr(workers, worker_name), tasks
            )
        except OperationCancelled as exc:
            self._note_cancelled(exc, stage=stage)
            raise
        except Exception as exc:  # noqa: BLE001 - degrade to serial, never fail
            self._note_process_fallback(exc, stage=stage)
            return None
        chunks = []
        for chunk, elapsed, telemetry in outcomes:
            self.metrics.record_stage("dependencies", elapsed)
            self.metrics.increment("tasks_completed")
            merge_worker_telemetry(
                telemetry, self.metrics, events=self._event_sink()
            )
            chunks.append(chunk)
        return chunks

    def _cancelled_reports(
        self, modules: Sequence, scenario, exc: OperationCancelled
    ) -> dict:
        """Tombstone every module after a pool-level deadline abort."""
        error = format_exception(exc)
        reports: dict = {}
        for module in modules:
            self.metrics.increment("degraded_total")
            self.metrics.increment("detectors_degraded")
            reports[module.name] = DegradedResult(
                module=module.name,
                phase="assess",
                error=error,
                elapsed_seconds=0.0,
                scenario=scenario.name,
            )
        return reports

    def _note_cancelled(self, exc: OperationCancelled, stage: str) -> None:
        """Account a deadline abort surfacing from the process backend."""
        if isinstance(exc, WorkerReapedError):
            self.metrics.increment("worker_reaped")
            events = self._event_sink()
            if events is not None:
                events.emit("worker.reaped", stage=stage, error=str(exc))

    def _event_sink(self):
        """The event log that worker events and fallback records land in.

        The service scheduler shares its log via ``runtime.events``;
        standalone runs get a log lazily only when ``$REPRO_EVENT_LOG``
        names a sink, so plain library use allocates nothing.
        """
        if self.events is None:
            from ..observability.events import EVENT_LOG_ENV_VAR, EventLog

            sink_path = os.environ.get(EVENT_LOG_ENV_VAR)
            if sink_path:
                self.events = EventLog(path=sink_path)
        return self.events

    @staticmethod
    def _fallback_reason(exc: Exception) -> str:
        """Classify why the process backend bailed, for the metric label.

        Order matters: :class:`~repro.resilience.faults.FaultError` and
        :class:`~repro.runtime.spool.SpoolError` are both ``OSError``
        subclasses, and injected faults must not masquerade as spool IO.
        """
        import pickle
        from concurrent.futures.process import BrokenProcessPool

        from ..resilience.faults import FaultError
        from .spool import SpoolError

        if isinstance(exc, FaultError):
            return "fault"
        if isinstance(exc, BrokenProcessPool):
            return "broken_pool"
        if isinstance(exc, SpoolError):
            return "spool_io"
        if isinstance(
            exc, (pickle.PicklingError, pickle.UnpicklingError, AttributeError)
        ):
            return "codec"
        return "other"

    def _note_process_fallback(
        self, exc: Exception, stage: str = "unknown"
    ) -> None:
        reason = self._fallback_reason(exc)
        error = f"{type(exc).__name__}: {exc}"
        self.metrics.increment("process_fallbacks", reason=reason)
        events = self._event_sink()
        if events is not None:
            events.emit(
                "process.fallback", stage=stage, reason=reason, error=error
            )
        with tracing.span(
            "process.fallback", stage=stage, reason=reason, error=error
        ):
            pass

    def _timed(self, stage: str, function: Callable, *args, span=None):
        # Reaching the compute callback means the cache did not have the
        # entry; flip the span's optimistic cache_hit annotation.
        if span is not None:
            span.set_attribute("cache_hit", False)
        with self.metrics.time_stage(stage):
            return function(*args)

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        if self.executor is not None:
            self.executor.shutdown()

    def __repr__(self) -> str:
        workers = self.executor.max_workers if self.executor else 1
        return (
            f"Runtime(backend={self.backend!r}, workers={workers}, "
            f"cache={len(self.cache)} entries)"
        )


# ----------------------------------------------------------------------
# Process-wide default + active-runtime resolution
# ----------------------------------------------------------------------

_default_runtime: Runtime | None = None


def default_runtime() -> Runtime:
    """The lazily created process-wide runtime.

    Backend comes from ``$REPRO_RUNTIME_BACKEND`` (default: serial, the
    reference behaviour); its cache and metrics are shared by every
    caller that does not bring a runtime of its own.
    """
    global _default_runtime
    if _default_runtime is None:
        _default_runtime = Runtime(
            backend=os.environ.get(BACKEND_ENV_VAR, "serial")
        )
    return _default_runtime


def set_default_runtime(runtime: Runtime | None) -> None:
    """Replace the process-wide default (``None`` resets to lazy init)."""
    global _default_runtime
    _default_runtime = runtime


def get_runtime() -> Runtime:
    """The active runtime: the innermost ``activated()`` one, else the
    process default."""
    return _ACTIVE.get() or default_runtime()
