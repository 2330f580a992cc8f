"""The shared assessment runtime: cache + metrics in one place.

Phase-1 complexity assessment (paper Section 3, Figure 3) is wholly
repeatable, because every result is a pure function of immutable
instances.  :class:`Runtime` exploits that:

* the detectors, column profiles and per-relation dependency discovery
  run in plain loops, and ``run_detectors`` keeps module order in the
  returned report dict,
* the cached profiling entry points (``profile_column``,
  ``profile_database``, ``discover_uccs/inds/fds``) memoise results in a
  content-keyed :class:`~repro.runtime.cache.ProfileCache`,
* both detectors memoise their findings per source in the same cache:
  the structure detector through ``structure_violations``, so a re-quote
  of assessed content converts no CSG (stage ``csg`` runs once per source
  counted, never on a hit), and the value detector through
  ``cache.get_or_compute``, so a re-quote profiles no column and fits
  nothing (its miss is timed by the ``profile`` stages it opens),
* everything is instrumented on a :class:`RuntimeMetrics` instance that
  :class:`~repro.core.framework.Efes`, the CLI, and the benchmark
  conftest can query.

One process-wide default runtime exists (``default_runtime``); code that
wants a private cache builds its own ``Runtime`` and either passes it to
:class:`Efes` or activates it with ``with runtime.activated()``.
"""

from __future__ import annotations

import contextvars
import time
from collections.abc import Callable, Sequence
from contextlib import contextmanager

from ..observability import tracing
from ..resilience import DegradedResult, fault_point, format_exception
from .cache import ProfileCache
from .deadline import checkpoint, degrades
from .metrics import RuntimeMetrics

_ACTIVE: contextvars.ContextVar["Runtime | None"] = contextvars.ContextVar(
    "repro_active_runtime", default=None
)


class Runtime:
    """An execution engine for EFES assessments and profiling."""

    def __init__(
        self,
        backend: str = "serial",
        cache: ProfileCache | None = None,
        metrics: RuntimeMetrics | None = None,
    ) -> None:
        if backend != "serial":
            raise ValueError(
                f"unknown runtime backend {backend!r}; expected 'serial'"
            )
        #: Always ``"serial"``; ``/healthz`` reports it.
        self.backend = backend
        self.metrics = metrics if metrics is not None else RuntimeMetrics()
        # An empty ProfileCache is falsy (it has __len__), so never use
        # `or` here — a caller's fresh cache must not be discarded.
        self.cache = (
            cache if cache is not None else ProfileCache(metrics=self.metrics)
        )

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
        self, modules: Sequence, scenario, strict: bool = True
    ) -> dict:
        """Phase 1 for every module; reports in module order.

        With ``strict=True`` (the default), exceptions from a failing
        detector propagate to the caller (first module in declaration
        order wins when several fail).  With ``strict=False`` a failing
        detector yields a :class:`~repro.resilience.DegradedResult` in
        the report dict instead — the other modules' reports survive,
        the failure is counted on ``degraded_total``, and the detector's
        span carries an ``error`` annotation — unless
        :func:`~repro.runtime.deadline.degrades` lets it propagate (a
        plain cancel).  Each detector runs as stage ``detector:<name>``
        (one span, one ``stage_seconds`` sample), so per-detector
        p50/p95/p99 survive aggregation.
        """
        self.metrics.increment("assessments")
        self.metrics.increment("detector_runs", by=len(modules))

        def run_one(module):
            with self.metrics.stage(f"detector:{module.name}") as stage:
                started = time.perf_counter()
                try:
                    checkpoint("detector", detector=module.name)
                    fault_point(
                        "detector", name=module.name, scenario=scenario.name
                    )
                    return module.assess(scenario)
                except Exception as exc:  # noqa: BLE001 - degradation boundary
                    if not degrades(exc, strict):
                        raise
                    error = format_exception(exc)
                    stage.set_attribute("error", error)
                    self.metrics.increment("degraded_total")
                    self.metrics.increment("detectors_degraded")
                    return DegradedResult(
                        module=module.name,
                        phase="assess",
                        error=error,
                        elapsed_seconds=time.perf_counter() - started,
                        scenario=scenario.name,
                    )

        with self.metrics.stage("assess", scenario=scenario.name):
            reports = {}
            with self.activated():
                for module in modules:
                    reports[module.name] = run_one(module)
        return reports

    # -- cached profiling -------------------------------------------------
    #
    # Each cached entry point opens its stage marked ``cache_hit=True``;
    # reaching the compute callback means the cache did not have the
    # entry, so the callback flips the mark and the stage records a
    # sample.  A hit records none.

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
            stage.set_attribute("cache_hit", False)
            checkpoint(
                "profile", relation=relation_name, attribute=attribute_name
            )
            fault_point(
                "profile", relation=relation_name, attribute=attribute_name
            )
            return profiler.compute_column_profile(
                database, relation_name, attribute_name, resolved
            )

        with self.metrics.stage(
            "profile",
            relation=relation_name,
            attribute=attribute_name,
            cache_hit=True,
        ) as stage:
            return self.cache.get_or_compute(
                database,
                ("profile_column", relation_name, attribute_name, str(resolved)),
                compute,
            )

    def profile_database(self, database):
        def compute():
            span.set_attribute("cache_hit", False)
            with self.activated():
                return {
                    (relation.name, attribute.name): self.profile_column(
                        database, relation.name, attribute.name
                    )
                    for relation in database.schema.relations
                    for attribute in relation.attributes
                }

        # A plain span: its per-column ``profile`` stages are the samples.
        with tracing.span(
            "profile", scope="database", database=database.name, cache_hit=True
        ) as span:
            return self.cache.get_or_compute(
                database, ("profile_database",), compute
            )

    def discover_uccs(self, database, max_arity: int = 2):
        from ..profiling import dependencies

        def compute():
            stage.set_attribute("cache_hit", False)
            return dependencies.compute_uccs(database, max_arity)

        with self.metrics.stage(
            "ucc", database=database.name, cache_hit=True
        ) as stage:
            return self.cache.get_or_compute(
                database, ("uccs", max_arity), compute
            )

    def discover_inds(self, database, min_values: int = 1):
        from ..profiling import dependencies

        def compute():
            stage.set_attribute("cache_hit", False)
            return dependencies.compute_inds(database, min_values)

        with self.metrics.stage(
            "ind", database=database.name, cache_hit=True
        ) as stage:
            return self.cache.get_or_compute(
                database, ("inds", min_values), compute
            )

    def discover_fds(self, database):
        from ..profiling import dependencies

        def compute():
            stage.set_attribute("cache_hit", False)
            return dependencies.compute_fds(database)

        with self.metrics.stage(
            "fd", database=database.name, cache_hit=True
        ) as stage:
            return self.cache.get_or_compute(database, ("fds",), compute)

    # -- cached structure conflicts -----------------------------------------

    def structure_violations(
        self, database, operation_key: tuple, compute: Callable
    ):
        """The structure detector's violations of ``database`` (§4.1).

        ``operation_key`` names everything besides the source content that
        the violations depend on.  On a miss, ``compute()`` converts the
        source into its CSG instance and counts it, timed as stage ``csg``,
        so a re-quote of assessed content converts nothing.
        """
        def miss():
            stage.set_attribute("cache_hit", False)
            return compute()

        with self.metrics.stage(
            "csg", database=database.name, cache_hit=True
        ) as stage:
            return self.cache.get_or_compute(database, operation_key, miss)

    def __repr__(self) -> str:
        return (
            f"Runtime(backend={self.backend!r}, "
            f"cache={len(self.cache)} entries)"
        )


# ----------------------------------------------------------------------
# Process-wide default + active-runtime resolution
# ----------------------------------------------------------------------

_default_runtime: Runtime | None = None


def default_runtime() -> Runtime:
    """The lazily created process-wide runtime.

    Its cache and metrics are shared by every caller that does not bring
    a runtime of its own.
    """
    global _default_runtime
    if _default_runtime is None:
        _default_runtime = Runtime()
    return _default_runtime


def set_default_runtime(runtime: Runtime | None) -> None:
    """Replace the process-wide default (``None`` resets to lazy init)."""
    global _default_runtime
    _default_runtime = runtime


def get_runtime() -> Runtime:
    """The active runtime: the innermost ``activated()`` one, else the
    process default."""
    return _ACTIVE.get() or default_runtime()
