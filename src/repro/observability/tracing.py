"""Hierarchical tracing for the assessment pipeline.

A *span* is one timed region of the pipeline — ``assess``,
``detector:mapping``, ``profile``, ``service.job:<id>`` — with a parent,
children, and free-form attributes (``cache_hit``, scenario names, …).
Spans form a tree per traced operation; the tree answers "where did this
one run spend its time?" in a way the aggregated
:class:`~repro.runtime.metrics.RuntimeMetrics` cannot.

Propagation is :mod:`contextvars`-based: the active tracer and the
current span live in context variables, so instrumentation points
(:func:`span`) never need a tracer threaded through their signatures.

Tracing is **disabled by default**: with no tracer activated,
:func:`span` returns a shared no-op handle without allocating, so the
instrumented hot paths stay within the <5% overhead gate enforced by
``benchmarks/bench_observability_overhead.py``.
"""

from __future__ import annotations

import contextvars
import threading
import time
import uuid
from collections.abc import Iterator
from contextlib import contextmanager

_ACTIVE_TRACER: contextvars.ContextVar["Tracer | None"] = contextvars.ContextVar(
    "repro_active_tracer", default=None
)
_CURRENT_SPAN: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_current_span", default=None
)


class Span:
    """One timed node of a trace tree.

    ``duration_seconds`` is ``None`` while the span is open; children are
    appended under a lock because worker threads attach concurrently.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "started_at",
        "duration_seconds",
        "attributes",
        "children",
        "_start_perf",
        "_lock",
    )

    def __init__(
        self,
        name: str,
        trace_id: str = "",
        parent_id: str | None = None,
        attributes: dict | None = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self.span_id = uuid.uuid4().hex[:16]
        self.parent_id = parent_id
        self.started_at = time.time()
        self.duration_seconds: float | None = None
        self.attributes: dict = dict(attributes or {})
        self.children: list[Span] = []
        self._start_perf = time.perf_counter()
        self._lock = threading.Lock()

    # -- recording --------------------------------------------------------

    def set_attribute(self, name: str, value) -> None:
        self.attributes[name] = value

    def add_child(self, child: "Span") -> None:
        with self._lock:
            self.children.append(child)

    def finish(self) -> None:
        if self.duration_seconds is None:
            self.duration_seconds = time.perf_counter() - self._start_perf

    # -- inspection -------------------------------------------------------

    @property
    def is_recording(self) -> bool:
        return True

    @property
    def total_seconds(self) -> float:
        return self.duration_seconds or 0.0

    @property
    def self_seconds(self) -> float:
        """Time spent in this span excluding (finished) children.

        For spans whose children ran concurrently the children's summed
        time can exceed the parent's wall-clock; self time clamps at 0.
        """
        with self._lock:
            child_total = sum(child.total_seconds for child in self.children)
        return max(0.0, self.total_seconds - child_total)

    def walk(self) -> Iterator["Span"]:
        """Depth-first pre-order iteration over the subtree."""
        yield self
        with self._lock:
            children = list(self.children)
        for child in children:
            yield from child.walk()

    def find(self, name: str) -> list["Span"]:
        """Every span in the subtree with exactly this name."""
        return [node for node in self.walk() if node.name == name]

    def __repr__(self) -> str:
        status = (
            f"{self.duration_seconds:.4f}s"
            if self.duration_seconds is not None
            else "open"
        )
        return f"Span({self.name!r}, {status}, {len(self.children)} children)"


class _NoopSpan:
    """The shared do-nothing span handle of the disabled-tracing path."""

    __slots__ = ()
    is_recording = False
    name = ""
    children: tuple = ()
    attributes: dict = {}

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set_attribute(self, name: str, value) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class _SpanHandle:
    """Context manager that opens a real span and wires it into the tree."""

    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer: "Tracer", name: str, attributes: dict) -> None:
        self._tracer = tracer
        self._span: Span | None = None
        self._token = None
        parent = _CURRENT_SPAN.get()
        self._span = Span(
            name,
            trace_id=parent.trace_id if parent is not None else tracer.trace_id,
            parent_id=parent.span_id if parent is not None else None,
            attributes=attributes,
        )
        if parent is not None:
            parent.add_child(self._span)

    def __enter__(self) -> Span:
        self._token = _CURRENT_SPAN.set(self._span)
        return self._span

    def __exit__(self, *exc_info) -> bool:
        span = self._span
        span.finish()
        if exc_info and exc_info[0] is not None:
            span.set_attribute("error", f"{exc_info[0].__name__}: {exc_info[1]}")
        _CURRENT_SPAN.reset(self._token)
        if span.parent_id is None:
            self._tracer._record_root(span)
        return False


class Tracer:
    """Produces span trees; activate one to turn instrumentation on.

    ``tracer.activated()`` makes the tracer current for the calling
    context; completed root spans accumulate in ``tracer.roots``.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.trace_id = uuid.uuid4().hex[:16]
        self.roots: list[Span] = []
        self._lock = threading.Lock()

    def _record_root(self, span: Span) -> None:
        with self._lock:
            self.roots.append(span)

    @property
    def root(self) -> Span | None:
        """The most recently completed root span, if any."""
        with self._lock:
            return self.roots[-1] if self.roots else None

    @contextmanager
    def activated(self) -> Iterator["Tracer"]:
        token = _ACTIVE_TRACER.set(self if self.enabled else None)
        try:
            yield self
        finally:
            _ACTIVE_TRACER.reset(token)

    def __repr__(self) -> str:
        return (
            f"Tracer(enabled={self.enabled}, roots={len(self.roots)}, "
            f"trace_id={self.trace_id!r})"
        )


def span(name: str, **attributes):
    """Open a child span of the current one on the active tracer.

    The instrumentation entry point: cheap when no tracer is active
    (returns a shared no-op handle), a real :class:`Span` otherwise.
    Usable both as ``with span("x"):`` and
    ``with span("x") as sp: sp.set_attribute(...)``.
    """
    tracer = _ACTIVE_TRACER.get()
    if tracer is None:
        return NOOP_SPAN
    return _SpanHandle(tracer, name, attributes)


def current_span() -> Span | None:
    """The innermost open span of the calling context, if tracing is on."""
    return _CURRENT_SPAN.get()


def active_tracer() -> Tracer | None:
    """The tracer activated in the calling context, if any."""
    return _ACTIVE_TRACER.get()


def is_tracing() -> bool:
    return _ACTIVE_TRACER.get() is not None
