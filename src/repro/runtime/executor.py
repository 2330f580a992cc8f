"""The process-pool executor behind the ``process`` runtime backend.

EFES's phase-1 assessment fans out over independent units of work —
module detectors, per-column statistic bundles, per-relation dependency
discovery.  :class:`ProcessExecutor` runs **picklable** task functions
for them on a process pool, escaping the GIL for the pure-Python
profiling workload.  Results come back in submission order regardless of
completion order, and the first exception (in submission order)
propagates to the caller.

Closures over runtimes and databases cannot cross a process boundary, so
the engine routes work through :meth:`ProcessExecutor.run_tasks` with
module-level worker functions (:mod:`repro.runtime.workers`) and
spool-fingerprint payloads.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures.process import BrokenProcessPool

from .deadline import WorkerReapedError, current_scope


def auto_worker_count() -> int:
    """A sensible default pool size: one worker per core, at least two.

    Capped at 32 so that a many-core host does not spawn hundreds of
    processes for workloads whose units are small.
    """
    return max(2, min(32, os.cpu_count() or 1))


#: True inside a process-pool worker (set by the pool initializer); lets
#: code that forked with a process runtime active avoid nested pools.
_in_process_worker = False


def _mark_process_worker() -> None:
    global _in_process_worker
    _in_process_worker = True
    # A forked worker inherits the parent's already-resolved fault-plan
    # state; reset so the worker re-reads $REPRO_FAULT_PLAN itself.
    # In-memory plans (injected_faults) stay parent-local by design —
    # worker-side chaos is armed through the environment.
    from ..resilience.faults import reset_fault_plan

    reset_fault_plan()


def in_process_worker() -> bool:
    """Whether this interpreter is a process-pool worker."""
    return _in_process_worker


class ProcessExecutor:
    """A shared, lazily created process pool for picklable tasks.

    Scenario shipping stays cheap because task payloads carry **content
    fingerprints**, not data: the engine spools each scenario/database
    once (:mod:`repro.runtime.spool`) and workers rehydrate from disk
    with a process-local memo, so a worker deserialises each distinct
    input exactly once regardless of how many tasks it runs.

    * With one worker (or one task, or when already inside a worker)
      tasks run inline, so ``--workers 1`` pays no IPC tax at all.
    * A crashed worker (:class:`BrokenProcessPool`) discards the pool —
      the next dispatch starts a fresh one — and re-raises so the engine
      can fall back to serial in-process execution.

    The ``fork`` start method is preferred (no interpreter re-import per
    worker); hosts without it use the platform default.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(
                f"max_workers must be a positive integer, got {max_workers}"
            )
        self.max_workers = max_workers or auto_worker_count()
        self._pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._dispatches = 0
        self._pooled_tasks = 0
        self._inline_tasks = 0
        self._peak_inflight = 0
        self._reaps = 0
        self._reaped_workers = 0

    def stats(self) -> dict:
        """Pool utilization counters for the resource-telemetry gauges."""
        with self._stats_lock:
            return {
                "max_workers": self.max_workers,
                "dispatches": self._dispatches,
                "pooled_tasks": self._pooled_tasks,
                "inline_tasks": self._inline_tasks,
                "peak_inflight": self._peak_inflight,
                "reaps": self._reaps,
                "reaped_workers": self._reaped_workers,
                "pool_live": self._pool is not None,
            }

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                methods = multiprocessing.get_all_start_methods()
                context = multiprocessing.get_context(
                    "fork" if "fork" in methods else None
                )
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    mp_context=context,
                    initializer=_mark_process_worker,
                )
            return self._pool

    def run_tasks(self, function: Callable, payloads: Iterable) -> list:
        """Run a module-level ``function`` over picklable ``payloads`` on
        the pool; results in submission order, first failure re-raised.

        Raises :class:`BrokenProcessPool` (after discarding the pool) if
        a worker dies mid-task; callers treat that as "fall back to
        serial", never as a wrong answer.
        """
        payloads = list(payloads)
        if (
            len(payloads) <= 1
            or self.max_workers == 1
            or _in_process_worker
        ):
            with self._stats_lock:
                self._inline_tasks += len(payloads)
            return [function(payload) for payload in payloads]
        pool = self._ensure_pool()
        with self._stats_lock:
            self._dispatches += 1
            self._pooled_tasks += len(payloads)
            self._peak_inflight = max(self._peak_inflight, len(payloads))
        try:
            futures: Sequence[Future] = [
                pool.submit(function, payload) for payload in payloads
            ]
            scope = current_scope()
            if scope is None or scope.deadline is None:
                return [future.result() for future in futures]
            return self._collect_with_deadline(futures, scope)
        except BrokenProcessPool:
            with self._pool_lock:
                if self._pool is not None:
                    self._pool.shutdown(wait=False, cancel_futures=True)
                    self._pool = None
            raise

    def _collect_with_deadline(self, futures: Sequence[Future], scope) -> list:
        """Collect results, hard-killing workers that overrun the grace.

        Workers normally self-abort at their shipped-budget checkpoints;
        this is the backstop for a *runaway* worker (stuck in an
        un-checkpointed loop or a blocking call).  Once the scope's
        deadline plus grace passes without the next result, every pool
        process is SIGKILLed and the pool discarded — the next dispatch
        builds a fresh one via the usual broken-pool replacement path —
        and :class:`WorkerReapedError` propagates to the engine.
        """
        results = []
        for future in futures:
            budget = scope.deadline.remaining() + scope.grace
            try:
                results.append(future.result(timeout=max(0.0, budget)))
            except _FutureTimeout:
                reaped = self._reap_pool()
                raise WorkerReapedError(
                    f"pool worker overran the deadline by more than "
                    f"{scope.grace:g}s grace; reaped {reaped} worker "
                    f"process(es)"
                ) from None
        return results

    def _reap_pool(self) -> int:
        """SIGKILL every pool worker process and discard the pool."""
        import signal

        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is None:
            return 0
        killed = 0
        for process in list(getattr(pool, "_processes", {}).values()):
            if process.is_alive():
                try:
                    os.kill(process.pid, signal.SIGKILL)
                    killed += 1
                except OSError:  # pragma: no cover - already exiting
                    pass
        pool.shutdown(wait=False, cancel_futures=True)
        with self._stats_lock:
            self._reaps += 1
            self._reaped_workers += killed
        return killed

    def shutdown(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
