"""The fleet supervisor: spawn, watch, fence, replay, re-dispatch.

One :class:`FleetSupervisor` owns N workers (OS processes by default,
in-process simulated workers in the chaos harness — anything
implementing :class:`WorkerBackend`), a TCP control plane they dial
home to, and the routing table that maps every accepted job to the
worker executing it.

Failover is a strict sequence, because exactly-once settlement depends
on the order:

1. **detect** — a worker misses its liveness deadline (heartbeats
   stopped: crashed, SIGSTOPped, or partitioned) or its process is
   observed dead,
2. **kill** — the backend hard-kills the worker and waits for it; a
   merely-hung worker must be *made* dead before step 3, or it could
   wake up and keep appending to a journal the supervisor is about to
   replay,
3. **fence** — the worker's journal directory is renamed to
   ``journal-fenced-<epoch>``: an atomic, crash-safe tombstone.  A
   restarted successor gets a fresh directory; the fenced one is
   immutable history,
4. **replay** — :class:`~repro.durability.RecoveryManager` replays the
   fenced journal read-only and plans: jobs whose results already sit
   in the **shared** spool settle from the store (the crash hit after
   the result write — re-execution would be waste, not progress); jobs
   settled in the journal are terminal; everything else is re-dispatch,
5. **re-dispatch** — unsettled jobs ride their original
   :class:`~repro.service.SubmitEnvelope` (same priority, same
   **idempotency key**) to the ring-successor survivor.  The key makes
   duplicate settlement structurally impossible: even if the dead
   worker half-ran the job, results are content-addressed, so the
   survivor's execution converges on the same bytes.

While ``live < fleet size`` the supervisor raises the
``fleet-degraded`` health state and the front end sheds
lowest-priority work; dead workers are restarted (epoch + 1) unless
the policy says otherwise, and a zombie presenting a stale epoch is
disconnected instead of re-admitted.
"""

from __future__ import annotations

import dataclasses
import os
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path

from ..durability import JobJournal, RecoveryManager
from ..observability import EventLog
from ..resilience import HealthMonitor
from ..runtime import RuntimeMetrics
from ..runtime.metrics import snapshot_from_dict
from ..service import ReportStore, ServiceClient, SubmitEnvelope
from ..service.client import ServiceError
from ..service.jobs import OverloadedError, SchedulerClosedError
from .hashing import HashRing
from .protocol import MessageReader
from .worker import DEFAULT_HEARTBEAT_INTERVAL, worker_dirs

#: Default liveness deadline as a multiple of the heartbeat interval:
#: tolerate a few lost beats before declaring death.
LIVENESS_MULTIPLE = 6.0

#: Grace period for a spawning worker to say hello before it is
#: declared dead (process start + imports take real seconds).
DEFAULT_STARTUP_GRACE = 20.0


class FleetShedError(OverloadedError):
    """The degraded fleet is shedding this (low-priority) submission:
    backpressure, answered like a full queue."""

    def __init__(self, priority: int, missing: int, retry_after: float) -> None:
        super().__init__(
            f"fleet is degraded ({missing} worker(s) down); shedding "
            f"priority-{priority} work — retry in ~{retry_after:g}s",
            retry_after,
        )
        self.priority = priority
        self.missing = missing


class NoWorkersError(SchedulerClosedError):
    """No live worker can accept work right now: the fleet is
    unavailable, answered like a closed scheduler."""

    def __init__(self, retry_after: float = 5.0) -> None:
        super().__init__("no live fleet workers; retry later")
        self.retry_after = retry_after


@dataclasses.dataclass
class WorkerRecord:
    """The supervisor's view of one worker slot."""

    worker_id: str
    epoch: int
    handle: object = None
    pid: int | None = None
    http_port: int | None = None
    state: str = "starting"  # starting | live | dead | draining
    started_at: float = 0.0
    last_seen: float | None = None
    beats: int = 0
    status: dict = dataclasses.field(default_factory=dict)
    telemetry: dict | None = None
    failovers: int = 0
    connection: socket.socket | None = dataclasses.field(
        default=None, repr=False
    )

    @property
    def url(self) -> str | None:
        if self.http_port is None:
            return None
        return f"http://127.0.0.1:{self.http_port}"

    def snapshot(self) -> dict:
        return {
            "worker_id": self.worker_id,
            "epoch": self.epoch,
            "pid": self.pid,
            "http_port": self.http_port,
            "state": self.state,
            "last_seen": self.last_seen,
            "beats": self.beats,
            "failovers": self.failovers,
            "status": dict(self.status),
        }


@dataclasses.dataclass
class JobRoute:
    """One accepted job's place in the fleet.

    ``job_id`` is the id the client holds; ``remote_id`` is the id on
    the currently-owning worker (they start equal and diverge when a
    failover re-dispatches the job to a survivor).  ``settled`` is set
    when the *supervisor* terminated the route — completed from the
    shared store after a failover, or found terminal in a fenced
    journal — and is served without touching any worker.
    """

    job_id: str
    worker_id: str | None
    remote_id: str
    envelope: SubmitEnvelope
    store_key: str
    settled: dict | None = None
    redispatches: int = 0
    parked: bool = False
    #: Supervisor-clock admission time.  ``envelope`` always keeps the
    #: *original* submission; a re-dispatch sends a copy whose timeout
    #: is the budget remaining since this instant — a job that burned
    #: 8s of a 10s budget on a dead worker gets 2s on the survivor,
    #: not a fresh 10s.
    admitted_at: float = 0.0


class WorkerBackend:
    """How the supervisor starts and kills workers.

    The contract :meth:`kill` must honour: when it returns, the worker
    can no longer write to its journal directory.  For OS processes
    that means SIGKILL **and wait** — fencing before the kernel has
    reaped the process would race a final buffered append.
    """

    def spawn(self, worker_id: str, epoch: int, control_port: int):
        raise NotImplementedError

    def kill(self, handle) -> None:
        raise NotImplementedError

    def terminate(self, handle) -> None:
        """Graceful stop (SIGTERM-equivalent); used at fleet shutdown."""
        raise NotImplementedError

    def is_alive(self, handle) -> bool:
        raise NotImplementedError


class ProcessWorkerBackend(WorkerBackend):
    """Real OS worker processes via ``python -m repro.fleet.worker``."""

    def __init__(
        self,
        fleet_dir: str | Path,
        *,
        job_workers: int = 2,
        queue_size: int = 64,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        journal_fsync: str = "batch",
        extra_args: tuple[str, ...] = (),
    ) -> None:
        self.fleet_dir = Path(fleet_dir)
        self.job_workers = job_workers
        self.queue_size = queue_size
        self.heartbeat_interval = heartbeat_interval
        self.journal_fsync = journal_fsync
        self.extra_args = tuple(extra_args)

    def spawn(self, worker_id: str, epoch: int, control_port: int):
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            f"{src_root}{os.pathsep}{existing}" if existing else src_root
        )
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.fleet.worker",
                "--id", worker_id,
                "--epoch", str(epoch),
                "--fleet-dir", str(self.fleet_dir),
                "--control-port", str(control_port),
                "--job-workers", str(self.job_workers),
                "--queue-size", str(self.queue_size),
                "--heartbeat-interval", str(self.heartbeat_interval),
                "--journal-fsync", self.journal_fsync,
                *self.extra_args,
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def kill(self, handle) -> None:
        if handle is None or handle.poll() is not None:
            return
        handle.kill()
        try:
            handle.wait(timeout=10.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - kernel lag
            pass

    def terminate(self, handle) -> None:
        if handle is None or handle.poll() is not None:
            return
        handle.terminate()
        try:
            handle.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self.kill(handle)

    def is_alive(self, handle) -> bool:
        return handle is not None and handle.poll() is None


class FleetSupervisor:
    """N supervised workers + control plane + routing + failover."""

    def __init__(
        self,
        fleet_dir: str | Path,
        workers: int = 2,
        *,
        backend: WorkerBackend | None = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        liveness_deadline: float | None = None,
        startup_grace: float = DEFAULT_STARTUP_GRACE,
        restart_dead: bool = True,
        metrics: RuntimeMetrics | None = None,
        event_log: EventLog | None = None,
        clock=time.monotonic,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self.fleet_dir = Path(fleet_dir)
        self.fleet_dir.mkdir(parents=True, exist_ok=True)
        self.size = workers
        self.backend = backend if backend is not None else (
            ProcessWorkerBackend(
                self.fleet_dir, heartbeat_interval=heartbeat_interval
            )
        )
        self.heartbeat_interval = heartbeat_interval
        self.liveness_deadline = (
            liveness_deadline
            if liveness_deadline is not None
            else heartbeat_interval * LIVENESS_MULTIPLE
        )
        self.startup_grace = startup_grace
        self.restart_dead = restart_dead
        self.metrics = metrics if metrics is not None else RuntimeMetrics()
        self.events = event_log if event_log is not None else EventLog()
        self.health = HealthMonitor()
        self.clock = clock
        #: The fleet's shared read-through result tier: any worker (and
        #: the supervisor itself, at failover time) reads and writes the
        #: same content-addressed spool.
        self.store = ReportStore(
            directory=self.fleet_dir / "spool", metrics=self.metrics
        )
        self.ring = HashRing()
        self._lock = threading.RLock()
        self._records: dict[str, WorkerRecord] = {}
        self._routes: dict[str, JobRoute] = {}
        self._by_idempotency: dict[str, str] = {}
        self._parked: deque[str] = deque()
        self._clients: dict[str, ServiceClient] = {}
        self._listener: socket.socket | None = None
        self.control_port: int | None = None
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self.failovers_total = 0
        self.redispatched_total = 0
        self.completed_from_store_total = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Bind the control plane and spawn the initial fleet."""
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(self.size * 2 + 4)
        self.control_port = self._listener.getsockname()[1]
        accept = threading.Thread(
            target=self._accept_loop, name="fleet-accept", daemon=True
        )
        accept.start()
        self._threads.append(accept)
        for index in range(self.size):
            self._spawn(f"w{index}", 1)
        monitor = threading.Thread(
            target=self._monitor_loop, name="fleet-monitor", daemon=True
        )
        monitor.start()
        self._threads.append(monitor)

    def _spawn(self, worker_id: str, epoch: int) -> None:
        record = WorkerRecord(
            worker_id=worker_id,
            epoch=epoch,
            state="starting",
            started_at=self.clock(),
        )
        # Register before spawning: a fast worker's hello must find its
        # record, or it would be rejected as unknown and told to die.
        with self._lock:
            self._records[worker_id] = record
            self.ring.add(worker_id)
        record.handle = self.backend.spawn(
            worker_id, epoch, self.control_port
        )
        self.events.emit(
            "fleet.worker.spawned", worker_id=worker_id, epoch=epoch
        )

    def close(self) -> None:
        """Stop monitoring, drain workers gracefully, close the plane."""
        self._stop.set()
        with self._lock:
            records = list(self._records.values())
        for record in records:
            if record.state in ("live", "starting"):
                self.backend.terminate(record.handle)
                record.state = "draining"
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass

    # -- control plane -----------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            thread = threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                name="fleet-conn",
                daemon=True,
            )
            thread.start()

    def _serve_connection(self, connection: socket.socket) -> None:
        reader = MessageReader(connection)
        record: WorkerRecord | None = None
        try:
            while True:
                message = reader.read()
                if message is None:
                    return
                kind = message["type"]
                if kind == "hello":
                    record = self._register(message, connection)
                    if record is None:
                        return  # stale epoch: connection closed, zombie dies
                elif record is not None:
                    if message.get("epoch") != record.epoch:
                        continue  # a fenced predecessor's stragglers
                    if kind == "heartbeat":
                        self._heartbeat(record, message)
                    elif kind == "goodbye":
                        with self._lock:
                            record.state = "draining"
                        self.events.emit(
                            "fleet.worker.goodbye",
                            worker_id=record.worker_id,
                            epoch=record.epoch,
                        )
        finally:
            try:
                connection.close()
            except OSError:
                pass

    def _register(
        self, message: dict, connection: socket.socket
    ) -> WorkerRecord | None:
        worker_id = message.get("worker_id", "")
        epoch = int(message.get("epoch", 0))
        with self._lock:
            record = self._records.get(worker_id)
            if record is None or epoch != record.epoch:
                # Unknown worker or a zombie from a fenced epoch:
                # closing the connection orders it to shut down.
                self.events.emit(
                    "fleet.worker.rejected",
                    worker_id=worker_id,
                    epoch=epoch,
                    expected=record.epoch if record else None,
                )
                return None
            record.pid = int(message.get("pid", 0)) or None
            record.http_port = int(message.get("http_port", 0)) or None
            record.state = "live"
            record.last_seen = self.clock()
            record.connection = connection
            self._clients.pop(worker_id, None)
        self.metrics.set_gauge("fleet_worker_up", 1.0, worker=worker_id)
        self.events.emit(
            "fleet.worker.live",
            worker_id=worker_id,
            epoch=epoch,
            pid=record.pid,
            http_port=record.http_port,
        )
        self._refresh_degradation()
        self._drain_parked()
        return record

    def _heartbeat(self, record: WorkerRecord, message: dict) -> None:
        with self._lock:
            record.last_seen = self.clock()
            record.beats += 1
            record.status = message.get("status") or {}
            if message.get("telemetry") is not None:
                record.telemetry = message["telemetry"]
        status = record.status
        self.metrics.set_gauge(
            "fleet_worker_queue_depth",
            float(status.get("queue_depth", 0)),
            worker=record.worker_id,
        )
        self.metrics.set_gauge(
            "fleet_worker_running",
            float(status.get("running", 0)),
            worker=record.worker_id,
        )

    # -- liveness + failover ----------------------------------------------

    def _monitor_loop(self) -> None:
        interval = max(0.01, self.heartbeat_interval / 2.0)
        while not self._stop.wait(interval):
            self._check_liveness()
            self._drain_parked()

    def _check_liveness(self) -> None:
        now = self.clock()
        doomed: list[WorkerRecord] = []
        with self._lock:
            for record in self._records.values():
                if record.state == "live":
                    silent = (
                        record.last_seen is not None
                        and now - record.last_seen > self.liveness_deadline
                    )
                    if silent or not self.backend.is_alive(record.handle):
                        doomed.append(record)
                elif record.state == "starting":
                    if (
                        now - record.started_at > self.startup_grace
                        and not self.backend.is_alive(record.handle)
                    ):
                        doomed.append(record)
        for record in doomed:
            self.failover(record.worker_id, reason="liveness")

    def failover(self, worker_id: str, *, reason: str = "manual") -> dict:
        """Kill, fence, replay, re-dispatch one worker.  Idempotent per
        epoch: a second call for an already-dead epoch is a no-op."""
        with self._lock:
            record = self._records.get(worker_id)
            if record is None or record.state == "dead":
                return {"worker_id": worker_id, "skipped": True}
            record.state = "dead"
            epoch = record.epoch
            record.failovers += 1
            self.failovers_total += 1
        self.metrics.set_gauge("fleet_worker_up", 0.0, worker=worker_id)
        self.metrics.increment("fleet_failovers", reason=reason)
        self.events.emit(
            "fleet.worker.failover",
            worker_id=worker_id,
            epoch=epoch,
            reason=reason,
        )
        # 1. Make death a fact, not a hypothesis.
        self.backend.kill(record.handle)
        with self._lock:
            connection = record.connection
            record.connection = None
        if connection is not None:
            try:
                connection.close()
            except OSError:
                pass
        self._refresh_degradation()
        # 2. Fence the journal, 3. replay it, 4. settle/re-dispatch.
        summary = self._recover_worker_jobs(worker_id, epoch)
        summary.update(
            {"worker_id": worker_id, "epoch": epoch, "reason": reason}
        )
        # 5. Restart at the next epoch (policy-gated).
        if self.restart_dead and not self._stop.is_set():
            self._spawn(worker_id, epoch + 1)
        return summary

    def fence_journal(self, worker_id: str, epoch: int) -> Path | None:
        """Atomically retire the worker's journal directory."""
        journal_dir, _ = worker_dirs(self.fleet_dir, worker_id)
        if not journal_dir.is_dir():
            return None
        fenced = journal_dir.with_name(f"journal-fenced-{epoch}")
        journal_dir.rename(fenced)
        return fenced

    def _recover_worker_jobs(self, worker_id: str, epoch: int) -> dict:
        fenced = self.fence_journal(worker_id, epoch)
        replayed_jobs: dict = {}
        if fenced is not None:
            journal = JobJournal(fenced)
            try:
                manager = RecoveryManager(journal, self.store)
                replayed_jobs = manager.replay().jobs
            finally:
                journal.close()
        with self._lock:
            owned = [
                route
                for route in self._routes.values()
                if route.worker_id == worker_id and route.settled is None
            ]
        settled = redispatched = parked = exhausted = 0
        for route in owned:
            state = replayed_jobs.get(route.remote_id)
            if state is not None and state.is_settled:
                doc = state.settled
                route.settled = {
                    "state": doc.get("state", "failed"),
                    "error": doc.get("error"),
                    "store_key": state.store_key or route.store_key,
                }
                route.worker_id = None
                settled += 1
                continue
            if self.store.contains(route.store_key):
                # The result landed in the shared spool before the
                # settled record could: serve it, never re-execute.
                route.settled = {
                    "state": "done",
                    "store_key": route.store_key,
                    "from_store": True,
                }
                route.worker_id = None
                settled += 1
                self.completed_from_store_total += 1
                self.metrics.increment("fleet_completed_from_store")
                continue
            remaining = self._remaining_budget(route)
            if remaining is not None and remaining <= 0:
                self._fail_exhausted(route)
                exhausted += 1
                continue
            if self._redispatch(route, exclude={worker_id}):
                redispatched += 1
            elif route.settled is not None:
                exhausted += 1
            else:
                parked += 1
        self.events.emit(
            "fleet.failover.recovered",
            worker_id=worker_id,
            epoch=epoch,
            settled=settled,
            redispatched=redispatched,
            parked=parked,
            deadline_exhausted=exhausted,
        )
        return {
            "settled": settled,
            "redispatched": redispatched,
            "parked": parked,
            "deadline_exhausted": exhausted,
            "fenced": str(fenced) if fenced is not None else None,
        }

    def _remaining_budget(self, route: JobRoute) -> float | None:
        """Seconds left of the route's original execution budget.

        ``None`` for unbounded submissions.  Measured from admission on
        the supervisor's clock, so time burned on a dead worker — and
        time spent parked — counts against the budget.
        """
        timeout = route.envelope.timeout
        if timeout is None:
            return None
        return timeout - (self.clock() - route.admitted_at)

    def _fail_exhausted(self, route: JobRoute) -> None:
        """Settle a route whose budget died with its worker(s)."""
        with self._lock:
            route.settled = {
                "state": "failed",
                "error": (
                    f"timed out after {route.envelope.timeout:g}s "
                    "(budget exhausted across failover)"
                ),
            }
            route.worker_id = None
            route.parked = False
        self.metrics.increment("fleet_deadline_exhausted")
        self.events.emit(
            "fleet.job.deadline_exhausted",
            job_id=route.job_id,
            timeout=route.envelope.timeout,
            redispatches=route.redispatches,
        )

    def _redispatch(self, route: JobRoute, exclude: set[str]) -> bool:
        """Send a route's envelope — with its *remaining* budget — to a
        ring survivor."""
        remaining = self._remaining_budget(route)
        if remaining is not None and remaining <= 0:
            self._fail_exhausted(route)
            return False
        target = self._assign(route.store_key, exclude=exclude)
        if target is None:
            with self._lock:
                route.parked = True
                route.worker_id = None
                self._parked.append(route.job_id)
            return False
        client = self._client(target)
        if client is None:
            with self._lock:
                route.parked = True
                route.worker_id = None
                self._parked.append(route.job_id)
            return False
        envelope = route.envelope
        if remaining is not None:
            # The successor receives only what is left of the original
            # budget; the route keeps the pristine envelope so a second
            # failover subtracts from the same anchor.
            envelope = dataclasses.replace(envelope, timeout=remaining)
        try:
            job = client.submit_envelope(envelope)
        except (ServiceError, OSError):
            with self._lock:
                route.parked = True
                route.worker_id = None
                self._parked.append(route.job_id)
            return False
        with self._lock:
            route.worker_id = target
            route.remote_id = job["id"]
            route.parked = False
            route.redispatches += 1
            self.redispatched_total += 1
        self.metrics.increment("fleet_redispatched")
        self.events.emit(
            "fleet.job.redispatched",
            job_id=route.job_id,
            worker_id=target,
            remote_id=job["id"],
            idempotency_key=route.envelope.idempotency_key,
        )
        return True

    def _drain_parked(self) -> None:
        """Retry parked routes once capacity returns."""
        while True:
            with self._lock:
                if not self._parked or not self._live_ids():
                    return
                job_id = self._parked.popleft()
                route = self._routes.get(job_id)
            if route is None or route.settled is not None or not route.parked:
                continue
            if not self._redispatch(route, exclude=set()):
                if route.settled is not None:
                    # Budget ran out while parked: the route failed,
                    # but the next parked job may still have time left.
                    continue
                return  # went straight back to the park queue; stop

    def _refresh_degradation(self) -> None:
        with self._lock:
            live = len(self._live_ids())
        degraded = live < self.size
        self.health.set_fleet_degraded(degraded)
        self.metrics.set_gauge("fleet_workers_live", float(live))
        self.metrics.set_gauge("fleet_workers_total", float(self.size))

    # -- routing -----------------------------------------------------------

    def _live_ids(self) -> set[str]:
        return {
            worker_id
            for worker_id, record in self._records.items()
            if record.state == "live"
        }

    def _assign(self, store_key: str, exclude: set[str]) -> str | None:
        with self._lock:
            dead = {
                worker_id
                for worker_id, record in self._records.items()
                if record.state != "live"
            }
        return self.ring.assign(store_key, exclude=dead | exclude)

    def _client(self, worker_id: str) -> ServiceClient | None:
        with self._lock:
            record = self._records.get(worker_id)
            if record is None or record.url is None:
                return None
            client = self._clients.get(worker_id)
            if client is None:
                client = self._clients[worker_id] = ServiceClient(
                    record.url, timeout=30.0
                )
            return client

    def missing_workers(self) -> int:
        with self._lock:
            return max(0, self.size - len(self._live_ids()))

    def dispatch(self, envelope: SubmitEnvelope, store_key: str) -> JobRoute:
        """Admit one submission into the fleet.

        Warm content short-circuits to the shared store; while degraded,
        work whose priority is below the number of missing workers is
        shed with an explicit retry hint (:class:`FleetShedError`);
        everything else routes to the consistent-hash owner of the
        job's content key.  Repeated idempotency keys return the
        original route — the fleet-level dedup window.
        """
        with self._lock:
            existing_id = self._by_idempotency.get(envelope.idempotency_key)
            if existing_id is not None:
                return self._routes[existing_id]
        if self.store.contains(store_key):
            route = JobRoute(
                job_id=f"fl-{envelope.idempotency_key[:12]}",
                worker_id=None,
                remote_id="",
                envelope=envelope,
                store_key=store_key,
                settled={
                    "state": "done",
                    "store_key": store_key,
                    "from_store": True,
                },
                admitted_at=self.clock(),
            )
            self._remember(route)
            self.metrics.increment("fleet_jobs_from_store")
            return route
        missing = self.missing_workers()
        if missing > 0 and envelope.priority < missing:
            retry_after = self.startup_grace if self.restart_dead else 30.0
            self.metrics.increment("fleet_jobs_shed")
            raise FleetShedError(envelope.priority, missing, retry_after)
        target = self._assign(store_key, exclude=set())
        if target is None:
            raise NoWorkersError()
        client = self._client(target)
        if client is None:
            raise NoWorkersError()
        job = client.submit_envelope(envelope)
        route = JobRoute(
            job_id=job["id"],
            worker_id=target,
            remote_id=job["id"],
            envelope=envelope,
            store_key=store_key,
            admitted_at=self.clock(),
        )
        self._remember(route)
        self.metrics.increment("fleet_jobs_routed")
        self.events.emit(
            "fleet.job.routed",
            job_id=route.job_id,
            worker_id=target,
            idempotency_key=envelope.idempotency_key,
        )
        return route

    def _remember(self, route: JobRoute) -> None:
        with self._lock:
            self._routes[route.job_id] = route
            if route.envelope.idempotency_key:
                self._by_idempotency[route.envelope.idempotency_key] = (
                    route.job_id
                )

    def route(self, job_id: str) -> JobRoute | None:
        with self._lock:
            return self._routes.get(job_id)

    def routes(self) -> list[JobRoute]:
        """Every accepted route (the chaos harness's post-mortem view)."""
        with self._lock:
            return list(self._routes.values())

    def route_for_key(self, idempotency_key: str) -> JobRoute | None:
        with self._lock:
            job_id = self._by_idempotency.get(idempotency_key)
            return self._routes.get(job_id) if job_id is not None else None

    # -- job views (what the front end serves) -----------------------------

    def _settled_doc(self, route: JobRoute) -> dict:
        settled = route.settled or {}
        return {
            "id": route.job_id,
            "kind": route.envelope.kind,
            "scenario": route.envelope.scenario,
            "quality": route.envelope.quality,
            "priority": route.envelope.priority,
            "state": settled.get("state", "done"),
            "error": settled.get("error"),
            "from_store": bool(settled.get("from_store")),
            "idempotency_key": route.envelope.idempotency_key,
            "fleet": {"worker": None, "redispatches": route.redispatches},
        }

    def job_doc(self, job_id: str) -> dict | None:
        """The job's status view, proxied to its owner when live."""
        route = self.route(job_id)
        if route is None:
            return None
        if route.settled is not None:
            return self._settled_doc(route)
        if route.parked or route.worker_id is None:
            return {
                "id": route.job_id,
                "kind": route.envelope.kind,
                "scenario": route.envelope.scenario,
                "state": "queued",
                "fleet": {"worker": None, "parked": True},
            }
        client = self._client(route.worker_id)
        if client is None:
            return {"id": route.job_id, "state": "queued", "fleet": {}}
        try:
            doc = client.status(route.remote_id)
        except (ServiceError, OSError):
            return {
                "id": route.job_id,
                "state": "queued",
                "fleet": {"worker": route.worker_id, "unreachable": True},
            }
        doc["id"] = route.job_id
        doc["fleet"] = {
            "worker": route.worker_id,
            "remote_id": route.remote_id,
            "redispatches": route.redispatches,
        }
        return doc

    def result_doc(self, job_id: str) -> tuple[int, dict] | None:
        """``(http_status, body)`` for ``GET /jobs/<id>/result``."""
        route = self.route(job_id)
        if route is None:
            return None
        if route.settled is not None:
            state = route.settled.get("state", "done")
            if state == "done":
                result = self.store.get(
                    route.settled.get("store_key") or route.store_key
                )
                if result is None:
                    return 500, {
                        "job": self._settled_doc(route),
                        "error": "settled result missing from the shared "
                        "store",
                    }
                return 200, {
                    "job": self._settled_doc(route),
                    "result": result,
                }
            if state == "cancelled":
                return 410, {
                    "job": self._settled_doc(route),
                    "error": "cancelled",
                }
            return 500, {
                "job": self._settled_doc(route),
                "error": route.settled.get("error") or "job failed",
            }
        if route.parked or route.worker_id is None:
            return 202, {"job": self.job_doc(job_id)}
        client = self._client(route.worker_id)
        if client is None:
            return 202, {"job": self.job_doc(job_id)}
        try:
            result = client.result(route.remote_id, wait=False)
        except TimeoutError:
            return 202, {"job": self.job_doc(job_id)}
        except ServiceError as exc:
            if exc.status in (410, 500):
                return exc.status, {
                    "job": self.job_doc(job_id),
                    "error": str(exc),
                }
            return 202, {"job": self.job_doc(job_id)}
        except OSError:
            return 202, {"job": self.job_doc(job_id)}
        return 200, {"job": self.job_doc(job_id), "result": result}

    def cancel(self, job_id: str) -> dict | None:
        route = self.route(job_id)
        if route is None:
            return None
        if route.settled is not None:
            return self._settled_doc(route)
        if route.worker_id is not None:
            client = self._client(route.worker_id)
            if client is not None:
                try:
                    doc = client.cancel(route.remote_id)
                    doc["id"] = route.job_id
                    return doc
                except (ServiceError, OSError):
                    pass
        route.settled = {"state": "cancelled"}
        route.parked = False
        return self._settled_doc(route)

    # -- fleet views -------------------------------------------------------

    def merged_metrics(self) -> RuntimeMetrics:
        """A fresh metrics instance folding every worker's latest
        telemetry blob over the supervisor's own counters.

        A blob that does not decode or merge is counted on
        ``worker_telemetry_dropped``, a good one on
        ``worker_telemetry_merged``."""
        merged = RuntimeMetrics()
        merged.merge_snapshot(self.metrics.snapshot())
        with self._lock:
            blobs = [
                (record.worker_id, record.telemetry)
                for record in self._records.values()
                if record.telemetry is not None
            ]
        for worker_id, blob in blobs:
            try:
                snapshot = snapshot_from_dict(blob.get("metrics") or {})
                merged.merge_snapshot(snapshot)
            except (AttributeError, KeyError, TypeError, ValueError):
                merged.increment("worker_telemetry_dropped")
                continue
            merged.increment("worker_telemetry_merged")
            merged.set_gauge(
                "fleet_worker_jobs_submitted",
                float(snapshot.counter("jobs_submitted")),
                worker=worker_id,
            )
        return merged

    def status(self) -> dict:
        """The ``efes fleet status`` / ``GET /fleet/status`` document."""
        with self._lock:
            workers = [
                record.snapshot() for record in self._records.values()
            ]
            routes = len(self._routes)
            parked = sum(
                1 for route in self._routes.values() if route.parked
            )
            settled = sum(
                1
                for route in self._routes.values()
                if route.settled is not None
            )
        live = sum(1 for worker in workers if worker["state"] == "live")
        return {
            "fleet_dir": str(self.fleet_dir),
            "size": self.size,
            "live": live,
            "degraded": live < self.size,
            "health": self.health.snapshot(),
            "control_port": self.control_port,
            "workers": sorted(workers, key=lambda w: w["worker_id"]),
            "jobs": {
                "routed": routes,
                "parked": parked,
                "supervisor_settled": settled,
                "redispatched": self.redispatched_total,
                "completed_from_store": self.completed_from_store_total,
            },
            "failovers": self.failovers_total,
        }
