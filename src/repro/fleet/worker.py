"""One fleet worker process: a full assessment service + a heartbeat.

``python -m repro.fleet.worker --id w0 --epoch 1 --fleet-dir D
--control-port P`` builds the same stack ``efes serve`` runs — a
:class:`~repro.service.JobScheduler` over its **own**
:class:`~repro.durability.JobJournal` segment directory
(``<fleet-dir>/workers/<id>/journal``) and the fleet's **shared**
read-through :class:`~repro.service.ReportStore` spool
(``<fleet-dir>/spool``) — serves it on an ephemeral HTTP port, then
dials the supervisor's control socket and announces itself.

The journal split is the exactly-once foundation: each worker owns its
write-ahead log exclusively, so the supervisor can fence a dead
worker's journal (rename — atomic, and the kill preceding it guarantees
no straggling append) and replay it read-only without coordinating with
anything.  The shared spool makes results fleet-global: any worker
serves any warm result, and a re-dispatched job whose first execution
already spooled its document settles from the store instead of running
twice.

Lifecycle: heartbeats carry queue/health status every beat and a full
metrics snapshot every few beats; SIGTERM (or the control connection
closing — the supervisor's "you are fenced, die") drains gracefully.
``--drop-heartbeats-after N`` is the chaos hook: the worker keeps
serving but goes silent on the control plane, exercising the
supervisor's liveness deadline against a *live* worker.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import sys
import threading
from pathlib import Path

from ..durability import FlushPolicy, JobJournal
from ..runtime import Runtime
from ..service import JobScheduler, ReportStore, make_server
from .protocol import (
    MessageReader,
    goodbye_message,
    heartbeat_message,
    hello_message,
    send_message,
)

#: Default heartbeat cadence (seconds); the supervisor's liveness
#: deadline defaults to several multiples of this.
DEFAULT_HEARTBEAT_INTERVAL = 0.5

#: A full metrics snapshot rides every Nth heartbeat (status rides all).
TELEMETRY_EVERY = 4


def worker_dirs(fleet_dir: str | Path, worker_id: str) -> tuple[Path, Path]:
    """``(journal_dir, shared_spool_dir)`` for one worker of a fleet."""
    root = Path(fleet_dir)
    return root / "workers" / worker_id / "journal", root / "spool"


class FleetWorker:
    """The in-process half of a worker: stack + control-plane client."""

    def __init__(
        self,
        worker_id: str,
        epoch: int,
        fleet_dir: str | Path,
        control_port: int,
        *,
        control_host: str = "127.0.0.1",
        job_workers: int = 2,
        queue_size: int = 64,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        telemetry_every: int = TELEMETRY_EVERY,
        drop_heartbeats_after: int | None = None,
        journal_fsync: str = "batch",
    ) -> None:
        self.worker_id = worker_id
        self.epoch = epoch
        self.fleet_dir = Path(fleet_dir)
        self.control_host = control_host
        self.control_port = control_port
        self.heartbeat_interval = heartbeat_interval
        self.telemetry_every = max(1, telemetry_every)
        self.drop_heartbeats_after = drop_heartbeats_after
        journal_dir, spool_dir = worker_dirs(self.fleet_dir, worker_id)
        self.runtime = Runtime()
        self.store = ReportStore(
            directory=spool_dir, metrics=self.runtime.metrics
        )
        self.journal = JobJournal(
            journal_dir,
            flush=FlushPolicy.parse(journal_fsync),
            metrics=self.runtime.metrics,
        )
        self.scheduler = JobScheduler(
            runtime=self.runtime,
            store=self.store,
            workers=job_workers,
            max_queue=queue_size,
            journal=self.journal,
        )
        self.server = make_server(self.scheduler, host="127.0.0.1", port=0)
        self.http_port = self.server.server_address[1]
        self._stop = threading.Event()
        self._sock: socket.socket | None = None
        self._beats = 0

    # -- control plane -----------------------------------------------------

    def connect(self) -> None:
        self._sock = socket.create_connection(
            (self.control_host, self.control_port), timeout=10.0
        )
        # The timeout bounds connecting only: the supervisor sends
        # nothing, so a timed-out read would look like its EOF and stop
        # an idle worker.
        self._sock.settimeout(None)
        send_message(
            self._sock,
            hello_message(
                self.worker_id, self.epoch, os.getpid(), self.http_port
            ),
        )
        # The supervisor closing this connection is an order to die:
        # either it is gone (orphaned workers must not linger) or this
        # epoch was fenced and a successor owns the journal name.
        watcher = threading.Thread(
            target=self._watch_control, name="fleet-control-watch", daemon=True
        )
        watcher.start()

    def _watch_control(self) -> None:
        reader = MessageReader(self._sock)
        while reader.read() is not None:
            pass  # the supervisor sends nothing today; EOF is the signal
        self._stop.set()

    def _status(self) -> dict:
        stats = self.scheduler.stats()
        return {
            "state": self.scheduler.health.state.value,
            "queue_depth": stats["queue_depth"],
            "running": stats["running"],
            "completed_jobs": stats["completed_jobs"],
            "open": stats["open"],
        }

    def _telemetry(self) -> dict:
        return {
            "pid": os.getpid(),
            "metrics": self.runtime.metrics.snapshot().to_dict(),
        }

    def heartbeat_loop(self) -> None:
        """Send heartbeats until stopped; silent after the drop point."""
        while not self._stop.wait(self.heartbeat_interval):
            self._beats += 1
            if (
                self.drop_heartbeats_after is not None
                and self._beats > self.drop_heartbeats_after
            ):
                continue  # chaos: alive but mute on the control plane
            telemetry = (
                self._telemetry()
                if self._beats % self.telemetry_every == 0
                else None
            )
            try:
                send_message(
                    self._sock,
                    heartbeat_message(
                        self.worker_id,
                        self.epoch,
                        self._beats,
                        status=self._status(),
                        telemetry=telemetry,
                    ),
                )
            except OSError:
                self._stop.set()  # control plane gone: shut down

    # -- lifecycle ---------------------------------------------------------

    def serve(self) -> int:
        """Run until SIGTERM / control-plane EOF; drain; exit 0."""
        http_thread = threading.Thread(
            target=self.server.serve_forever,
            name="fleet-worker-http",
            daemon=True,
        )
        http_thread.start()
        self.connect()
        self.heartbeat_loop()
        return self.shutdown()

    def stop(self) -> None:
        self._stop.set()

    def shutdown(self) -> int:
        if self._sock is not None:
            try:
                send_message(
                    self._sock,
                    goodbye_message(self.worker_id, self.epoch),
                )
                self._sock.close()
            except OSError:
                pass
        self.server.shutdown()
        self.server.server_close()
        self.scheduler.close(wait=True, timeout=5.0)
        return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.fleet.worker")
    parser.add_argument("--id", dest="worker_id", required=True)
    parser.add_argument("--epoch", type=int, required=True)
    parser.add_argument("--fleet-dir", required=True)
    parser.add_argument("--control-port", type=int, required=True)
    parser.add_argument("--control-host", default="127.0.0.1")
    parser.add_argument("--job-workers", type=int, default=2)
    parser.add_argument("--queue-size", type=int, default=64)
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=DEFAULT_HEARTBEAT_INTERVAL,
    )
    parser.add_argument(
        "--drop-heartbeats-after",
        type=int,
        default=None,
        help="chaos hook: go silent on the control plane after N beats "
        "while continuing to serve jobs",
    )
    parser.add_argument("--journal-fsync", default="batch")
    args = parser.parse_args(argv)
    worker = FleetWorker(
        args.worker_id,
        args.epoch,
        args.fleet_dir,
        args.control_port,
        control_host=args.control_host,
        job_workers=args.job_workers,
        queue_size=args.queue_size,
        heartbeat_interval=args.heartbeat_interval,
        drop_heartbeats_after=args.drop_heartbeats_after,
        journal_fsync=args.journal_fsync,
    )
    signal.signal(signal.SIGTERM, lambda signum, frame: worker.stop())
    print(
        f"fleet worker {args.worker_id} epoch {args.epoch} "
        f"pid {os.getpid()} serving on 127.0.0.1:{worker.http_port}",
        flush=True,
    )
    return worker.serve()


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
