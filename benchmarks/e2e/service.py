"""Service workloads: ``python -m repro serve`` in its own process, load here.

Load comes from this one process with at most two threads, the host's
core count: two closed-loop ``ServiceClient`` threads on service-cold, one
event-loop thread sending on the open-loop schedule on service-mixed.
The service, the load and a probe process that samples the CPU's speed
and the time the hypervisor stole from it all run pinned to one CPU.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path

import answers
import layers
import workloads
from common import (
    HERE,
    PROGRAM_CPU,
    ROOT,
    SETUP_STARTS,
    child_env,
    normalised,
    peak_rss_mb,
    percentile,
    pin,
    stop_process,
)

POLL_INTERVAL = 0.01
CLIENT_THREADS = 2
#: A job not finished this long after its window closed counts as failed.
DRAIN_SECONDS = 60.0
#: Traced runs replay the leaf layers of this share of the completed jobs.
REPLAYED_SHARE = 0.25
#: service-cold reads the server's peak RSS when this many jobs (16 seeds'
#: catalogues) are done, and runs at least that long.  The server keeps
#: every catalogue it builds, so a later reading would measure how far a
#: run got: more on a faster commit, or when the host happens to be fast.
RSS_AFTER_JOBS = 128


class Server:
    """One ``efes serve`` process: serial backend, 2 job slots, batch flush."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.process: subprocess.Popen | None = None
        self.url = ""

    def start(self) -> tuple[float, float]:
        """Spawn the server; when it started and when ``/healthz`` said 200."""
        self.directory.mkdir(parents=True)
        log = self.directory / "stdout.log"
        started = time.perf_counter()
        with open(log, "w", encoding="utf-8") as out:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "--backend", "serial",
                    "serve", "--port", "0", "--job-workers", "2",
                    "--spool", str(self.directory / "spool"),
                    "--journal-dir", str(self.directory / "journal"),
                ],
                env=child_env(), cwd=ROOT, stdout=out, stderr=subprocess.STDOUT,
            )
        limit = started + 60.0
        while not self.url:
            self._check_alive(limit, log)
            for line in log.read_text(encoding="utf-8").splitlines():
                if " listening on " in line:
                    self.url = line.split(" listening on ", 1)[1].split()[0]
            time.sleep(0.002)
        while True:
            self._check_alive(limit, log)
            try:
                with urllib.request.urlopen(f"{self.url}/healthz", timeout=5) as reply:
                    if reply.status == 200:
                        return started, time.perf_counter()
            except (urllib.error.URLError, OSError):
                pass
            time.sleep(0.002)

    def _check_alive(self, limit: float, log: Path) -> None:
        if self.process.poll() is not None or time.perf_counter() > limit:
            self.stop()
            raise RuntimeError(
                f"service did not come up:\n{log.read_text(encoding='utf-8')}"
            )

    def stop(self) -> None:
        if self.process is not None:
            stop_process(self.process)


def start_measured(workdir: Path) -> tuple[Server, list[tuple[float, float]]]:
    """``SETUP_STARTS`` cold starts; the last server stays up for the run."""
    intervals = []
    for index in range(SETUP_STARTS):
        server = Server(workdir / f"server-{index}")
        intervals.append(server.start())
        if index + 1 < SETUP_STARTS:
            server.stop()
    return server, intervals


class SpeedTrace:
    """The probe samples of the CPU the service ran on, in time order."""

    #: Samples this close to an interval count towards it.
    MARGIN = 0.1

    def __init__(self, path: Path) -> None:
        rows = [line.split() for line in path.read_text(encoding="ascii").splitlines()]
        self.samples = sorted(tuple(map(float, row)) for row in rows if len(row) == 3)
        self.times = [t for t, _, _ in self.samples]

    def probe(self, start: float, end: float) -> float:
        low = bisect.bisect_left(self.times, start - self.MARGIN)
        high = bisect.bisect_right(self.times, end + self.MARGIN)
        inside = [p for _, p, _ in self.samples[low:high]]
        if inside:
            return statistics.fmean(inside)
        middle = (start + end) / 2
        return min(self.samples, key=lambda sample: abs(sample[0] - middle))[1]

    def _stolen_at(self, when: float) -> float:
        """The steal counter at ``when``, interpolated between samples."""
        index = bisect.bisect_left(self.times, when)
        if index == 0:
            return self.samples[0][2]
        if index == len(self.samples):
            return self.samples[-1][2]
        (t0, _, s0), (t1, _, s1) = self.samples[index - 1], self.samples[index]
        return s0 + (s1 - s0) * (when - t0) / (t1 - t0)

    def stolen_share(self, start: float, end: float) -> float:
        """The share of the interval, with its margins, the hypervisor took.

        The counter moves in 10 ms ticks, too coarse for one 2 ms request,
        so the share is taken over the margins too, as the probe is.
        """
        low, high = start - self.MARGIN, end + self.MARGIN
        return (self._stolen_at(high) - self._stolen_at(low)) / (high - low)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second over the interval, less steal."""
        unstolen = 1.0 - self.stolen_share(start, end)
        return normalised(unstolen, self.probe(start, end))

    def normalised(self, start: float, end: float) -> float:
        """``end - start`` at the reference speed, less the stolen share."""
        return (end - start) * self.scale(start, end)


def _client(url: str):
    from repro.service import ServiceClient

    return ServiceClient(url, timeout=60.0)


def _submit(client, job: workloads.Job) -> dict:
    return client.submit(job.name, quality=job.quality, seed=job.post_seed)


def _poll_once(client, job_id: str) -> dict | None:
    try:
        return client.result(job_id, wait=False)
    except TimeoutError:
        return None


def _settle(client, entry: dict) -> None:
    """Poll every ``POLL_INTERVAL`` until the job's result arrives."""
    deadline = time.perf_counter() + DRAIN_SECONDS
    while entry.get("doc") is None:
        if time.perf_counter() > deadline:
            raise TimeoutError(f"job {entry['id']} did not finish")
        doc = _poll_once(client, entry["id"])
        if doc is None:
            entry["polls"] += 1
            time.sleep(POLL_INTERVAL)
        else:
            entry["doc"], entry["done"] = doc, time.perf_counter()


def _closed_loop_job(client, job: workloads.Job) -> dict:
    entry = {"job": job, "polls": 0, "doc": None, "start": time.perf_counter()}
    snapshot = _submit(client, job)
    entry.update(
        id=snapshot["id"], submitted=time.perf_counter(),
        from_store=snapshot["from_store"],
    )
    _settle(client, entry)
    return entry


def _run_closed_loop(server: Server, jobs) -> tuple[list[dict], float | None]:
    """Two clients, each sending its next job when the last one finished.

    Returns the jobs and the server's peak RSS after ``RSS_AFTER_JOBS``.
    """
    from repro.service import ServiceError

    queue = iter(jobs)
    lock = threading.Lock()
    entries: list[dict] = []
    rss = []
    end = time.perf_counter() + workloads.WINDOW_SECONDS

    def client_loop() -> None:
        client = _client(server.url)
        while time.perf_counter() < end or len(entries) < RSS_AFTER_JOBS:
            with lock:
                job = next(queue, None)
            if job is None:
                return
            try:
                entry = _closed_loop_job(client, job)
            except (ServiceError, TimeoutError) as exc:
                entry = {"job": job, "error": f"{job.key}: {exc}"}
            with lock:
                entries.append(entry)
                if len(entries) == RSS_AFTER_JOBS:
                    rss.append(peak_rss_mb(server.process.pid))

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return entries, (rss[0] if rss else None)


async def _http(host: str, port: int, method: str, path: str, body=None):
    """One HTTP/1.1 exchange on its own connection: ``(status, document)``."""
    payload = json.dumps(body).encode("utf-8") if body is not None else b""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
            .encode("ascii") + payload
        )
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        length = 0
        while (line := await reader.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, json.loads(await reader.readexactly(length) or b"{}")
    finally:
        writer.close()
        await writer.wait_closed()


async def _arrival(host: str, port: int, entry: dict) -> None:
    """Send one job when it is due, then poll until its result arrives."""
    job = entry["job"]
    # The event loop sleeps in whole milliseconds and wakes up to 1 ms
    # late, a third of a stored result's latency, so it sleeps to just
    # before the due time and yields from there on.
    await asyncio.sleep(max(0.0, entry["start"] - time.perf_counter() - 0.002))
    while time.perf_counter() < entry["start"]:
        await asyncio.sleep(0)
    entry["sent"] = time.perf_counter()
    try:
        await _submit_and_poll(host, port, entry)
    except (OSError, ValueError, IndexError) as exc:
        entry["error"] = f"{job.key}: {exc!r}"


async def _submit_and_poll(host: str, port: int, entry: dict) -> None:
    job = entry["job"]
    body = {"scenario": job.name, "kind": "estimate",
            "quality": job.quality, "seed": job.post_seed}
    status, doc = await _http(host, port, "POST", "/jobs", body)
    if status != 202:
        entry["error"] = f"{job.key}: submit answered {status}: {doc}"
        return
    entry.update(id=doc["job"]["id"], submitted=time.perf_counter(),
                 from_store=doc["job"]["from_store"])
    while True:
        status, doc = await _http(host, port, "GET", f"/jobs/{entry['id']}/result")
        if status == 200:
            entry["doc"], entry["done"] = doc["result"], time.perf_counter()
            return
        if status != 202 or time.perf_counter() - entry["start"] > DRAIN_SECONDS:
            entry["error"] = f"{job.key}: result answered {status}: {doc}"
            return
        entry["polls"] += 1
        await asyncio.sleep(POLL_INTERVAL)


def _run_open_loop(url: str, arrivals) -> tuple[list[dict], float]:
    """Every job sent when due, whatever the earlier ones are doing.

    One thread runs an event loop with a connection per request, so a slow
    submission delays no later one; the host is an IP literal, so name
    resolution needs no helper threads.
    """
    address = urllib.parse.urlsplit(url)
    host, port = address.hostname, address.port
    origin = time.perf_counter() + 0.05
    entries = [
        {"job": job, "write": write, "polls": 0, "doc": None, "start": origin + due}
        for due, job, write in arrivals
    ]

    async def send_all() -> None:
        await asyncio.gather(*(_arrival(host, port, entry) for entry in entries))

    asyncio.run(send_all())
    return entries, origin


def _counters(url: str) -> dict:
    return _client(url).metrics()["counters"]


def run(workload: str, seed: int, trace: bool, max_jobs: int, key: dict,
        workdir: Path) -> dict:
    """One service workload; the raw outcome ``run.py`` turns into metrics."""
    pin(PROGRAM_CPU)
    samples = workdir / "speed.txt"
    sampler = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), "--cpu", str(PROGRAM_CPU),
         "--out", str(samples)],
        env=child_env(),
    )
    server = None
    try:
        server, setup = start_measured(workdir)
        url = server.url
        client = _client(url)
        if workload == "service-cold":
            jobs = workloads.service_cold(seed)
            if max_jobs:
                jobs = jobs[:max_jobs]
            # First-call costs of a fresh server, on content outside the pool.
            _closed_loop_job(client, workloads.Job("s4-s4", 0, workloads.HIGH))
            counters = _counters(url)
            entries, rss = _run_closed_loop(server, jobs)
            origin = min(entry.get("start", float("inf")) for entry in entries)
        else:
            preload, arrivals = workloads.service_mixed(seed)
            if max_jobs:
                arrivals = arrivals[:max_jobs]
            for job in preload:
                _closed_loop_job(client, job)
            counters = _counters(url)
            entries, origin = _run_open_loop(url, arrivals)
            rss = None
        after = _counters(url)
        snapshots = (
            {snap["id"]: snap for snap in client.jobs()} if trace else {}
        )
        if rss is None:
            rss = peak_rss_mb(server.process.pid)
    finally:
        if server is not None:
            server.stop()
        stop_process(sampler)
    speed = SpeedTrace(samples)

    errors = [e["error"] for e in entries if "error" in e]
    done = [e for e in entries if "error" not in e]
    for entry in done:
        degraded = len(entry["doc"].get("degradations", []))
        problem = answers.check(entry["job"], entry["doc"], degraded, key)
        if problem is not None:
            errors.append(problem)
    finished = max((e["done"] for e in done), default=origin)
    if not done:
        rate = 0.0
    elif workload == "service-cold":
        # A closed loop completes jobs as fast as the CPU allows.
        rate = len(done) / speed.normalised(origin, finished)
    else:
        rate = len(done) / (finished - origin)

    def p50_ms(entries) -> float:
        values = [speed.normalised(e["start"], e["done"]) for e in entries]
        return 1000.0 * statistics.median(values) if values else 0.0

    outcome = {
        "setup": [speed.normalised(*interval) for interval in setup],
        "attempted": len(entries),
        "errors": errors,
        "latencies_ms": [1000.0 * speed.normalised(e["start"], e["done"]) for e in done],
        "jobs_per_s": rate,
        "peak_rss_mb": rss,
        "extra": {
            "raw_job_p50_ms": 1000.0 * statistics.median(
                e["done"] - e["start"] for e in done
            ) if done else 0.0,
            "hit_p50_ms": p50_ms([e for e in done if e["from_store"]]),
            "miss_p50_ms": p50_ms([e for e in done if not e["from_store"]]),
            "hit_ratio": sum(e["from_store"] for e in done) / max(1, len(done)),
            "polls_per_job": statistics.fmean(e["polls"] for e in done) if done else 0.0,
            "stolen_pct": 100.0 * speed.stolen_share(origin, finished),
        },
    }
    if workload == "service-mixed" and done:
        lag = [e["sent"] - e["start"] for e in entries if "sent" in e]
        outcome["extra"]["generator_lag_p95_ms"] = 1000.0 * percentile(lag, 0.95)
    if trace:
        outcome["layers"] = _trace(
            done, snapshots, counters, after, speed, workdir, workload, seed
        )
    return outcome


def _trace(done, snapshots, before, after, speed, workdir, workload, seed):
    """Spans of the first quarter of the jobs, their leaves replayed here.

    The spans of the run are scaled by ``speed``, the samples of the
    service CPU; the replays of each job, after the run, by probes taken
    around them.
    """
    from repro import Runtime
    from repro.runtime import fingerprint_scenario
    from repro.scenarios import scenario_catalogue
    from repro.service import job_key

    done = sorted(done, key=lambda e: e["start"])
    replayed = done[: max(1, round(REPLAYED_SHARE * len(done)))]

    recorder = layers.Recorder()
    replayer = layers.Replayer(recorder, workdir)
    extra = {"submit": [], "wait": [], "queue": []}
    catalogues = {}

    def measured(name, index, start, end, parent=None, **notes):
        return recorder.add(
            name, index, start, end - start, parent,
            scale=speed.scale(start, end), **notes,
        )

    try:
        for index, entry in enumerate(replayed):
            job = entry["job"]
            root = measured("job", index, entry["start"], entry["done"])
            submit = measured(
                "service.submit", index, entry["start"], entry["submitted"], root.id
            )
            wait = measured(
                "service.wait", index, entry["submitted"], entry["done"], root.id,
                polls=entry["polls"],
            )
            extra["submit"].append(submit.seconds)
            extra["wait"].append(wait.seconds)
            hit = entry["from_store"]
            queued = snapshots.get(entry["id"], {}).get("queued_seconds")
            if not hit and queued is not None:
                queue = measured(
                    "service.queue", index, wait.start, wait.start + queued, wait.id
                )
                extra["queue"].append(queue.seconds)
            with recorder.scaled():
                if job.post_seed not in catalogues:
                    # service-cold builds a seed's catalogue in the POST of
                    # the first job there; service-mixed built all of its
                    # catalogues in the preload, on no job's path.
                    parent = submit.id if workload == "service-cold" else None
                    with recorder.span("scenarios.build", index, parent):
                        catalogues[job.post_seed] = scenario_catalogue(job.post_seed)
                scenario = catalogues[job.post_seed][job.name]
                if hit:
                    fingerprint_scenario(scenario)  # the server's is memoized
                replayer.fingerprint(index, submit.id, scenario)
                key = job_key(scenario, "estimate", job.quality)
                if hit:
                    replayer.store.put(key, entry["doc"])
                replayer.store_get(index, submit.id, key)
                if hit:
                    continue
                replayer.journal_append(index, submit.id, job.name, job.quality, key)
                result = replayer.pipeline(
                    index, wait.id, scenario, job.quality, Runtime("serial")
                )
                doc = replayer.serialize(index, wait.id, result)
                replayer.store_put(index, wait.id, key, doc)
    finally:
        replayer.close()
    hits = after.get("cache_hits", 0) - before.get("cache_hits", 0)
    misses = after.get("cache_misses", 0) - before.get("cache_misses", 0)
    rows, metrics = layers.summarise(recorder, hits, misses)
    recorder.write(workdir / "trace.json", workload=workload, seed=seed)
    service_rows = {
        f"service.{name}_ms": 1000.0 * statistics.median(values)
        for name, values in extra.items() if values
    }
    return {"rows": rows, "metrics": metrics, "service": service_rows}
