"""Command-line interface: ``efes <command>``.

Mirrors the paper prototype's command-line interface (Section 6.1) on top
of the shipped scenarios:

* ``efes assess <scenario>``   — print the data complexity reports,
* ``efes estimate <scenario>`` — print the task list and effort estimate,
* ``efes measure <scenario>``  — run the practitioner simulator,
* ``efes trace <scenario>``    — run the full pipeline traced and print
  the span tree (accepts the domain aliases ``bibliographic``/``music``),
* ``efes experiments``         — reproduce Figures 6 and 7 + rmse,
* ``efes list``                — list the available scenarios,
* ``efes serve``               — run the HTTP assessment service
  (``--journal-dir`` makes every acknowledged job survive a crash;
  SIGTERM drains gracefully, flushes the journal, and exits 0),
* ``efes submit <scenario>``   — submit a job to a running service,
* ``efes recover <journal>``   — replay a job journal offline:
  ``--dry-run`` prints what recovery would do; without it every live
  job is re-stated for the next ``efes serve`` and the journal is
  compacted.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from collections.abc import Callable

from .core import default_efes, parse_quality
from .core.tasks import TaskCategory
from .practitioner import PractitionerSimulator
from .reporting import render_domain_figure, render_table
from .resilience import (
    FAULT_PLAN_ENV_VAR,
    DegradedResult,
    FaultError,
    fault_plan_from_env,
)
from .runtime import Runtime, set_default_runtime
from .scenarios import (
    SCENARIO_BUILDERS,
    UnknownScenarioError,
    resolve_scenario,
)
from .scenarios.io import ScenarioFormatError

#: Environment variable naming the default target of ``efes submit``.
SERVICE_URL_ENV_VAR = "REPRO_SERVICE_URL"

#: Exit code for a run that completed but with degraded (partial)
#: results — distinct from 0 (complete success), 1 (hard failure), and
#: 2 (usage/unknown-scenario error), so scripts can tell "usable but
#: partial" from both success and crash.
EXIT_DEGRADED = 3

_resolve_scenario = resolve_scenario


def cmd_list(args: argparse.Namespace) -> int:
    for name in SCENARIO_BUILDERS:
        print(name)
    return 0


def _print_degradations(degradations) -> None:
    """One table naming every module whose stage failed this run."""
    print()
    print(
        render_table(
            ["Module", "Phase", "Scenario", "Error"],
            [
                (d.module, d.phase, d.scenario or "-", d.error)
                for d in degradations
            ],
            title="Degraded modules (partial results)",
        )
    )


def cmd_assess(args: argparse.Namespace) -> int:
    from .resilience import split_degraded

    scenario = _resolve_scenario(args.scenario, args.seed)
    efes = default_efes()
    reports, degradations = split_degraded(
        efes.assess(scenario, strict=args.strict)
    )
    sections = 0
    mapping = reports.get("mapping")
    if mapping is not None:
        print(
            render_table(
                ["Target table", "Source tables", "Attributes", "Primary key"],
                [connection.as_row() for connection in mapping.connections],
                title="Mapping complexity report",
            )
        )
        sections += 1
    structure = reports.get("structure")
    if structure is not None:
        if sections:
            print()
        print(
            render_table(
                ["Constraint in target schema", "Conflict", "Violations"],
                [
                    (
                        f"κ({v.target_relationship}) = {v.prescribed}",
                        v.conflict.value,
                        v.violation_count,
                    )
                    for v in structure.violations
                ],
                title="Structure conflict report",
            )
        )
        sections += 1
    values = reports.get("values")
    if values is not None:
        if sections:
            print()
        print(
            render_table(
                ["Value heterogeneity", "Attributes", "Parameters"],
                [
                    (
                        f.heterogeneity.value,
                        f"{f.source_attribute} -> {f.target_attribute}",
                        ", ".join(
                            f"{k}={v:g}"
                            for k, v in sorted(f.parameters.items())
                        ),
                    )
                    for f in values.findings
                ],
                title="Value heterogeneity report",
            )
        )
    if degradations:
        _print_degradations(degradations)
        return EXIT_DEGRADED
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args.scenario, args.seed)
    efes = default_efes()
    outcome = efes.run(
        scenario, parse_quality(args.quality), strict=args.strict
    )
    estimate = outcome.estimate
    print(
        render_table(
            ["Task", "Category", "Effort [min]"],
            [
                (
                    entry.task.describe(),
                    entry.task.category.value,
                    round(entry.minutes, 1),
                )
                for entry in estimate.entries
            ],
            title=f"Effort estimate for {scenario.name} ({args.quality})",
        )
    )
    totals = estimate.by_category()
    print()
    for category in TaskCategory:
        print(f"{category.value:22s} {totals[category]:8.1f} min")
    print(f"{'Total':22s} {estimate.total_minutes:8.1f} min")
    if outcome.degradations:
        _print_degradations(outcome.degradations)
        return EXIT_DEGRADED
    return 0


def cmd_measure(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args.scenario, args.seed)
    simulator = PractitionerSimulator()
    result = simulator.integrate(scenario, parse_quality(args.quality))
    print(
        render_table(
            ["Action", "Subject", "Count", "Minutes"],
            [
                (a.action, a.subject, a.count, round(a.minutes, 1))
                for a in result.actions
            ],
            title=f"Measured integration of {scenario.name} ({args.quality})",
        )
    )
    print()
    for category, minutes in result.breakdown().items():
        print(f"{category:22s} {minutes:8.1f} min")
    print(f"{'Total':22s} {result.total_minutes:8.1f} min")
    return 0


def _trace_targets(name: str, seed: int) -> list:
    """Scenarios to trace: one catalogue/directory entry, or a whole
    domain via the ``bibliographic``/``music`` aliases."""
    from .scenarios import bibliographic_scenarios, music_scenarios

    if name == "bibliographic":
        return list(bibliographic_scenarios(seed))
    if name == "music":
        return list(music_scenarios(seed))
    return [_resolve_scenario(name, seed)]


def cmd_trace(args: argparse.Namespace) -> int:
    import json
    import time

    from .core.serialize import span_to_dict
    from .observability import render_span_tree

    efes = default_efes()
    quality = parse_quality(args.quality)
    documents = []
    degraded = False
    for index, scenario in enumerate(_trace_targets(args.scenario, args.seed)):
        if index:
            print()
        started = time.perf_counter()
        outcome = efes.run(scenario, quality, trace=True, strict=args.strict)
        wall_seconds = time.perf_counter() - started
        root = outcome.trace
        print(
            f"Trace of {scenario.name} ({args.quality}): "
            f"wall-clock {wall_seconds:.4f}s, "
            f"estimate {outcome.estimate.total_minutes:.1f} min"
        )
        print(render_span_tree(root))
        if outcome.degradations:
            _print_degradations(outcome.degradations)
            degraded = True
        documents.append(span_to_dict(root))
    if args.output:
        payload = documents[0] if len(documents) == 1 else documents
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    return EXIT_DEGRADED if degraded else 0


def cmd_curve(args: argparse.Namespace) -> int:
    from .extensions import cost_benefit_curve

    scenario = _resolve_scenario(args.scenario, args.seed)
    curve = cost_benefit_curve(default_efes(), scenario)
    print(
        render_table(
            ["Quality", "Estimated effort [min]", "Retained information"],
            [
                (
                    point.quality.label,
                    round(point.effort_minutes, 1),
                    f"{point.benefit:.1%}",
                )
                for point in curve
            ],
            title=f"Cost-benefit curve for {scenario.name}",
        )
    )
    return 0


def cmd_save(args: argparse.Namespace) -> int:
    from .scenarios.io import save_scenario

    scenario = _resolve_scenario(args.scenario, args.seed)
    directory = save_scenario(scenario, args.directory)
    print(f"wrote scenario {scenario.name!r} to {directory}")
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments import run_experiments
    from .reporting import render_experiment_markdown

    report = run_experiments(
        seed=args.seed, trace_dir=args.trace_dir, strict=bool(args.strict)
    )
    if args.trace_dir:
        print(f"wrote per-scenario trace files to {args.trace_dir}/")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(render_experiment_markdown(report))
        print(f"wrote {args.output}")
    else:
        print(render_domain_figure(report.bibliographic))
        print()
        print(render_domain_figure(report.music))
        print()
        print(
            f"Overall rmse: Efes={report.overall_efes_rmse:.2f} "
            f"Counting={report.overall_counting_rmse:.2f} "
            f"(improvement ×{report.overall_improvement:.1f})"
        )
    if report.is_degraded:
        for scenario_name in sorted(report.degradations):
            for item in report.degradations[scenario_name]:
                print(f"degraded: {item.describe()}", file=sys.stderr)
        total = sum(len(v) for v in report.degradations.values())
        print(
            f"efes: experiments completed with {total} degraded module "
            f"run(s) across {len(report.degradations)} scenario(s)",
            file=sys.stderr,
        )
        return EXIT_DEGRADED
    return 0


class _Terminated(BaseException):
    """SIGTERM arrived: unwind ``serve_forever`` into a graceful drain.

    A ``BaseException``, like ``KeyboardInterrupt``: socketserver logs
    and swallows any ``Exception`` raised while it dispatches a request,
    which would leave the server running.
    """


def _raise_terminated(signum, frame):  # pragma: no cover - signal plumbing
    raise _Terminated()


def _timeout_seconds(text: str) -> float:
    """The ``--job-timeout`` type: the scheduler's timeout check, as a
    one-line usage error instead of a traceback at startup."""
    from .service.jobs import check_timeout

    try:
        return check_timeout(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _serve_until_stopped(server, close: Callable[[], None]) -> int:
    """Serve until Ctrl-C or SIGTERM, then stop the server and ``close``.

    SIGTERM (the orchestrator's "please stop") must not drop queued
    work on the floor: raising out of ``serve_forever`` funnels into the
    same graceful drain as Ctrl-C, and exits 0.
    """
    try:
        previous_handler = signal.signal(signal.SIGTERM, _raise_terminated)
    except ValueError:  # pragma: no cover - non-main thread (tests)
        previous_handler = None
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    except _Terminated:
        print("received SIGTERM; draining", flush=True)
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGTERM, previous_handler)
        server.shutdown()
        server.server_close()
        close()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .durability import FlushPolicy, JobJournal
    from .runtime import get_runtime
    from .service import JobScheduler, ReportStore, make_server

    runtime = get_runtime()
    store = ReportStore(directory=args.spool, metrics=runtime.metrics)
    journal = None
    if args.journal_dir:
        try:
            policy = FlushPolicy.parse(args.journal_fsync)
        except ValueError as exc:
            print(f"efes: {exc}", file=sys.stderr)
            return 2
        journal = JobJournal(
            args.journal_dir, flush=policy, metrics=runtime.metrics
        )
    scheduler = JobScheduler(
        runtime=runtime,
        store=store,
        workers=args.job_workers,
        max_queue=args.queue_size,
        default_timeout=args.job_timeout,
        journal=journal,
    )
    server = make_server(scheduler, host=args.host, port=args.port)
    spool = args.spool or "(memory only)"
    print(
        f"efes service listening on {server.url} "
        f"(runtime backend={runtime.backend}, job workers={args.job_workers}, "
        f"queue={args.queue_size}, spool={spool})",
        flush=True,
    )
    if scheduler.recovery_summary is not None:
        summary = scheduler.recovery_summary
        print(
            f"journal recovery: {summary['records']} record(s) in "
            f"{summary['segments']} segment(s), "
            f"{summary['resubmitted']} requeued "
            f"({summary['interrupted']} interrupted), "
            f"{summary['completed_from_store']} completed from store, "
            f"{summary['torn_records']} torn record(s) skipped",
            flush=True,
        )
    return _serve_until_stopped(
        server, lambda: scheduler.close(wait=True, timeout=5.0)
    )


def cmd_recover(args: argparse.Namespace) -> int:
    import pathlib

    from .durability import JobJournal, RecoveryManager
    from .service import ReportStore
    from .service.store import SpoolReader

    directory = pathlib.Path(args.journal_dir)
    if not directory.is_dir():
        print(
            f"efes: journal directory {args.journal_dir!r} does not exist",
            file=sys.stderr,
        )
        return 2
    journal = JobJournal(directory)
    store = None
    if args.spool:
        # A store's startup scan writes to the spool; a dry run only reads.
        store = (SpoolReader if args.dry_run else ReportStore)(args.spool)
    manager = RecoveryManager(journal, store)
    summary = manager.inspect() if args.dry_run else manager.recover()[0]
    journal.close()
    mode = "dry run" if args.dry_run else "compacted"
    print(f"journal {args.journal_dir} ({mode}):")
    for field in (
        "segments",
        "records",
        "torn_records",
        "jobs_seen",
        "settled",
        "resubmitted",
        "interrupted",
        "completed_from_store",
        "results_lost",
        "checkpointed",
        "compacted_segments",
    ):
        print(f"  {field:22s} {summary[field]}")
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    from .service import (
        BackpressureError,
        DeadlineExceededError,
        ServiceClient,
        ServiceError,
    )

    url = args.url or os.environ.get(SERVICE_URL_ENV_VAR) or (
        "http://127.0.0.1:8765"
    )
    client = ServiceClient(url)
    try:
        # The wait budget doubles as the end-to-end deadline: the client
        # ships it as X-Deadline-Ms so the server bounds execution too
        # (an explicit --timeout still wins as the body field).
        job = client.submit(
            args.scenario,
            kind=args.kind,
            quality=args.quality if args.kind == "estimate" else None,
            priority=args.priority,
            timeout=args.timeout,
            seed=args.seed,
            deadline=args.deadline,
        )
    except BackpressureError as exc:
        print(
            f"efes: service queue is full; retry in ~{exc.retry_after:g}s",
            file=sys.stderr,
        )
        return 75  # EX_TEMPFAIL
    except (ServiceError, OSError) as exc:
        print(f"efes: cannot submit to {url}: {exc}", file=sys.stderr)
        return 1
    print(f"job {job['id']} {job['state']} ({args.kind} {args.scenario})")
    if args.no_wait:
        return 0
    try:
        # The server's settle contract is deadline + grace: a run that
        # overruns still lands a partial result inside the grace window,
        # so the local wait must outlive the execution deadline by that
        # much (plus poll slack) to collect it.
        from .runtime.deadline import DEFAULT_GRACE

        result = client.result(
            job["id"], deadline=args.deadline + DEFAULT_GRACE + 1.0
        )
    except DeadlineExceededError as exc:
        print(f"efes: {exc}", file=sys.stderr)
        return 1
    except ServiceError as exc:
        print(f"efes: job {job['id']} failed: {exc}", file=sys.stderr)
        return 1
    except TimeoutError as exc:
        print(f"efes: {exc}", file=sys.stderr)
        return 1
    deadline_exceeded = bool(result.get("deadline_exceeded"))
    if args.kind == "estimate":
        total = result["estimate"]["total_minutes"]
        tasks = len(result["estimate"]["entries"])
        print(
            f"estimate for {result['scenario']} ({result['quality']}): "
            f"{total:.1f} min across {tasks} task(s)"
        )
    else:
        counts = ", ".join(
            f"{name}={_report_size(body)}"
            for name, body in result["reports"].items()
        )
        print(f"assessed {result['scenario']}: {counts}")
    degradations = [
        DegradedResult.from_dict(doc)
        for doc in result.get("degradations", ())
    ]
    if degradations:
        _print_degradations(degradations)
    if deadline_exceeded:
        print(
            "efes: deadline exceeded mid-run; estimate covers completed "
            "stages only (unrun stages are degraded tombstones)",
            file=sys.stderr,
        )
    # Same convention as a degraded local run: exit 3 marks a partial
    # answer that scripts should treat differently from success or
    # failure.
    return EXIT_DEGRADED if degradations or deadline_exceeded else 0


def _report_size(body: dict) -> int:
    for field in ("connections", "violations", "findings"):
        if field in body:
            return len(body[field])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="efes",
        description="EFES: effort estimation for data integration & cleaning",
    )
    parser.add_argument("--seed", type=int, default=1, help="scenario seed")
    parser.add_argument(
        "--backend",
        choices=("serial",),
        default="serial",
        help="assessment runtime backend (only serial exists)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print runtime instrumentation (timings, cache, task counts)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail fast on the first detector/planner error instead of "
        f"degrading the module and exiting {EXIT_DEGRADED}",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available scenarios")

    for name, needs_quality in (
        ("assess", False),
        ("estimate", True),
        ("measure", True),
    ):
        sub = subparsers.add_parser(name)
        sub.add_argument("scenario", help="scenario name (see `efes list`)")
        if needs_quality:
            sub.add_argument(
                "--quality",
                choices=("low", "high"),
                default="high",
                help="expected result quality",
            )

    trace = subparsers.add_parser(
        "trace",
        help="run the pipeline traced and print the span tree",
    )
    trace.add_argument(
        "scenario",
        help="scenario name, directory, or domain alias "
        "(bibliographic, music)",
    )
    trace.add_argument(
        "--quality",
        choices=("low", "high"),
        default="high",
        help="expected result quality",
    )
    trace.add_argument(
        "--output",
        default=None,
        help="also write the span tree(s) as JSON to this path",
    )

    curve = subparsers.add_parser(
        "curve", help="cost-benefit curve of a scenario (§7 extension)"
    )
    curve.add_argument("scenario", help="scenario name (see `efes list`)")

    save = subparsers.add_parser(
        "save", help="export a scenario to the on-disk format"
    )
    save.add_argument("scenario", help="scenario name (see `efes list`)")
    save.add_argument("directory", help="output directory")

    experiments = subparsers.add_parser(
        "experiments", help="reproduce Figures 6 and 7"
    )
    experiments.add_argument(
        "--output",
        default=None,
        help="write a markdown report to this path instead of printing",
    )
    experiments.add_argument(
        "--trace-dir",
        default=None,
        help="write one <scenario>.trace.json span tree per scenario "
        "into this directory",
    )

    serve = subparsers.add_parser(
        "serve", help="run the HTTP assessment service"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8765, help="bind port")
    serve.add_argument(
        "--job-workers",
        type=int,
        default=2,
        help="concurrent job slots (default: 2)",
    )
    serve.add_argument(
        "--queue-size",
        type=int,
        default=64,
        help="bounded queue capacity before backpressure (default: 64)",
    )
    serve.add_argument(
        "--job-timeout",
        type=_timeout_seconds,
        default=None,
        help="default per-job timeout in seconds (default: none)",
    )
    serve.add_argument(
        "--spool",
        default=None,
        help="report-store spool directory (default: in-memory only)",
    )
    serve.add_argument(
        "--journal-dir",
        default=None,
        help="write-ahead job journal directory: acknowledged jobs "
        "survive crashes and are recovered on restart (default: off)",
    )
    serve.add_argument(
        "--journal-fsync",
        default="batch",
        help="journal flush policy: strict, batch, batch:N, or none "
        "(default: batch — acks fsync, advisory records group-commit)",
    )

    recover = subparsers.add_parser(
        "recover", help="replay a job journal offline (inspect or compact)"
    )
    recover.add_argument("journal_dir", help="journal directory to replay")
    recover.add_argument(
        "--spool",
        default=None,
        help="report-store spool to check results against (optional)",
    )
    recover.add_argument(
        "--dry-run",
        action="store_true",
        help="report what recovery would do without writing anything",
    )

    submit = subparsers.add_parser(
        "submit", help="submit a job to a running service"
    )
    submit.add_argument("scenario", help="scenario name or directory")
    submit.add_argument(
        "--url",
        default=None,
        help=f"service URL (default: ${SERVICE_URL_ENV_VAR} or "
        "http://127.0.0.1:8765)",
    )
    submit.add_argument(
        "--kind",
        choices=("assess", "estimate"),
        default="estimate",
        help="job kind (default: estimate)",
    )
    submit.add_argument(
        "--quality",
        choices=("low", "high"),
        default="high",
        help="expected result quality for estimate jobs",
    )
    submit.add_argument(
        "--priority", type=int, default=0, help="job priority (higher first)"
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-job timeout in seconds",
    )
    submit.add_argument(
        "--deadline",
        type=float,
        default=120.0,
        help="end-to-end deadline in seconds: sent as X-Deadline-Ms so "
        "the server bounds execution, and bounds the local wait for the "
        "result (default: 120)",
    )
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="print the job id and return without waiting for the result",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Validate the fault plan up front: a typo in a chaos run must be
        # a one-line error, not a silently disabled injection campaign.
        fault_plan_from_env()
    except ValueError as exc:
        print(f"efes: invalid ${FAULT_PLAN_ENV_VAR}: {exc}", file=sys.stderr)
        return 2
    # One runtime per invocation: every command (and the profiling
    # underneath it) records its instrumentation here.
    runtime = Runtime(args.backend)
    set_default_runtime(runtime)
    commands = {
        "list": cmd_list,
        "assess": cmd_assess,
        "estimate": cmd_estimate,
        "measure": cmd_measure,
        "trace": cmd_trace,
        "curve": cmd_curve,
        "save": cmd_save,
        "experiments": cmd_experiments,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "recover": cmd_recover,
    }
    try:
        status = commands[args.command](args)
    except (UnknownScenarioError, ScenarioFormatError) as exc:
        # A one-line diagnostic, not a traceback: unknown names and
        # malformed scenario data (the message carries file:line) are
        # user errors, not crashes.
        print(f"efes: {exc}", file=sys.stderr)
        status = 2
    except FaultError as exc:
        # Strict mode turns an injected fault into fail-fast: report it
        # as one line (chaos CI asserts this exit), not a traceback.
        print(f"efes: aborted by injected fault: {exc}", file=sys.stderr)
        status = 1
    finally:
        set_default_runtime(None)
    if args.metrics:
        print()
        print(runtime.metrics.render())
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
