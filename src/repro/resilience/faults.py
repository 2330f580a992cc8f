"""Deterministic, seeded fault injection for the assessment stack.

Every hardening claim in this repository is testable because the code
declares **named injection sites** — ``detector``, ``profile``,
``store.read``, ``store.write``, ``store.fsync``, ``scheduler.dispatch``,
``http.handler``, ``journal.append``, ``journal.fsync``,
``journal.replay``, ``deadline.checkpoint`` (fires only under an active
:class:`~repro.runtime.deadline.CancelScope`, so delay rules stall
exactly the code that must notice deadlines) — and a
:class:`FaultPlan` decides, deterministically, which of them misbehave.
A plan is a list of :class:`FaultPoint` rules;
each rule matches a site (optionally filtered on the site's context,
e.g. ``{"name": "mapping"}``) and fires one of three actions:

* ``raise``  — raise a :class:`FaultError` (an :class:`OSError` subclass,
  so store/client I/O sites fail exactly like a disk or socket would),
* ``delay``  — sleep ``delay_seconds`` before continuing (latency
  injection for deadline testing),
* ``corrupt`` — mangle the payload passing through a data site (store
  and journal writes), producing torn/garbage bytes for the recovery
  scan to find.

Plans are activated programmatically (:func:`install_fault_plan`, or the
:func:`injected_faults` context manager in tests) or via the
``$REPRO_FAULT_PLAN`` environment variable, whose value is either inline
JSON or a path to a JSON file::

    REPRO_FAULT_PLAN='{"seed": 7, "points": [
        {"site": "detector", "action": "raise",
         "times": 1, "per": "scenario"}]}' efes experiments

The ``times``/``per`` pair bounds firings: ``times`` caps how often a
point fires, and ``per`` scopes that budget to each distinct value of a
context key — ``times: 1, per: "scenario"`` injects exactly one detector
crash per scenario, which is the acceptance scenario of the resilience
ISSUE.  ``probability`` (seeded through the plan) makes a point fire on
a deterministic subset of its matches.

With no plan installed, :func:`fault_point` is one module-global read
and a ``None`` check — the happy path stays within the <5% overhead gate
enforced by ``benchmarks/bench_resilience_overhead.py``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

#: Environment variable carrying a fault plan (inline JSON or a path).
FAULT_PLAN_ENV_VAR = "REPRO_FAULT_PLAN"

#: The actions a fault point knows how to perform.
FAULT_ACTIONS = ("raise", "delay", "corrupt")

#: Marker spliced into corrupted payloads; recovery tests grep for it.
CORRUPTION_MARKER = "\x00!corrupted-by-fault-plan!\x00"


class FaultError(OSError):
    """The exception an injected ``raise`` action throws.

    Subclasses :class:`OSError` on purpose: faults injected at store and
    client I/O sites then travel the same ``except OSError`` paths a real
    disk or socket failure would, so the retry/quarantine machinery is
    exercised exactly as in production.
    """


@dataclasses.dataclass
class FaultPoint:
    """One injection rule of a :class:`FaultPlan`."""

    #: Site name the rule arms, e.g. ``"detector"`` or ``"store.write"``.
    site: str
    #: ``raise`` | ``delay`` | ``corrupt``.
    action: str = "raise"
    #: Context filter: every listed key must match the site's context
    #: (string comparison), e.g. ``{"name": "mapping"}``.
    match: dict = dataclasses.field(default_factory=dict)
    #: Maximum firings (``None`` = unlimited).
    times: int | None = None
    #: Context key scoping the ``times`` budget, e.g. ``"scenario"``:
    #: the budget then applies per distinct value of that key.
    per: str | None = None
    #: Sleep duration of the ``delay`` action.
    delay_seconds: float = 0.0
    #: Deterministic (plan-seeded) firing probability.
    probability: float = 1.0
    #: Message of the raised :class:`FaultError`.
    message: str = ""

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; "
                f"expected one of {FAULT_ACTIONS}"
            )
        if not self.site:
            raise ValueError("fault point needs a non-empty site")

    def matches(self, site: str, context: dict) -> bool:
        if site != self.site:
            return False
        return all(
            str(context.get(key)) == str(value)
            for key, value in self.match.items()
        )

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPoint":
        if not isinstance(doc, dict):
            raise ValueError(f"fault point must be an object, got {doc!r}")
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(
                f"unknown fault point field(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(**doc)


class FaultPlan:
    """A seeded set of :class:`FaultPoint` rules, thread-safe to consult.

    ``plan.trips`` records every fired point (site, action, context) in
    firing order — tests and the CLI use it to prove injection happened.
    """

    def __init__(
        self,
        points: list[FaultPoint] | None = None,
        seed: int = 0,
        name: str = "fault-plan",
    ) -> None:
        self.points = list(points or [])
        self.seed = seed
        self.name = name
        self.trips: list[dict] = []
        self._rng = random.Random(seed)
        self._fired: dict[tuple[int, str | None], int] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.points)

    def fire(
        self,
        site: str,
        context: dict,
        actions: tuple[str, ...] = FAULT_ACTIONS,
    ) -> FaultPoint | None:
        """The first matching point with budget left, consuming one
        firing; ``None`` when nothing is armed for this call.

        ``actions`` restricts which rule kinds this call-site can carry
        out — control sites (:func:`fault_point`) perform ``raise`` and
        ``delay``, data sites (:func:`corrupt_text`) perform ``corrupt``
        — so a rule never burns budget at a site that cannot enact it.
        """
        if not self.points:
            # An installed-but-empty plan must cost a tuple check, not a
            # lock, per site — the overhead bench gates this path.
            return None
        with self._lock:
            for index, point in enumerate(self.points):
                if point.action not in actions:
                    continue
                if not point.matches(site, context):
                    continue
                scope = (
                    str(context.get(point.per)) if point.per else None
                )
                key = (index, scope)
                if (
                    point.times is not None
                    and self._fired.get(key, 0) >= point.times
                ):
                    continue
                if (
                    point.probability < 1.0
                    and self._rng.random() >= point.probability
                ):
                    continue
                self._fired[key] = self._fired.get(key, 0) + 1
                self.trips.append(
                    {
                        "site": site,
                        "action": point.action,
                        "context": dict(context),
                    }
                )
                return point
        return None

    def trip_count(self, site: str | None = None) -> int:
        with self._lock:
            if site is None:
                return len(self.trips)
            return sum(1 for trip in self.trips if trip["site"] == site)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_dict(cls, doc: dict, name: str = "fault-plan") -> "FaultPlan":
        if not isinstance(doc, dict):
            raise ValueError(f"fault plan must be an object, got {doc!r}")
        unknown = set(doc) - {"seed", "points", "name"}
        if unknown:
            raise ValueError(f"unknown fault plan field(s) {sorted(unknown)}")
        points = doc.get("points", [])
        if not isinstance(points, list):
            raise ValueError("fault plan 'points' must be a list")
        return cls(
            points=[FaultPoint.from_dict(point) for point in points],
            seed=int(doc.get("seed", 0)),
            name=str(doc.get("name", name)),
        )

    @classmethod
    def from_json(cls, text: str, name: str = "fault-plan") -> "FaultPlan":
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise ValueError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(doc, name=name)

    @classmethod
    def from_file(cls, path: str | Path) -> "FaultPlan":
        path = Path(path)
        return cls.from_json(
            path.read_text(encoding="utf-8"), name=path.name
        )

    def __repr__(self) -> str:
        return (
            f"FaultPlan({self.name!r}, {len(self.points)} point(s), "
            f"seed={self.seed}, {len(self.trips)} trip(s))"
        )


def fault_plan_from_env(environ: dict | None = None) -> FaultPlan | None:
    """The plan named by ``$REPRO_FAULT_PLAN`` (inline JSON or a file
    path), or ``None`` when the variable is unset/empty.  Malformed
    values raise :class:`ValueError` — a typo must not silently disable
    a chaos run."""
    value = (environ if environ is not None else os.environ).get(
        FAULT_PLAN_ENV_VAR, ""
    ).strip()
    if not value:
        return None
    if value.startswith("{"):
        return FaultPlan.from_json(value, name=FAULT_PLAN_ENV_VAR)
    return FaultPlan.from_file(value)


# ----------------------------------------------------------------------
# Active-plan resolution: one global, env-resolved lazily exactly once.
# ----------------------------------------------------------------------

_PLAN: FaultPlan | None = None
_ENV_RESOLVED = False
_INSTALL_LOCK = threading.Lock()


def install_fault_plan(plan: FaultPlan | None) -> None:
    """Make ``plan`` the process-wide active plan (``None`` disarms all
    sites and suppresses later env resolution)."""
    global _PLAN, _ENV_RESOLVED
    with _INSTALL_LOCK:
        _PLAN = plan
        _ENV_RESOLVED = True


def reset_fault_plan() -> None:
    """Forget any installed plan and re-resolve ``$REPRO_FAULT_PLAN`` on
    the next :func:`fault_point` call (test isolation hook)."""
    global _PLAN, _ENV_RESOLVED
    with _INSTALL_LOCK:
        _PLAN = None
        _ENV_RESOLVED = False


def active_fault_plan() -> FaultPlan | None:
    """The installed plan, resolving the environment variable once."""
    global _PLAN, _ENV_RESOLVED
    if not _ENV_RESOLVED:
        with _INSTALL_LOCK:
            if not _ENV_RESOLVED:
                _PLAN = fault_plan_from_env()
                _ENV_RESOLVED = True
    return _PLAN


@contextmanager
def injected_faults(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Activate ``plan`` for the duration of a ``with`` block (tests)."""
    global _PLAN, _ENV_RESOLVED
    with _INSTALL_LOCK:
        previous_plan, previous_resolved = _PLAN, _ENV_RESOLVED
        _PLAN, _ENV_RESOLVED = plan, True
    try:
        yield plan
    finally:
        with _INSTALL_LOCK:
            _PLAN, _ENV_RESOLVED = previous_plan, previous_resolved


def fault_point(site: str, **context) -> None:
    """Declare a named injection site; no-op unless a plan arms it.

    ``raise`` points throw :class:`FaultError`; ``delay`` points sleep.
    ``corrupt`` points are ignored here — data sites pass their payload
    through :func:`corrupt_text` instead.
    """
    plan = _PLAN
    if plan is None:
        if _ENV_RESOLVED:
            return
        plan = active_fault_plan()
        if plan is None:
            return
    point = plan.fire(site, context, actions=("raise", "delay"))
    if point is None:
        return
    if point.action == "delay":
        time.sleep(point.delay_seconds)
        return
    raise FaultError(
        point.message or f"injected fault at {site} ({plan.name})"
    )


def corrupt_text(site: str, text: str, **context) -> str:
    """Pass a data payload through the plan's ``corrupt`` rules.

    Returns ``text`` untouched unless a matching ``corrupt`` point fires,
    in which case the payload is truncated and spliced with
    :data:`CORRUPTION_MARKER` — guaranteed invalid JSON, so readers and
    recovery scans must cope.
    """
    plan = _PLAN if _ENV_RESOLVED else active_fault_plan()
    if plan is None:
        return text
    point = plan.fire(site, context, actions=("corrupt",))
    if point is None:
        return text
    return text[: max(1, len(text) // 2)] + CORRUPTION_MARKER
