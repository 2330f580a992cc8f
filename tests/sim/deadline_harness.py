"""Slow-fault chaos harness for end-to-end deadline enforcement.

One :func:`run_deadline_sim` call is one seeded *slow-fault episode*: a
delay rule armed at the ``deadline.checkpoint`` fault site stalls the
assessment exactly where cancellation is supposed to be noticed, the
victim job is admitted with a budget smaller than the stall, and the
harness measures what the scheduler does about it.  The invariants are
the tentpole's acceptance shape:

* the victim **settles within deadline + grace** — the slow fault never
  turns into an unbounded hang,
* the settlement is a **marked partial** (``deadline_exceeded`` with
  degradation tombstones for the unrun stages), not a crash,
* the partial is **never written to the report store** (partials are
  budget-dependent; the content address must keep serving full-budget
  results only),
* the victim's **worker slot is reclaimed at fire time**: a sibling job
  queued behind it completes while the stalled payload is still
  draining.

The delay plan is installed in-context with
:func:`~repro.resilience.faults.injected_faults`.
"""

from __future__ import annotations

import dataclasses
import random
import time

from repro.resilience.faults import FaultPlan, FaultPoint, injected_faults
from repro.service import JobScheduler, JobState

#: Wall-clock slack on top of deadline + grace: scheduler wakeups, slow
#: CI boxes, and the post-checkpoint tombstoning work.
SETTLE_MARGIN = 2.0


@dataclasses.dataclass(frozen=True)
class DeadlinePlan:
    """The seeded episode parameters, reproducible from the seed."""

    seed: int
    budget: float  # the victim's execution deadline
    delay: float  # injected stall at the checkpoint (> budget)
    grace: float  # scheduler grace window (> delay: partial must win)
    kind: str  # victim job kind: assess | estimate
    stalls: int  # how many checkpoints the plan delays

    @classmethod
    def from_seed(cls, seed: int) -> "DeadlinePlan":
        rng = random.Random(seed)
        budget = 0.08 + rng.random() * 0.12
        delay = budget + 0.25 + rng.random() * 0.25
        return cls(
            seed=seed,
            budget=budget,
            delay=delay,
            # The stalled payload must reach its next checkpoint and
            # settle its partial before the grace reaper gives up on it.
            grace=delay + 1.0,
            kind=rng.choice(("assess", "estimate")),
            stalls=rng.randint(1, 2),
        )

    def fault_plan(self) -> FaultPlan:
        return FaultPlan(
            [
                FaultPoint(
                    site="deadline.checkpoint",
                    action="delay",
                    delay_seconds=self.delay,
                    times=self.stalls,
                )
            ],
            seed=self.seed,
            name=f"deadline-sim-{self.seed}",
        )

    @property
    def settle_bound(self) -> float:
        return self.budget + self.grace + SETTLE_MARGIN


@dataclasses.dataclass
class DeadlineSimResult:
    """One episode's evidence, for the matrix assertions."""

    seed: int
    plan: DeadlinePlan
    victim_state: str
    victim_partial: bool
    victim_degradations: int
    victim_settle_seconds: float
    sibling_state: str
    sibling_settle_seconds: float
    stored_partial: bool
    counters: dict


def _run_episode(plan: DeadlinePlan, scenario, runtime) -> DeadlineSimResult:
    """One victim + one sibling through a 1-slot scheduler, measured."""
    with JobScheduler(
        runtime=runtime, workers=1, deadline_grace=plan.grace, trace=False
    ) as sched:
        started = time.monotonic()
        victim = sched.submit(
            scenario,
            plan.kind,
            "high" if plan.kind == "estimate" else None,
            timeout=plan.budget,
        )
        # Queued behind the victim on the only slot: it can only finish
        # inside the bound if the fired deadline reclaimed the slot.
        sibling = sched.submit_callable(
            lambda job: {"sibling": plan.seed}, name=f"sibling-{plan.seed}"
        )
        victim = sched.wait(victim.id, timeout=plan.settle_bound + 5.0)
        victim_settled = time.monotonic() - started
        sibling = sched.wait(sibling.id, timeout=plan.settle_bound + 5.0)
        sibling_settled = time.monotonic() - started
        result = victim.result or {}
        return DeadlineSimResult(
            seed=plan.seed,
            plan=plan,
            victim_state=victim.state.value,
            victim_partial=bool(result.get("deadline_exceeded")),
            victim_degradations=len(result.get("degradations", ())),
            victim_settle_seconds=victim_settled,
            sibling_state=sibling.state.value,
            sibling_settle_seconds=sibling_settled,
            stored_partial=(
                victim.store_key is not None
                and sched.store.get(victim.store_key) is not None
            ),
            counters=dict(sched.metrics.snapshot().counters),
        )


def assert_episode_invariants(result: DeadlineSimResult) -> None:
    """The acceptance shape; failures carry the seed for replay."""
    seed, plan = result.seed, result.plan
    assert result.victim_settle_seconds <= plan.settle_bound, (
        f"seed {seed}: victim settled after {result.victim_settle_seconds:.2f}s"
        f" (bound {plan.settle_bound:.2f}s) — the slow fault hung the job"
    )
    assert result.victim_state == JobState.DONE.value, (
        f"seed {seed}: cooperative victim ended {result.victim_state} "
        f"instead of a partial DONE"
    )
    assert result.victim_partial, (
        f"seed {seed}: settled result is not marked deadline_exceeded"
    )
    assert result.victim_degradations >= 1, (
        f"seed {seed}: no degradation tombstones for the unrun stages"
    )
    assert not result.stored_partial, (
        f"seed {seed}: budget-dependent partial leaked into the store"
    )
    assert result.sibling_state == JobState.DONE.value, (
        f"seed {seed}: sibling ended {result.sibling_state}"
    )
    assert result.sibling_settle_seconds <= plan.settle_bound, (
        f"seed {seed}: sibling took {result.sibling_settle_seconds:.2f}s — "
        f"the timed-out slot was not reclaimed"
    )
    assert result.counters.get("jobs_deadline_exceeded", 0) >= 1, (
        f"seed {seed}: the deadline never fired"
    )
    assert result.counters.get("jobs_deadline_partial", 0) >= 1, (
        f"seed {seed}: no partial settlement was counted"
    )


def run_deadline_sim(seed: int, scenario, runtime) -> DeadlineSimResult:
    """One seeded episode on ``runtime``."""
    plan = DeadlinePlan.from_seed(seed)
    with injected_faults(plan.fault_plan()):
        result = _run_episode(plan, scenario, runtime)
    assert_episode_invariants(result)
    return result
