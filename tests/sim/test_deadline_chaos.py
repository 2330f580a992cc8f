"""The slow-fault chaos matrix: deadlines hold under injected stalls.

Each seed drives :func:`tests.sim.deadline_harness.run_deadline_sim` —
a delay armed at the ``deadline.checkpoint`` site, a victim job with a
budget smaller than the stall, and a sibling queued on the same slot —
and asserts the tentpole invariants: settle within deadline + grace, a
marked partial with tombstones, nothing leaked into the report store,
and the timed-out slot reclaimed.  The matrix width scales with
``$REPRO_DEADLINE_SIM_SEEDS`` (CI runs ≥100); a failing seed replays
locally via ``DeadlinePlan.from_seed(seed)``.

The process backend gets its own legs: cooperative self-abort (the plan
rides ``$REPRO_FAULT_PLAN`` across the fork) and the hard-kill reaper
for runaway workers that never reach a checkpoint.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.runtime import (
    CancelScope,
    Deadline,
    Runtime,
    WorkerReapedError,
)

from .deadline_harness import (
    DeadlinePlan,
    run_deadline_sim,
    run_deadline_sim_process,
    sleeper_task,
)

SEED_COUNT = int(os.environ.get("REPRO_DEADLINE_SIM_SEEDS", "8"))

#: The process legs spawn a pool per episode, so they run a slice of
#: the matrix; CI widens both through the same environment knob.
PROCESS_SEED_COUNT = max(2, SEED_COUNT // 4)


#: In-context legs; the process backend needs the plan shipped through
#: the environment and runs its own legs below.
@pytest.fixture(scope="module", params=["serial"])
def backend_runtime(request):
    runtime = Runtime(backend=request.param, max_workers=2)
    yield runtime
    runtime.close()


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_deadline_matrix(seed, small_example, backend_runtime):
    result = run_deadline_sim(seed, small_example, backend_runtime)
    # The harness asserts the invariants; sanity-check the evidence
    # shape so a silently-empty episode cannot pass.
    assert result.victim_state == "done"
    assert result.victim_partial
    assert result.counters.get("jobs_deadline_exceeded", 0) >= 1


def test_plan_is_deterministic():
    assert DeadlinePlan.from_seed(42) == DeadlinePlan.from_seed(42)


def test_plan_orders_budget_delay_grace():
    for seed in range(50):
        plan = DeadlinePlan.from_seed(seed)
        assert plan.budget < plan.delay < plan.grace


@pytest.mark.parametrize("seed", range(1000, 1000 + PROCESS_SEED_COUNT))
def test_deadline_matrix_process_backend(seed, small_example):
    result = run_deadline_sim_process(seed, small_example)
    assert result.victim_partial
    assert result.sibling_state == "done"


class TestRunawayWorkerReclamation:
    @pytest.fixture(scope="class")
    def process_runtime(self):
        runtime = Runtime(backend="process", max_workers=2)
        yield runtime
        runtime.close()

    @pytest.mark.parametrize("seed", range(PROCESS_SEED_COUNT))
    def test_runaway_worker_is_reaped_and_pool_recovers(
        self, seed, process_runtime
    ):
        # A task that never checkpoints cannot self-abort; the executor
        # must SIGKILL the pool once deadline + grace passes, raise the
        # reap, and rebuild a working pool for the next dispatch.
        executor = process_runtime.executor
        reaps_before = executor.stats()["reaps"]
        budget, grace = 0.1 + 0.01 * (seed % 5), 0.2
        scope = CancelScope(deadline=Deadline.after(budget), grace=grace)
        started = time.monotonic()
        with scope.activated():
            with pytest.raises(WorkerReapedError):
                executor.run_tasks(sleeper_task, [(30.0,), (30.0,)])
        elapsed = time.monotonic() - started
        assert elapsed < budget + grace + 10.0, (
            f"seed {seed}: reap took {elapsed:.1f}s — the runaway worker "
            f"was not hard-killed"
        )
        stats = executor.stats()
        assert stats["reaps"] == reaps_before + 1
        assert stats["reaped_workers"] >= 1
        # Sibling work after the reap lands on a replacement pool.
        assert executor.run_tasks(sleeper_task, [(0.0,), (0.0,)]) == [
            (0.0,),
            (0.0,),
        ]

    def test_unbounded_runs_never_engage_the_reaper(self, process_runtime):
        executor = process_runtime.executor
        reaps_before = executor.stats()["reaps"]
        assert executor.run_tasks(sleeper_task, [(0.0,), (0.0,)]) == [
            (0.0,),
            (0.0,),
        ]
        assert executor.stats()["reaps"] == reaps_before
