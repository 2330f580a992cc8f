"""The slow-fault chaos matrix: deadlines hold under injected stalls.

Each seed drives :func:`tests.sim.deadline_harness.run_deadline_sim` —
a delay armed at the ``deadline.checkpoint`` site, a victim job with a
budget smaller than the stall, and a sibling queued on the same slot —
and asserts the tentpole invariants: settle within deadline + grace, a
marked partial with tombstones, nothing leaked into the report store,
and the timed-out slot reclaimed.  The matrix width scales with
``$REPRO_DEADLINE_SIM_SEEDS`` (CI runs ≥100); a failing seed replays
locally via ``DeadlinePlan.from_seed(seed)``.
"""

from __future__ import annotations

import os

import pytest

from repro.runtime import Runtime

from .deadline_harness import DeadlinePlan, run_deadline_sim

SEED_COUNT = int(os.environ.get("REPRO_DEADLINE_SIM_SEEDS", "8"))


@pytest.fixture(scope="module", params=["serial"])
def backend_runtime(request):
    return Runtime(backend=request.param)


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
