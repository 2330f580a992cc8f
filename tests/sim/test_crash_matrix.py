"""The crash-sim seed matrix: exactly-once settlement under kills.

Each seed drives :func:`tests.sim.harness.run_crash_sim` — a full
crash–restart lifetime sequence over a real scheduler + journal — and
asserts that every acknowledged job settles exactly once.  The matrix
width defaults to the acceptance floor (200 seeds) and scales with
``$REPRO_CRASH_SIM_SEEDS`` for deeper CI soaks; a failing seed is
reproduced locally with ``run_crash_sim(seed, tmp_path)``.
"""

from __future__ import annotations

import os

import pytest

from repro.runtime import Runtime

from .harness import CrashSchedule, VirtualClock, run_crash_sim

SEED_COUNT = int(os.environ.get("REPRO_CRASH_SIM_SEEDS", "200"))


@pytest.fixture(scope="module")
def shared_runtime():
    return Runtime()


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_crash_matrix_exactly_once(seed, tmp_path, shared_runtime):
    result = run_crash_sim(seed, tmp_path, runtime=shared_runtime)
    # The harness asserts the invariant internally; sanity-check the
    # evidence shape here so a silently-empty run cannot pass.
    assert result.acked, f"seed {seed}: no job was ever acknowledged"
    assert result.epochs >= 1
    for key in result.acked:
        assert result.settled_by_key.get(key) == 1


def test_schedule_is_deterministic():
    a, b = CrashSchedule(1234, jobs=5), CrashSchedule(1234, jobs=5)
    assert a.points == b.points
    assert a.flush_policy == b.flush_policy
    assert a.segment_max_records == b.segment_max_records


def test_schedule_always_terminates():
    # Every schedule plans finitely many kills; the epoch after the last
    # planned point must run without a failpoint.
    schedule = CrashSchedule(7, jobs=4)
    assert schedule.failpoint_for_epoch(len(schedule.points)) is None


def test_virtual_clock_is_monotonic():
    clock = VirtualClock()
    assert clock() == 0.0
    clock.advance(1.5)
    assert clock() == 1.5
    with pytest.raises(ValueError):
        clock.advance(-1)


def test_torn_write_at_first_append(tmp_path, shared_runtime):
    """Directed case: the very first acked record is torn mid-line."""

    # Seed scan guarantees nothing about which boundary a random seed
    # hits, so pin the worst one explicitly via a handmade schedule.
    from . import harness

    class FirstAppendTorn(harness.CrashSchedule):
        def __init__(self):
            super().__init__(0, jobs=3)
            self.points = [
                harness.CrashPoint(
                    append_index=0, mode="torn", keep_fraction=0.5
                )
            ]

    original = harness.CrashSchedule
    harness.CrashSchedule = lambda seed, jobs: FirstAppendTorn()
    try:
        result = run_crash_sim(90001, tmp_path, runtime=shared_runtime)
    finally:
        harness.CrashSchedule = original
    assert result.acked
    for key in result.acked:
        assert result.settled_by_key.get(key) == 1
