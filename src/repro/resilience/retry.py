"""A reusable retry/backoff combinator — stdlib only.

Transient failures (connection refused while a service restarts, a torn
spool write, an injected :class:`~repro.resilience.faults.FaultError`)
should cost a bounded delay, not an aborted assessment.  The policy
implements the standard production recipe:

* **exponential backoff** — attempt *n* may wait up to
  ``base_delay * multiplier**n``, capped at ``max_delay``,
* **full jitter** — the actual wait is uniform in ``[0, cap]`` (seeded,
  so chaos tests are reproducible), which decorrelates retry storms,
* **deadline budget** — the combined wait+work time never exceeds
  ``deadline`` seconds; a retry that would overshoot re-raises instead,
* **Retry-After honouring** — when the caught exception carries a
  ``retry_after`` hint (e.g. :class:`~repro.service.BackpressureError`),
  the wait is raised to at least that hint.

Use it through :func:`call_with_retry`.  ``sleep`` and ``clock`` are
injectable so tests run in virtual time.
"""

from __future__ import annotations

import dataclasses
import random
import time
from collections.abc import Callable


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How often, how long, and on which exceptions to retry."""

    #: Total attempts, including the first (1 = no retries).
    max_attempts: int = 4
    #: First backoff cap in seconds.
    base_delay: float = 0.05
    #: Upper bound of any single backoff.
    max_delay: float = 2.0
    #: Exponential growth factor of the backoff cap.
    multiplier: float = 2.0
    #: Overall time budget in seconds (``None`` = unbounded).
    deadline: float | None = None
    #: Full jitter: wait uniform in ``[0, cap]`` instead of exactly cap.
    jitter: bool = True
    #: Exception classes that trigger a retry; everything else is
    #: re-raised immediately.
    retry_on: tuple[type[BaseException], ...] = (Exception,)
    #: Seed of the jitter RNG (``None`` = nondeterministic).
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    def backoff_cap(self, attempt: int) -> float:
        """The backoff ceiling after the ``attempt``-th failure (0-based)."""
        return min(
            self.max_delay, self.base_delay * self.multiplier**attempt
        )

    def delay_for(self, attempt: int, rng: random.Random) -> float:
        cap = self.backoff_cap(attempt)
        return rng.uniform(0.0, cap) if self.jitter else cap


def call_with_retry(
    function: Callable,
    *args,
    policy: RetryPolicy | None = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
    on_retry: Callable[[int, float, BaseException], None] | None = None,
    **kwargs,
):
    """Run ``function`` under ``policy``; returns its result or re-raises
    the final exception once attempts/deadline are exhausted.

    ``on_retry(attempt, delay, exc)`` is invoked before each backoff
    sleep — the hook where callers count retries into their metrics.
    """
    policy = policy if policy is not None else RetryPolicy()
    rng = random.Random(policy.seed)
    started = clock()
    failures = 0
    while True:
        try:
            return function(*args, **kwargs)
        except policy.retry_on as exc:
            failures += 1
            if failures >= policy.max_attempts:
                raise
            delay = policy.delay_for(failures - 1, rng)
            hint = getattr(exc, "retry_after", None)
            if hint is not None:
                delay = max(delay, float(hint))
            if (
                policy.deadline is not None
                and clock() - started + delay > policy.deadline
            ):
                raise
            if on_retry is not None:
                on_retry(failures, delay, exc)
            sleep(delay)
