"""The shipped scenarios by name, and how references to them resolve.

:data:`SCENARIO_BUILDERS` is the one table of catalogue names; ``efes
list``, :func:`scenario_catalogue`, :func:`resolve_scenario` and the
servers' :class:`ScenarioCache` all read it, so each builds only the
scenarios it names.  Any other reference is a scenario directory, read
by :func:`~repro.scenarios.io.load_scenario` on every resolve.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Hashable
from concurrent.futures import Future
from pathlib import Path
from typing import TypeVar

from .bibliographic import (
    scenario_s1_s2,
    scenario_s1_s3,
    scenario_s3_s4,
    scenario_s4_s4,
)
from .example import example_scenario
from .io import load_scenario
from .music import (
    scenario_d1_d2,
    scenario_f1_m2,
    scenario_m1_d2,
    scenario_m1_f2,
)
from .scenario import IntegrationScenario

#: The running example's catalogue name; its builder ignores the seed.
EXAMPLE = "example"

#: Every shipped scenario by name, in ``efes list`` order, with the
#: function that builds it deterministically from a seed.
SCENARIO_BUILDERS: dict[str, Callable[[int], IntegrationScenario]] = {
    EXAMPLE: lambda seed: example_scenario(),
    "s1-s2": scenario_s1_s2,
    "s1-s3": scenario_s1_s3,
    "s3-s4": scenario_s3_s4,
    "s4-s4": scenario_s4_s4,
    "f1-m2": scenario_f1_m2,
    "m1-d2": scenario_m1_d2,
    "m1-f2": scenario_m1_f2,
    "d1-d2": scenario_d1_d2,
}

T = TypeVar("T")


class UnknownScenarioError(KeyError):
    """A scenario reference names neither a catalogue entry nor a
    directory in the on-disk format."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return (
            f"unknown scenario {self.name!r}; run `efes list` or pass a "
            "scenario directory (see repro.scenarios.io)"
        )


def scenario_catalogue(seed: int = 1) -> dict[str, IntegrationScenario]:
    """All shipped scenarios by name: the running example plus both
    case-study domains, built deterministically from ``seed``."""
    return {name: build(seed) for name, build in SCENARIO_BUILDERS.items()}


def resolve_scenario(name: str, seed: int = 1) -> IntegrationScenario:
    """A shipped scenario by name, or a directory in the on-disk format.

    Builds only the named scenario.  This is the resolution path of the
    CLI and of journal replay; long-running servers resolve catalogue
    names through a :class:`ScenarioCache`, and directories through here.
    """
    build = SCENARIO_BUILDERS.get(name)
    if build is not None:
        return build(seed)
    if Path(name).is_dir():
        return load_scenario(name)
    raise UnknownScenarioError(name)


class ScenarioCache:
    """Catalogue builds kept for the life of a server.

    The first request for a catalogue name at a seed builds that seed's
    whole catalogue, so later names at the seed are free; requests that
    arrive during the build wait for it instead of starting their own.
    The running example does not depend on the seed: it is built once
    and every seed's catalogue shares it.  A failed build raises in every
    request that waited for it and is not kept, so the next request
    builds again.  Nothing is evicted.  A directory reference is not
    cached: :func:`resolve_scenario` reads it on every request, so a
    repaired CSV is seen by the next submission.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._builds: dict[Hashable, Future] = {}

    def resolve(self, name: str, seed: int) -> IntegrationScenario:
        """The scenario ``name`` refers to at ``seed``; raises
        :class:`UnknownScenarioError` for an unknown reference."""
        if name in SCENARIO_BUILDERS:
            return self.catalogue(seed)[name]
        return resolve_scenario(name, seed)

    def catalogue(self, seed: int) -> dict[str, IntegrationScenario]:
        """Every shipped scenario at ``seed``, built on the first call."""
        return self._once(("catalogue", seed), lambda: self._build(seed))

    def _build(self, seed: int) -> dict[str, IntegrationScenario]:
        return {
            name: (
                self._once(EXAMPLE, lambda: build(seed))
                if name == EXAMPLE
                else build(seed)
            )
            for name, build in SCENARIO_BUILDERS.items()
        }

    def _once(self, key: Hashable, build: Callable[[], T]) -> T:
        """``build()``'s result, computed by the first caller for ``key``
        while later callers wait on the same future."""
        with self._lock:
            future = self._builds.get(key)
            owner = future is None
            if owner:
                future = self._builds[key] = Future()
        if owner:
            try:
                future.set_result(build())
            except BaseException as exc:
                with self._lock:
                    del self._builds[key]
                future.set_exception(exc)
                raise
        return future.result()
