"""Shared fixtures: scenario builders are expensive enough to cache."""

from __future__ import annotations

import pytest

from repro.core import default_efes
from repro.scenarios import example_scenario
from repro.scenarios.example import ExampleParameters


@pytest.fixture(scope="session")
def example():
    """The paper's running example (Figure 2), full size."""
    return example_scenario()


@pytest.fixture(scope="session")
def small_example():
    """A small variant of the running example for fast planner tests."""
    return example_scenario(
        ExampleParameters(
            albums=120,
            multi_artist_albums=30,
            detached_artists=8,
            target_records=40,
        )
    )


@pytest.fixture(scope="session")
def efes():
    return default_efes()


@pytest.fixture(scope="session")
def example_reports(example, efes):
    """The three complexity reports of the running example."""
    return efes.assess(example)


@pytest.fixture()
def caster_calls(monkeypatch):
    """Calls of each per-value caster, by datatype, while the test runs."""
    from collections import Counter

    from repro.relational import datatypes

    calls = Counter()
    for datatype, caster in list(datatypes._CASTERS.items()):

        def counted(value, caster=caster, datatype=datatype):
            calls[datatype] += 1
            return caster(value)

        monkeypatch.setitem(datatypes._CASTERS, datatype, counted)
    return calls
