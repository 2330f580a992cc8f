"""Tests for the content-keyed profile cache: hits on unchanged data,
invalidation on mutation, and cached-equals-uncached equivalence on
seeded-random schemas."""

import random

import pytest

from repro.profiling import (
    compute_column_profile,
    compute_fds,
    compute_inds,
    compute_uccs,
)
from repro.relational import Database, DataType, Schema, relation
from repro.runtime import (
    ContentKey,
    ProfileCache,
    Runtime,
    fingerprint_database,
)


def build_database():
    schema = Schema(
        "db",
        relations=[
            relation(
                "albums",
                [("id", DataType.INTEGER), ("name", DataType.STRING)],
            ),
            relation(
                "songs",
                [
                    ("album", DataType.INTEGER),
                    ("title", DataType.STRING),
                    ("length", DataType.INTEGER),
                ],
            ),
        ],
    )
    db = Database(schema)
    db.insert_all("albums", [(1, "A"), (2, "B"), (3, "C")])
    db.insert_all("songs", [(1, "s1", 100), (1, "s2", None), (2, "s3", 300)])
    return db


class TestCacheHitsAndMisses:
    def test_repeated_profiling_hits(self):
        runtime = Runtime()
        db = build_database()
        first = runtime.profile_database(db)
        misses = runtime.metrics.cache_misses
        second = runtime.profile_database(db)
        assert second is first  # the memoised object itself
        assert runtime.metrics.cache_misses == misses
        assert runtime.metrics.cache_hits >= 1

    def test_repeated_dependency_discovery_hits(self):
        runtime = Runtime()
        db = build_database()
        assert runtime.discover_uccs(db) == runtime.discover_uccs(db)
        assert runtime.discover_fds(db) == runtime.discover_fds(db)
        assert runtime.discover_inds(db) == runtime.discover_inds(db)
        assert runtime.metrics.cache_hits == 3

    def test_insert_invalidates(self):
        runtime = Runtime()
        db = build_database()
        before = runtime.profile_database(db)
        db.insert("albums", (4, "D"))
        after = runtime.profile_database(db)
        assert after is not before
        assert after[("albums", "id")].row_count == 4
        assert runtime.metrics.cache_misses > len(before)

    def test_update_and_delete_invalidate(self):
        runtime = Runtime()
        db = build_database()
        runtime.profile_column(db, "albums", "name")
        db.table("albums").update_where(
            lambda row: row["id"] == 1, {"name": "Z"}
        )
        updated = runtime.profile_column(db, "albums", "name")
        assert "Z" in db.table("albums").column("name")
        db.table("albums").delete_where(lambda row: row["id"] == 2)
        deleted = runtime.profile_column(db, "albums", "name")
        assert deleted.row_count == updated.row_count - 1

    def test_identical_content_shares_entries(self):
        runtime = Runtime()
        first, second = build_database(), build_database()
        profile_a = runtime.profile_column(first, "songs", "length")
        profile_b = runtime.profile_column(second, "songs", "length")
        assert profile_b is profile_a
        assert runtime.metrics.cache_hits == 1


class TestFingerprints:
    def test_stable_for_unchanged_content(self):
        db = build_database()
        assert fingerprint_database(db) == fingerprint_database(db)

    def test_identical_content_identical_fingerprint(self):
        assert fingerprint_database(build_database()) == fingerprint_database(
            build_database()
        )

    def test_mutation_changes_fingerprint(self):
        db = build_database()
        before = fingerprint_database(db)
        db.insert("songs", (3, "s4", 400))
        assert fingerprint_database(db) != before

    def test_value_change_changes_fingerprint(self):
        db = build_database()
        before = fingerprint_database(db)
        db.table("songs").map_column("length", lambda v: v + 1)
        assert fingerprint_database(db) != before


class TestCacheMaintenance:
    def test_explicit_invalidation(self):
        runtime = Runtime()
        db = build_database()
        runtime.profile_database(db)
        assert len(runtime.cache) > 0
        dropped = runtime.cache.invalidate(db)
        assert dropped > 0
        assert len(runtime.cache) == 0

    def test_eviction_respects_bound(self):
        cache = ProfileCache(max_entries=2)
        runtime = Runtime(cache=cache, metrics=cache.metrics)
        db = build_database()
        runtime.profile_column(db, "albums", "id")
        runtime.profile_column(db, "albums", "name")
        runtime.profile_column(db, "songs", "title")
        assert len(cache) == 2
        assert cache.metrics.counter("cache_evictions") == 1


class TestCanonicalKeys:
    """Regression: fingerprints hash canonical column bytes, not reprs.

    Keys must be independent of constraint declaration order and immune
    to separator-forging values — and therefore identical no matter
    which process computed the entry.
    """

    def test_constraint_declaration_order_is_irrelevant(self):
        from repro.relational.constraints import NotNull, Unique

        def build(order):
            schema = Schema(
                "db",
                relations=[
                    relation(
                        "albums",
                        [("id", DataType.INTEGER), ("name", DataType.STRING)],
                    )
                ],
                constraints=order,
            )
            db = Database(schema)
            db.insert_all("albums", [(1, "A"), (2, "B")])
            return db

        forward = [Unique("albums", ("id",)), NotNull("albums", "name")]
        backward = [NotNull("albums", "name"), Unique("albums", ("id",))]
        assert fingerprint_database(build(forward)) == fingerprint_database(
            build(backward)
        )

    def test_separator_values_cannot_collide(self):
        """Values that mimic old field/row separators hash distinctly."""

        def single_column(values):
            schema = Schema(
                "db",
                relations=[relation("t", [("v", DataType.STRING)])],
            )
            db = Database(schema)
            db.insert_all("t", [(value,) for value in values])
            return db

        # One row "a\x1fb" vs two rows "a"/"b": a separator-joined repr
        # hash could conflate these; length-prefixed blocks cannot.
        joined = single_column(["a\x1fb"])
        split = single_column(["a", "b"])
        assert fingerprint_database(joined) != fingerprint_database(split)
        # repr-lookalike strings must differ from the values they mimic.
        assert fingerprint_database(
            single_column(["'x'"])
        ) != fingerprint_database(single_column(["x"]))

    def test_numeric_types_hash_distinctly(self):
        def one(datatype, value):
            schema = Schema(
                "db", relations=[relation("t", [("v", datatype)])]
            )
            db = Database(schema)
            db.insert("t", (value,))
            return db

        # 1 and 1.0 share repr-adjacent forms but are different typed
        # columns; the canonical encoding keeps them apart.
        assert fingerprint_database(
            one(DataType.INTEGER, 1)
        ) != fingerprint_database(one(DataType.FLOAT, 1.0))


def random_database(seed: int) -> Database:
    """A seeded-random schema + instance for the property check."""
    rng = random.Random(seed)
    relations = []
    for index in range(rng.randint(1, 3)):
        attributes = [("id", DataType.INTEGER)]
        for attr_index in range(rng.randint(1, 3)):
            datatype = rng.choice(
                [DataType.INTEGER, DataType.STRING, DataType.FLOAT]
            )
            attributes.append((f"a{attr_index}", datatype))
        relations.append(relation(f"r{index}", attributes))
    schema = Schema(f"random{seed}", relations=relations)
    db = Database(schema)
    for rel in schema.relations:
        for row_index in range(rng.randint(0, 25)):
            row = [row_index]
            for _, datatype in [
                (a.name, a.datatype) for a in rel.attributes[1:]
            ]:
                if rng.random() < 0.15:
                    row.append(None)
                elif datatype is DataType.INTEGER:
                    row.append(rng.randint(0, 9))
                elif datatype is DataType.FLOAT:
                    row.append(round(rng.uniform(0, 100), 2))
                else:
                    row.append(rng.choice(["x", "yy", "z-3", "W 4"]))
            db.insert(rel.name, row)
    return db


class TestCachedEqualsUncached:
    """Property: for random schemas, cached results equal fresh computation."""

    @pytest.mark.parametrize("seed", range(12))
    def test_profiles_equal(self, seed):
        runtime = Runtime()
        db = random_database(seed)
        cached = runtime.profile_database(db)
        again = runtime.profile_database(db)
        assert again is cached
        for (relation_name, attribute_name), profile in cached.items():
            uncached = compute_column_profile(
                db, relation_name, attribute_name
            )
            assert profile == uncached

    @pytest.mark.parametrize("seed", range(12))
    def test_dependencies_equal(self, seed):
        runtime = Runtime()
        db = random_database(seed)
        assert runtime.discover_uccs(db) == compute_uccs(db)
        assert runtime.discover_inds(db) == compute_inds(db)
        assert runtime.discover_fds(db) == compute_fds(db)
        # And the second (cached) round still matches.
        assert runtime.discover_uccs(db) == compute_uccs(db)
        assert runtime.metrics.cache_hits >= 1


def one_column(datatype, values):
    """A one-relation, one-column database holding exactly ``values``.

    The column is appended as given, past the datatype cast that would
    turn ``True`` into ``1`` in an INTEGER column.
    """
    db = Database(Schema("db", relations=[relation("r", [("x", datatype)])]))
    db.table("r")._append(len(values), [list(values)])
    return db


def updated_length(db):
    db.table("songs").update_where(
        lambda row: row["title"] == "s1", {"length": 101}
    )
    return db


class TestContentKeys:
    """Cache keys hash content cheaply and fingerprint only to tell apart
    two databases whose hashes match."""

    def test_cold_run_encodes_and_fingerprints_nothing(self, monkeypatch):
        from repro.core import ResultQuality, default_efes
        from repro.relational import instance as instance_module
        from repro.runtime import cache as cache_module
        from repro.scenarios.catalogue import SCENARIO_BUILDERS

        calls = []

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(instance_module, "encode_column")
        counted(cache_module, "fingerprint_database")
        counted(cache_module, "_relation_digest")
        for seed in (1, 2):
            for build in SCENARIO_BUILDERS.values():
                for quality in ResultQuality:
                    scenario = build(seed)
                    default_efes(runtime=Runtime()).run(scenario, quality)
                    assert calls == []

    @pytest.mark.parametrize(
        "build_first, build_second, same_hash",
        [
            (build_database, lambda: updated_length(build_database()), False),
            (
                lambda: one_column(DataType.INTEGER, [1, 2, None]),
                lambda: one_column(DataType.INTEGER, [True, 2, None]),
                True,
            ),
            (
                lambda: one_column(DataType.FLOAT, [0.0, 1.5, 0.0]),
                lambda: one_column(DataType.FLOAT, [-0.0, 1.5, 0.0]),
                True,
            ),
        ],
        ids=["updated-value", "1-True", "0.0-minus-0.0"],
    )
    def test_one_changed_value_shares_no_entry(
        self, build_first, build_second, same_hash
    ):
        first, second = build_first(), build_second()
        # 1/True and 0.0/-0.0 hash alike: only fingerprints tell them apart.
        assert (hash(ContentKey(first)) == hash(ContentKey(second))) is same_hash
        runtime = Runtime()
        own = runtime.profile_database(first)
        profiles = runtime.profile_database(second)
        assert runtime.metrics.cache_hits == 0
        assert repr(profiles) == repr(Runtime().profile_database(second))
        assert repr(profiles) != repr(own)
