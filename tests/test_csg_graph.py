"""Unit tests for CSG graphs, conversion, and instances."""

import pytest

from repro.csg import (
    AT_LEAST_ONE,
    AT_MOST_ONE,
    EXACTLY_ONE,
    Cardinality,
    Csg,
    CsgError,
    CsgInstance,
    NodeKind,
    RelationshipKind,
    database_to_csg,
    schema_to_csg,
    tuple_id,
)
from repro.relational import (
    Database,
    DataType,
    NotNull,
    Schema,
    foreign_key,
    primary_key,
    relation,
    unique,
)


@pytest.fixture
def schema():
    built = Schema(
        "s",
        relations=[
            relation("records", [("id", DataType.INTEGER), "title", "artist"]),
            relation("tracks", [("record", DataType.INTEGER), "title"]),
        ],
        constraints=[
            primary_key("records", "id"),
            NotNull("records", "title"),
            unique("records", "title"),
            foreign_key("tracks", "record", "records", "id"),
            NotNull("tracks", "record"),
        ],
    )
    return built


class TestGraphBasics:
    def test_duplicate_node_rejected(self):
        graph = Csg("g")
        graph.add_table_node("r")
        with pytest.raises(CsgError):
            graph.add_table_node("r")

    def test_unknown_node_rejected(self):
        graph = Csg("g")
        with pytest.raises(CsgError):
            graph.node("missing")

    def test_relationship_pair_binds_inverse(self):
        graph = Csg("g")
        a = graph.add_table_node("a")
        b = graph.add_attribute_node("a", "x")
        fwd, bwd = graph.add_relationship_pair(
            a, b, RelationshipKind.ATTRIBUTE, EXACTLY_ONE, AT_LEAST_ONE
        )
        assert fwd.inverse is bwd and bwd.inverse is fwd

    def test_relationship_endpoints_must_be_in_graph(self):
        graph = Csg("g")
        a = graph.add_table_node("a")
        other = Csg("h").add_table_node("b")
        with pytest.raises(CsgError):
            graph.add_relationship_pair(
                a, other, RelationshipKind.ATTRIBUTE, EXACTLY_ONE, EXACTLY_ONE
            )


class TestSchemaConversion:
    def test_node_kinds(self, schema):
        graph = schema_to_csg(schema)
        assert graph.node("records").kind is NodeKind.TABLE
        assert graph.node("records.title").kind is NodeKind.ATTRIBUTE

    def test_node_counts(self, schema):
        graph = schema_to_csg(schema)
        assert len(graph.table_nodes()) == 2
        assert len(graph.attribute_nodes()) == 5

    def test_not_null_gives_exactly_one(self, schema):
        graph = schema_to_csg(schema)
        rel = graph.relationship("records", "records.title")
        assert rel.cardinality == EXACTLY_ONE

    def test_nullable_gives_at_most_one(self, schema):
        graph = schema_to_csg(schema)
        rel = graph.relationship("records", "records.artist")
        assert rel.cardinality == AT_MOST_ONE

    def test_unique_gives_exactly_one_backward(self, schema):
        graph = schema_to_csg(schema)
        rel = graph.relationship("records.title", "records")
        assert rel.cardinality == EXACTLY_ONE

    def test_non_unique_gives_at_least_one_backward(self, schema):
        graph = schema_to_csg(schema)
        rel = graph.relationship("records.artist", "records")
        assert rel.cardinality == AT_LEAST_ONE

    def test_pk_attribute_is_not_null_and_unique(self, schema):
        graph = schema_to_csg(schema)
        assert graph.relationship("records", "records.id").cardinality == EXACTLY_ONE
        assert graph.relationship("records.id", "records").cardinality == EXACTLY_ONE

    def test_fk_becomes_equality_relationship(self, schema):
        graph = schema_to_csg(schema)
        rel = graph.relationship("tracks.record", "records.id")
        assert rel.kind is RelationshipKind.EQUALITY
        assert rel.cardinality == EXACTLY_ONE
        assert rel.inverse.cardinality == AT_MOST_ONE


class TestInstanceConversion:
    @pytest.fixture
    def database(self, schema):
        db = Database(schema)
        db.insert_all(
            "records",
            [(1, "Sweet Home", "Skynyrd"), (2, "Anxiety", "Skynyrd")],
        )
        db.insert_all("tracks", [(1, "t1"), (1, "t2")])
        return db

    def test_table_elements_are_tuple_ids(self, database):
        _, instance = database_to_csg(database)
        assert tuple_id("records", 0) in instance.elements("records")
        assert len(instance.elements("records")) == 2

    def test_attribute_elements_are_distinct_values(self, database):
        _, instance = database_to_csg(database)
        assert instance.elements("records.artist") == {"Skynyrd"}

    def test_attribute_links(self, database):
        graph, instance = database_to_csg(database)
        rel = graph.relationship("records", "records.title")
        assert (tuple_id("records", 0), "Sweet Home") in instance.links(rel)

    def test_null_values_produce_no_links(self, schema):
        db = Database(schema)
        db.insert("records", (1, "T", None))
        graph, instance = database_to_csg(db)
        rel = graph.relationship("records", "records.artist")
        assert instance.links(rel) == frozenset()

    def test_equality_links_cover_common_values(self, database):
        graph, instance = database_to_csg(database)
        rel = graph.relationship("tracks.record", "records.id")
        assert instance.links(rel) == frozenset({(1, 1)})


class TestImageCounts:
    @pytest.fixture
    def setup(self, schema):
        db = Database(schema)
        db.insert_all(
            "records", [(1, "A", "X"), (2, "B", None), (3, "C", "X")]
        )
        graph, instance = database_to_csg(db)
        path = (graph.relationship("records", "records.artist"),)
        return graph, instance, path

    def test_counts_per_element(self, setup):
        _, instance, path = setup
        counts = instance.image_counts(path)
        assert counts[tuple_id("records", 0)] == 1
        assert counts[tuple_id("records", 1)] == 0

    def test_actual_cardinality_hull(self, setup):
        _, instance, path = setup
        assert str(instance.actual_cardinality(path)) == "0..1"

    def test_count_violations(self, setup):
        _, instance, path = setup
        assert instance.count_violations(path, EXACTLY_ONE) == 1

    def test_violating_elements(self, setup):
        _, instance, path = setup
        offenders = instance.violating_elements(path, EXACTLY_ONE)
        assert offenders == {tuple_id("records", 1): 0}

    def test_empty_path_rejected(self, setup):
        _, instance, _ = setup
        with pytest.raises(CsgError):
            instance.image_counts(())

    def test_empty_node_gives_empty_cardinality(self, schema):
        db = Database(schema)
        graph, instance = database_to_csg(db)
        path = (graph.relationship("records", "records.title"),)
        assert instance.actual_cardinality(path) == Cardinality.empty()

    def test_two_hop_path(self, schema):
        db = Database(schema)
        db.insert_all("records", [(1, "A", "X")])
        db.insert_all("tracks", [(1, "t1"), (1, "t2")])
        graph, instance = database_to_csg(db)
        path = (
            graph.relationship("tracks", "tracks.record"),
            graph.relationship("tracks.record", "records.id"),
            graph.relationship("records.id", "records"),
        )
        counts = instance.image_counts(path)
        assert counts[tuple_id("tracks", 0)] == 1

    def test_path_from_another_graph_is_rejected(self, setup, schema):
        # A graph rebuilt from the same schema has equal-looking but
        # distinct relationship objects, which own no links here: counting
        # through one would report 0 images for every element.
        _, instance, _ = setup
        rebuilt = schema_to_csg(schema)
        foreign = (rebuilt.relationship("records", "records.artist"),)
        with pytest.raises(CsgError, match="records->records.artist"):
            instance.image_counts(foreign)
        with pytest.raises(CsgError, match="records->records.artist"):
            instance.count_violations(foreign, Cardinality.of(1))
