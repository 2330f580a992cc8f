"""The column-backed CSG instance against the set-based one it replaced.

``ReferenceCsgInstance`` and ``reference_database_to_csg`` are the former
implementation, kept unchanged: conversion built every element set and
every per-tuple link set, and each counted path rebuilt an adjacency
dict per relationship.  The column-backed :class:`repro.csg.CsgInstance`
must agree with it on elements, links, image sets and image counts for
every path the structure detector could match.

The reference links only the first relationship it finds between two
attribute nodes, so a second foreign key over the same column pair got
no links, and a path through it reached nothing.  The generated schemas
therefore never put two foreign keys on one pair of columns;
``test_second_foreign_key_on_a_column_pair_is_linked`` and
``test_detector_counts_through_the_second_foreign_key`` pin the
column-backed behaviour there.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Sequence

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.modules import structure as structure_module
from repro.core.modules.structure import StructureConflictDetector
from repro.csg import (
    CsgError,
    CsgInstance,
    database_to_csg,
    find_paths,
    schema_to_csg,
)
from repro.csg.graph import Csg, Relationship
from repro.matching.correspondence import (
    CorrespondenceSet,
    attribute_correspondence,
    relation_correspondence,
)
from repro.relational import (
    Database,
    DataType,
    NotNull,
    Schema,
    foreign_key,
    relation,
)
from repro.relational.constraints import ForeignKey

Link = tuple[object, object]


class ReferenceCsgInstance:
    """Elements and links for a CSG, held as Python sets."""

    def __init__(self, graph: Csg) -> None:
        self.graph = graph
        self._elements: dict[str, set[object]] = {
            node.name: set() for node in graph.nodes
        }
        self._links: dict[int, set[Link]] = {}

    def add_elements(self, node_name: str, elements: Iterable[object]) -> None:
        if node_name not in self._elements:
            raise CsgError(f"unknown CSG node: {node_name!r}")
        self._elements[node_name].update(elements)

    def add_links(
        self, relationship: Relationship, links: Iterable[Link]
    ) -> None:
        forward = self._links.setdefault(id(relationship), set())
        backward = self._links.setdefault(id(relationship.inverse), set())
        for start_element, end_element in links:
            forward.add((start_element, end_element))
            backward.add((end_element, start_element))

    def elements(self, node_name: str) -> frozenset[object]:
        try:
            return frozenset(self._elements[node_name])
        except KeyError:
            raise CsgError(f"unknown CSG node: {node_name!r}") from None

    def links(self, relationship: Relationship) -> frozenset[Link]:
        return frozenset(self._links.get(id(relationship), ()))

    def image_sets(
        self, path: Sequence[Relationship]
    ) -> dict[object, set[object]]:
        if not path:
            raise CsgError("image_sets requires a non-empty path")
        for relationship in path:
            if not self.graph.has_relationship(relationship):
                raise CsgError(
                    f"relationship {relationship.label} is not in CSG "
                    f"{self.graph.name!r}"
                )
        start_node = path[0].start.name
        reachable: dict[object, set[object]] = {
            element: {element} for element in self._elements[start_node]
        }
        for relationship in path:
            adjacency: dict[object, set[object]] = defaultdict(set)
            for a, b in self._links.get(id(relationship), ()):
                adjacency[a].add(b)
            reachable = {
                origin: set().union(
                    *(adjacency.get(current, set()) for current in frontier)
                )
                if frontier
                else set()
                for origin, frontier in reachable.items()
            }
        return reachable

    def image_counts(self, path: Sequence[Relationship]) -> dict[object, int]:
        return {
            origin: len(frontier)
            for origin, frontier in self.image_sets(path).items()
        }


def reference_database_to_csg(
    database: Database,
) -> tuple[Csg, ReferenceCsgInstance]:
    graph = schema_to_csg(database.schema)
    instance = ReferenceCsgInstance(graph)
    for relation_ in database.schema.relations:
        table = database.table(relation_.name)
        ids = [(relation_.name, index) for index in range(len(table))]
        instance.add_elements(relation_.name, ids)
        for position, attribute in enumerate(relation_.attributes):
            node_name = f"{relation_.name}.{attribute.name}"
            relationship = graph.relationship(relation_.name, node_name)
            links = []
            values: set[object] = set()
            for index, row in enumerate(table):
                value = row[position]
                if value is None:
                    continue
                values.add(value)
                links.append((ids[index], value))
            instance.add_elements(node_name, values)
            instance.add_links(relationship, links)
    for constraint in database.schema.foreign_keys():
        _reference_link_foreign_key(graph, instance, constraint)
    return graph, instance


def _reference_link_foreign_key(
    graph: Csg, instance: ReferenceCsgInstance, constraint: ForeignKey
) -> None:
    for attribute, referenced_attribute in zip(
        constraint.attributes, constraint.referenced_attributes
    ):
        referencing_name = f"{constraint.relation}.{attribute}"
        referenced_name = f"{constraint.referenced}.{referenced_attribute}"
        relationship = graph.relationship(referencing_name, referenced_name)
        common = instance.elements(referencing_name) & instance.elements(
            referenced_name
        )
        instance.add_links(relationship, [(value, value) for value in common])


# ----------------------------------------------------------------------
# Generated databases
# ----------------------------------------------------------------------

_VALUES = {
    DataType.INTEGER: st.none() | st.integers(0, 3),
    DataType.FLOAT: st.none() | st.sampled_from([0.0, 1.0, 2.5]),
    DataType.STRING: st.none() | st.sampled_from(["x", "y", "z"]),
}


@st.composite
def databases(draw) -> Database:
    """One to three relations of up to three nullable INTEGER, FLOAT or
    STRING attributes over tiny domains (so values repeat, FK columns
    share values, and 1 meets 1.0), zero to six rows each, and up to
    three single or composite foreign keys, never two on one pair of
    columns."""
    shapes = []
    for index in range(draw(st.integers(1, 3))):
        types = draw(
            st.lists(st.sampled_from(list(_VALUES)), min_size=1, max_size=3)
        )
        shapes.append(
            (f"r{index}", [(f"a{i}", t) for i, t in enumerate(types)])
        )
    constraints = []
    linked: set[frozenset[str]] = set()
    for _ in range(draw(st.integers(0, 3))):
        (child, child_attrs), (parent, parent_attrs) = (
            draw(st.sampled_from(shapes)),
            draw(st.sampled_from(shapes)),
        )
        width = draw(
            st.integers(1, min(2, len(child_attrs), len(parent_attrs)))
        )
        attributes = draw(st.permutations([a for a, _ in child_attrs]))
        referenced = draw(st.permutations([a for a, _ in parent_attrs]))
        attributes, referenced = attributes[:width], referenced[:width]
        pairs = [
            frozenset((f"{child}.{a}", f"{parent}.{b}"))
            for a, b in zip(attributes, referenced)
        ]
        if len(set(pairs)) < width or linked.intersection(pairs):
            continue
        linked.update(pairs)
        constraints.append(
            foreign_key(child, tuple(attributes), parent, tuple(referenced))
        )
    schema = Schema(
        "generated",
        relations=[relation(name, attrs) for name, attrs in shapes],
        constraints=constraints,
    )
    database = Database(schema)
    for name, attrs in shapes:
        rows = draw(
            st.lists(st.tuples(*(_VALUES[t] for _, t in attrs)), max_size=6)
        )
        database.insert_all(name, rows)
    return database


def _counterpart(graph: Csg, relationship: Relationship) -> Relationship:
    """The relationship of ``graph`` between the same two nodes."""
    return graph.relationship(relationship.start.name, relationship.end.name)


class TestAgainstReference:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(databases())
    def test_same_elements_links_and_images(self, database):
        graph, instance = database_to_csg(database)
        reference_graph, reference = reference_database_to_csg(database)
        for node in graph.nodes:
            assert instance.elements(node.name) == reference.elements(
                node.name
            )
        for relationship in graph.relationships:
            assert instance.links(relationship) == reference.links(
                _counterpart(reference_graph, relationship)
            ), relationship.label
        for start in graph.nodes:
            for end in graph.nodes:
                for path in find_paths(graph, start, end, max_length=4):
                    reference_path = tuple(
                        _counterpart(reference_graph, rel) for rel in path
                    )
                    labels = [rel.label for rel in path]
                    assert instance.image_sets(path) == reference.image_sets(
                        reference_path
                    ), labels
                    assert instance.image_counts(
                        path
                    ) == reference.image_counts(reference_path), labels

    def test_second_foreign_key_on_a_column_pair_is_linked(self):
        # a.x -> b.y and b.y -> a.x: two equality pairs between one pair
        # of columns.  Every equality relationship links the common
        # values; the reference linked only the first pair it found.
        schema = Schema(
            "mutual",
            relations=[
                relation("a", [("x", DataType.INTEGER)]),
                relation("b", [("y", DataType.INTEGER)]),
            ],
            constraints=[
                foreign_key("a", ("x",), "b", ("y",)),
                foreign_key("b", ("y",), "a", ("x",)),
            ],
        )
        database = Database(schema)
        database.insert_all("a", [(1,), (2,)])
        database.insert_all("b", [(1,), (2,), (3,)])
        graph, instance = database_to_csg(database)
        _, reference = reference_database_to_csg(database)
        second = [
            rel
            for rel in graph.outgoing(graph.node("b.y"))
            if rel.end.name == "a.x"
        ][1]
        assert instance.links(second) == {(1, 1), (2, 2)}
        assert instance.image_counts((second,)) == {1: 1, 2: 1, 3: 0}
        reference_second = [
            rel
            for rel in reference.graph.outgoing(reference.graph.node("b.y"))
            if rel.end.name == "a.x"
        ][1]
        assert reference.links(reference_second) == frozenset()


_INT = DataType.INTEGER


def test_detector_counts_through_the_second_foreign_key():
    # The path a -> a.x -> b.y -> b -> b.k is most concise through the
    # second key's a.x -> b.y (κ 1), so the count runs along it.  Only
    # a = 1 reaches two k values; with that edge unlinked, all three a
    # tuples read 0 images and counted as violations.
    source = Database(
        Schema(
            "src",
            relations=[
                relation("b", [("y", _INT), ("k", _INT)]),
                relation("a", [("x", _INT), ("w", DataType.STRING)]),
            ],
            constraints=[
                foreign_key("b", ("y",), "a", ("x",)),
                foreign_key("a", ("x",), "b", ("y",)),
                NotNull("a", "x"),
                NotNull("b", "k"),
            ],
        )
    )
    source.insert_all("b", [(1, 10), (1, 11), (2, 20), (3, 30)])
    source.insert_all("a", [(1, "p"), (2, "q"), (3, "r")])
    target = Database(
        Schema(
            "tgt",
            relations=[relation("t", [("k", _INT), ("w", DataType.STRING)])],
            constraints=[NotNull("t", "k")],
        )
    )
    correspondences = CorrespondenceSet(
        [
            relation_correspondence("a", "t"),
            attribute_correspondence("b.k", "t.k"),
            attribute_correspondence("a.w", "t.w"),
        ]
    )
    violations = StructureConflictDetector()._detect(
        source, target, correspondences
    )
    assert [
        (v.target_relationship, v.inferred, v.violation_count, v.scope)
        for v in violations
    ] == [("t->t.k", "1..*", 1, 3)]


class TestTable3:
    def test_example_counts_match_reference(self, example, monkeypatch):
        ((source, correspondences),) = example.pairs()
        detector = StructureConflictDetector()
        column_backed = detector._detect(
            source, example.target, correspondences
        )
        monkeypatch.setattr(
            structure_module, "database_to_csg", reference_database_to_csg
        )
        reference = detector._detect(source, example.target, correspondences)
        assert column_backed == reference
        assert {
            (v.target_relationship, v.prescribed): v.violation_count
            for v in column_backed
        } == {
            ("records->records.artist", "1"): 503,
            ("records.artist->records", "1..*"): 102,
        }


def test_paths_of_another_graph_are_rejected():
    schema = Schema("s", relations=[relation("r", [("v", DataType.INTEGER)])])
    database = Database(schema)
    database.insert_all("r", [(1,), (None,)])
    _, instance = database_to_csg(database)
    rebuilt = schema_to_csg(schema)
    foreign = (rebuilt.relationship("r", "r.v"),)
    with pytest.raises(CsgError, match="r->r.v"):
        instance.image_sets(foreign)
    assert instance.links(foreign[0]) == frozenset()


def test_constructor_rejects_missing_or_ragged_columns():
    schema = Schema("s", relations=[relation("r", [("v", DataType.INTEGER)])])
    graph = schema_to_csg(schema)
    with pytest.raises(CsgError, match="'r'"):
        CsgInstance(graph, {}, {"r.v": []})
    with pytest.raises(CsgError, match="'r.v'"):
        CsgInstance(graph, {"r": 2}, {"r.v": [1]})
    with pytest.raises(CsgError, match="'r.v'"):
        CsgInstance(graph, {"r": 0}, {})
