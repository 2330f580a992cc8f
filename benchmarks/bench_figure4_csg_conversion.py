"""Figure 4 — the running example translated into CSGs.

Times the relational → CSG conversion of both example databases and
verifies the prescribed cardinalities the figure annotates.  The source
conversion builds the graph and copies the row counts and attribute
columns into the column-backed instance; elements and links are derived
from those columns when a path is counted, so counting is not timed here.
"""

from repro.csg import (
    AT_LEAST_ONE,
    AT_MOST_ONE,
    EXACTLY_ONE,
    database_to_csg,
    schema_to_csg,
)
from repro.reporting import render_table


def test_figure4_csg_conversion(benchmark, example):
    def convert_both():
        source_graph, source_instance = database_to_csg(example.sources[0])
        target_graph = schema_to_csg(example.target.schema)
        return source_graph, source_instance, target_graph

    source_graph, source_instance, target_graph = benchmark(convert_both)

    # Figure 4's annotated cardinalities (target side).
    expectations = [
        ("tracks", "tracks.record", EXACTLY_ONE),       # record NOT NULL
        ("tracks.record", "tracks", AT_LEAST_ONE),      # not unique
        ("records", "records.id", EXACTLY_ONE),         # PK
        ("records.id", "records", EXACTLY_ONE),         # PK
        ("tracks", "tracks.duration", AT_MOST_ONE),     # nullable
    ]
    rows = []
    for start, end, expected in expectations:
        actual = target_graph.relationship(start, end).cardinality
        rows.append((f"ρ_{start}→{end}", str(expected), str(actual)))
        assert actual == expected
    print()
    print(
        render_table(
            ["Relationship", "Figure 4", "Converted"],
            rows,
            title="Figure 4 — prescribed cardinalities after conversion",
        )
    )

    # Conversion is lossless: every source tuple appears as an element.
    assert len(source_instance.elements("albums")) == len(
        example.sources[0].table("albums")
    )
    assert len(source_graph.table_nodes()) == 4
