"""The bibliographic case study (Amalgam-style; Section 6.1, Figure 6).

Four schemas in the spirit of the Amalgam integration benchmark:

* **s1** — a denormalised dump: articles/books with concatenated author
  strings, string-typed years, and ``from-to`` page ranges,
* **s2** — a normalised publication database (publications / persons /
  authorship),
* **s3** — a key-string style database (papers with textual citation keys,
  ``Last, First`` author names, split page numbers),
* **s4** — a warehouse-style flat publication table (also usable as a
  target, which yields the identical-schema scenario s4-s4).

The four integration scenarios of Figure 6 are s1-s2, s1-s3, s3-s4 and
s4-s4 (source-target pairs; the paper uses one identical-schema scenario
plus three randomly selected ones per domain).
"""

from __future__ import annotations

from ..matching.correspondence import (
    CorrespondenceSet,
    attribute_correspondence,
    relation_correspondence,
)
from ..relational.constraints import NotNull, foreign_key, primary_key
from ..relational.database import Database
from ..relational.datatypes import DataType
from ..relational.schema import Schema, relation
from .generators import DataGenerator
from .scenario import IntegrationScenario

DOMAIN = "bibliographic"


# ----------------------------------------------------------------------
# Schemas
# ----------------------------------------------------------------------


def schema_s1() -> Schema:
    schema = Schema(
        "s1",
        relations=[
            relation(
                "articles",
                [
                    ("id", DataType.INTEGER),
                    ("title", DataType.STRING),
                    ("authors", DataType.STRING),
                    ("journal", DataType.STRING),
                    ("year", DataType.STRING),
                    ("pages", DataType.STRING),
                ],
            ),
            relation(
                "books",
                [
                    ("id", DataType.INTEGER),
                    ("title", DataType.STRING),
                    ("authors", DataType.STRING),
                    ("publisher", DataType.STRING),
                    ("year", DataType.STRING),
                ],
            ),
        ],
    )
    schema.add_constraint(primary_key("articles", "id"))
    schema.add_constraint(NotNull("articles", "title"))
    schema.add_constraint(NotNull("articles", "authors"))
    schema.add_constraint(primary_key("books", "id"))
    schema.add_constraint(NotNull("books", "title"))
    return schema


def schema_s2() -> Schema:
    schema = Schema(
        "s2",
        relations=[
            relation(
                "publications",
                [
                    ("pubid", DataType.INTEGER),
                    ("title", DataType.STRING),
                    ("venue", DataType.STRING),
                    ("year", DataType.INTEGER),
                    ("type", DataType.STRING),
                ],
            ),
            relation(
                "persons",
                [
                    ("pid", DataType.INTEGER),
                    ("name", DataType.STRING),
                ],
            ),
            relation(
                "authorship",
                [
                    ("pubid", DataType.INTEGER),
                    ("pid", DataType.INTEGER),
                    ("position", DataType.INTEGER),
                ],
            ),
        ],
    )
    schema.add_constraint(primary_key("publications", "pubid"))
    schema.add_constraint(NotNull("publications", "title"))
    schema.add_constraint(NotNull("publications", "venue"))
    schema.add_constraint(NotNull("publications", "type"))
    schema.add_constraint(primary_key("persons", "pid"))
    schema.add_constraint(NotNull("persons", "name"))
    schema.add_constraint(primary_key("authorship", ("pubid", "pid")))
    schema.add_constraint(
        foreign_key("authorship", "pubid", "publications", "pubid")
    )
    schema.add_constraint(foreign_key("authorship", "pid", "persons", "pid"))
    return schema


def schema_s3() -> Schema:
    schema = Schema(
        "s3",
        relations=[
            relation(
                "papers",
                [
                    ("pkey", DataType.STRING),
                    ("title", DataType.STRING),
                    ("venue", DataType.STRING),
                    ("year", DataType.INTEGER),
                    ("pages_from", DataType.INTEGER),
                    ("pages_to", DataType.INTEGER),
                ],
            ),
            relation(
                "authors",
                [
                    ("aid", DataType.INTEGER),
                    ("full_name", DataType.STRING),
                ],
            ),
            relation(
                "writes",
                [
                    ("paper", DataType.STRING),
                    ("author", DataType.INTEGER),
                    ("rank", DataType.INTEGER),
                ],
            ),
        ],
    )
    schema.add_constraint(primary_key("papers", "pkey"))
    schema.add_constraint(NotNull("papers", "title"))
    schema.add_constraint(NotNull("papers", "venue"))
    schema.add_constraint(primary_key("authors", "aid"))
    schema.add_constraint(NotNull("authors", "full_name"))
    schema.add_constraint(primary_key("writes", ("paper", "author")))
    schema.add_constraint(foreign_key("writes", "paper", "papers", "pkey"))
    schema.add_constraint(foreign_key("writes", "author", "authors", "aid"))
    return schema


def schema_s4() -> Schema:
    schema = Schema(
        "s4",
        relations=[
            relation(
                "publication",
                [
                    ("id", DataType.INTEGER),
                    ("title", DataType.STRING),
                    ("lead_author", DataType.STRING),
                    ("venue", DataType.STRING),
                    ("year", DataType.INTEGER),
                    ("num_pages", DataType.INTEGER),
                ],
            ),
        ],
    )
    schema.add_constraint(primary_key("publication", "id"))
    schema.add_constraint(NotNull("publication", "title"))
    schema.add_constraint(NotNull("publication", "lead_author"))
    schema.add_constraint(NotNull("publication", "venue"))
    return schema


# ----------------------------------------------------------------------
# Instances
# ----------------------------------------------------------------------


def build_s1(seed: int, articles: int = 400, books: int = 120) -> Database:
    """Denormalised dump: ``First Last; First Last`` author strings,
    string years with a sprinkle of unparseable entries, page ranges."""
    generator = DataGenerator(seed)
    database = Database(schema_s1())
    author_pool = generator.distinct_person_names(160)
    article_rows: list[dict[str, object]] = []
    for index in range(articles):
        author_count = generator.random.randint(1, 3)
        authors = "; ".join(
            generator.random.sample(author_pool, author_count)
        )
        year: object = str(generator.year())
        if generator.maybe(0.04):
            year = "unknown"
        start = generator.random.randint(1, 500)
        article_rows.append(
            {
                "id": index + 1,
                "title": generator.paper_title(),
                "authors": authors,
                "journal": None if generator.maybe(0.12) else generator.venue(),
                "year": year,
                "pages": f"{start}-{start + generator.random.randint(5, 30)}",
            }
        )
    database.insert_all("articles", article_rows)
    book_rows: list[dict[str, object]] = []
    for index in range(books):
        book_rows.append(
            {
                "id": index + 1,
                "title": generator.paper_title(),
                "authors": generator.choose(author_pool)
                if generator.maybe(0.9)
                else None,
                "publisher": generator.choose(
                    ("Springer", "ACM Press", "Morgan Kaufmann", "Wiley")
                ),
                "year": str(generator.year()),
            }
        )
    database.insert_all("books", book_rows)
    return database


def build_s2(
    seed: int, publications: int = 500, persons: int = 180
) -> Database:
    generator = DataGenerator(seed)
    database = Database(schema_s2())
    names = generator.distinct_person_names(persons)
    database.insert_all(
        "persons",
        [{"pid": pid, "name": name} for pid, name in enumerate(names, start=1)],
    )
    publication_rows: list[dict[str, object]] = []
    authorship_rows: list[dict[str, object]] = []
    for pubid in range(1, publications + 1):
        publication_rows.append(
            {
                "pubid": pubid,
                "title": generator.paper_title(),
                "venue": generator.venue(),
                "year": generator.year(),
                "type": generator.choose(("article", "book", "inproceedings")),
            }
        )
        for position, pid in enumerate(
            generator.random.sample(
                range(1, persons + 1), generator.random.randint(1, 3)
            ),
            start=1,
        ):
            authorship_rows.append(
                {"pubid": pubid, "pid": pid, "position": position}
            )
    database.insert_all("publications", publication_rows)
    database.insert_all("authorship", authorship_rows)
    return database


def build_s3(
    seed: int,
    papers: int = 450,
    authors: int = 170,
    papers_without_authors: int = 35,
    authors_without_papers: int = 24,
) -> Database:
    """Citation-key style instance with controlled structural anomalies:
    some papers have no ``writes`` rows and some authors no papers."""
    generator = DataGenerator(seed)
    database = Database(schema_s3())
    names = generator.distinct_person_names(authors, inverted=True)
    database.insert_all(
        "authors",
        [
            {"aid": aid, "full_name": full_name}
            for aid, full_name in enumerate(names, start=1)
        ],
    )
    detached_authors = set(range(1, authors_without_papers and authors + 1))
    connected_author_ids = list(range(1, authors + 1 - authors_without_papers))
    orphan_papers = generator.sample_indices(papers, papers_without_authors)
    paper_rows: list[dict[str, object]] = []
    writes_rows: list[dict[str, object]] = []
    for index in range(papers):
        year = generator.year()
        start = generator.random.randint(1, 500)
        surname = names[index % len(names)].split(",")[0].lower()
        paper_rows.append(
            {
                "pkey": f"{surname}{year}{index}",
                "title": generator.paper_title(),
                "venue": generator.venue(),
                "year": year,
                "pages_from": start,
                "pages_to": start + generator.random.randint(5, 30),
            }
        )
        if index in orphan_papers:
            continue
        chosen = generator.random.sample(
            connected_author_ids,
            min(generator.random.randint(1, 3), len(connected_author_ids)),
        )
        for rank, aid in enumerate(chosen, start=1):
            writes_rows.append(
                {
                    "paper": f"{surname}{year}{index}",
                    "author": aid,
                    "rank": rank,
                }
            )
    database.insert_all("papers", paper_rows)
    database.insert_all("writes", writes_rows)
    del detached_authors  # the last `authors_without_papers` ids are unused
    return database


def build_s4(seed: int, publications: int = 520) -> Database:
    generator = DataGenerator(seed)
    database = Database(schema_s4())
    names = generator.distinct_person_names(150)
    rows: list[dict[str, object]] = []
    for index in range(publications):
        pages = generator.random.randint(6, 35)
        rows.append(
            {
                "id": index + 1,
                "title": generator.paper_title(),
                "lead_author": generator.choose(names),
                "venue": generator.venue(),
                "year": generator.year(),
                "num_pages": pages,
            }
        )
    database.insert_all("publication", rows)
    return database


# ----------------------------------------------------------------------
# Transformations the (simulated) practitioner knows how to script
# ----------------------------------------------------------------------


def first_author(author_list: str) -> str:
    """``"A One; B Two"`` → ``"A One"``."""
    return author_list.split(";")[0].strip()


def invert_name(name: str) -> str:
    """``"Last, First"`` → ``"First Last"``."""
    if "," in name:
        last, first = name.split(",", 1)
        return f"{first.strip()} {last.strip()}"
    return name


def parse_year(year_text: str) -> int | None:
    try:
        return int(str(year_text).strip())
    except ValueError:
        return None


def page_count(pages: str) -> int | None:
    """``"120-135"`` → 16."""
    try:
        start_text, end_text = str(pages).split("-", 1)
        return int(end_text) - int(start_text) + 1
    except ValueError:
        return None


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------


def scenario_s1_s2(seed: int = 1) -> IntegrationScenario:
    source = build_s1(seed * 7 + 1)
    target = build_s2(seed * 7 + 2)
    correspondences = CorrespondenceSet(
        [
            relation_correspondence("articles", "publications"),
            attribute_correspondence("articles.title", "publications.title"),
            attribute_correspondence("articles.journal", "publications.venue"),
            attribute_correspondence("articles.year", "publications.year"),
            attribute_correspondence("articles.authors", "persons.name"),
            relation_correspondence("books", "publications"),
            attribute_correspondence("books.title", "publications.title"),
            attribute_correspondence("books.year", "publications.year"),
            relation_correspondence("articles", "authorship"),
        ]
    )
    scenario = IntegrationScenario("s1-s2", source, target, correspondences)
    scenario.known_transformations = {
        ("articles.authors", "persons.name"): first_author,
        ("articles.year", "publications.year"): parse_year,
        ("books.year", "publications.year"): parse_year,
    }
    return scenario


def scenario_s1_s3(seed: int = 1) -> IntegrationScenario:
    source = build_s1(seed * 7 + 3)
    target = build_s3(seed * 7 + 4)
    correspondences = CorrespondenceSet(
        [
            relation_correspondence("articles", "papers"),
            attribute_correspondence("articles.title", "papers.title"),
            attribute_correspondence("articles.journal", "papers.venue"),
            attribute_correspondence("articles.year", "papers.year"),
            attribute_correspondence("articles.pages", "papers.pages_from"),
            attribute_correspondence("articles.authors", "authors.full_name"),
            relation_correspondence("articles", "writes"),
        ]
    )
    scenario = IntegrationScenario("s1-s3", source, target, correspondences)
    scenario.known_transformations = {
        ("articles.authors", "authors.full_name"): lambda text: ", ".join(
            reversed(first_author(text).rsplit(" ", 1))
        ),
        ("articles.year", "papers.year"): parse_year,
        ("articles.pages", "papers.pages_from"): lambda pages: parse_year(
            str(pages).split("-", 1)[0]
        ),
    }
    return scenario


def scenario_s3_s4(seed: int = 1) -> IntegrationScenario:
    source = build_s3(seed * 7 + 5)
    target = build_s4(seed * 7 + 6)
    correspondences = CorrespondenceSet(
        [
            relation_correspondence("papers", "publication"),
            attribute_correspondence("papers.title", "publication.title"),
            attribute_correspondence("papers.venue", "publication.venue"),
            attribute_correspondence("papers.year", "publication.year"),
            attribute_correspondence(
                "authors.full_name", "publication.lead_author"
            ),
        ]
    )
    scenario = IntegrationScenario("s3-s4", source, target, correspondences)
    scenario.known_transformations = {
        ("authors.full_name", "publication.lead_author"): invert_name,
    }
    return scenario


def scenario_s4_s4(seed: int = 1) -> IntegrationScenario:
    """The identical-schema scenario: "source and target database have the
    same schema and similar data, so there are no heterogeneities"."""
    source = build_s4(seed * 7 + 7)
    source.schema.name = "s4"
    target_schema_db = build_s4(seed * 7 + 8)
    target_schema_db.schema.name = "s4_target"
    # Rebuild the target under a distinct database name (source names must
    # be unique within a scenario).
    correspondences = CorrespondenceSet(
        [
            relation_correspondence("publication", "publication"),
            attribute_correspondence("publication.id", "publication.id"),
            attribute_correspondence("publication.title", "publication.title"),
            attribute_correspondence(
                "publication.lead_author", "publication.lead_author"
            ),
            attribute_correspondence("publication.venue", "publication.venue"),
            attribute_correspondence("publication.year", "publication.year"),
            attribute_correspondence(
                "publication.num_pages", "publication.num_pages"
            ),
        ]
    )
    scenario = IntegrationScenario(
        "s4-s4", source, target_schema_db, correspondences
    )
    scenario.known_transformations = {}
    return scenario


def scenario_multi_source(seed: int = 1) -> IntegrationScenario:
    """A multi-source scenario: s1 *and* s3 integrated into one s2 target.

    The paper's framework explicitly supports "data integration projects
    with multiple sources" (abstract); this scenario exercises that path
    — every module iterates the (source, correspondences) pairs and the
    mapping report carries one connection per source database.
    """
    source_a = build_s1(seed * 7 + 9)
    source_b = build_s3(seed * 7 + 10)
    target = build_s2(seed * 7 + 11)
    correspondences_a = CorrespondenceSet(
        [
            relation_correspondence("articles", "publications"),
            attribute_correspondence("articles.title", "publications.title"),
            attribute_correspondence("articles.journal", "publications.venue"),
            attribute_correspondence("articles.year", "publications.year"),
            attribute_correspondence("articles.authors", "persons.name"),
        ]
    )
    correspondences_b = CorrespondenceSet(
        [
            relation_correspondence("papers", "publications"),
            attribute_correspondence("papers.title", "publications.title"),
            attribute_correspondence("papers.venue", "publications.venue"),
            attribute_correspondence("papers.year", "publications.year"),
            attribute_correspondence("authors.full_name", "persons.name"),
        ]
    )
    scenario = IntegrationScenario(
        "s1+s3-s2",
        [source_a, source_b],
        target,
        {"s1": correspondences_a, "s3": correspondences_b},
    )
    scenario.known_transformations = {
        ("articles.authors", "persons.name"): first_author,
        ("articles.year", "publications.year"): parse_year,
        ("authors.full_name", "persons.name"): invert_name,
    }
    return scenario


def bibliographic_scenarios(seed: int = 1) -> list[IntegrationScenario]:
    """The four Figure 6 scenarios, deterministically seeded."""
    return [
        scenario_s1_s2(seed),
        scenario_s1_s3(seed),
        scenario_s3_s4(seed),
        scenario_s4_s4(seed),
    ]
