"""The discographic case study (Section 6.1, Figure 7).

Three schemas modelled on the datasets the paper built its music case
study from:

* **f** — FreeDB-style: flat discs with ``Artist / Title`` strings
  concatenated into one attribute, string years, and track lengths in
  seconds,
* **m** — MusicBrainz-style: normalised artists / releases / tracks with
  millisecond lengths,
* **d** — Discogs-style: releases with an M:N artist relationship,
  vinyl-style track positions (``A1``) and ``m:ss`` durations.

The four integration scenarios of Figure 7 are f1-m2, m1-d2, m1-f2 and
d1-d2 (the suffixes are seeded instance variants; d1-d2 is the
identical-schema scenario of this domain).
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

DOMAIN = "music"


# ----------------------------------------------------------------------
# Schemas
# ----------------------------------------------------------------------


def schema_f(name: str = "f") -> Schema:
    schema = Schema(
        name,
        relations=[
            relation(
                "discs",
                [
                    ("discid", DataType.STRING),
                    ("dtitle", DataType.STRING),
                    ("year", DataType.STRING),
                    ("genre", DataType.STRING),
                ],
            ),
            relation(
                "disc_tracks",
                [
                    ("discid", DataType.STRING),
                    ("seq", DataType.INTEGER),
                    ("title", DataType.STRING),
                    ("length_sec", DataType.INTEGER),
                ],
            ),
        ],
    )
    schema.add_constraint(primary_key("discs", "discid"))
    schema.add_constraint(NotNull("discs", "dtitle"))
    schema.add_constraint(primary_key("disc_tracks", ("discid", "seq")))
    schema.add_constraint(NotNull("disc_tracks", "title"))
    schema.add_constraint(foreign_key("disc_tracks", "discid", "discs", "discid"))
    return schema


def schema_m(name: str = "m") -> Schema:
    schema = Schema(
        name,
        relations=[
            relation(
                "artists",
                [
                    ("aid", DataType.INTEGER),
                    ("name", DataType.STRING),
                    ("sort_name", DataType.STRING),
                ],
            ),
            relation(
                "releases",
                [
                    ("rid", DataType.INTEGER),
                    ("title", DataType.STRING),
                    ("artist", DataType.INTEGER),
                    ("year", DataType.INTEGER),
                ],
            ),
            relation(
                "rtracks",
                [
                    ("release", DataType.INTEGER),
                    ("position", DataType.INTEGER),
                    ("name", DataType.STRING),
                    ("length_ms", DataType.INTEGER),
                ],
            ),
        ],
    )
    schema.add_constraint(primary_key("artists", "aid"))
    schema.add_constraint(NotNull("artists", "name"))
    schema.add_constraint(primary_key("releases", "rid"))
    schema.add_constraint(NotNull("releases", "title"))
    schema.add_constraint(NotNull("releases", "artist"))
    schema.add_constraint(foreign_key("releases", "artist", "artists", "aid"))
    schema.add_constraint(primary_key("rtracks", ("release", "position")))
    schema.add_constraint(NotNull("rtracks", "name"))
    schema.add_constraint(foreign_key("rtracks", "release", "releases", "rid"))
    return schema


def schema_d(name: str = "d") -> Schema:
    schema = Schema(
        name,
        relations=[
            relation(
                "releases",
                [
                    ("rid", DataType.INTEGER),
                    ("title", DataType.STRING),
                    ("year", DataType.INTEGER),
                    ("country", DataType.STRING),
                ],
            ),
            relation(
                "dartists",
                [
                    ("did", DataType.INTEGER),
                    ("name", DataType.STRING),
                ],
            ),
            relation(
                "release_artists",
                [
                    ("release", DataType.INTEGER),
                    ("artist", DataType.INTEGER),
                ],
            ),
            relation(
                "tracklist",
                [
                    ("release", DataType.INTEGER),
                    ("position", DataType.STRING),
                    ("title", DataType.STRING),
                    ("duration", DataType.STRING),
                ],
            ),
        ],
    )
    schema.add_constraint(primary_key("releases", "rid"))
    schema.add_constraint(NotNull("releases", "title"))
    schema.add_constraint(NotNull("releases", "year"))
    schema.add_constraint(primary_key("dartists", "did"))
    schema.add_constraint(NotNull("dartists", "name"))
    schema.add_constraint(primary_key("release_artists", ("release", "artist")))
    schema.add_constraint(
        foreign_key("release_artists", "release", "releases", "rid")
    )
    schema.add_constraint(
        foreign_key("release_artists", "artist", "dartists", "did")
    )
    schema.add_constraint(NotNull("tracklist", "release"))
    schema.add_constraint(NotNull("tracklist", "title"))
    schema.add_constraint(foreign_key("tracklist", "release", "releases", "rid"))
    return schema


# ----------------------------------------------------------------------
# Instances
# ----------------------------------------------------------------------


def build_f(seed: int, discs: int = 350, name: str = "f") -> Database:
    generator = DataGenerator(seed)
    database = Database(schema_f(name))
    artist_pool = generator.distinct_person_names(120)
    titles = generator.distinct_titles(discs)
    track_titles = generator.distinct_titles(500)
    disc_rows: list[dict[str, object]] = []
    track_rows: list[dict[str, object]] = []
    for index in range(discs):
        discid = f"{generator.random.randrange(16**8):08x}"
        year: object = str(generator.year())
        if generator.maybe(0.05):
            year = ""
        disc_rows.append(
            {
                "discid": discid,
                "dtitle": f"{generator.choose(artist_pool)} / {titles[index]}",
                "year": year,
                "genre": generator.genre(),
            }
        )
        for seq in range(1, generator.random.randint(3, 6) + 1):
            track_rows.append(
                {
                    "discid": discid,
                    "seq": seq,
                    "title": generator.choose(track_titles),
                    "length_sec": generator.duration_seconds(),
                }
            )
    database.insert_all("discs", disc_rows)
    database.insert_all("disc_tracks", track_rows)
    return database


def build_m(
    seed: int,
    releases: int = 380,
    artists: int = 130,
    null_years: int = 45,
    name: str = "m",
) -> Database:
    generator = DataGenerator(seed)
    database = Database(schema_m(name))
    names = generator.distinct_person_names(artists)
    artist_rows: list[dict[str, object]] = []
    for aid, artist_name in enumerate(names, start=1):
        parts = artist_name.rsplit(" ", 1)
        sort_name = f"{parts[-1]}, {parts[0]}" if len(parts) == 2 else artist_name
        artist_rows.append(
            {"aid": aid, "name": artist_name, "sort_name": sort_name}
        )
    database.insert_all("artists", artist_rows)
    titles = generator.distinct_titles(releases)
    track_titles = generator.distinct_titles(500)
    missing_year_ids = generator.sample_indices(releases, null_years)
    release_rows: list[dict[str, object]] = []
    track_rows: list[dict[str, object]] = []
    for index in range(releases):
        rid = index + 1
        release_rows.append(
            {
                "rid": rid,
                "title": titles[index],
                "artist": generator.random.randint(1, artists),
                "year": None if index in missing_year_ids else generator.year(),
            }
        )
        for position in range(1, generator.random.randint(3, 6) + 1):
            track_rows.append(
                {
                    "release": rid,
                    "position": position,
                    "name": generator.choose(track_titles),
                    "length_ms": generator.duration_ms(),
                }
            )
    database.insert_all("releases", release_rows)
    database.insert_all("rtracks", track_rows)
    return database


def build_d(
    seed: int, releases: int = 360, artists: int = 140, name: str = "d"
) -> Database:
    generator = DataGenerator(seed)
    database = Database(schema_d(name))
    names = generator.distinct_person_names(artists)
    database.insert_all(
        "dartists",
        [
            {"did": did, "name": artist_name}
            for did, artist_name in enumerate(names, start=1)
        ],
    )
    titles = generator.distinct_titles(releases)
    track_titles = generator.distinct_titles(500)
    release_rows: list[dict[str, object]] = []
    credit_rows: list[dict[str, object]] = []
    track_rows: list[dict[str, object]] = []
    for index in range(releases):
        rid = index + 1
        release_rows.append(
            {
                "rid": rid,
                "title": titles[index],
                "year": generator.year(),
                "country": generator.country(),
            }
        )
        for artist in generator.random.sample(
            range(1, artists + 1), generator.random.randint(1, 2)
        ):
            credit_rows.append({"release": rid, "artist": artist})
        sides = ("A", "B")
        for position in range(1, generator.random.randint(4, 8) + 1):
            track_rows.append(
                {
                    "release": rid,
                    "position": f"{sides[(position - 1) % 2]}{(position + 1) // 2}",
                    "title": generator.choose(track_titles),
                    "duration": DataGenerator.seconds_to_mss(
                        generator.duration_seconds()
                    ),
                }
            )
    database.insert_all("releases", release_rows)
    database.insert_all("release_artists", credit_rows)
    database.insert_all("tracklist", track_rows)
    return database


# ----------------------------------------------------------------------
# Practitioner-known transformations
# ----------------------------------------------------------------------


def split_dtitle_title(dtitle: str) -> str:
    """``"Artist / Title"`` → ``"Title"``."""
    return dtitle.split(" / ", 1)[-1].strip()


def concat_dtitle(title: str) -> str:
    """Inverse direction: a release title becomes ``"Various / Title"``."""
    return f"Various / {title}"


def parse_year(year_text: object) -> int | None:
    try:
        return int(str(year_text).strip())
    except ValueError:
        return None


def ms_to_seconds(length_ms: int) -> int:
    return round(length_ms / 1000)


def ms_to_mss(length_ms: int) -> str:
    seconds = round(length_ms / 1000)
    return f"{seconds // 60}:{seconds % 60:02d}"


def int_position_to_vinyl(position: int) -> str:
    return f"{'AB'[(position - 1) % 2]}{(position + 1) // 2}"


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------


def scenario_f1_m2(seed: int = 1) -> IntegrationScenario:
    source = build_f(seed * 11 + 1, name="f1")
    target = build_m(seed * 11 + 2, name="m2")
    correspondences = CorrespondenceSet(
        [
            relation_correspondence("discs", "releases"),
            attribute_correspondence("discs.dtitle", "releases.title"),
            attribute_correspondence("discs.year", "releases.year"),
            relation_correspondence("disc_tracks", "rtracks"),
            attribute_correspondence("disc_tracks.title", "rtracks.name"),
            attribute_correspondence("disc_tracks.seq", "rtracks.position"),
            attribute_correspondence(
                "disc_tracks.length_sec", "rtracks.length_ms"
            ),
            attribute_correspondence("disc_tracks.discid", "rtracks.release"),
        ]
    )
    scenario = IntegrationScenario("f1-m2", source, target, correspondences)
    scenario.known_transformations = {
        ("discs.dtitle", "releases.title"): split_dtitle_title,
        ("discs.year", "releases.year"): parse_year,
        ("disc_tracks.length_sec", "rtracks.length_ms"): lambda s: s * 1000,
    }
    return scenario


def scenario_m1_d2(seed: int = 1) -> IntegrationScenario:
    source = build_m(seed * 11 + 3, name="m1")
    target = build_d(seed * 11 + 4, name="d2")
    correspondences = CorrespondenceSet(
        [
            relation_correspondence("releases", "releases"),
            attribute_correspondence("releases.title", "releases.title"),
            attribute_correspondence("releases.year", "releases.year"),
            relation_correspondence("artists", "dartists"),
            attribute_correspondence("artists.name", "dartists.name"),
            relation_correspondence("rtracks", "tracklist"),
            attribute_correspondence("rtracks.name", "tracklist.title"),
            attribute_correspondence("rtracks.position", "tracklist.position"),
            attribute_correspondence("rtracks.length_ms", "tracklist.duration"),
            attribute_correspondence("rtracks.release", "tracklist.release"),
            relation_correspondence("releases", "release_artists"),
        ]
    )
    scenario = IntegrationScenario("m1-d2", source, target, correspondences)
    scenario.known_transformations = {
        ("rtracks.length_ms", "tracklist.duration"): ms_to_mss,
        ("rtracks.position", "tracklist.position"): int_position_to_vinyl,
        ("releases.year", "releases.year"): parse_year,
    }
    return scenario


def scenario_m1_f2(seed: int = 1) -> IntegrationScenario:
    source = build_m(seed * 11 + 5, name="m1")
    target = build_f(seed * 11 + 6, name="f2")
    correspondences = CorrespondenceSet(
        [
            relation_correspondence("releases", "discs"),
            attribute_correspondence("releases.title", "discs.dtitle"),
            attribute_correspondence("releases.year", "discs.year"),
            relation_correspondence("rtracks", "disc_tracks"),
            attribute_correspondence("rtracks.name", "disc_tracks.title"),
            attribute_correspondence("rtracks.position", "disc_tracks.seq"),
            attribute_correspondence(
                "rtracks.length_ms", "disc_tracks.length_sec"
            ),
            attribute_correspondence("rtracks.release", "disc_tracks.discid"),
        ]
    )
    scenario = IntegrationScenario("m1-f2", source, target, correspondences)
    scenario.known_transformations = {
        ("releases.title", "discs.dtitle"): concat_dtitle,
        ("releases.year", "discs.year"): lambda year: str(year),
        ("rtracks.length_ms", "disc_tracks.length_sec"): ms_to_seconds,
    }
    return scenario


def scenario_d1_d2(seed: int = 1) -> IntegrationScenario:
    """The identical-schema scenario of the music domain."""
    source = build_d(seed * 11 + 7, name="d1")
    target = build_d(seed * 11 + 8, name="d2t")
    correspondences = CorrespondenceSet(
        [
            relation_correspondence("releases", "releases"),
            attribute_correspondence("releases.title", "releases.title"),
            attribute_correspondence("releases.year", "releases.year"),
            attribute_correspondence("releases.country", "releases.country"),
            relation_correspondence("dartists", "dartists"),
            attribute_correspondence("dartists.name", "dartists.name"),
            relation_correspondence("release_artists", "release_artists"),
            attribute_correspondence(
                "release_artists.release", "release_artists.release"
            ),
            attribute_correspondence(
                "release_artists.artist", "release_artists.artist"
            ),
            relation_correspondence("tracklist", "tracklist"),
            attribute_correspondence("tracklist.release", "tracklist.release"),
            attribute_correspondence("tracklist.position", "tracklist.position"),
            attribute_correspondence("tracklist.title", "tracklist.title"),
            attribute_correspondence("tracklist.duration", "tracklist.duration"),
        ]
    )
    scenario = IntegrationScenario("d1-d2", source, target, correspondences)
    scenario.known_transformations = {}
    return scenario


def music_scenarios(seed: int = 1) -> list[IntegrationScenario]:
    """The four Figure 7 scenarios, deterministically seeded."""
    return [
        scenario_f1_m2(seed),
        scenario_m1_d2(seed),
        scenario_m1_f2(seed),
        scenario_d1_d2(seed),
    ]
