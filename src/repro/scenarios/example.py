"""The paper's running example (Figure 2): music records integration.

Source schema: ``albums``, ``songs``, ``artist_lists``, ``artist_credits``
— an album carries an artist *list*, credits attach artists to lists, and
song lengths are stored in milliseconds.  Target schema: ``records`` (one
artist string per record) and ``tracks`` (durations as ``m:ss`` strings).

The generated instance reproduces the complexity reports of the paper:

* Table 3 — 503 albums whose artist-credit count violates
  κ(ρ_records→artist) = 1 and 102 artists without any album, violating
  κ(ρ_artist→records) = 1..*;
* Table 2 — records is fed from 3 source tables / 2 attributes / fresh
  primary keys, tracks from 3 / 2 / none;
* Table 6 — a *Different value representations* heterogeneity between
  ``songs.length`` and ``tracks.duration``.
"""

from __future__ import annotations

import dataclasses

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


@dataclasses.dataclass(frozen=True)
class ExampleParameters:
    """Size knobs of the running example; defaults match the paper."""

    albums: int = 2000
    multi_artist_albums: int = 503  # Table 3, first row
    detached_artists: int = 102     # Table 3, second row
    songs_per_album: tuple[int, int] = (2, 4)
    target_records: int = 300
    tracks_per_record: tuple[int, int] = (2, 4)
    seed: int = 20150323  # EDBT 2015 opened on 2015-03-23


def source_schema() -> Schema:
    """The source schema of Figure 2a."""
    schema = Schema(
        "source",
        relations=[
            relation(
                "artist_lists",
                [("id", DataType.INTEGER)],
            ),
            relation(
                "albums",
                [
                    ("id", DataType.INTEGER),
                    ("name", DataType.STRING),
                    ("artist_list", DataType.INTEGER),
                ],
            ),
            relation(
                "songs",
                [
                    ("album", DataType.INTEGER),
                    ("name", DataType.STRING),
                    ("artist_list", DataType.INTEGER),
                    ("length", DataType.INTEGER),
                ],
            ),
            relation(
                "artist_credits",
                [
                    ("artist_list", DataType.INTEGER),
                    ("position", DataType.INTEGER),
                    ("artist", DataType.STRING),
                ],
            ),
        ],
    )
    schema.add_constraint(primary_key("artist_lists", "id"))
    schema.add_constraint(primary_key("albums", "id"))
    schema.add_constraint(NotNull("albums", "name"))
    schema.add_constraint(NotNull("albums", "artist_list"))
    schema.add_constraint(
        foreign_key("albums", "artist_list", "artist_lists", "id")
    )
    schema.add_constraint(NotNull("songs", "album"))
    schema.add_constraint(NotNull("songs", "name"))
    schema.add_constraint(foreign_key("songs", "album", "albums", "id"))
    schema.add_constraint(
        foreign_key("songs", "artist_list", "artist_lists", "id")
    )
    schema.add_constraint(
        primary_key("artist_credits", ("artist_list", "position"))
    )
    schema.add_constraint(NotNull("artist_credits", "artist"))
    schema.add_constraint(
        foreign_key("artist_credits", "artist_list", "artist_lists", "id")
    )
    return schema


def target_schema() -> Schema:
    """The target schema of Figure 2a."""
    schema = Schema(
        "target",
        relations=[
            relation(
                "records",
                [
                    ("id", DataType.INTEGER),
                    ("title", DataType.STRING),
                    ("artist", DataType.STRING),
                    ("genre", DataType.STRING),
                ],
            ),
            relation(
                "tracks",
                [
                    ("record", DataType.INTEGER),
                    ("title", DataType.STRING),
                    ("duration", DataType.STRING),
                ],
            ),
        ],
    )
    schema.add_constraint(primary_key("records", "id"))
    schema.add_constraint(NotNull("records", "title"))
    schema.add_constraint(NotNull("records", "artist"))
    schema.add_constraint(NotNull("records", "genre"))
    schema.add_constraint(foreign_key("tracks", "record", "records", "id"))
    schema.add_constraint(NotNull("tracks", "record"))
    schema.add_constraint(NotNull("tracks", "title"))
    return schema


def build_source(parameters: ExampleParameters) -> Database:
    """A source instance with exactly the paper's violation counts."""
    generator = DataGenerator(parameters.seed)
    database = Database(source_schema())

    album_count = parameters.albums
    multi = parameters.multi_artist_albums
    if multi > album_count:
        raise ValueError("multi_artist_albums cannot exceed albums")

    # One artist list per album, plus one list per detached artist.
    total_lists = album_count + parameters.detached_artists
    database.insert_all(
        "artist_lists",
        [{"id": list_id} for list_id in range(1, total_lists + 1)],
    )

    # Artist name pools: album artists vs detached artists are disjoint so
    # the violation counts stay exact.
    album_artist_pool = generator.distinct_person_names(max(album_count // 4, 8))
    # Detached artists must be disjoint from the album pool so that the
    # Table 3 counts stay exact; they still look like ordinary names.
    album_pool_set = set(album_artist_pool)
    detached_artist_names: list[str] = []
    while len(detached_artist_names) < parameters.detached_artists:
        candidate = generator.person_name()
        if candidate in album_pool_set:
            continue
        album_pool_set.add(candidate)
        detached_artist_names.append(candidate)

    multi_album_ids = generator.sample_indices(album_count, multi)
    album_titles = generator.distinct_titles(album_count)
    song_name_pool = generator.distinct_titles(600)

    albums: list[dict[str, object]] = []
    credits: list[dict[str, object]] = []
    songs: list[dict[str, object]] = []
    for index in range(album_count):
        album_id = index + 1
        albums.append(
            {
                "id": album_id,
                "name": album_titles[index],
                "artist_list": album_id,
            }
        )
        if index in multi_album_ids:
            credit_count = generator.random.randint(2, 4)
            artists = generator.random.sample(
                album_artist_pool, min(credit_count, len(album_artist_pool))
            )
        else:
            artists = [generator.choose(album_artist_pool)]
        for position, artist in enumerate(artists, start=1):
            credits.append(
                {
                    "artist_list": album_id,
                    "position": position,
                    "artist": artist,
                }
            )
        lo, hi = parameters.songs_per_album
        for _ in range(generator.random.randint(lo, hi)):
            songs.append(
                {
                    "album": album_id,
                    "name": generator.choose(song_name_pool),
                    "artist_list": album_id if generator.maybe(0.3) else None,
                    "length": generator.duration_ms(),
                }
            )

    # Detached artists: credits on lists no album references.
    for offset, artist in enumerate(detached_artist_names):
        credits.append(
            {
                "artist_list": album_count + offset + 1,
                "position": 1,
                "artist": artist,
            }
        )
    database.insert_all("albums", albums)
    database.insert_all("artist_credits", credits)
    database.insert_all("songs", songs)
    return database


def build_target(parameters: ExampleParameters) -> Database:
    """A pre-populated target instance (Figure 2b style)."""
    generator = DataGenerator(parameters.seed + 1)
    database = Database(target_schema())
    titles = generator.distinct_titles(parameters.target_records)
    track_titles = generator.distinct_titles(400)
    records: list[dict[str, object]] = []
    tracks: list[dict[str, object]] = []
    for index in range(parameters.target_records):
        record_id = index + 1
        records.append(
            {
                "id": record_id,
                "title": titles[index],
                "artist": generator.person_name(),
                "genre": generator.genre(),
            }
        )
        lo, hi = parameters.tracks_per_record
        for _ in range(generator.random.randint(lo, hi)):
            tracks.append(
                {
                    "record": record_id,
                    "title": generator.choose(track_titles),
                    "duration": DataGenerator.ms_to_mss(generator.duration_ms()),
                }
            )
    database.insert_all("records", records)
    database.insert_all("tracks", tracks)
    return database


def correspondences() -> CorrespondenceSet:
    """The solid arrows of Figure 2a."""
    return CorrespondenceSet(
        [
            relation_correspondence("albums", "records"),
            attribute_correspondence("albums.name", "records.title"),
            attribute_correspondence("artist_credits.artist", "records.artist"),
            relation_correspondence("songs", "tracks"),
            attribute_correspondence("songs.name", "tracks.title"),
            attribute_correspondence("songs.length", "tracks.duration"),
            attribute_correspondence("songs.album", "tracks.record"),
        ]
    )


#: The length → duration conversion a practitioner would script
#: (Example 3.5): milliseconds to the target's ``m:ss`` strings.
KNOWN_TRANSFORMATIONS = {
    ("songs.length", "tracks.duration"): DataGenerator.ms_to_mss,
}


def example_scenario(
    parameters: ExampleParameters | None = None,
) -> IntegrationScenario:
    """The complete running example of the paper."""
    parameters = parameters or ExampleParameters()
    scenario = IntegrationScenario(
        name="example",
        sources=build_source(parameters),
        target=build_target(parameters),
        correspondences=correspondences(),
    )
    scenario.known_transformations = dict(KNOWN_TRANSFORMATIONS)
    return scenario
