"""The answer key: pinned digests of every job content the workloads use.

A job's output is the canonical JSON of its ``{reports, estimate}``
document: sorted keys, no whitespace, after one JSON round trip so that a
library-path document and an HTTP-decoded one encode identically.  The
key maps ``Job.key`` to the sha256 of that text.  It is written only by
``run.py --write-answer-key REASON``, from the library path.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from common import HERE
from workloads import (
    EXAMPLE_SEEDS,
    EXAMPLE_SIZES,
    PAIRWISE,
    QUALITIES,
    SCENARIO_SEEDS,
    Job,
    build_scenario,
    example_job,
)

KEY_PATH = HERE / "expected.json"
#: Table 3 of the paper: 503 multi-artist albums, 102 detached artists.
TABLE3_COUNTS = [503, 102]


def canonical_bytes(doc: dict) -> bytes:
    body = json.loads(
        json.dumps({"reports": doc["reports"], "estimate": doc["estimate"]})
    )
    return json.dumps(
        body, sort_keys=True, ensure_ascii=False, separators=(",", ":")
    ).encode("utf-8")


def digest(doc: dict) -> str:
    return hashlib.sha256(canonical_bytes(doc)).hexdigest()


def outcome_document(outcome) -> dict:
    """The ``{reports, estimate}`` part of an ``AssessmentOutcome``."""
    from repro.core.serialize import estimate_to_dict, reports_to_dict

    return {
        "reports": reports_to_dict(outcome.reports),
        "estimate": estimate_to_dict(outcome.estimate),
    }


def structure_counts(doc: dict) -> list[int]:
    return [
        violation["violation_count"]
        for violation in doc["reports"]["structure"]["violations"]
    ]


def load(path: Path = KEY_PATH) -> dict[str, str]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["digests"]


def check(job: Job, doc: dict, degraded: int, key: dict[str, str]) -> str | None:
    """Why the job's output is wrong, or ``None`` when it is right."""
    if degraded:
        return f"{job.key}: {degraded} degraded module(s)"
    if job.albums and structure_counts(doc) != TABLE3_COUNTS:
        return (
            f"{job.key}: structure violations {structure_counts(doc)}, "
            f"Table 3 says {TABLE3_COUNTS}"
        )
    expected = key.get(job.key)
    if expected is None:
        return f"{job.key}: not in the answer key"
    actual = digest(doc)
    if actual != expected:
        return f"{job.key}: digest {actual[:16]} differs from the key's {expected[:16]}"
    return None


def pool_contents() -> list[Job]:
    """Every content any workload can use, at the first quality."""
    jobs = [
        Job(name, seed, QUALITIES[0])
        for seed in SCENARIO_SEEDS
        for name in PAIRWISE
    ]
    jobs += [
        example_job(albums, seed, QUALITIES[0])
        for albums in EXAMPLE_SIZES
        for seed in EXAMPLE_SEEDS
    ]
    return jobs


def write(reason: str, path: Path = KEY_PATH) -> int:
    """Assess every pool content at both qualities and pin the digests."""
    import dataclasses

    from repro import ResultQuality, Runtime, default_efes

    if not reason.strip():
        raise ValueError("--write-answer-key needs a reason")
    digests: dict[str, str] = {}
    contents = pool_contents()
    for index, content in enumerate(contents):
        scenario = build_scenario(content)
        efes = default_efes(runtime=Runtime("serial"))
        for quality in QUALITIES:
            job = dataclasses.replace(content, quality=quality)
            outcome = efes.run(scenario, ResultQuality(quality))
            doc = outcome_document(outcome)
            problem = check(job, doc, len(outcome.degradations), {job.key: digest(doc)})
            if problem is not None:
                raise RuntimeError(f"refusing to pin a wrong output: {problem}")
            digests[job.key] = digest(doc)
        if index % 64 == 0:
            print(f"answer key: {index}/{len(contents)} contents", file=sys.stderr)
    document = {
        "reason": reason,
        "canonical_form": "sha256 of sorted-key, separator-free JSON of {reports, estimate}",
        "digests": dict(sorted(digests.items())),
    }
    path.write_text(json.dumps(document, indent=0) + "\n", encoding="utf-8")
    return len(digests)
