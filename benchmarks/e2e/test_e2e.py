"""Tests of the end-to-end benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import collections
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import workloads
from common import HERE, ROOT

RUN = HERE / "run.py"


def _run(*args, cwd=ROOT, timeout=600):
    return subprocess.run(
        [sys.executable, str(RUN), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def test_self_time_subtracts_replayed_children():
    recorder = layers.Recorder()
    job = recorder.add("job", 0, 0.0, 0.100)
    structure = recorder.add("core.structure", 0, 0.2, 0.030, job.id)
    recorder.add("csg.convert", 0, 0.3, 0.010, structure.id)
    values = recorder.add("core.values", 0, 0.4, 0.040, job.id)
    recorder.add("profiling", 0, 0.4, 0.025, values.id, columns=2, rows=500)
    recorder.add("core.plan", 0, 0.5, 0.005, job.id)
    recorder.add("service.store_put", 0, 0.6, 0.002)  # off path

    own = layers.self_times(recorder.spans)
    by_name = {span.name: own[span.id] for span in recorder.spans}
    assert by_name["job"] == pytest.approx(0.025)
    assert by_name["core.structure"] == pytest.approx(0.020)
    assert by_name["core.values"] == pytest.approx(0.015)
    assert by_name["profiling"] == pytest.approx(0.025)

    rows, metrics = layers.summarise(recorder, cache_hits=1, cache_misses=3)
    assert metrics["job.residual_share"][0] == pytest.approx(0.25)
    assert metrics["profiling.share"][0] == pytest.approx(0.25)
    assert metrics["csg.share"][0] == pytest.approx(0.10)
    assert metrics["profiling.us_per_row"][0] == pytest.approx(50.0)
    assert metrics["runtime.profile_cache_hit_ratio"][0] == pytest.approx(0.25)
    shares = {row["layer"]: row for row in rows}
    assert not shares["service.store_put"]["on_path"]
    assert sum(row["share"] for row in rows) == pytest.approx(1.0)


def test_self_time_compares_spans_at_the_reference_speed():
    recorder = layers.Recorder()
    # The job ran while the CPU was at half speed, its replay at full speed.
    job = recorder.add("job", 0, 0.0, 0.200, scale=0.5)
    recorder.add("core.mapping", 0, 1.0, 0.080, job.id, scale=1.0)
    own = layers.self_times(recorder.spans)
    assert own[job.id] == pytest.approx(0.020)

    with recorder.scaled():
        with recorder.span("core.plan", 0, job.id):
            pass
        recorder.add("core.price", 0, 2.0, 0.001, job.id)
    inside = {span.scale for span in recorder.spans[2:]}
    assert len(inside) == 1 and inside.pop() > 0
    assert [span.scale for span in recorder.spans[:2]] == [0.5, 1.0]


def _streams(seed):
    contents, requote = workloads.library_requote(seed)
    preload, arrivals = workloads.service_mixed(seed)
    return (
        list(itertools.islice(workloads.library_cold(seed), 300)),
        contents,
        list(itertools.islice(requote, 100)),
        workloads.service_cold(seed),
        preload,
        arrivals,
    )


def test_job_lists_are_a_pure_function_of_the_seed():
    assert _streams(3) == _streams(3)
    for first, second in zip(_streams(3), _streams(4)):
        assert first != second


def test_job_lists_have_the_documented_shape():
    cold = list(itertools.islice(workloads.library_cold(5), 9 * 40))
    kinds = collections.Counter(job.name for job in cold)
    assert set(kinds.values()) == {40}
    fresh = workloads.service_cold(5)
    assert len({(job.name, job.seed) for job in fresh}) == len(fresh)
    preload, arrivals = workloads.service_mixed(5)
    writes = [job for _, job, write in arrivals if write]
    assert len(arrivals) == round(workloads.MIXED_RATE * workloads.WINDOW_SECONDS)
    assert len(writes) == round(workloads.MIXED_WRITE_SHARE * len(arrivals))
    stored = {job.key for job in preload}
    assert not stored & {job.key for job in writes}
    assert all(job.key in stored for _, job, write in arrivals if not write)


def test_example_sizes_stop_where_artist_names_run_out():
    workloads.check_example_size(3600)
    workloads.check_example_size(3691)
    with pytest.raises(ValueError, match="largest size is 3691"):
        workloads.example_job(3692, workloads.DEFAULT_EXAMPLE_SEED, workloads.HIGH)


@pytest.mark.slow
def test_smoke_prints_every_benchmark_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
        done = _run("--max-jobs", "3", "--trace", trace)
        assert done.returncode == 0, done.stdout + done.stderr
        results = [
            json.loads(line) for line in done.stdout.splitlines()
            if line.startswith("{")
        ]
        assert len(results) == len(workloads.WORKLOADS)
        for result in results:
            assert result["correct"] and result["failed"] == 0
            assert set(result["metrics"]) == {m["name"] for m in declared}
            for metric in declared:
                assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        for metric in declared:
            printed = [
                line for line in done.stdout.splitlines()
                if line.split()[:1] == [metric["name"]]
            ]
            assert len(printed) == len(workloads.WORKLOADS), metric["name"]
            assert all(line.split()[-1] == metric["unit"] for line in printed)


@pytest.mark.slow
def test_a_corrupted_answer_key_entry_fails_the_run(tmp_path):
    key = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    first = next(workloads.library_cold(1))
    key["digests"][first.key] = "0" * 64
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(key), encoding="utf-8")
    done = _run(
        "--workload", "library-cold", "--max-jobs", "3",
        "--answer-key", str(corrupted),
    )
    assert done.returncode == 1
    result = json.loads(done.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] == 1


def test_refuses_a_window_other_than_the_workloads_own():
    done = _run("--workload", "library-cold", "--seconds", "5", timeout=60)
    assert done.returncode == 2
    assert "{" not in done.stdout
    assert _run("--help", timeout=60).returncode == 0


def test_refuses_to_run_without_the_program(tmp_path):
    copy = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "library-cold"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "{" not in done.stdout
