"""The engine benches' shared JSON artifact keeps smoke figures out of
its tracked repo-root copy (``benchmarks.conftest.merge_artifact``)."""

import json

from benchmarks.conftest import merge_artifact

NAME = "BENCH_engine.json"
TRACKED = {
    "smoke": False,
    "per_exp": {"exp4": {"exponential_heap_ms_per_tick": 0.117}},
    "event": {"smoke": False, "speedup_event_vs_serial": 3.67},
    "batch": {"smoke": False, "runs_per_s": {"batch_event": 26.38}},
}
SMOKE_COPY = {
    "smoke": True,
    "per_exp": {"exp4": {"exponential_heap_ms_per_tick": 1.64}},
    "event": {"smoke": True, "speedup_event_vs_serial": 1.2},
}


def write(directory, data):
    directory.mkdir()
    (directory / NAME).write_text(json.dumps(data))


def read(directory):
    return json.loads((directory / NAME).read_text())


def test_full_mode_write_keeps_every_other_tracked_section(tmp_path):
    results, root = tmp_path / "results", tmp_path / "root"
    write(root, TRACKED)
    write(results, SMOKE_COPY)
    batch = {"smoke": False, "runs_per_s": {"batch_event": 30.0}}
    merge_artifact(results, NAME, {"batch": batch}, smoke=False, root=root)
    assert read(root) == {**TRACKED, "batch": batch}
    assert read(results) == {**SMOKE_COPY, "batch": batch}


def test_smoke_mode_write_leaves_the_tracked_copy_alone(tmp_path):
    results, root = tmp_path / "results", tmp_path / "root"
    write(root, TRACKED)
    results.mkdir()
    event = {"smoke": True, "speedup_event_vs_serial": 1.1}
    merge_artifact(results, NAME, {"event": event}, smoke=True, root=root)
    assert read(root) == TRACKED
    assert read(results) == {"event": event}
