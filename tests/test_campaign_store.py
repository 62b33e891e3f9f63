"""Result-store record tests: the run directory is the record.

Layout and reopen, rename-arbitrated concurrent saves, old-layout
fencing, old stores that still serve, torn small-file writes, and the
open-time sweep of abandoned temp dirs.
"""

import hashlib
import io
import json
import multiprocessing
import os
import pickle
import time
from pathlib import Path

import pytest

from repro.analysis.runner import ExperimentRunner
from repro.campaign import CampaignExecutor, ResultStore, run_key
from repro.campaign import faults
from repro.errors import ConfigurationError

from test_campaign_faults import (
    assert_results_identical,
    tiny_campaign,
    tiny_spec,
)


@pytest.fixture(autouse=True)
def clean_fault_env(monkeypatch):
    """Each test starts and ends with fault injection disabled."""
    monkeypatch.delenv(faults.ENV_PLAN, raising=False)
    monkeypatch.delenv(faults.ENV_STATE, raising=False)
    faults.reset_fault_cache()
    yield
    faults.reset_fault_cache()


@pytest.fixture(scope="module")
def tiny_result():
    return ExperimentRunner().run(tiny_spec())


# ---------------------------------------------------------------------------
# the run directory is the record
# ---------------------------------------------------------------------------


def _file_states(root: Path) -> dict:
    """Relative path -> (inode, mtime, bytes) of every file under root."""
    states = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = Path(folder) / name
            stat = path.stat()
            states[str(path.relative_to(root))] = (
                stat.st_ino, stat.st_mtime_ns, path.read_bytes())
    return states


def _race_save(root, spec, result, barrier, out_path):
    store = ResultStore(root)
    barrier.wait(timeout=30)
    store.save(spec, result)
    Path(out_path).write_text(
        "charged" if store.last_save_charged else "lost")


class TestRunDirRecord:
    def test_layout_and_reopen(self, tmp_path, tiny_result):
        root = tmp_path / "store"
        store = ResultStore(root)
        keys = [
            store.save(tiny_spec(seed=seed), tiny_result)
            for seed in range(1, 7)
        ]
        # One self-describing dir per result; no index, journal or
        # topology file beside them.
        assert sorted(os.listdir(root)) == ["runs"]
        for key in keys:
            entry = json.loads((root / "runs" / key / "entry.json").read_text())
            assert entry == store.entry(key)
            assert entry["status"] == "ok"

        reopened = ResultStore(root)
        assert sorted(reopened.keys()) == sorted(keys)
        for key in keys:
            assert reopened.has(key)
            assert reopened.entry(key) == store.entry(key)

    def test_concurrent_instances_see_each_others_saves(
        self, tmp_path, tiny_result
    ):
        # has() reads the disk, so a save by another open instance is
        # visible without reopening.
        a = ResultStore(tmp_path / "store")
        b = ResultStore(tmp_path / "store")
        key_a = a.save(tiny_spec(seed=1), tiny_result)
        key_b = b.save(tiny_spec(seed=2), tiny_result)
        assert a.has(key_b) and b.has(key_a)
        assert a.load_spec(key_b) == tiny_spec(seed=2)
        fresh = ResultStore(tmp_path / "store")
        assert sorted(fresh.keys()) == sorted([key_a, key_b])

    def test_concurrent_save_charges_exactly_once(
        self, tmp_path, tiny_result
    ):
        # Two processes save one key at once: the rename onto a
        # non-empty run dir fails for the loser, so exactly one is
        # charged, and the stored payload equals a serial save.
        root = tmp_path / "store"
        spec = tiny_spec(seed=1)
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(target=_race_save,
                        args=(root, spec, tiny_result, barrier,
                              tmp_path / f"save-{i}"))
            for i in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=30)
            assert proc.exitcode == 0
        outcomes = sorted(
            (tmp_path / f"save-{i}").read_text() for i in range(2)
        )
        assert outcomes == ["charged", "lost"]

        serial = ResultStore(tmp_path / "serial")
        key = serial.save(spec, tiny_result)
        raced = _file_states(root / "runs" / key)
        reference = _file_states(serial.root / "runs" / key)
        assert sorted(raced) == sorted(reference)
        for name in raced:
            assert raced[name][2] == reference[name][2], name
        # The loser discarded its temp copy.
        assert os.listdir(root / "runs") == [key]

    def test_save_of_a_different_payload_replaces_the_record(
        self, tmp_path, tiny_result
    ):
        # Only byte-identical copies lose the rename race; saving a
        # different result under a key overwrites the published one.
        store = ResultStore(tmp_path / "store")
        spec = tiny_spec(seed=1)
        key = store.save(spec, ExperimentRunner().run(tiny_spec(seed=2)))
        store.save(spec, tiny_result)
        assert store.last_save_charged
        reference = ResultStore(tmp_path / "reference")
        assert_results_identical(store.load(key),
                                 reference.load(reference.save(spec, tiny_result)))
        assert os.listdir(tmp_path / "store" / "runs") == [key]

    def test_save_touches_only_its_run_dir(self, tmp_path, tiny_result):
        # Save cost must not grow with the store: after 50 saves, one
        # more writes nothing outside runs/<key>/ (it may drop the
        # key's own failure record).
        store = ResultStore(tmp_path / "store")
        for seed in range(50):
            store.save(tiny_spec(seed=seed), tiny_result)
        spec = tiny_spec(seed=50)
        key = store.record_failure(spec, "boom")
        before = _file_states(store.root)
        store.save(spec, tiny_result)
        after = _file_states(store.root)
        changed = {path for path in after if before.get(path) != after[path]}
        assert changed
        assert all(path.startswith(f"runs/{key}/") for path in changed)
        assert set(before) - set(after) <= {f"failures/{key}.json"}
        assert store.has(key) and not store.failures()

    def test_entry_with_retired_fields_still_serves(
        self, tmp_path, tiny_result
    ):
        # Earlier versions also wrote the key version, the duration and
        # a duration-less prefix key into entry.json. Their runs still
        # read as present, load, and serve a campaign as cached.
        root = tmp_path / "store"
        spec = tiny_spec()
        writer = ResultStore(root)
        key = writer.save(spec, tiny_result)
        saved = writer.load(key)
        assert key == "exp1-default-34a306b42c7b"
        path = root / "runs" / key / "entry.json"
        entry = json.loads(path.read_text())
        assert sorted(entry) == ["spec", "status"]
        entry.update(v=9, duration_s=2.0,
                     prefix="exp1-default-pfx-75126bd1cb7d")
        path.write_text(json.dumps(entry, sort_keys=True))

        store = ResultStore(root)
        assert store.has(key) and store.load_spec(key) == spec
        assert_results_identical(store.load(key), saved)
        run = CampaignExecutor(store=store, backend="serial").run_campaign(
            tiny_campaign(policies=("Default",)))
        assert run.counts() == {"cached": 1}

    def test_store_with_checkpoint_sidecars_still_serves(
        self, tmp_path, capsys
    ):
        # Older versions resumed killed runs from engine snapshots kept
        # under checkpoints/ (magic, SHA-256 of the blob, the blob) and
        # counted them in resilience.json. Such a store opens and
        # serves; a key that left only a snapshot is simulated again
        # from tick 0, and the snapshot is ignored, not refused.
        from repro.cli import main

        root = tmp_path / "store"
        campaign = tiny_campaign(name="old")
        done, killed = campaign.expand()
        CampaignExecutor(store=ResultStore(root),
                         backend="serial").run_specs([done])
        blob = pickle.dumps({"version": 2, "next_tick": 7, "n_ticks": 20})
        sidecars = root / "checkpoints"
        sidecars.mkdir()
        for spec in (done, killed):
            (sidecars / f"{run_key(spec)}.ckpt").write_bytes(
                b"RPRCKPT1" + hashlib.sha256(blob).digest() + blob)
        (root / "resilience.json").write_text(
            json.dumps({"checkpoints": 2, "retries": 1}))
        before = _file_states(sidecars)

        events = []
        store = ResultStore(root)
        run = CampaignExecutor(
            store=store, backend="serial",
            progress=lambda event, key, _: events.append((event, key)),
        ).run_campaign(campaign)
        assert run.counts() == {"cached": 1, "ok": 1}
        assert ("cached", run_key(done)) in events
        assert ("ok", run_key(killed)) in events
        # A store keeps completed jobs only; round-trip the fresh run
        # through the lossless codec to compare like with like.
        reference = ResultStore(tmp_path / "reference")
        reference.save(killed, ExperimentRunner().run(killed))
        assert_results_identical(store.load(run_key(killed)),
                                 reference.load(run_key(killed)))
        assert _file_states(sidecars) == before

        spec_path = campaign.to_json(tmp_path / "old.json")
        capsys.readouterr()
        assert main(["campaign", "report", str(spec_path),
                     "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert "Default" in out and "Adapt3D" in out
        assert "resilience (store lifetime)" in out

    @pytest.mark.parametrize("layout", [
        ("store.json", "index/00.json", "journal/00.jsonl"),
        ("index.json", "journal.jsonl"),
    ], ids=["sharded", "monolithic"])
    def test_old_layouts_refused_untouched(self, tmp_path, layout):
        root = tmp_path / "store"
        for name in layout + ("runs/exp1-default-0123456789ab/result_meta.json",):
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text("{}")
        before = _file_states(root)
        with pytest.raises(ConfigurationError, match="fresh store") as info:
            ResultStore(root)
        assert str(root) in str(info.value)
        assert _file_states(root) == before
        assert sorted(os.listdir(root)) == sorted(
            {name.split("/")[0] for name in layout} | {"runs"})

    def test_torn_indices_write_keeps_previous_file(
        self, tmp_path, monkeypatch
    ):
        # A write of the thermal indices that dies halfway (disk full,
        # killed process) must leave the previous file whole.
        store = ResultStore(tmp_path / "store")
        store.save_thermal_indices(1, (4, 4), {"c0": 0.25})
        real_open = io.open

        class TornWriter:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[: len(text) // 2])
                self.handle.flush()
                raise OSError("disk full")

        def torn_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            return TornWriter(handle) if "w" in mode else handle

        monkeypatch.setattr(io, "open", torn_open)
        with pytest.raises(OSError):
            store.save_thermal_indices(1, (4, 4), {"c0": 0.5, "c1": 0.75})
        monkeypatch.undo()
        reopened = ResultStore(tmp_path / "store")
        assert reopened.load_thermal_indices(1, (4, 4)) == {"c0": 0.25}
        assert os.listdir(tmp_path / "store" / "indices") == [
            "exp1_4x4.json"]

    def test_open_sweeps_only_old_hidden_temp_dirs(
        self, tmp_path, tiny_result
    ):
        # Hidden dirs under runs/ are saves that died before publishing
        # and retired dirs whose delete died. Open removes those older
        # than a minute; a fresh one may be a save in flight in another
        # process, and published run dirs are records.
        root = tmp_path / "store"
        store = ResultStore(root)
        keys = [store.save(tiny_spec(seed=seed), tiny_result)
                for seed in (1, 2)]
        runs = root / "runs"
        died_saving = runs / f".{keys[0]}-a1b2c3"
        died_retiring = runs / f".{keys[1]}-0badf00d.old"
        in_flight = runs / f".{keys[0]}-d4e5f6"
        for path in (died_saving, died_retiring, in_flight):
            (path / "sub").mkdir(parents=True)
            (path / "sub" / "result_meta.json").write_text("{}")
        old = time.time() - 120.0
        for path in (died_saving, died_retiring):
            os.utime(path, (old, old))
        # Published run dirs as old as the abandoned ones stay.
        for key in keys:
            os.utime(runs / key, (old, old))
        published = _file_states(runs / keys[0])

        reopened = ResultStore(root)
        assert sorted(os.listdir(runs)) == sorted(
            keys + [in_flight.name])
        assert _file_states(runs / keys[0]) == published
        assert sorted(reopened.keys()) == sorted(keys)
        assert all(reopened.has(key) for key in keys)
