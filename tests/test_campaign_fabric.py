"""Multi-driver campaign fabric tests: run-dir records, heartbeat
failover, degraded-mode staging, and cross-driver chaos.

The fast slice (run-dir records, old-layout fencing, leases,
heartbeats, degraded mode, and a 2-driver chaos smoke) runs in
tier-1; the 3-driver mixed fault storm carries ``@pytest.mark.slow``
and runs in the weekly job
(``pytest -m slow tests/test_campaign_fabric.py``).
"""

import io
import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.analysis.result_io import save_checkpoint
from repro.analysis.runner import ExperimentRunner
from repro.campaign import (
    CampaignExecutor,
    FaultSpec,
    ResiliencePolicy,
    ResultStore,
    default_stage_dir,
    fabric_health,
    format_fabric,
    format_status,
    campaign_status,
    run_key,
)
from repro.campaign import faults
from repro.campaign import store as store_module
from repro.cli import main as cli_main
from repro.errors import ConfigurationError

from test_campaign_faults import (
    assert_results_identical,
    fast_policy,
    install_plan,
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
        a = ResultStore(tmp_path / "store", owner="a")
        b = ResultStore(tmp_path / "store", owner="b")
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
        # A second driver may open the store while the first rewrites
        # the thermal indices: a write that dies halfway must leave the
        # previous file whole.
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


# ---------------------------------------------------------------------------
# leases: renew confirm, guarded takeover, cross-process contention
# ---------------------------------------------------------------------------


class TestLeaseFabric:
    def test_renew_confirms_ownership_after_write(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path / "store", owner="us")
        assert store.acquire_lease("k1", ttl_s=30.0)
        real_write = store_module.atomic_write

        def hijacked(path, payload):
            # A takeover lands immediately after our renewal write —
            # the last writer owns the file, and it is not us.
            real_write(path, payload)
            real_write(path, json.dumps(
                {"owner": "thief", "expires": time.time() + 99.0}
            ))

        monkeypatch.setattr(store_module, "atomic_write", hijacked)
        assert store.renew_lease("k1", ttl_s=30.0) is False

    def test_renew_refuses_expired_lease(self, tmp_path):
        store = ResultStore(tmp_path / "store", owner="us")
        assert store.acquire_lease("k1", ttl_s=0.01)
        time.sleep(0.05)
        # Expired means no longer held: contenders may be mid-takeover.
        assert store.renew_lease("k1", ttl_s=30.0) is False

    def test_takeover_guard_blocks_concurrent_contender(self, tmp_path):
        store = ResultStore(tmp_path / "store", owner="us")
        lease_dir = tmp_path / "store" / "leases"
        lease_dir.mkdir(parents=True, exist_ok=True)
        (lease_dir / "k1.lease").write_text(json.dumps(
            {"owner": "dead", "expires": time.time() - 5.0}
        ))
        guard = lease_dir / "k1.tk"
        guard.touch()
        assert store.takeover_lease("k1", ttl_s=30.0,
                                    dead_owner="dead") is False
        guard.unlink()
        assert store.takeover_lease("k1", ttl_s=30.0, dead_owner="dead")
        assert store.lease_holder("k1") == "us"
        assert not guard.exists()

    def test_takeover_aborts_when_lease_changed_hands(self, tmp_path):
        store = ResultStore(tmp_path / "store", owner="late")
        lease_dir = tmp_path / "store" / "leases"
        lease_dir.mkdir(parents=True, exist_ok=True)
        # By the time this contender enters the guard, a faster one
        # already rewrote the lease to itself.
        (lease_dir / "k1.lease").write_text(json.dumps(
            {"owner": "winner", "expires": time.time() + 30.0}
        ))
        assert store.takeover_lease("k1", ttl_s=30.0,
                                    dead_owner="dead") is False
        assert store.lease_holder("k1") == "winner"

    def test_expired_lease_race_has_one_winner(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root)  # create before the children race on it
        lease_dir = root / "leases"
        lease_dir.mkdir(parents=True, exist_ok=True)
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(3)
        procs = [
            ctx.Process(
                target=_race_for_lease,
                args=(root, f"driver-{i}", barrier,
                      tmp_path / f"won-{i}"),
            )
            for i in range(2)
        ]
        for proc in procs:
            proc.start()
        # The children have opened their stores (sweeps done) once they
        # reach the barrier; only then plant the expired lease.
        (lease_dir / "contested.lease").write_text(json.dumps(
            {"owner": "dead", "expires": time.time() - 5.0}
        ))
        barrier.wait(timeout=30)
        for proc in procs:
            proc.join(timeout=30)
            assert proc.exitcode == 0
        outcomes = [
            (tmp_path / f"won-{i}").read_text().strip() for i in range(2)
        ]
        assert sorted(outcomes) == ["lost", "won"]
        winner = outcomes.index("won")
        fresh = ResultStore(root)
        assert fresh.lease_holder("contested") == f"driver-{winner}"

    def test_fresh_lease_race_has_one_winner(self, tmp_path):
        # Regression: acquire used to publish the lease with an O_EXCL
        # create *followed by* the payload write, exposing an empty
        # file for a moment. A contender reading that window saw
        # garbage, presumed the holder dead, and stole the claim via
        # takeover while the creator's deferred write landed on an
        # already-replaced inode — both returned True (split-brain).
        # The atomic-link publish makes a fresh-key race single-winner.
        root = tmp_path / "store"
        ResultStore(root)
        ctx = multiprocessing.get_context("fork")
        n = 4
        barrier = ctx.Barrier(n)
        procs = [
            ctx.Process(
                target=_race_create_lease,
                args=(root, f"driver-{i}", barrier,
                      tmp_path / f"fresh-{i}"),
            )
            for i in range(n)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=30)
            assert proc.exitcode == 0
        outcomes = [
            (tmp_path / f"fresh-{i}").read_text().strip()
            for i in range(n)
        ]
        assert outcomes.count("won") == 1, outcomes
        winner = outcomes.index("won")
        assert ResultStore(root).lease_holder("fresh") \
            == f"driver-{winner}"
        # No staging temps leaked by the losers.
        assert not list((root / "leases").glob(".tmp-*"))

    def test_open_sweeps_live_lease_on_completed_key(
        self, tmp_path, tiny_result
    ):
        # A driver killed between its durable save and its lease
        # release leaks a live lease on a complete key; every later
        # scan short-circuits at the cached check, so only the
        # open-time sweep can retire it before the TTL does.
        root = tmp_path / "store"
        store = ResultStore(root, owner="doomed")
        key = store.save(tiny_spec(seed=1), tiny_result)
        assert store.acquire_lease(key, ttl_s=60.0)
        assert store.acquire_lease("incomplete", ttl_s=60.0)

        swept = ResultStore(root, owner="next")
        assert swept.swept_leases == 1
        assert swept.held_leases() == {"doomed": ["incomplete"]}

    def test_open_sweeps_expired_leases_guards_and_heartbeats(
        self, tmp_path
    ):
        root = tmp_path / "store"
        store = ResultStore(root, owner="old")
        assert store.acquire_lease("gone", ttl_s=0.01)
        assert store.acquire_lease("kept", ttl_s=60.0)
        store.write_heartbeat()
        time.sleep(0.05)
        # Backdate an orphaned takeover guard and the heartbeat beacon
        # far enough to cross both sweep thresholds.
        guard = root / "leases" / "orphan.tk"
        guard.touch()
        old = time.time() - 7200.0
        os.utime(guard, (old, old))
        beacon = root / "drivers" / "old.hb"
        data = json.loads(beacon.read_text())
        data["time"] = old
        beacon.write_text(json.dumps(data))

        swept = ResultStore(root, owner="new")
        assert swept.swept_leases == 1
        assert swept.swept_heartbeats == 1
        assert not (root / "leases" / "gone.lease").exists()
        assert (root / "leases" / "kept.lease").exists()
        assert not guard.exists()
        assert swept.heartbeats() == {}


def _race_for_lease(root, owner, barrier, out_path):
    store = ResultStore(root, owner=owner)
    barrier.wait(timeout=30)
    won = store.acquire_lease("contested", ttl_s=60.0)
    Path(out_path).write_text("won" if won else "lost")


def _race_create_lease(root, owner, barrier, out_path):
    store = ResultStore(root, owner=owner)
    barrier.wait(timeout=30)
    won = store.acquire_lease("fresh", ttl_s=60.0)
    Path(out_path).write_text("won" if won else "lost")


# ---------------------------------------------------------------------------
# heartbeats and failover
# ---------------------------------------------------------------------------


class TestHeartbeatFailover:
    def test_heartbeat_lifecycle(self, tmp_path):
        store = ResultStore(tmp_path / "store", owner="drv")
        assert store.driver_alive("drv", stale_s=1.0) is None  # unknown
        store.write_heartbeat()
        ages = store.heartbeats()
        assert set(ages) == {"drv"} and ages["drv"] < 1.0
        assert store.driver_alive("drv", stale_s=1.0) is True
        store.remove_heartbeat()
        assert store.driver_alive("drv", stale_s=1.0) is None

    def test_clock_skew_fault_ages_the_beacon(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path / "store", owner="drv")
        install_plan(monkeypatch, tmp_path / "faults",
                     FaultSpec("k1", "heartbeat", "skew", skew_s=-120.0))
        store.write_heartbeat()
        assert store.heartbeats()["drv"] > 100.0
        assert store.driver_alive("drv", stale_s=60.0) is False

    def test_dead_driver_lease_reclaimed_with_checkpoint(self, tmp_path):
        # A driver died mid-wave: stale beacon, live lease, and a
        # mid-run checkpoint sidecar left behind.
        root = tmp_path / "store"
        dead = ResultStore(root, owner="dead-driver")
        spec = tiny_spec(seed=5)
        key = run_key(spec)
        assert dead.acquire_lease(key, ttl_s=300.0)
        dead.write_heartbeat()
        beacon = root / "drivers" / "dead-driver.hb"
        data = json.loads(beacon.read_text())
        data["time"] = time.time() - 60.0
        beacon.write_text(json.dumps(data))
        blobs = []
        ExperimentRunner().build_engine(spec).run(
            checkpoint_every=7,
            checkpoint_sink=lambda blob, tick: blobs.append(blob),
        )
        save_checkpoint(dead.checkpoint_path(key), blobs[0])

        store = ResultStore(root, owner="survivor")
        events = []
        executor = CampaignExecutor(
            store=store, backend="serial",
            progress=lambda e, k, d="": events.append((e, k)),
            resilience=fast_policy(
                lease_ttl_s=300.0, driver_stale_s=5.0,
                checkpoint_every_ticks=7,
            ),
        )
        run = executor.run_campaign(
            tiny_campaign(policies=("Default",), seeds=(5,))
        )
        assert run.counts() == {"ok": 1}
        snapshot = executor.stats.snapshot()
        assert snapshot["takeovers"] == 1
        assert snapshot["checkpoints"] == 1  # adopted sidecar consumed
        assert ("reclaimed", key) in events
        assert store.lease_holder(key) is None
        assert not store.has_checkpoint(key)
        # Resuming from the dead driver's checkpoint is bit-identical
        # to a clean uninterrupted run (compared via the same store
        # round-trip).
        clean_store = ResultStore(tmp_path / "clean")
        clean_store.save(spec, ExperimentRunner().run(spec))
        assert_results_identical(store.load(key), clean_store.load(key))

    def test_live_holder_is_not_reclaimed(self, tmp_path):
        root = tmp_path / "store"
        other = ResultStore(root, owner="other-driver")
        spec = tiny_spec(seed=5)
        key = run_key(spec)
        assert other.acquire_lease(key, ttl_s=300.0)
        other.write_heartbeat()  # fresh beacon: affirmatively alive

        executor = CampaignExecutor(
            store=ResultStore(root, owner="us"), backend="serial",
            resilience=fast_policy(lease_ttl_s=300.0, driver_stale_s=5.0),
        )
        run = executor.run_campaign(
            tiny_campaign(policies=("Default",), seeds=(5,))
        )
        assert run.counts() == {"leased": 1}
        assert executor.stats.snapshot()["takeovers"] == 0
        assert executor.stats.snapshot()["lease_skips"] == 1


# ---------------------------------------------------------------------------
# degraded mode: spill + reconcile
# ---------------------------------------------------------------------------


class TestDegradedMode:
    def test_store_failure_spills_then_reconciles(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "store"
        store = ResultStore(root)
        install_plan(monkeypatch, tmp_path / "faults",
                     FaultSpec("f1", "store_save", "fail_io"))
        events = []
        executor = CampaignExecutor(
            store=store, backend="serial",
            progress=lambda e, k, d="": events.append(e),
            resilience=fast_policy(),
        )
        campaign = tiny_campaign(policies=("Default",), seeds=(1, 2))
        run = executor.run_campaign(campaign)
        assert run.counts() == {"ok": 2}
        snapshot = executor.stats.snapshot()
        # First save raises (injected), flipping degraded mode; the
        # second result spills without touching the store; the end-of-
        # campaign reconcile folds both back (fault budget spent).
        assert snapshot["spills"] == 2
        assert snapshot["reconciles"] == 2
        assert events.count("spilled") == 2
        assert events.count("reconciled") == 2
        for spec in campaign.expand():
            assert store.has(run_key(spec))
        assert executor.staging.keys() == []

    def test_latency_budget_breach_degrades(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        store = ResultStore(root)
        install_plan(monkeypatch, tmp_path / "faults",
                     FaultSpec("s1", "store_save", "slow_io",
                               delay_s=0.3))
        executor = CampaignExecutor(
            store=store, backend="serial",
            resilience=fast_policy(store_latency_budget_s=0.05),
        )
        campaign = tiny_campaign(policies=("Default",), seeds=(1, 2))
        run = executor.run_campaign(campaign)
        assert run.counts() == {"ok": 2}
        snapshot = executor.stats.snapshot()
        # The slow save itself landed (spills only cover the rest).
        assert snapshot["spills"] == 1
        assert snapshot["reconciles"] == 1
        for spec in campaign.expand():
            assert store.has(run_key(spec))

    def test_persistent_outage_serves_staged_results(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "store"
        store = ResultStore(root)
        specs = [tiny_spec(seed=1), tiny_spec(seed=2)]
        ref = ResultStore(tmp_path / "ref")
        ref.save(specs[0], ExperimentRunner().run(specs[0]))
        install_plan(monkeypatch, tmp_path / "faults",
                     FaultSpec("f1", "store_save", "fail_io", times=50))
        executor = CampaignExecutor(
            store=store, backend="serial", resilience=fast_policy(),
        )
        results = executor.run_specs(specs)
        # The store never recovered; run_specs falls back to staging.
        assert sorted(results) == sorted(run_key(s) for s in specs)
        for spec in specs:
            assert not store.has(run_key(spec))
        assert len(executor.staging.keys()) == 2
        assert_results_identical(
            results[run_key(specs[0])], ref.load(run_key(specs[0]))
        )

    def test_staged_unit_is_not_recharged(self, tmp_path, monkeypatch):
        # A unit another (or a previous) driver computed and spilled
        # must read as cached, not be recomputed: the spill is the
        # charge.
        root = tmp_path / "store"
        store = ResultStore(root)
        install_plan(monkeypatch, tmp_path / "faults",
                     FaultSpec("f1", "store_save", "fail_io", times=50))
        campaign = tiny_campaign(policies=("Default",), seeds=(1,))
        first = CampaignExecutor(
            store=store, backend="serial", resilience=fast_policy(),
        )
        assert first.run_campaign(campaign).counts() == {"ok": 1}
        assert first.stats.snapshot()["spills"] == 1

        monkeypatch.delenv(faults.ENV_PLAN)
        faults.reset_fault_cache()
        second = CampaignExecutor(
            store=ResultStore(root), backend="serial",
            resilience=fast_policy(),
        )
        rerun = second.run_campaign(campaign)
        assert rerun.counts() == {"cached": 1}
        snapshot = second.stats.snapshot()
        assert snapshot["spills"] == 0
        # The healthy store folded the spill during the campaign
        # (visible to a fresh open; the first instance's in-memory
        # index predates the fold).
        assert snapshot["reconciles"] == 1
        assert ResultStore(root).has(run_key(campaign.expand()[0]))

    def test_stage_dir_requires_store(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CampaignExecutor(stage_dir=tmp_path / "staging")


# ---------------------------------------------------------------------------
# fabric health reporting + CLI
# ---------------------------------------------------------------------------


class TestFabricReporting:
    def test_fabric_health_snapshot(self, tmp_path, tiny_result):
        store = ResultStore(tmp_path / "store", owner="drv-a")
        key = store.save(tiny_spec(), tiny_result)
        store.write_heartbeat()
        assert store.acquire_lease("busy-key", ttl_s=60.0)
        staging = ResultStore(default_stage_dir(store.root))
        staging.save(tiny_spec(seed=7), tiny_result)

        health = fabric_health(store)
        assert health["live_drivers"] == ["drv-a"]
        assert health["stale_drivers"] == []
        assert health["held_leases"] == {"drv-a": ["busy-key"]}
        assert health["n_leases"] == 1
        assert health["entries"] == 1
        assert health["staged"] == [run_key(tiny_spec(seed=7))]

        text = format_fabric(health)
        assert "1 live driver(s)" in text
        assert "1 held lease(s)" in text
        assert "1 staged spill(s)" in text
        assert "driver drv-a" in text
        assert key in text or "staged" in text

    def test_status_surfaces_fabric_when_active(
        self, tmp_path, tiny_result
    ):
        store = ResultStore(tmp_path / "store", owner="drv-a")
        store.save(tiny_spec(seed=1), tiny_result)
        campaign = tiny_campaign(policies=("Default",), seeds=(1,))
        status = campaign_status(store, campaign)
        assert status["fabric"]["entries"] == 1
        # Quiet fabric (no drivers/leases/spills): the classic one-line
        # status is unchanged.
        assert "fabric:" not in format_status(status)
        store.write_heartbeat()
        noisy = campaign_status(store, campaign)
        assert "fabric: 1 live driver(s)" in format_status(noisy)

    def test_cli_campaign_drivers(self, tmp_path, capsys, tiny_result):
        store_dir = tmp_path / "store"
        store = ResultStore(store_dir, owner="drv-a")
        store.save(tiny_spec(seed=1), tiny_result)
        store.write_heartbeat()
        spec_path = tiny_campaign(
            policies=("Default",), seeds=(1,)
        ).to_json(tmp_path / "campaign.json")
        assert cli_main([
            "campaign", "drivers", str(spec_path),
            "--store", str(store_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "fabric: 1 live driver(s)" in out
        assert "1 entries" in out


# ---------------------------------------------------------------------------
# cross-driver chaos: real driver processes against one store
# ---------------------------------------------------------------------------


def _drive_campaign(store_dir, stage_dir, owner, campaign_kwargs,
                    policy_kwargs, env, log_path, max_s=120.0):
    """One driver process: loop `campaign run` passes until converged.

    Runs in a forked child.  Progress events append to ``log_path``
    (line-buffered) so the parent can audit the charge invariant:
    every computed unit emits exactly one ``ok``-or-``spilled`` event
    across all drivers.
    """
    for name, value in env.items():
        os.environ[name] = value
    faults.reset_fault_cache()
    campaign = tiny_campaign(**campaign_kwargs)
    keys = [run_key(spec) for spec in campaign.expand()]
    deadline = time.time() + max_s
    with open(log_path, "a", encoding="utf-8") as log:
        def progress(event, key, detail=""):
            log.write(f"{event} {key}\n")
            log.flush()

        while time.time() < deadline:
            store = ResultStore(store_dir, owner=owner)
            executor = CampaignExecutor(
                store=store, backend="serial", progress=progress,
                resilience=fast_policy(**policy_kwargs),
                stage_dir=stage_dir,
            )
            executor.run_campaign(campaign)
            check = ResultStore(store_dir, owner=owner)
            if (all(check.has(key) for key in keys)
                    and not ResultStore(stage_dir).keys()):
                return
            time.sleep(0.05)
    raise RuntimeError(f"driver {owner} did not converge in {max_s}s")


def _assert_one_charge_each(log_paths, keys):
    charges = {key: 0 for key in keys}
    for path in log_paths:
        if not Path(path).exists():
            continue
        for line in Path(path).read_text().splitlines():
            event, _, key = line.partition(" ")
            if event in ("ok", "spilled") and key in charges:
                charges[key] += 1
    assert all(count == 1 for count in charges.values()), charges


def _run_driver_fleet(tmp_path, n_drivers, campaign_kwargs, policy_kwargs,
                      fault_specs, timeout_s=120.0):
    """Launch N real driver processes against one store; returns
    (store_dir, exit_codes, log_paths)."""
    from repro.campaign.faults import FaultPlan

    store_dir = tmp_path / "store"
    stage_dir = tmp_path / "staging"
    # Pre-warm the shared thermal indices so no driver stalls on the
    # steady-state solve while its peers' liveness clocks are running.
    warm = ResultStore(store_dir)
    runner = ExperimentRunner()
    warm.save_thermal_indices(1, (4, 4), runner.thermal_indices(1, (4, 4)))

    env = {}
    if fault_specs:
        plan_path = FaultPlan(faults=tuple(fault_specs)).save(
            tmp_path / "faults" / "plan.json"
        )
        env = {faults.ENV_PLAN: str(plan_path)}

    ctx = multiprocessing.get_context("fork")
    procs = []
    log_paths = []
    for i in range(n_drivers):
        log_path = tmp_path / f"driver-{i}.log"
        log_paths.append(log_path)
        procs.append(ctx.Process(
            target=_drive_campaign,
            args=(store_dir, stage_dir, f"driver-{i}", campaign_kwargs,
                  policy_kwargs, env, log_path, timeout_s),
        ))
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=timeout_s + 30)
        assert proc.exitcode is not None, "driver hung past the deadline"
    return store_dir, [proc.exitcode for proc in procs], log_paths


class TestCrossDriverChaos:
    def test_two_driver_smoke_converges_bit_identical(self, tmp_path):
        campaign_kwargs = dict(policies=("Default", "Adapt3D"),
                               seeds=(1, 2))
        campaign = tiny_campaign(**campaign_kwargs)
        specs = campaign.expand()

        # Fault-free single-driver reference, computed before any
        # fault plan exists.
        ref_store = ResultStore(tmp_path / "ref")
        CampaignExecutor(
            store=ref_store, backend="serial", resilience=fast_policy(),
        ).run_campaign(campaign)

        store_dir, exit_codes, log_paths = _run_driver_fleet(
            tmp_path, n_drivers=2,
            campaign_kwargs=campaign_kwargs,
            policy_kwargs=dict(
                lease_ttl_s=30.0,
                store_latency_budget_s=0.1,
            ),
            fault_specs=[
                FaultSpec("smoke-fail", "store_save", "fail_io"),
                FaultSpec("smoke-slow", "store_save", "slow_io",
                          delay_s=0.3),
            ],
        )
        assert exit_codes == [0, 0]

        store = ResultStore(store_dir)
        for spec in specs:
            key = run_key(spec)
            assert store.has(key)
            assert_results_identical(store.load(key), ref_store.load(key))
        _assert_one_charge_each(log_paths, [run_key(s) for s in specs])
        assert store.held_leases() == {}
        assert ResultStore(tmp_path / "staging").keys() == []

    @pytest.mark.slow
    def test_three_driver_fault_storm_converges_bit_identical(
        self, tmp_path
    ):
        # The full mixed storm: driver kill + failed store writes
        # (spill and reconcile) + slow-IO, three real driver processes,
        # one store, seeded fault plan.
        campaign_kwargs = dict(policies=("Default", "Adapt3D"),
                               seeds=(1, 2, 3))
        campaign = tiny_campaign(**campaign_kwargs)
        specs = campaign.expand()

        ref_store = ResultStore(tmp_path / "ref")
        CampaignExecutor(
            store=ref_store, backend="serial", resilience=fast_policy(),
        ).run_campaign(campaign)

        store_dir, exit_codes, log_paths = _run_driver_fleet(
            tmp_path, n_drivers=3,
            campaign_kwargs=campaign_kwargs,
            policy_kwargs=dict(
                lease_ttl_s=30.0,
                heartbeat_s=0.25,
                driver_stale_s=5.0,
                store_latency_budget_s=0.1,
                checkpoint_every_ticks=7,
            ),
            fault_specs=[
                FaultSpec("storm-kill", "driver_wave", "crash"),
                FaultSpec("storm-fail", "store_save", "fail_io",
                          times=2),
                FaultSpec("storm-slow", "store_save", "slow_io",
                          delay_s=0.3),
            ],
            timeout_s=180.0,
        )
        # Exactly one driver dies to the injected kill; the survivors
        # reclaim its leases and finish the campaign.
        assert sorted(exit_codes) == [0, 0, faults.CRASH_EXIT_CODE]

        store = ResultStore(store_dir)
        for spec in specs:
            key = run_key(spec)
            assert store.has(key)
            assert_results_identical(store.load(key), ref_store.load(key))
        _assert_one_charge_each(log_paths, [run_key(s) for s in specs])
        assert store.held_leases() == {}
        assert ResultStore(tmp_path / "staging").keys() == []
        assert not store.quarantined()
