"""Campaign resilience tests: fault injection, watchdog, the one
failure model (a run that raises fails once per campaign on every
backend; only crashes and timeouts are retried), torn-save recovery,
store failures and old stores with quarantine records. A retried run
is simulated again from tick 0, so every surviving run must equal a
fault-free execution bit for bit.

The fast slice runs in tier-1 as a chaos smoke; the full fault matrix
carries ``@pytest.mark.slow`` and runs in the weekly job
(``pytest -m slow tests/test_campaign_faults.py``).
"""

import json
import os
import time
import traceback
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.runner import ExperimentRunner, RunSpec
from repro.campaign import (
    CampaignExecutor,
    CampaignSpec,
    FaultPlan,
    FaultSpec,
    ResiliencePolicy,
    ResultStore,
    campaign_report,
    campaign_status,
    format_status,
    run_key,
    spec_to_dict,
)
from repro.campaign import faults
from repro.campaign.executor import _format_error
from repro.errors import ConfigurationError

RESULT_ARRAYS = (
    "times", "unit_temps_k", "core_temps_k", "core_peak_temps_k",
    "layer_spreads_k", "utilization", "vf_indices", "core_states",
    "total_power_w",
)


def tiny_spec(policy="Default", seed=1, **overrides) -> RunSpec:
    base = dict(exp_id=1, policy=policy, duration_s=2.0, seed=seed,
                grid=(4, 4))
    base.update(overrides)
    return RunSpec(**base)


def tiny_campaign(name="chaos", policies=("Default", "Adapt3D"), seeds=(1,),
                  **overrides) -> CampaignSpec:
    base = dict(
        name=name, exp_ids=(1,), policies=tuple(policies),
        durations_s=(2.0,), seeds=tuple(seeds), grids=((4, 4),),
    )
    base.update(overrides)
    return CampaignSpec(**base)


#: A spec that raises on every attempt: its mix names no benchmark.
BROKEN = tiny_spec(seed=5, benchmark_mix=(("not-a-benchmark", 4),))


def install_plan(monkeypatch, plan_dir, *fault_specs) -> None:
    """Publish a fault plan via the environment (workers inherit it)."""
    path = FaultPlan(faults=tuple(fault_specs)).save(plan_dir / "plan.json")
    monkeypatch.setenv(faults.ENV_PLAN, str(path))
    faults.reset_fault_cache()


def assert_results_identical(a, b) -> None:
    for name in RESULT_ARRAYS:
        np.testing.assert_array_equal(
            getattr(a, name), getattr(b, name), err_msg=name
        )
    assert a.energy_j == b.energy_j
    assert a.migrations == b.migrations
    assert len(a.jobs) == len(b.jobs)
    for x, y in zip(a.jobs, b.jobs):
        assert x.arrival_time == y.arrival_time
        assert x.remaining_s == y.remaining_s
        assert x.completion_time == y.completion_time
        assert x.core == y.core


def run_dir_bytes(root) -> dict:
    """Key -> file name -> bytes of every published run dir of a store
    (hidden temp dirs are not records and are left out)."""
    runs = Path(root) / "runs"
    return {
        key: {name: (runs / key / name).read_bytes()
              for name in sorted(os.listdir(runs / key))}
        for key in sorted(os.listdir(runs)) if not key.startswith(".")
    }


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


class TestRetryPolicy:
    """The attempt budget and watchdog deadline of ResiliencePolicy."""

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(unit_timeout_s=0.0)
        # A NaN deadline never expires, and an infinite one overflows
        # the pool's wait timeout: both are refused up front.
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigurationError, match="unit_timeout_s"):
                ResiliencePolicy(unit_timeout_s=value)

    def test_unit_deadline_explicit_and_scaled(self):
        explicit = ResiliencePolicy(unit_timeout_s=7.0)
        assert explicit.unit_deadline_s(30.0, 16) == 7.0
        scaled = ResiliencePolicy()
        assert scaled.unit_deadline_s(2.0, 1) == 60.0  # floor wins
        assert scaled.unit_deadline_s(30.0, 4) == 600.0  # 5 s per s x lane


class TestResilienceStats:
    def test_counters_and_snapshot(self):
        from repro.obs import ResilienceStats

        stats = ResilienceStats()
        stats.retry()
        stats.timeout(2)
        assert stats.snapshot() == {"retries": 1, "timeouts": 2, "crashes": 0}


class TestFaultPlan:
    def test_round_trip_and_fire_once(self, tmp_path):
        plan = FaultPlan(seed=3, faults=(
            FaultSpec("c1", "worker_run", "crash", times=2),
        ))
        path = plan.save(tmp_path / "plan.json")
        assert FaultPlan.load(path) == plan

        injector = faults.FaultInjector(plan, tmp_path / "state")
        assert injector.claim("worker_run", "any").fault_id == "c1"
        assert injector.claim("worker_run", "any").fault_id == "c1"
        assert injector.claim("worker_run", "any") is None  # budget spent
        assert injector.claim("payload_save", "any") is None  # wrong point

    def test_key_prefix_matching(self, tmp_path):
        plan = FaultPlan(faults=(
            FaultSpec("k", "worker_run", "crash", key="exp1-adapt3d"),
        ))
        injector = faults.FaultInjector(plan, tmp_path / "state")
        assert injector.claim("worker_run", "exp1-default-abc") is None
        assert injector.claim("worker_run", "exp1-adapt3d-abc") is not None

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("x", "nowhere", "crash")
        with pytest.raises(ValueError):
            FaultSpec("x", "worker_run", "explode")
        with pytest.raises(ValueError):
            FaultSpec("x", "worker_run", "crash", times=0)


class TestCrashRecovery:
    def test_worker_crash_retried_to_ok(self, tmp_path, monkeypatch):
        install_plan(monkeypatch, tmp_path / "faults",
                     FaultSpec("c1", "worker_run", "crash"))
        store = ResultStore(tmp_path / "store")
        executor = CampaignExecutor(store=store, backend="parallel",
                                    max_workers=2)
        run = executor.run_campaign(tiny_campaign())
        assert run.counts() == {"ok": 2}
        snapshot = executor.stats.snapshot()
        assert snapshot["crashes"] >= 1
        assert snapshot["retries"] >= 1
        assert store.resilience_tally()["crashes"] >= 1

    def test_crash_exhaustion_records_error_with_attempts(
        self, tmp_path, monkeypatch
    ):
        # A crash on every attempt: the budget runs out and the error
        # entry records how many attempts it burned.
        install_plan(monkeypatch, tmp_path / "faults",
                     FaultSpec("c1", "worker_run", "crash", times=10))
        store = ResultStore(tmp_path / "store")
        executor = CampaignExecutor(
            store=store, backend="parallel", max_workers=1,
            resilience=ResiliencePolicy(max_attempts=2),
        )
        run = executor.run_campaign(tiny_campaign(policies=("Default",)))
        assert run.counts() == {"error": 1}
        (message,) = run.failed().values()
        assert "crashed" in message
        assert "(attempt 2," in message

    def test_crash_blames_first_lane_only(self, tmp_path, monkeypatch):
        # Satellite fix: a crashed fused batch must not smear its error
        # across every lane — one lane takes the blame, the mates are
        # retried as singletons and complete.
        install_plan(monkeypatch, tmp_path / "faults",
                     FaultSpec("c1", "worker_run", "crash"))
        store = ResultStore(tmp_path / "store")
        executor = CampaignExecutor(
            store=store, backend="batched", max_workers=2,
            resilience=ResiliencePolicy(max_attempts=1),
        )
        run = executor.run_campaign(tiny_campaign())
        counts = run.counts()
        assert counts["error"] == 1
        assert counts["ok"] == 1


    def test_pool_broken_before_a_submit(self, tmp_path, monkeypatch):
        # The first unit's worker crashes before the driver submits the
        # second, so the pool refuses it. It stays queued, uncharged,
        # and the crash is retried like any other; the campaign does
        # not end with BrokenProcessPool. (`_broken` is the CPython
        # pool's flag that a worker died.)
        from concurrent.futures import ProcessPoolExecutor

        campaign = tiny_campaign()
        install_plan(monkeypatch, tmp_path / "faults",
                     FaultSpec("c1", "worker_run", "crash",
                               key=run_key(campaign.expand()[0])))
        real_submit = ProcessPoolExecutor.submit
        calls = []

        def submit_once_broken(self, fn, /, *args, **kwargs):
            calls.append(fn)
            if len(calls) == 2:
                deadline = time.monotonic() + 30
                while not self._broken and time.monotonic() < deadline:
                    time.sleep(0.005)
                assert self._broken
            return real_submit(self, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit",
                            submit_once_broken)
        executor = CampaignExecutor(store=ResultStore(tmp_path / "store"),
                                    backend="parallel", max_workers=2)
        run = executor.run_campaign(campaign)
        assert run.counts() == {"ok": 2}
        assert executor.stats.snapshot() == {
            "retries": 1, "timeouts": 0, "crashes": 1}


class TestWatchdog:
    def test_hung_worker_reaped_and_retried(self, tmp_path, monkeypatch):
        install_plan(monkeypatch, tmp_path / "faults",
                     FaultSpec("h1", "worker_run", "hang", hang_s=60.0))
        store = ResultStore(tmp_path / "store")
        policy = ResiliencePolicy(max_attempts=2, unit_timeout_s=2.0)
        executor = CampaignExecutor(store=store, backend="parallel",
                                    max_workers=1, resilience=policy)
        run = executor.run_campaign(tiny_campaign(policies=("Default",)))
        assert run.counts() == {"ok": 1}
        snapshot = executor.stats.snapshot()
        assert snapshot["timeouts"] == 1
        assert snapshot["retries"] == 1

    def test_deadline_past_the_wait_limit_still_runs(self, tmp_path):
        # A finite deadline beyond threading.TIMEOUT_MAX (~292 years)
        # must not overflow the pool's wait.
        executor = CampaignExecutor(
            store=ResultStore(tmp_path), backend="parallel", max_workers=1,
            resilience=ResiliencePolicy(unit_timeout_s=1e10),
        )
        run = executor.run_campaign(tiny_campaign(policies=("Default",)))
        assert run.counts() == {"ok": 1}


class TestOneFailureModel:
    """A run that raises fails once per campaign, on every backend: it
    is recorded as ``error`` at once, with no retry, and the next
    campaign tries it once more."""

    @pytest.mark.parametrize("backend", ["serial", "parallel", "batched"])
    def test_broken_key_is_simulated_once_per_campaign(self, tmp_path,
                                                       backend):
        campaign = tiny_campaign(policies=("Default",), extra_runs=(BROKEN,))
        key = run_key(BROKEN)
        events = []
        executor = CampaignExecutor(
            store=ResultStore(tmp_path), backend=backend, max_workers=2,
            progress=lambda event, k, _: events.append((event, k)),
        )
        # On batched the first campaign fuses the broken run with the
        # good one, then runs it alone to find the failing lane.
        first = 2 if backend == "batched" else 1
        for starts, counts in ((first, {"ok": 1, "error": 1}),
                               (1, {"cached": 1, "error": 1})):
            events.clear()
            run = executor.run_campaign(campaign)
            assert run.counts() == counts
            assert [e for e, k in events if k == key] == (
                ["start"] * starts + ["error"])
            assert executor.stats.snapshot()["retries"] == 0

    @pytest.mark.parametrize("backend", ["serial", "parallel", "batched"])
    def test_failure_record_is_one_line_on_every_backend(self, tmp_path,
                                                         backend):
        # A pool run records the serial backend's line: the error and
        # the frame that raised it, formatted in the worker while the
        # run's traceback is live. No remote traceback, no pool frames,
        # no attempt suffix. Strict run_specs raises the run's own type.
        with pytest.raises(Exception) as info:
            ExperimentRunner().run(BROKEN)
        frame = traceback.extract_tb(info.value.__traceback__)[-1]
        store = ResultStore(tmp_path)
        executor = CampaignExecutor(store=store, backend=backend,
                                    max_workers=2)
        executor.run_campaign(
            tiny_campaign(policies=("Default",), extra_runs=(BROKEN,)))
        record = store.failures()[run_key(BROKEN)]
        assert record == _format_error(info.value)
        assert "\n" not in record
        assert record.endswith(f" [{frame.filename}:{frame.lineno}]")
        with pytest.raises(type(info.value), match="not-a-benchmark"):
            executor.run_specs([BROKEN])


class TestQuarantine:
    """Older versions retired a key whose pool run raised the same error
    twice, and skipped it until `campaign unquarantine`. Quarantine is
    gone: only a crash or a timeout is retried, and a store those
    versions wrote still opens, its quarantined keys read and run as
    plain failures."""

    def test_deterministic_failure_quarantined(self, tmp_path):
        # What an older version wrote for a key it quarantined: the
        # quarantine record, the failure record beside it, and the
        # count in the lifetime tally. Its bug has since been fixed
        # (here the spec runs), and the next campaign simulates the key
        # once, with no command.
        campaign = tiny_campaign(name="old")
        done, quarantined = campaign.expand()
        key = run_key(quarantined)
        root = tmp_path / "store"
        CampaignExecutor(store=ResultStore(root),
                         backend="serial").run_specs([done])
        error = "WorkloadError: unknown benchmark (attempt 2, 0.0s)"
        spec = spec_to_dict(quarantined)
        for folder, record in (
            ("quarantine", {"spec": spec, "error": error}),
            ("failures", {"status": "error", "spec": spec, "error": error}),
        ):
            (root / folder).mkdir()
            (root / folder / f"{key}.json").write_text(
                json.dumps(record, sort_keys=True))
        (root / "resilience.json").write_text(
            json.dumps({"quarantines": 1, "retries": 1}))

        store = ResultStore(root)
        status = campaign_status(store, campaign)
        assert (status["ok"], status["error"], status["pending"]) == (1, 1, 0)
        assert status["failures"] == {key: error}
        assert f"FAILED {key}: {error}" in format_status(status)

        events = []
        run = CampaignExecutor(
            store=store, backend="parallel", max_workers=2,
            progress=lambda event, k, _: events.append((event, k)),
        ).run_campaign(campaign)
        assert run.counts() == {"cached": 1, "ok": 1}
        assert [e for e, k in events if k == key] == ["start", "ok"]
        assert campaign_report(store, campaign).splitlines()[-1] == (
            "resilience (store lifetime): quarantines=1, retries=1")
        assert (root / "quarantine" / f"{key}.json").exists()  # ignored

    def test_flaky_failure_is_not_quarantined(self, tmp_path, monkeypatch):
        # Two crashes within a 3-attempt budget end ok: the environment
        # failed, not the run, so each crash retries the unit on a
        # fresh pool.
        install_plan(monkeypatch, tmp_path / "faults",
                     FaultSpec("c1", "worker_run", "crash", times=2))
        store = ResultStore(tmp_path / "store")
        events = []
        executor = CampaignExecutor(
            store=store, backend="parallel", max_workers=1,
            resilience=ResiliencePolicy(max_attempts=3),
            progress=lambda event, key, _: events.append(event),
        )
        run = executor.run_campaign(tiny_campaign(policies=("Default",)))
        assert run.counts() == {"ok": 1}
        assert events == ["start", "retry", "start", "retry", "start", "ok"]
        assert executor.stats.snapshot() == {
            "retries": 2, "timeouts": 0, "crashes": 2}
        assert store.failures() == {}


class TestStoreFaults:
    def test_corrupt_payload_swept_then_healed(
        self, tmp_path, monkeypatch, tiny_result
    ):
        store = ResultStore(tmp_path / "store")
        install_plan(monkeypatch, tmp_path / "faults",
                     FaultSpec("p1", "payload_save", "corrupt_payload"))
        key = store.save(tiny_spec(), tiny_result)
        assert not store.has(key)  # emptied payload file reads as absent

        reopened = ResultStore(tmp_path / "store")
        assert not reopened.has(key)
        # The fault budget is spent; a re-run moves the torn run dir
        # aside, publishes its own, and is charged with the unit.
        assert reopened.save(tiny_spec(), tiny_result) == key
        assert reopened.last_save_charged
        assert reopened.has(key)
        assert os.listdir(tmp_path / "store" / "runs") == [key]

    def test_failed_save_ends_campaign_and_resume_keeps_saved_runs(
        self, tmp_path, monkeypatch
    ):
        # A store error is not a run failure: it ends the campaign. The
        # run saved before it stays, and a rerun resumes from it.
        real_save = ResultStore.save
        calls = []

        def save_fails_second(self, spec, result):
            calls.append(run_key(spec))
            if len(calls) == 2:
                raise OSError("injected: store unwritable")
            return real_save(self, spec, result)

        campaign = tiny_campaign(policies=("Default",), seeds=(1, 2))
        executor = CampaignExecutor(store=ResultStore(tmp_path / "store"),
                                    backend="serial")
        with monkeypatch.context() as patch:
            patch.setattr(ResultStore, "save", save_fails_second)
            with pytest.raises(OSError, match="store unwritable"):
                executor.run_campaign(campaign)
        assert len(calls) == 2

        reopened = ResultStore(tmp_path / "store")
        assert reopened.has(calls[0])
        assert not reopened.has(calls[1])
        rerun = CampaignExecutor(store=reopened, backend="serial")
        assert rerun.run_campaign(campaign).counts() == {
            "cached": 1, "ok": 1}


    @pytest.mark.parametrize("backend", ["parallel", "batched"])
    def test_failed_worker_save_ends_pool_campaign(
        self, tmp_path, monkeypatch, backend
    ):
        # On the pool backends a worker saves, and a store error there
        # is no run failure either: the campaign ends with that
        # OSError, the key gets no retry or failure record, the run
        # published before it stays, and a rerun serves it and
        # simulates the rest. One worker keeps the order fixed: on
        # batched the three runs are one fused unit.
        from repro.campaign import store as store_module

        campaign = tiny_campaign(policies=("Default",), seeds=(1, 2, 3))
        specs = campaign.expand()
        first, bad, last = (run_key(spec) for spec in specs)
        real_save_result = store_module.save_result

        def save_fails_for_bad(result, path):
            if Path(path).parent.name.startswith(f".{bad}-"):
                raise OSError("injected: store unwritable")
            return real_save_result(result, path)

        for call, argument in (("run_campaign", campaign),
                               ("run_specs", specs)):
            root = tmp_path / call
            events = []
            executor = CampaignExecutor(
                store=ResultStore(root), backend=backend, max_workers=1,
                progress=lambda event, key, _: events.append((event, key)),
            )
            with monkeypatch.context() as patch:
                patch.setattr(store_module, "save_result",
                              save_fails_for_bad)
                with pytest.raises(OSError, match="store unwritable"):
                    getattr(executor, call)(argument)
            assert [event for event, key in events if key == bad] == [
                "start"]
            assert [key for event, key in events if event == "ok"] == [
                first]
            assert executor.stats.snapshot()["retries"] == 0

            reopened = ResultStore(root)
            assert reopened.failures() == {}
            assert reopened.has(first) and not reopened.has(bad)
            rerun = CampaignExecutor(store=reopened, backend=backend,
                                     max_workers=1).run_campaign(campaign)
            assert {o.key: o.status for o in rerun.outcomes} == {
                first: "cached", bad: "ok", last: "ok"}


class TestChaosCampaign:
    """The acceptance harness: a campaign under a mixed fault plan
    terminates, and every surviving run is bit-identical to a
    fault-free execution."""

    def _run_until_done(self, executor, store, campaign, max_rounds=4):
        # Convergence is judged by store coverage, not per-round
        # counts: a corrupt_payload fault lets a round report "ok"
        # while the stored payload is torn, and only the next round's
        # re-run heals it.
        for _ in range(max_rounds):
            run = executor.run_campaign(campaign)
            if all(store.has(run_key(spec)) for spec in campaign.expand()):
                return run
        return run

    def test_chaos_smoke(self, tmp_path, monkeypatch):
        # One crash plus one torn save, two runs.
        install_plan(
            monkeypatch, tmp_path / "faults",
            FaultSpec("c1", "worker_run", "crash"),
            FaultSpec("p1", "payload_save", "corrupt_payload"),
        )
        campaign = tiny_campaign()
        store = ResultStore(tmp_path / "store")
        executor = CampaignExecutor(store=store, backend="parallel",
                                    max_workers=2)
        self._run_until_done(executor, store, campaign)

        monkeypatch.delenv(faults.ENV_PLAN)
        faults.reset_fault_cache()
        reference = ResultStore(tmp_path / "reference")
        CampaignExecutor(store=reference, backend="serial").run_campaign(
            campaign
        )
        for spec in campaign.expand():
            key = run_key(spec)
            chaos_store = ResultStore(tmp_path / "store")
            assert chaos_store.has(key)
            assert_results_identical(
                chaos_store.load(key), reference.load(key)
            )

    @pytest.mark.slow
    def test_chaos_full_matrix(self, tmp_path, monkeypatch):
        # Crash storm + hang + torn saves across a four-run campaign;
        # every retried run is simulated again from tick 0.
        install_plan(
            monkeypatch, tmp_path / "faults",
            FaultSpec("c1", "worker_run", "crash", times=2),
            FaultSpec("h1", "worker_run", "hang", hang_s=60.0),
            FaultSpec("p1", "payload_save", "corrupt_payload", times=2),
        )
        campaign = tiny_campaign(seeds=(1, 2))  # 4 runs
        store = ResultStore(tmp_path / "store")
        policy = ResiliencePolicy(max_attempts=3, unit_timeout_s=3.0)
        executor = CampaignExecutor(store=store, backend="parallel",
                                    max_workers=2, resilience=policy)
        run = self._run_until_done(executor, store, campaign, max_rounds=6)
        assert run.counts().get("error", 0) == 0

        tally = ResultStore(tmp_path / "store").resilience_tally()
        assert tally.get("crashes", 0) >= 1
        # The hang is absorbed either by the watchdog (a timeout
        # charge) or by a crash-triggered pool rebuild killing the
        # hung worker first (the unit requeues uncharged and the
        # fire-once hang never recurs) — which path wins depends on
        # how the crash and hang firings interleave across workers.
        assert (tally.get("timeouts", 0) >= 1
                or tally.get("crashes", 0) >= 2)

        monkeypatch.delenv(faults.ENV_PLAN)
        faults.reset_fault_cache()
        reference = ResultStore(tmp_path / "reference")
        CampaignExecutor(store=reference, backend="serial").run_campaign(
            campaign
        )
        chaos_store = ResultStore(tmp_path / "store")
        for spec in campaign.expand():
            key = run_key(spec)
            assert chaos_store.has(key)
            assert_results_identical(
                chaos_store.load(key), reference.load(key)
            )


    @pytest.mark.slow
    @pytest.mark.parametrize("backend", ["parallel", "batched"])
    def test_worker_dies_mid_publish(self, tmp_path, monkeypatch, backend):
        # payload_save fires in the worker between its written temp dir
        # and the rename. A crash or a hang there leaves only a hidden
        # temp dir, which is not a record; the retried unit publishes
        # the key. The campaign converges, every run dir holds the
        # bytes a fault-free serial store holds, and no key reads as
        # present with a torn payload.
        install_plan(
            monkeypatch, tmp_path / "faults",
            FaultSpec("c1", "payload_save", "crash"),
            FaultSpec("h1", "payload_save", "hang", hang_s=60.0),
        )
        campaign = tiny_campaign(seeds=(1, 2))  # 4 runs
        store = ResultStore(tmp_path / "store")
        policy = ResiliencePolicy(max_attempts=3, unit_timeout_s=3.0)
        executor = CampaignExecutor(store=store, backend=backend,
                                    max_workers=2, resilience=policy)
        run = self._run_until_done(executor, store, campaign)
        assert run.counts().get("error", 0) == 0
        tally = ResultStore(tmp_path / "store").resilience_tally()
        assert tally.get("crashes", 0) >= 1
        runs = tmp_path / "store" / "runs"
        assert any(name.startswith(".") for name in os.listdir(runs))

        monkeypatch.delenv(faults.ENV_PLAN)
        faults.reset_fault_cache()
        reference = tmp_path / "reference"
        CampaignExecutor(store=ResultStore(reference),
                         backend="serial").run_campaign(campaign)
        assert run_dir_bytes(runs.parent) == run_dir_bytes(reference)
        reopened = ResultStore(runs.parent)
        assert sorted(reopened.keys()) == sorted(campaign.keys())
        assert all(reopened.has(key) for key in campaign.keys())

    @pytest.mark.slow
    def test_worker_dies_after_publishing_a_lane(self, tmp_path,
                                                 monkeypatch):
        # A fused unit's worker publishes its first lane, then dies
        # saving the second. The retry simulates both again: the first
        # lane loses the rename to its own published dir and reports
        # cached (save-race), the second publishes.
        campaign = tiny_campaign(policies=("Default",), seeds=(1, 2))
        first, second = (run_key(spec) for spec in campaign.expand())
        install_plan(monkeypatch, tmp_path / "faults",
                     FaultSpec("c1", "payload_save", "crash", key=second))
        events = []
        store = ResultStore(tmp_path / "store")
        run = CampaignExecutor(
            store=store, backend="batched", max_workers=1,
            progress=lambda event, key, detail: events.append(
                (event, key, detail)),
        ).run_campaign(campaign)
        assert run.counts() == {"ok": 2}
        assert [e for e, k, _ in events if k == first] == [
            "start", "retry", "start", "cached"]
        assert ("cached", first, "save-race") in events
        assert [e for e, k, _ in events if k == second] == [
            "start", "start", "ok"]

        monkeypatch.delenv(faults.ENV_PLAN)
        faults.reset_fault_cache()
        reference = tmp_path / "reference"
        CampaignExecutor(store=ResultStore(reference),
                         backend="serial").run_campaign(campaign)
        assert run_dir_bytes(tmp_path / "store") == run_dir_bytes(reference)


class TestResilienceCli:
    def test_campaign_run_accepts_resilience_flags(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        spec_path = tiny_campaign(name="flags", policies=("Default",)).to_json(
            tmp_path / "flags.json"
        )
        assert main([
            "campaign", "run", str(spec_path), "--backend", "serial",
            "--max-attempts", "2", "--unit-timeout", "30",
        ]) == 0
        out = capsys.readouterr().out
        assert "1/1 done" in out

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_unit_timeout_refused(
        self, tmp_path, capsys, monkeypatch, value
    ):
        # A NaN deadline would switch the watchdog off silently, and an
        # infinite one crashed the driver in the pool's wait.
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        spec_path = tiny_campaign(name="nf", policies=("Default",)).to_json(
            tmp_path / "nf.json"
        )
        assert main([
            "campaign", "run", str(spec_path), "--workers", "1",
            "--unit-timeout", value,
        ]) == 2
        assert "unit_timeout_s" in capsys.readouterr().err
        assert not (tmp_path / "campaigns" / "nf" / "runs").exists()
