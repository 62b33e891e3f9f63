"""Campaign subsystem tests: keys, specs, store, executors, reports."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.result_io import (export_result, load_result,
                                      payload_path, save_result,
                                      truncate_result)
from repro.analysis.runner import ExperimentRunner, RunSpec
from repro.analysis.sweep import sweep
from repro.campaign import (
    CampaignExecutor,
    CampaignSpec,
    ResultStore,
    campaign_report,
    campaign_status,
    run_key,
    spec_from_dict,
    spec_to_dict,
)
from repro.cli import main
from repro.errors import ConfigurationError

from test_job_table import frame

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


#: A telemetry sidecar as stored before the metrics registry was
#: deleted (``registry`` section, ``engine.jobs_total``).
OLD_SIDECAR = Path(__file__).resolve().parent / "data" / \
    "telemetry_with_registry.json"


def tiny_spec(policy="Default", seed=1, **overrides) -> RunSpec:
    """A seconds-scale run for integration tests."""
    base = dict(exp_id=1, policy=policy, duration_s=2.0, seed=seed,
                grid=(4, 4))
    base.update(overrides)
    return RunSpec(**base)


def tiny_campaign(name="tiny", policies=("Default", "Adapt3D"), seeds=(1,),
                  **overrides) -> CampaignSpec:
    base = dict(
        name=name, exp_ids=(1,), policies=tuple(policies),
        durations_s=(2.0,), seeds=tuple(seeds), grids=((4, 4),),
    )
    base.update(overrides)
    return CampaignSpec(**base)


class CountingRunner(ExperimentRunner):
    """Counts simulation executions for resume/skip assertions."""

    def __init__(self):
        super().__init__()
        self.run_calls = 0

    def run(self, spec):
        self.run_calls += 1
        return super().run(spec)


class TestRunKey:
    def test_deterministic_within_process(self):
        spec = tiny_spec(policy="Adapt3D&DVFS_TT",
                         policy_params=(("beta_inc", 0.02),))
        assert run_key(spec) == run_key(replace(spec))

    def test_readable_prefix(self):
        key = run_key(tiny_spec(policy="Adapt3D&DVFS_TT"))
        assert key.startswith("exp1-adapt3d_dvfs_tt-")

    def test_every_field_feeds_the_hash(self):
        base = tiny_spec()
        variants = [
            replace(base, exp_id=2),
            replace(base, policy="Adapt3D"),
            replace(base, duration_s=3.0),
            replace(base, with_dpm=True),
            replace(base, seed=2),
            replace(base, grid=(8, 8)),
            replace(base, benchmark_mix=(("gzip", 4),)),
            replace(base, policy_params=(("beta_inc", 0.02),)),
            replace(base, sensor_noise_sigma=0.5),
            replace(base, workload_mix="web_heavy"),
            replace(base, fidelity="eager"),
        ]
        keys = {run_key(spec) for spec in [base] + variants}
        assert len(keys) == len(variants) + 1

    @pytest.mark.parametrize("hash_seed", ["1", "31337"])
    def test_stable_across_python_sessions(self, hash_seed):
        """The key must not depend on interpreter hash randomization."""
        spec = tiny_spec(policy="Adapt3D&DVFS_TT", seed=7,
                         benchmark_mix=(("gzip", 2), ("gcc", 1)),
                         policy_params=(("beta_inc", 0.02),))
        code = (
            "from repro.analysis.runner import RunSpec\n"
            "from repro.campaign import run_key\n"
            "spec = RunSpec(exp_id=1, policy='Adapt3D&DVFS_TT',"
            " duration_s=2.0, seed=7, grid=(4, 4),"
            " benchmark_mix=(('gzip', 2), ('gcc', 1)),"
            " policy_params=(('beta_inc', 0.02),))\n"
            "print(run_key(spec))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        env["PYTHONHASHSEED"] = hash_seed
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        )
        assert out.stdout.strip() == run_key(spec)

    def test_spec_dict_round_trip(self):
        spec = tiny_spec(policy="Adapt3D", with_dpm=True,
                         benchmark_mix=(("gzip", 2),),
                         policy_params=(("history_window", 5),))
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(ConfigurationError):
            spec_from_dict({"exp_id": 1, "policy": "Default", "bogus": 1})


class TestRunSpecValues:
    """One value, one key: a spec checks and normalizes its own fields,
    so every spelling of one run keys to the run it simulates."""

    @pytest.mark.parametrize("grid", [(4, 4, 4), (4.0, 4.0), (True, 4)])
    def test_malformed_grid_rejected(self, grid):
        # (4, 4, 4) would run a 4x4 simulation under a key no 4x4
        # request hits; bools are ints to Python but are not sizes.
        with pytest.raises(ConfigurationError, match="grid"):
            tiny_spec(grid=grid)

    @pytest.mark.parametrize(
        "field, value",
        [("duration_s", float("nan")), ("duration_s", float("inf")),
         ("duration_s", 0), ("duration_s", -2.0), ("duration_s", "two"),
         ("sensor_noise_sigma", float("nan")),
         ("sensor_noise_sigma", float("inf")),
         ("sensor_noise_sigma", -0.5),
         ("duration_s", 0.04), ("duration_s", 0.05)],
    )
    def test_unusable_value_rejected(self, field, value):
        # NaN and infinity have no tick count, 0.05 s rounds to no
        # 0.1 s tick, and a NaN sigma would draw no noise under a key
        # of its own.
        with pytest.raises(ConfigurationError, match=field):
            tiny_spec(**{field: value})

    def test_shortest_duration_runs_one_tick(self):
        assert ExperimentRunner().run(tiny_spec(duration_s=0.06)).n_ticks == 1

    def test_list_grid_is_the_tuple_grid(self):
        spec = tiny_spec(grid=[4, 4], duration_s=1.0)
        assert spec.grid == (4, 4)
        assert spec == tiny_spec(duration_s=1.0)
        assert run_key(spec) == run_key(tiny_spec(duration_s=1.0))
        assert ExperimentRunner().run(spec).n_ticks == 10

    def test_int_and_float_spellings_share_a_key(self):
        assert run_key(tiny_spec(duration_s=2)) == run_key(tiny_spec())
        assert tiny_spec(duration_s=2).duration_s == 2.0
        assert (run_key(tiny_spec(sensor_noise_sigma=0))
                == run_key(tiny_spec(sensor_noise_sigma=0.0))
                == run_key(tiny_spec(sensor_noise_sigma=-0.0)))
        by_hand = CampaignSpec.from_dict({
            "name": "x", "exp_ids": [1], "policies": ["Default"],
            "durations_s": [2], "seeds": [1], "grids": [[4, 4]],
            "sensor_noise_sigmas": [0],
        })
        assert by_hand.keys() == tiny_campaign(policies=("Default",)).keys()


class TestGoldenKey:
    """Pin the key derivation to frozen digests.

    Result stores index completed runs by ``run_key``; if the digest for a
    fixed spec ever changes, every cached campaign silently misses and
    re-runs.  These digests were frozen when KEY_VERSION reached 10 — a
    mismatch means either an accidental serialization change (fix it) or a
    deliberate one (bump KEY_VERSION in repro.campaign.spec, then update
    the digests here).
    """

    GOLDEN_SPEC_KWARGS = dict(
        exp_id=4,
        policy="Adapt3D&DVFS_TT",
        duration_s=120.0,
        with_dpm=True,
        seed=2009,
        grid=(8, 8),
        benchmark_mix=(("gcc", 2), ("gzip", 2)),
        policy_params=(("beta_inc", 0.02),),
        sensor_noise_sigma=0.5,
        workload_mix="server",
        fidelity="event",
    )
    GOLDEN_RUN_KEY = "exp4-adapt3d_dvfs_tt-66a5f3e8aa99"

    def test_run_key_matches_frozen_digest(self):
        assert run_key(RunSpec(**self.GOLDEN_SPEC_KWARGS)) == self.GOLDEN_RUN_KEY

    def test_telemetry_does_not_feed_the_key(self):
        """Observability toggles must never invalidate cached results."""
        quiet = RunSpec(**self.GOLDEN_SPEC_KWARGS)
        loud = replace(quiet, telemetry=True)
        assert run_key(loud) == self.GOLDEN_RUN_KEY


class TestCampaignSpec:
    def test_expand_is_cartesian(self):
        campaign = tiny_campaign(seeds=(1, 2), policies=("Default", "Adapt3D"))
        specs = campaign.expand()
        assert len(specs) == 4
        assert {(s.policy, s.seed) for s in specs} == {
            ("Default", 1), ("Default", 2), ("Adapt3D", 1), ("Adapt3D", 2),
        }

    def test_expand_dedupes_extra_runs(self):
        campaign = tiny_campaign(extra_runs=(tiny_spec(),))
        assert len(campaign.expand()) == 2  # grid already contains it

    def test_extra_runs_carry_policy_params(self):
        variant = tiny_spec(policy="Adapt3D",
                            policy_params=(("beta_inc", 0.05),))
        campaign = tiny_campaign(extra_runs=(variant,))
        assert variant in campaign.expand()

    def test_json_round_trip(self, tmp_path):
        campaign = tiny_campaign(
            seeds=(1, 2),
            benchmark_mixes=(None, (("gzip", 4),)),
            extra_runs=(tiny_spec(policy="Adapt3D",
                                  policy_params=(("beta_dec", 0.5),)),),
        )
        path = campaign.to_json(tmp_path / "spec.json")
        loaded = CampaignSpec.from_json(path)
        assert loaded == campaign
        assert loaded.keys() == campaign.keys()

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_campaign(policies=())

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec.from_dict({"name": "x", "nope": 1})

    def test_fidelity_axis_expands_and_round_trips(self, tmp_path):
        campaign = tiny_campaign(fidelities=("eager", "event"))
        specs = campaign.expand()
        assert len(specs) == 4
        assert {s.fidelity for s in specs} == {"eager", "event"}
        # Event and eager runs address different store entries.
        assert len(set(campaign.keys())) == 4
        loaded = CampaignSpec.from_json(
            campaign.to_json(tmp_path / "spec.json")
        )
        assert loaded == campaign

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_campaign(fidelities=("sloppy",))

    @pytest.mark.parametrize(
        "grids", [[[8]], [[8, 8, 8]], [[0, 8]], [8, 8]]
    )
    def test_malformed_grid_rejected(self, grids):
        """A grid is two positive ints: ``[8]`` would fail deep in the
        executor, and ``[8, 8, 8]`` would run an 8x8 simulation under a
        key no 8x8 request ever hits."""
        with pytest.raises(ConfigurationError, match="grid"):
            CampaignSpec.from_dict({"name": "x", "grids": grids})

    @pytest.mark.parametrize(
        "axis, values",
        [("durations_s", [2.0, float("nan")]), ("durations_s", [0]),
         ("sensor_noise_sigmas", [float("inf")]),
         ("sensor_noise_sigmas", [0.0, -1.0]),
         ("durations_s", [2.0, 0.05])],
    )
    def test_unusable_axis_value_rejected(self, axis, values):
        field = {"durations_s": "duration_s",
                 "sensor_noise_sigmas": "sensor_noise_sigma"}[axis]
        with pytest.raises(ConfigurationError, match=field):
            CampaignSpec.from_dict({"name": "x", axis: values})

    def test_malformed_extra_run_grid_rejected(self):
        with pytest.raises(ConfigurationError, match="grid"):
            tiny_campaign(extra_runs=(tiny_spec(grid=(8, 8, 8)),))


@pytest.fixture(scope="module")
def tiny_result():
    return ExperimentRunner().run(tiny_spec())


RESULT_ARRAYS = (
    "times", "unit_temps_k", "core_temps_k", "core_peak_temps_k",
    "layer_spreads_k", "utilization", "vf_indices", "core_states",
    "total_power_w",
)


def assert_bit_identical(loaded, original):
    """Every field of ``loaded`` equals ``original``'s in every bit: the
    arrays with their dtypes, the completed jobs' fields (Job equality
    compares all of them), names and scalars."""
    for name in RESULT_ARRAYS:
        a, b = getattr(loaded, name), getattr(original, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert loaded.jobs == original.completed_jobs()
    for name in ("unit_names", "core_names", "energy_j", "migrations",
                 "policy_name", "sampling_interval_s"):
        assert getattr(loaded, name) == getattr(original, name), name


def round_trip(result, stem):
    save_result(result, stem)
    return load_result(stem)


def split_frame(path):
    """A saved payload frame as (header dict, planes bytes, jobs bytes)."""
    data = path.read_bytes()
    end = data.index(b"\n", 32) + 1
    meta = json.loads(data[32:end])
    body = data[end:]
    cut = len(body) - 8 * 7 * len(meta["job_benchmarks"])
    return meta, body[:cut], body[cut:]


class TestResultRoundTrip:
    def test_save_load_preserves_arrays(self, tiny_result, tmp_path):
        assert_bit_identical(round_trip(tiny_result, tmp_path / "run"),
                             tiny_result)

    def test_completed_jobs_survive(self, tiny_result, tmp_path):
        loaded = round_trip(tiny_result, tmp_path / "run")
        original = tiny_result.completed_jobs()
        assert original and loaded.completed_jobs() == original
        assert [job.response_time for job in loaded.jobs] == [
            job.response_time for job in original]

    @pytest.mark.parametrize("source", ["event", "batch_lane"])
    def test_round_trip_is_bit_exact(self, source, tmp_path):
        runner = ExperimentRunner()
        if source == "event":
            result = runner.run(tiny_spec(fidelity="event", with_dpm=True))
        else:
            result = runner.run_batch(
                [tiny_spec(seed=1), tiny_spec(policy="Adapt3D", seed=2)])[1]
        assert_bit_identical(round_trip(result, tmp_path / "run"), result)

    def test_two_saves_give_the_same_bytes(self, tiny_result, tmp_path):
        first = save_result(tiny_result, tmp_path / "a" / "run")
        second = save_result(tiny_result, tmp_path / "b" / "run")
        assert first == payload_path(tmp_path / "a" / "run")
        assert first.name == second.name
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("tampered", ["meta", "jobs"])
    def test_shape_disagreeing_with_name_lists_raises(self, tiny_result,
                                                       tampered, tmp_path):
        # The preamble declares the tampered file's true size, so only
        # the header's name lists disagree with the body.
        stem = tmp_path / "run"
        path = save_result(tiny_result, stem)
        meta, planes, jobs = split_frame(path)
        assert len(jobs) == 56 * len(tiny_result.completed_jobs()) > 56
        if tampered == "meta":
            meta["unit_names"] = meta["unit_names"][:-1]
        else:
            jobs = np.zeros((1, 7)).tobytes()
        path.write_bytes(frame(meta, planes + jobs))
        with pytest.raises(ConfigurationError, match="disagree") as info:
            load_result(stem)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("change", ["trailing_byte", "short"])
    def test_payload_size_disagreeing_with_its_header_raises(
            self, tiny_result, change, tmp_path):
        stem = tmp_path / "run"
        path = save_result(tiny_result, stem)
        data = path.read_bytes()
        path.write_bytes(data + b"\0" if change == "trailing_byte"
                         else data[:-8])
        with pytest.raises(ConfigurationError, match="disagree") as info:
            load_result(stem)
        assert str(path) in str(info.value)

    def test_csv_era_stem_raises(self, tiny_result, tmp_path):
        stem = write_csv_era_result(tiny_result, tmp_path / "run")
        with pytest.raises(ConfigurationError, match="format version") as info:
            load_result(stem)
        assert str(payload_path(stem)) in str(info.value)

    def test_format_2_stem_raises(self, tiny_result, tmp_path):
        stem = write_format_2_result(tiny_result, tmp_path / "run")
        with pytest.raises(ConfigurationError, match="format version") as info:
            load_result(stem)
        assert str(payload_path(stem)) in str(info.value)

    def test_load_missing_stem_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_result(tmp_path / "nothing")


def write_csv_era_result(result, stem):
    """The file set the CSV codec of earlier versions saved at ``stem``."""
    export_result(result, stem)
    stem.with_name(stem.name + "_series.csv").write_text(
        "time_s,total_power_w\n0.100,1.0\n")
    stem.with_name(stem.name + "_meta.json").write_text(json.dumps(
        {"version": 1, "policy_name": result.policy_name,
         "sampling_interval_s": result.sampling_interval_s,
         "energy_j": result.energy_j, "migrations": result.migrations,
         "core_names": result.core_names}))
    return stem


def write_format_2_result(result, stem):
    """The three files format 2 saved at ``stem``: the planes as one
    ``.npy`` matrix, the completed jobs as another, and the meta."""
    planes = np.column_stack([getattr(result, name)
                              for name in RESULT_ARRAYS])
    jobs = result.jobs.take(result.jobs.finished())
    np.save(stem.with_name(stem.name + "_planes.npy"), planes)
    np.save(stem.with_name(stem.name + "_jobs.npy"), jobs.rows)
    stem.with_name(stem.name + "_meta.json").write_text(json.dumps(
        {"version": 2, "policy_name": result.policy_name,
         "sampling_interval_s": result.sampling_interval_s,
         "energy_j": result.energy_j, "migrations": result.migrations,
         "unit_names": result.unit_names, "core_names": result.core_names,
         "n_dies": result.layer_spreads_k.shape[1],
         "job_benchmarks": [spec.name for spec in jobs.benchmarks],
         "job_cores": jobs.cores}, sort_keys=True) + "\n")
    return stem


class TestResultStore:
    def test_save_has_load(self, tiny_result, tmp_path):
        store = ResultStore(tmp_path)
        spec = tiny_spec()
        key = store.save(spec, tiny_result)
        assert key == run_key(spec)
        assert store.has(key)
        assert store.load_spec(key) == spec
        loaded = store.load(key)
        assert loaded.n_ticks == tiny_result.n_ticks

    def test_index_survives_reopen(self, tiny_result, tmp_path):
        spec = tiny_spec()
        ResultStore(tmp_path).save(spec, tiny_result)
        reopened = ResultStore(tmp_path)
        assert reopened.has(run_key(spec))

    def test_failure_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = tiny_spec(seed=99)
        key = store.record_failure(spec, "boom")
        assert not store.has(key)
        assert store.failures() == {key: "boom"}
        with pytest.raises(ConfigurationError, match="boom"):
            store.load(key)

    def test_query_filters(self, tiny_result, tmp_path):
        store = ResultStore(tmp_path)
        store.save(tiny_spec(), tiny_result)
        store.record_failure(tiny_spec(policy="Adapt3D"), "x")
        assert store.query(policy="Default") == [run_key(tiny_spec())]
        assert store.query(status="error") == [
            run_key(tiny_spec(policy="Adapt3D"))
        ]
        assert store.query(exp_id=3) == []

    def test_discard_forces_rerun(self, tiny_result, tmp_path):
        store = ResultStore(tmp_path)
        key = store.save(tiny_spec(), tiny_result)
        store.discard(key)
        assert not store.has(key)
        assert not (tmp_path / "runs" / key).exists()

    def test_save_and_load_call_the_codec_through_store_globals(
        self, tiny_result, tmp_path, monkeypatch
    ):
        # The per-layer benchmark times result_io by wrapping these two
        # module globals of the store; a store that stopped calling
        # them would read as zero codec time.
        from repro.campaign import store as store_module

        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("save_result", "load_result"):
            monkeypatch.setattr(store_module, name,
                                counting(name, getattr(store_module, name)))
        store = ResultStore(tmp_path)
        key = store.save(tiny_spec(), tiny_result)
        assert calls == ["save_result"]
        store.load(key)
        assert calls == ["save_result", "load_result"]

    def test_unreadable_telemetry_sidecar_counts_as_none(self, tiny_result,
                                                         tmp_path):
        # The sidecar is outside the run files has() checks, so a host
        # crash can leave it empty in a run that reads as present.
        store = ResultStore(tmp_path)
        key = store.save(tiny_spec(),
                         replace(tiny_result, telemetry={"phases": {}}))
        (tmp_path / "runs" / key / "telemetry.json").write_text("")
        assert store.has(key)
        assert store.load_telemetry(key) is None
        assert store.load(key).telemetry is None

    def test_thermal_indices_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.load_thermal_indices(1, (4, 4)) is None
        store.save_thermal_indices(1, (4, 4), {"c0": 0.25, "c1": 0.75})
        assert store.load_thermal_indices(1, (4, 4)) == {
            "c0": 0.25, "c1": 0.75,
        }


class TestSerialExecutor:
    def test_resume_skips_completed_runs(self, tmp_path):
        campaign = tiny_campaign(seeds=(1, 2))
        store = ResultStore(tmp_path)
        runner = CountingRunner()
        executor = CampaignExecutor(store=store, backend="serial",
                                    runner=runner)
        first = executor.run_campaign(campaign)
        assert first.counts() == {"ok": 4}
        assert runner.run_calls == 4

        second = executor.run_campaign(campaign)
        assert second.counts() == {"cached": 4}
        assert runner.run_calls == 4  # nothing re-simulated

    def test_shorter_duration_request_is_simulated(self, tmp_path):
        """A key holds only its own spec's simulation. Truncating the
        stored 12 s run would store 67 migrations for the 7.3 s spec,
        whose simulation records 73."""
        store = ResultStore(tmp_path)
        runner = CountingRunner()
        executor = CampaignExecutor(store=store, backend="serial",
                                    runner=runner)
        long_spec = RunSpec(exp_id=4, policy="Migr", duration_s=12.0, seed=3)
        short_spec = replace(long_spec, duration_s=7.3)
        executor.run_specs([long_spec])
        run = executor.run_campaign(CampaignSpec(
            name="short", exp_ids=(4,), policies=("Migr",),
            durations_s=(7.3,), seeds=(3,),
        ))
        assert run.counts() == {"ok": 1}
        assert runner.run_calls == 2
        assert_bit_identical(store.load(run_key(short_spec)),
                             ExperimentRunner().run(short_spec))

    def test_failed_run_recorded_without_killing_campaign(self, tmp_path):
        bad = tiny_spec(seed=5, benchmark_mix=(("not-a-benchmark", 4),))
        campaign = tiny_campaign(policies=("Default",), extra_runs=(bad,))
        store = ResultStore(tmp_path)
        run = CampaignExecutor(store=store, backend="serial").run_campaign(
            campaign
        )
        assert run.counts() == {"ok": 1, "error": 1}
        assert "not-a-benchmark" in run.failed()[run_key(bad)]
        assert store.failures()  # persisted too
        # the good run is loadable
        assert store.load(run_key(tiny_spec())).n_ticks == 20

    def test_unbuildable_operator_fails_its_run_only(self, tmp_path):
        # The driver shares thermal indices and prepares every pending
        # spec's operators before the first run; a spec whose stack
        # cannot be built (a grid above the node limit) must still fail
        # as its own run, not end the campaign in either step.
        bad = tiny_spec(seed=5, grid=(40, 40))
        campaign = tiny_campaign(policies=("Default",), extra_runs=(bad,))
        run = CampaignExecutor(
            store=ResultStore(tmp_path), backend="serial"
        ).run_campaign(campaign)
        assert run.counts() == {"ok": 1, "error": 1}
        assert "above the limit" in run.failed()[run_key(bad)]

    def test_failed_key_retried_after_discard(self, tmp_path):
        bad = tiny_spec(seed=5, benchmark_mix=(("not-a-benchmark", 4),))
        campaign = tiny_campaign(policies=("Default",), extra_runs=(bad,))
        store = ResultStore(tmp_path)
        executor = CampaignExecutor(store=store, backend="serial")
        executor.run_campaign(campaign)
        # A failed entry does not read as completed, so the next
        # invocation retries it (and fails again, deterministically).
        rerun = executor.run_campaign(campaign)
        assert rerun.counts() == {"cached": 1, "error": 1}

    def test_thermal_indices_shared_through_store(self, tmp_path):
        store = ResultStore(tmp_path)
        executor = CampaignExecutor(store=store, backend="serial")
        executor.run_campaign(tiny_campaign(policies=("Default",)))
        persisted = store.load_thermal_indices(1, (4, 4))
        assert persisted is not None and len(persisted) == 8

        # A fresh runner seeds from the store instead of re-solving.
        runner = CountingRunner()
        executor2 = CampaignExecutor(store=store, backend="serial",
                                     runner=runner)
        executor2.run_campaign(tiny_campaign(policies=("Default",),
                                             seeds=(123,)))
        assert runner._index_cache[(1, (4, 4))] == persisted

    def test_progress_events(self, tmp_path):
        events = []
        store = ResultStore(tmp_path)
        executor = CampaignExecutor(
            store=store, backend="serial",
            progress=lambda event, key, detail: events.append(event),
        )
        executor.run_campaign(tiny_campaign(policies=("Default",)))
        assert events == ["start", "ok"]
        events.clear()
        executor.run_campaign(tiny_campaign(policies=("Default",)))
        assert events == ["cached"]

    def test_run_specs_strict_raises(self, tmp_path):
        executor = CampaignExecutor(store=ResultStore(tmp_path),
                                    backend="serial")
        with pytest.raises(Exception):
            executor.run_specs(
                [tiny_spec(benchmark_mix=(("not-a-benchmark", 1),))]
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignExecutor(backend="quantum")


class TestDelegation:
    def test_run_policies_goes_through_executor(self):
        runner = CountingRunner()
        results = runner.run_policies(tiny_spec(), ["Default", "Adapt3D"])
        assert set(results) == {"Default", "Adapt3D"}
        assert runner.run_calls == 2
        assert results["Default"].policy_name == "Default"

    def test_run_policies_with_store_executor(self, tmp_path):
        runner = CountingRunner()
        store = ResultStore(tmp_path)
        executor = CampaignExecutor(store=store, backend="serial",
                                    runner=runner)
        first = runner.run_policies(tiny_spec(), ["Default"], executor)
        again = runner.run_policies(tiny_spec(), ["Default"], executor)
        assert runner.run_calls == 1  # second call served from the store
        np.testing.assert_array_equal(
            first["Default"].unit_temps_k, again["Default"].unit_temps_k)

    def test_sweep_default_serial(self):
        assert sweep([1, 2, 3], lambda v: v * v) == [(1, 1), (2, 4), (3, 9)]

    def test_sweep_accepts_executor(self):
        executor = CampaignExecutor(backend="serial")
        assert sweep([2, 4], lambda v: v + 1, executor) == [(2, 3), (4, 5)]


def _worker_cache_keys(_value):
    """Module-level map() payload: the stacks of the worker runner's
    indices and assemblies, and which assemblies carry a modal basis."""
    from repro.campaign.executor import worker_runner

    caches = worker_runner().caches()
    return (
        sorted(caches.indices),
        sorted(caches.assemblies),
        sorted(key for key, assembly in caches.assemblies.items()
               if assembly._modal_basis),
    )


class TestMapSeeding:
    def test_serial_map_unchanged(self):
        executor = CampaignExecutor(backend="serial")
        assert executor.map(len, ["ab", "c"]) == [2, 1]

    @pytest.mark.slow
    def test_parallel_map_seeds_worker_indices(self):
        runner = ExperimentRunner()
        runner.seed_thermal_indices(1, (4, 4), {"cpu0_0": 1.0})
        runner.seed_thermal_indices(2, (8, 8), {"cpu0_0": 0.5})
        runner.prepare([tiny_spec(fidelity="event")])
        executor = CampaignExecutor(
            backend="parallel", max_workers=2, runner=runner
        )
        for indices, assemblies, modal in executor.map(
            _worker_cache_keys, [0, 1, 2]
        ):
            # Every worker ran _init_worker with the driver's caches, so
            # no process redoes the steady-state characterization, and
            # a worker's runner starts empty, so the assembly and its
            # modal basis are the driver's.
            assert indices == [(1, (4, 4)), (2, (8, 8))]
            assert assemblies == modal == [(1, (4, 4))]


class TestStoreStalePayloads:
    """Crash-consistency: run dirs must never mix files across saves."""

    def _stale_file(self, store, key):
        run_dir = store.root / "runs" / key
        run_dir.mkdir(parents=True, exist_ok=True)
        stale = run_dir / "leftover.csv"
        stale.write_text("partial write from a crashed save\n")
        return stale

    def test_save_clears_stale_run_dir(self, tiny_result, tmp_path):
        store = ResultStore(tmp_path)
        spec = tiny_spec()
        stale = self._stale_file(store, run_key(spec))
        store.save(spec, tiny_result)
        assert not stale.exists()
        assert store.has(run_key(spec))
        store.load(run_key(spec))  # round-trips cleanly

    def test_record_failure_clears_stale_run_dir(self, tiny_result, tmp_path):
        store = ResultStore(tmp_path)
        spec = tiny_spec()
        stale = self._stale_file(store, run_key(spec))
        store.record_failure(spec, "boom")
        assert not stale.exists()
        assert not (store.root / "runs" / run_key(spec)).exists()
        assert run_key(spec) in store.failures()

    def test_has_tolerates_missing_payload(self, tiny_result, tmp_path):
        import shutil

        store = ResultStore(tmp_path)
        spec = tiny_spec()
        key = store.save(spec, tiny_result)
        assert store.has(key)
        shutil.rmtree(store.root / "runs" / key)
        # Manifest says ok but the payload is gone: treat as absent so
        # the campaign re-runs the spec instead of failing at load.
        assert not store.has(key)

    def test_has_tolerates_partial_payload(self, tiny_result, tmp_path):
        # A run dir missing either of its two files reads as absent.
        store = ResultStore(tmp_path)
        for seed, removed in ((1, "result.bin"), (2, "entry.json")):
            key = store.save(tiny_spec(seed=seed), tiny_result)
            run_dir = store.root / "runs" / key
            assert sorted(os.listdir(run_dir)) == ["entry.json",
                                                   "result.bin"]
            (run_dir / removed).unlink()
            assert not store.has(key)

    @pytest.mark.parametrize("cut", ["one_byte", "half"])
    def test_short_payload_reads_absent_and_is_simulated_again(
        self, cut, tmp_path
    ):
        # A host crash can leave a published payload short. The size
        # its preamble declares makes such a run read as absent: the
        # report renders it pending and a rerun simulates it again.
        campaign = tiny_campaign()
        store = ResultStore(tmp_path)
        CampaignExecutor(store=store, backend="serial").run_campaign(campaign)
        key = run_key(tiny_spec(policy="Adapt3D"))
        payload = tmp_path / "runs" / key / "result.bin"
        size = payload.stat().st_size
        os.truncate(payload, size - 1 if cut == "one_byte" else size // 2)
        assert not store.has(key)
        reopened = ResultStore(tmp_path)
        assert not reopened.has(key)
        lines = campaign_report(reopened, campaign).splitlines()
        assert "1/2 runs (0 failed, 1 pending)" in lines[0]
        assert lines[-1].split()[1:] == ["Adapt3D", "off", "1", "2.00",
                                         "pending", "--", "--", "--", "--"]
        runner = CountingRunner()
        run = CampaignExecutor(store=reopened, backend="serial",
                               runner=runner).run_campaign(campaign)
        assert {o.key: o.status for o in run.outcomes}[key] == "ok"
        assert run.counts() == {"cached": 1, "ok": 1}
        assert runner.run_calls == 1
        assert reopened.has(key) and payload.stat().st_size == size
        assert "2/2 runs" in campaign_report(reopened, campaign).splitlines()[0]

    def test_csv_era_run_dir_reads_absent_and_is_replaced(
        self, tiny_result, tmp_path
    ):
        # Run dirs of the CSV codec (format 1) and of the three-file
        # .npy codec (format 2) hold no result.bin.
        store = ResultStore(tmp_path)
        spec = tiny_spec()
        key = store.save(spec, tiny_result)
        run_dir = tmp_path / "runs" / key
        for write_old in (write_csv_era_result, write_format_2_result):
            (run_dir / "result.bin").unlink()
            write_old(tiny_result, run_dir / "result")
            reopened = ResultStore(tmp_path)
            assert not reopened.has(key)
            assert campaign_status(reopened, tiny_campaign(
                policies=("Default",)))["pending"] == 1
            reopened.save(spec, tiny_result)
            assert reopened.last_save_charged
            assert reopened.has(key)
            assert sorted(os.listdir(run_dir)) == ["entry.json",
                                                   "result.bin"]
            assert_bit_identical(reopened.load(key), tiny_result)

    def test_missing_payload_triggers_rerun(self, tmp_path):
        import shutil

        runner = CountingRunner()
        store = ResultStore(tmp_path)
        executor = CampaignExecutor(store=store, backend="serial",
                                    runner=runner)
        spec = tiny_spec()
        executor.run_specs([spec])
        assert runner.run_calls == 1
        shutil.rmtree(store.root / "runs" / run_key(spec))
        executor.run_specs([spec])
        assert runner.run_calls == 2


class TestReports:
    def test_status_and_report(self, tmp_path):
        campaign = tiny_campaign()
        store = ResultStore(tmp_path)
        CampaignExecutor(store=store, backend="serial").run_campaign(campaign)
        status = campaign_status(store, campaign)
        assert status["ok"] == 2 and status["pending"] == 0
        text = campaign_report(store, campaign)
        assert "Adapt3D" in text and "hot%" in text

    def test_report_marks_missing_runs(self, tmp_path):
        campaign = tiny_campaign()
        store = ResultStore(tmp_path)
        text = campaign_report(store, campaign)
        assert "pending" in text
        status = campaign_status(store, campaign)
        assert status["pending"] == 2

    def test_report_counts_and_rows_follow_each_keys_state(self, tmp_path,
                                                           monkeypatch):
        # Seed 1: both ok. Seed 2: both failed. Seed 3: both pending.
        campaign = tiny_campaign(seeds=(1, 2, 3))
        store = ResultStore(tmp_path)
        CampaignExecutor(store=store, backend="serial").run_specs(
            [tiny_spec(seed=1), tiny_spec(policy="Adapt3D", seed=1)])
        store.record_failure(tiny_spec(seed=2), "boom")
        store.record_failure(tiny_spec(policy="Adapt3D", seed=2), "stuck")

        from repro.campaign import reports, spec as spec_module
        calls = []

        def counting(spec):
            calls.append(spec)
            return run_key(spec)

        for module in (spec_module, reports):
            monkeypatch.setattr(module, "run_key", counting)
        lines = campaign_report(store, campaign).splitlines()
        assert len(calls) == len(campaign.expand()) == 6
        status = campaign_status(store, campaign)
        assert (status["ok"], status["error"], status["pending"]) == (2, 2, 2)
        assert lines[0] == "Campaign tiny — 2/6 runs (2 failed, 2 pending)"
        cells = {(row[1], int(row[3])): row[5:]
                 for row in (line.split() for line in lines[3:])}
        for policy in ("Default", "Adapt3D"):
            assert cells[policy, 1][0] not in ("FAILED", "pending")
            assert cells[policy, 2] == ["FAILED", "--", "--", "--", "--"]
            assert cells[policy, 3] == ["pending", "--", "--", "--", "--"]
        assert cells["Default", 1][-1] == "1.000"

        # A baseline outside the campaign is hashed for each value row.
        calls.clear()
        only = tiny_campaign(policies=("Adapt3D",), seeds=(1, 2, 3))
        lines = campaign_report(store, only).splitlines()
        assert [(spec.policy, spec.seed) for spec in calls] == [
            ("Adapt3D", 1), ("Adapt3D", 2), ("Adapt3D", 3), ("Default", 1)]
        assert lines[3].split()[-1] != "--"  # delay against seed 1's Default

    @pytest.mark.parametrize("duration", [2.0, 1.0])
    def test_report_renders_runs_with_undefined_metrics(self, duration,
                                                        tmp_path):
        """A lone gzip thread completes no job in 2 s, so neither row has
        a delay; 1 s is also shorter than the 20-tick cycle window."""
        campaign = CampaignSpec(
            name="idle", exp_ids=(1,), policies=("Default", "Adapt3D"),
            durations_s=(duration,), benchmark_mixes=((("gzip", 1),),),
            seeds=(1,))
        store = ResultStore(tmp_path)
        run = CampaignExecutor(store=store,
                               backend="serial").run_campaign(campaign)
        assert run.counts() == {"ok": 2}
        lines = campaign_report(store, campaign).splitlines()
        assert "2/2 runs" in lines[0]
        rows = [line.split() for line in lines[3:]]
        assert [row[1] for row in rows] == ["Default", "Adapt3D"]
        for row in rows:
            assert row[-1] == "--"
            assert (row[-3] == "--") == (duration < 2.0)


class TestCampaignCli:
    def test_run_status_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        spec_path = tiny_campaign(name="cli").to_json(tmp_path / "cli.json")
        assert main(["campaign", "run", str(spec_path),
                     "--backend", "serial"]) == 0
        out = capsys.readouterr().out
        assert "2/2 done" in out
        # resumes from the default store location (campaigns/<name>)
        assert main(["campaign", "run", str(spec_path),
                     "--backend", "serial"]) == 0
        assert "cached" in capsys.readouterr().out
        assert main(["campaign", "status", str(spec_path)]) == 0
        assert main(["campaign", "report", str(spec_path)]) == 0
        assert "Adapt3D" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "status", "report"])
    @pytest.mark.parametrize("duration", ["NaN", "Infinity", "0", "0.04"])
    def test_unusable_duration_fails_cleanly(self, tmp_path, capsys,
                                             command, duration):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(
            '{"name": "bad", "exp_ids": [1], "durations_s": [%s]}' % duration
        )
        assert main(["campaign", command, str(spec_path),
                     "--store", str(tmp_path / "store")]) == 2
        assert "duration_s" in capsys.readouterr().err

    def test_missing_spec_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["campaign", "status", str(tmp_path / "nope.json")]) == 2

    def test_propagation_option_refused(self, tmp_path, capsys):
        """The batched backend has one thermal step, so ``campaign run``
        has no ``--propagation``: argparse refuses it and runs
        nothing."""
        spec_path = tiny_campaign(name="prop").to_json(tmp_path / "p.json")
        store = tmp_path / "store"
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "run", str(spec_path), "--store", str(store),
                  "--backend", "batched", "--propagation", "gemm"])
        assert exit_info.value.code == 2
        assert "--propagation" in capsys.readouterr().err
        assert not store.exists()

    def test_serial_flag_refused(self, tmp_path, capsys):
        """``--backend serial`` is the one way to pick the in-process
        backend: the old ``--serial`` alias is refused and runs
        nothing."""
        spec_path = tiny_campaign(name="ser").to_json(tmp_path / "s.json")
        store = tmp_path / "store"
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "run", str(spec_path), "--store", str(store),
                  "--serial"])
        assert exit_info.value.code == 2
        assert "--serial" in capsys.readouterr().err
        assert not store.exists()


class TestFormatError:
    """_format_error must point at the root cause of a wrapped failure."""

    def _raise_wrapped(self):
        def inner():
            raise ValueError("the real problem")

        try:
            inner()
        except ValueError as exc:
            raise ConfigurationError("run failed") from exc

    def test_explicit_cause_chain_reports_root_frame(self):
        from repro.campaign.executor import _format_error

        try:
            self._raise_wrapped()
        except ConfigurationError as exc:
            message = _format_error(exc)
        assert message.startswith("ConfigurationError: run failed")
        assert "caused by ValueError: the real problem" in message
        # The frame is the inner raise, not the re-raise site.
        assert "test_campaign.py" in message

    def test_implicit_context_chain(self):
        from repro.campaign.executor import _format_error

        try:
            try:
                {}["missing"]
            except KeyError:
                raise ConfigurationError("lookup failed")
        except ConfigurationError as exc:
            message = _format_error(exc)
        assert "caused by KeyError" in message

    def test_suppressed_context_ignored(self):
        from repro.campaign.executor import _format_error

        try:
            try:
                {}["missing"]
            except KeyError:
                raise ConfigurationError("clean error") from None
        except ConfigurationError as exc:
            message = _format_error(exc)
        assert message.startswith("ConfigurationError: clean error")
        assert "caused by" not in message

    def test_cyclic_chain_terminates(self):
        from repro.campaign.executor import _format_error

        exc = ValueError("a")
        exc.__context__ = exc
        assert _format_error(exc).startswith("ValueError: a")

    def test_plain_exception_unchanged(self):
        from repro.campaign.executor import _format_error

        try:
            raise ValueError("plain")
        except ValueError as exc:
            message = _format_error(exc)
        assert message.startswith("ValueError: plain")
        assert "caused by" not in message

    def test_campaign_failure_surfaces_root_cause(self, tmp_path):
        """End to end: a failed run's store entry names the real frame."""
        bad = tiny_spec(seed=5, benchmark_mix=(("not-a-benchmark", 4),))
        store = ResultStore(tmp_path)
        CampaignExecutor(store=store, backend="serial").run_campaign(
            tiny_campaign(policies=("Default",), extra_runs=(bad,))
        )
        error = store.failures()[run_key(bad)]
        assert "not-a-benchmark" in error
        assert ".py:" in error  # carries a source location


class TestTelemetryCampaign:
    def test_run_key_ignores_telemetry_flag(self):
        spec = tiny_spec()
        assert run_key(spec) == run_key(replace(spec, telemetry=True))
        assert "telemetry" not in spec_to_dict(replace(spec, telemetry=True))

    def test_sidecar_saved_and_reattached(self, tmp_path):
        store = ResultStore(tmp_path)
        executor = CampaignExecutor(store=store, backend="serial",
                                    telemetry=True)
        campaign = tiny_campaign(policies=("Default",))
        assert executor.run_campaign(campaign).counts() == {"ok": 1}
        key = run_key(tiny_spec())
        assert store.has_telemetry(key)
        telemetry = store.load_telemetry(key)
        assert telemetry["job_stats"]["completions"] > 0
        assert "phases" in telemetry
        assert store.load(key).telemetry == telemetry

    def test_plain_runs_have_no_sidecar(self, tmp_path):
        store = ResultStore(tmp_path)
        CampaignExecutor(store=store, backend="serial").run_campaign(
            tiny_campaign(policies=("Default",))
        )
        key = run_key(tiny_spec())
        assert not store.has_telemetry(key)
        assert store.load_telemetry(key) is None
        assert store.load(key).telemetry is None

    def test_telemetry_run_reuses_plain_cache(self, tmp_path):
        """Key neutrality end to end: a telemetry-on campaign treats
        plain stored results as cache hits (and records no sidecar)."""
        store = ResultStore(tmp_path)
        campaign = tiny_campaign(policies=("Default",))
        CampaignExecutor(store=store, backend="serial").run_campaign(campaign)
        runner = CountingRunner()
        rerun = CampaignExecutor(store=store, backend="serial",
                                 runner=runner, telemetry=True
                                 ).run_campaign(campaign)
        assert rerun.counts() == {"cached": 1}
        assert runner.run_calls == 0

    def test_campaign_telemetry_aggregation(self, tmp_path):
        from repro.campaign import campaign_telemetry, format_telemetry

        store = ResultStore(tmp_path)
        campaign = tiny_campaign()
        CampaignExecutor(store=store, backend="serial",
                         telemetry=True).run_campaign(campaign)
        summary = campaign_telemetry(store, campaign)
        assert summary["ok"] == 2
        assert summary["with_telemetry"] == 2
        assert summary["phases"]["runs"] == 2
        assert summary["job_totals"]["completions"] > 0
        rendered = format_telemetry(summary)
        assert "2/2 completed runs" in rendered
        assert "tick phases" in rendered

    def test_sidecar_with_registry_still_reports(self, tmp_path, capsys):
        """``telemetry_with_registry.json`` is a sidecar written when
        telemetry also kept a metrics registry: its ``registry`` section
        and ``engine`` job totals are ignored, and its job stats and
        phases still aggregate."""
        from repro.campaign import campaign_telemetry

        store = ResultStore(tmp_path / "store")
        campaign = tiny_campaign(policies=("Default",))
        CampaignExecutor(store=store, backend="serial").run_campaign(campaign)
        old = OLD_SIDECAR.read_text()
        key = run_key(tiny_spec(fidelity="event"))
        (tmp_path / "store" / "runs" / key / "telemetry.json").write_text(old)
        old = json.loads(old)
        assert "registry" in old and "jobs_total" in old["engine"]
        summary = campaign_telemetry(store, campaign)
        assert summary["with_telemetry"] == 1
        assert summary["phases"]["ticks"] == old["phases"]["ticks"]
        completions = summary["job_totals"]["completions"]
        assert completions == old["job_stats"]["completions"]
        assert completions == len(store.load(key).completed_jobs())
        spec_path = campaign.to_json(tmp_path / "tiny.json")
        assert main(["campaign", "report", str(spec_path),
                     "--store", str(tmp_path / "store")]) == 0
        assert "telemetry: 1/1 completed runs" in capsys.readouterr().out

    def test_aggregation_tolerates_partial_coverage(self, tmp_path):
        from repro.campaign import campaign_telemetry

        store = ResultStore(tmp_path)
        campaign = tiny_campaign()
        specs = campaign.expand()
        CampaignExecutor(store=store, backend="serial").run_specs(specs[:1])
        CampaignExecutor(store=store, backend="serial",
                         telemetry=True).run_specs(specs[1:])
        summary = campaign_telemetry(store, campaign)
        assert summary["ok"] == 2
        assert summary["with_telemetry"] == 1


class TestProgressEvents:
    """Event-sequence contracts of the progress callback per backend."""

    def _record(self, events):
        return lambda event, key, detail: events.append((event, key))

    def test_serial_error_sequence(self, tmp_path):
        bad = tiny_spec(seed=5, benchmark_mix=(("not-a-benchmark", 4),))
        events = []
        CampaignExecutor(
            store=ResultStore(tmp_path), backend="serial",
            progress=self._record(events),
        ).run_campaign(tiny_campaign(policies=("Default",),
                                     extra_runs=(bad,)))
        by_key = {}
        for event, key in events:
            by_key.setdefault(key, []).append(event)
        assert by_key[run_key(tiny_spec())] == ["start", "ok"]
        assert by_key[run_key(bad)] == ["start", "error"]

    def test_serial_cached_then_simulated_events(self, tmp_path):
        # A stored longer run serves only its own key: the shorter
        # request is simulated.
        store = ResultStore(tmp_path)
        CampaignExecutor(store=store, backend="serial").run_specs(
            [tiny_spec(duration_s=4.0)]
        )
        events = []
        executor = CampaignExecutor(store=store, backend="serial",
                                    progress=self._record(events))
        executor.run_specs([tiny_spec(duration_s=4.0),
                            tiny_spec(duration_s=2.0)])
        assert events == [("cached", run_key(tiny_spec(duration_s=4.0))),
                          ("start", run_key(tiny_spec())),
                          ("ok", run_key(tiny_spec()))]

    @pytest.mark.parametrize("with_store", [False, True],
                             ids=["no-store", "store"])
    @pytest.mark.parametrize("backend", ["serial", "parallel"])
    def test_duplicate_spec_runs_once(self, tmp_path, backend, with_store):
        # A key listed twice is one run: one start and one ok, whether
        # the duplicate arrives while the first copy is still pending.
        specs = [tiny_spec(), tiny_spec(), tiny_spec(policy="Adapt3D")]
        events = []
        results = CampaignExecutor(
            store=ResultStore(tmp_path) if with_store else None,
            backend=backend, max_workers=2,
            progress=self._record(events),
        ).run_specs(specs)
        by_key = {}
        for event, key in events:
            by_key.setdefault(key, []).append(event)
        keys = [run_key(tiny_spec()), run_key(tiny_spec(policy="Adapt3D"))]
        assert by_key == {key: ["start", "ok"] for key in keys}
        assert list(results) == keys

    @pytest.mark.slow
    def test_parallel_event_sequence(self, tmp_path):
        bad = tiny_spec(seed=5, benchmark_mix=(("not-a-benchmark", 4),))
        events = []
        CampaignExecutor(
            store=ResultStore(tmp_path), backend="parallel", max_workers=2,
            progress=self._record(events),
        ).run_campaign(tiny_campaign(extra_runs=(bad,)))
        by_key = {}
        for event, key in events:
            by_key.setdefault(key, []).append(event)
        for spec in tiny_campaign().expand():
            assert by_key[run_key(spec)] == ["start", "ok"]
        # A run that raises is recorded at once: no retry.
        assert by_key[run_key(bad)] == ["start", "error"]

    @pytest.mark.slow
    def test_batched_poisoned_batch_event_sequence(self, tmp_path):
        """Batch mates of a failing spec re-emit start on the singleton
        retry and still end with exactly one ok; the failing spec runs
        once more alone, which finds it, and is recorded as failed."""
        bad = tiny_spec(seed=5, benchmark_mix=(("not-a-benchmark", 4),))
        events = []
        run = CampaignExecutor(
            store=ResultStore(tmp_path), backend="batched", max_workers=1,
            batch_size=8, progress=self._record(events),
        ).run_campaign(tiny_campaign(policies=("Default",), seeds=(1, 2),
                                     extra_runs=(bad,)))
        assert run.counts() == {"ok": 2, "error": 1}
        by_key = {}
        for event, key in events:
            by_key.setdefault(key, []).append(event)
        for spec in (tiny_spec(seed=1), tiny_spec(seed=2)):
            key = run_key(spec)
            # One start from the batch attempt, one from the retry.
            assert by_key[key] == ["start", "start", "ok"]
        assert by_key[run_key(bad)] == ["start", "start", "error"]


@pytest.mark.slow
class TestParallelExecutor:
    def test_serial_parallel_equivalence(self, tmp_path):
        campaign = tiny_campaign(seeds=(1, 2))
        serial_store = ResultStore(tmp_path / "serial")
        parallel_store = ResultStore(tmp_path / "parallel")
        CampaignExecutor(store=serial_store, backend="serial").run_campaign(
            campaign
        )
        run = CampaignExecutor(
            store=parallel_store, backend="parallel", max_workers=2
        ).run_campaign(campaign)
        assert run.counts() == {"ok": 4}
        for key in campaign.keys():
            a = serial_store.load(key)
            b = parallel_store.load(key)
            np.testing.assert_array_equal(a.unit_temps_k, b.unit_temps_k)
            np.testing.assert_array_equal(a.vf_indices, b.vf_indices)
            assert a.energy_j == b.energy_j

    def test_worker_failure_isolated(self, tmp_path):
        bad = tiny_spec(seed=5, benchmark_mix=(("not-a-benchmark", 4),))
        campaign = tiny_campaign(policies=("Default",), extra_runs=(bad,))
        store = ResultStore(tmp_path)
        run = CampaignExecutor(
            store=store, backend="parallel", max_workers=2
        ).run_campaign(campaign)
        assert run.counts() == {"ok": 1, "error": 1}
        assert "not-a-benchmark" in store.failures()[run_key(bad)]

    def test_parallel_resume(self, tmp_path):
        campaign = tiny_campaign()
        store = ResultStore(tmp_path)
        executor = CampaignExecutor(store=store, backend="parallel",
                                    max_workers=2)
        assert executor.run_campaign(campaign).counts() == {"ok": 2}
        assert executor.run_campaign(campaign).counts() == {"cached": 2}


def _two_stack_specs():
    """Eager and event runs on two stacks. On two batched workers each
    (stack, fidelity) group of three splits into a 2-lane batch and a
    singleton, so event runs take both the fused and the per-run
    engine; both read the modal basis."""
    return [
        tiny_spec(exp_id=exp_id, seed=seed, fidelity=fidelity)
        for exp_id in (1, 2)
        for fidelity in ("eager", "event")
        for seed in (1, 2, 3)
    ]


def assert_same_results(got, want):
    """Two in-memory results agree in every plane, job and scalar."""
    for name in RESULT_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.completed_jobs() == want.completed_jobs()
    assert got.energy_j == want.energy_j


@pytest.mark.slow
class TestWarmWorkers:
    """The driver builds every operator once; pool workers build none."""

    @pytest.mark.parametrize("backend", ["parallel", "batched"])
    def test_workers_build_no_operators(self, backend, tmp_path,
                                        monkeypatch):
        import multiprocessing

        import repro.thermal.model as model_module
        from repro.thermal.model import ThermalAssembly

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("build sites are counted through patches that "
                        "forked workers inherit")
        log = tmp_path / "builds.log"

        def record(site):
            with log.open("a") as handle:
                handle.write(f"{os.getpid()} {site}\n")

        post_init = ThermalAssembly.__post_init__
        modal_basis = ThermalAssembly.modal_step_basis
        build_propagator = model_module.build_propagator

        def counted_post_init(self):
            record("assembly")
            post_init(self)

        def counted_modal_basis(self):
            if self._modal_basis is None:
                record("modal")
            return modal_basis(self)

        def counted_propagator(*args):
            record("propagator")
            return build_propagator(*args)

        monkeypatch.setattr(ThermalAssembly, "__post_init__",
                            counted_post_init)
        monkeypatch.setattr(ThermalAssembly, "modal_step_basis",
                            counted_modal_basis)
        monkeypatch.setattr(model_module, "build_propagator",
                            counted_propagator)
        results = CampaignExecutor(
            store=ResultStore(tmp_path / "store"), backend=backend,
            max_workers=2,
        ).run_specs(_two_stack_specs())
        assert len(results) == 12
        builds = [line.split() for line in log.read_text().splitlines()]
        driver = str(os.getpid())
        assert [b for b in builds if b[0] != driver] == []
        # One assembly, propagator and modal basis per stack.
        assert sorted(site for pid, site in builds if pid == driver) == [
            "assembly", "assembly", "modal", "modal", "propagator",
            "propagator",
        ]

    @pytest.mark.parametrize("backend", ["parallel", "batched"])
    def test_spawned_workers_match_serial(self, backend, monkeypatch):
        """Under ``spawn`` the caches reach the workers pickled; the
        default ``fork`` never takes that path.

        Every run is compared with the same backend on the default
        pool and with the serial backend: fused lanes of either
        fidelity are bit-identical to serial runs.
        """
        import functools
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        import repro.campaign.executor as executor_module

        specs = _two_stack_specs()
        serial = CampaignExecutor(backend="serial").run_specs(specs)
        default = CampaignExecutor(
            backend=backend, max_workers=2
        ).run_specs(specs)
        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor",
            functools.partial(ProcessPoolExecutor,
                              mp_context=multiprocessing.get_context("spawn")),
        )
        spawned = CampaignExecutor(
            backend=backend, max_workers=2
        ).run_specs(specs)
        assert sorted(spawned) == sorted(default) == sorted(serial)
        for key, want in default.items():
            assert_same_results(spawned[key], want)
            assert_same_results(spawned[key], serial[key])

    @pytest.mark.parametrize("backend", ["parallel", "batched"])
    def test_spawned_workers_publish_serial_bytes(self, backend, tmp_path,
                                                  monkeypatch):
        """Under ``spawn`` the store root reaches the workers pickled,
        and the run dirs they publish hold a serial store's bytes."""
        import functools
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        import repro.campaign.executor as executor_module
        from test_campaign_faults import run_dir_bytes

        specs = _two_stack_specs()
        CampaignExecutor(store=ResultStore(tmp_path / "serial"),
                         backend="serial").run_specs(specs)
        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor",
            functools.partial(ProcessPoolExecutor,
                              mp_context=multiprocessing.get_context("spawn")),
        )
        CampaignExecutor(store=ResultStore(tmp_path / "spawned"),
                         backend=backend, max_workers=2).run_specs(specs)
        assert (run_dir_bytes(tmp_path / "spawned")
                == run_dir_bytes(tmp_path / "serial"))


class TestPoolPublish:
    """Pool workers publish their own run dirs, through the code the
    serial backend's saves run."""

    def test_pool_run_dirs_equal_serial_bytes(self, tmp_path):
        from test_campaign_faults import run_dir_bytes

        specs = _two_stack_specs()
        stored = {}
        for backend in ("serial", "parallel", "batched"):
            events = []
            executor = CampaignExecutor(
                store=ResultStore(tmp_path / backend), backend=backend,
                max_workers=2,
                progress=lambda event, key, _: events.append((event, key)),
            )
            executor.run_specs(specs)
            assert sorted(events) == sorted(
                (event, run_key(spec)) for spec in specs
                for event in ("start", "ok"))
            stored[backend] = run_dir_bytes(tmp_path / backend)
        assert len(stored["serial"]) == len(specs)
        assert stored["parallel"] == stored["serial"]
        assert stored["batched"] == stored["serial"]

    def test_worker_builds_no_read_cache(self, tmp_path, monkeypatch):
        import multiprocessing
        from itertools import takewhile

        from repro.campaign import store as store_module

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("store calls are counted through patches that "
                        "forked workers inherit")
        store = ResultStore(tmp_path / "store")
        result = ExperimentRunner().run(tiny_spec())
        for seed in range(100, 300):
            store.save(tiny_spec(seed=seed), result)
        log = tmp_path / "calls.log"

        def counted(kind, fn):
            def wrapper(*args):
                with log.open("a") as handle:
                    handle.write(f"{os.getpid()} {kind} {args[-1]}\n")
                return fn(*args)
            return wrapper

        for name in ("_listdir", "_read_json", "save_result"):
            monkeypatch.setattr(store_module, name,
                                counted(name, getattr(store_module, name)))
        executor = CampaignExecutor(
            store=ResultStore(tmp_path / "store"), backend="parallel",
            max_workers=2,
        )
        run = executor.run_campaign(tiny_campaign(seeds=(1, 2)))
        assert run.counts() == {"ok": 4}
        # The driver caches the records its workers published.
        assert len(executor.store.keys()) == 204
        calls = [line.split(" ", 2) for line in log.read_text().splitlines()]
        driver = str(os.getpid())
        # The driver's open listed runs/ and read 200 records.
        assert sum(1 for pid, kind, path in calls if pid == driver
                   and kind == "_read_json"
                   and path.endswith("entry.json")) >= 200
        workers = {pid for pid, kind, _ in calls
                   if pid != driver and kind == "save_result"}
        assert workers
        for worker in workers:
            before_save = list(takewhile(
                lambda call: call[1] != "save_result",
                [call for call in calls if call[0] == worker]))
            assert [path for _, kind, path in before_save
                    if kind == "_read_json"
                    and path.endswith("entry.json")] == []
            assert [path for _, kind, path in before_save
                    if kind == "_listdir"] == []

    @pytest.mark.parametrize("backend", ["parallel", "batched"])
    def test_pool_without_store_returns_results(self, backend):
        specs = _two_stack_specs()
        serial = CampaignExecutor(backend="serial").run_specs(specs)
        pooled = CampaignExecutor(backend=backend,
                                  max_workers=2).run_specs(specs)
        assert list(pooled) == list(serial)
        for key, want in serial.items():
            assert_same_results(pooled[key], want)
        runner = ExperimentRunner()
        policies = ["Default", "Adapt3D"]
        want = runner.run_policies(tiny_spec(), policies)
        got = runner.run_policies(
            tiny_spec(), policies,
            CampaignExecutor(backend=backend, max_workers=2, runner=runner))
        for name in policies:
            assert_same_results(got[name], want[name])

    def test_default_pool_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert CampaignExecutor().max_workers == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert CampaignExecutor().max_workers == 64


class TestTruncateResult:
    """``truncate_result`` of a long run against a simulated short run.

    Every array, the completed jobs and ``energy_j`` are equal.
    ``migrations`` is not compared: a truncation re-counts it from the
    completed jobs only (see the ``truncate_result`` docstring)."""

    @staticmethod
    def _check(fidelity):
        runner = ExperimentRunner()
        long_spec = tiny_spec(duration_s=4.0, fidelity=fidelity)
        truncated = truncate_result(runner.run(long_spec), 2.0)
        fresh = runner.run(replace(long_spec, duration_s=2.0))
        for name in RESULT_ARRAYS:
            np.testing.assert_array_equal(
                getattr(truncated, name), getattr(fresh, name),
                err_msg=name)
        assert truncated.completed_jobs() == fresh.completed_jobs()
        assert truncated.energy_j == fresh.energy_j

    def test_eager_truncation_matches_short_run(self):
        self._check("eager")

    def test_event_truncation_matches_short_run(self):
        """An event run adds each tick's energy in tick order, jumps
        included, so its truncation's energy is exact too."""
        self._check("event")

    def test_truncate_result_validation(self):
        result = ExperimentRunner().run(tiny_spec(duration_s=2.0))
        with pytest.raises(ConfigurationError):
            truncate_result(result, 4.0)  # cannot extend
        with pytest.raises(ConfigurationError):
            truncate_result(result, 0.01)  # sub-tick
        assert truncate_result(result, 2.0) is result
        half = truncate_result(result, 1.0)
        assert half.n_ticks == 10
        np.testing.assert_array_equal(half.unit_temps_k,
                                      result.unit_temps_k[:10])


class TestBatchedBackendUnits:
    """In-process tests of the batched backend's packing logic."""

    def test_units_pack_compatible_runs(self):
        executor = CampaignExecutor(backend="batched", batch_size=2)
        pending = [
            ("k0", tiny_spec(seed=1)),
            ("k1", tiny_spec(seed=2)),
            ("k2", tiny_spec(seed=3)),
            ("k3", tiny_spec(seed=4, duration_s=4.0)),
        ]
        units = executor._make_units(pending)
        assert [[key for key, _ in unit] for unit in units] == [
            ["k0", "k1"], ["k2"], ["k3"],
        ]

    def test_parallel_backend_keeps_singleton_units(self):
        executor = CampaignExecutor(backend="parallel")
        pending = [("k0", tiny_spec(seed=1)), ("k1", tiny_spec(seed=2))]
        assert [len(u) for u in executor._make_units(pending)] == [1, 1]

    def test_invalid_batch_options_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignExecutor(backend="batched", batch_size=0)


@pytest.mark.slow
class TestBatchedExecutor:
    def test_batched_matches_serial_store(self, tmp_path):
        campaign = tiny_campaign(seeds=(1, 2))
        serial_store = ResultStore(tmp_path / "serial")
        batched_store = ResultStore(tmp_path / "batched")
        CampaignExecutor(store=serial_store, backend="serial").run_campaign(
            campaign
        )
        run = CampaignExecutor(
            store=batched_store, backend="batched", max_workers=2,
            batch_size=4,
        ).run_campaign(campaign)
        assert run.counts() == {"ok": 4}
        for key in campaign.keys():
            a = serial_store.load(key)
            b = batched_store.load(key)
            np.testing.assert_array_equal(a.unit_temps_k, b.unit_temps_k)
            np.testing.assert_array_equal(a.vf_indices, b.vf_indices)
            assert a.energy_j == b.energy_j

    def test_poisoned_batch_isolates_failure(self, tmp_path):
        """A bad spec fails alone: its batch mates are retried
        individually and complete."""
        bad = tiny_spec(seed=5, benchmark_mix=(("not-a-benchmark", 4),))
        campaign = tiny_campaign(policies=("Default",), seeds=(1, 2),
                                 extra_runs=(bad,))
        store = ResultStore(tmp_path)
        run = CampaignExecutor(
            store=store, backend="batched", max_workers=2, batch_size=8,
        ).run_campaign(campaign)
        assert run.counts() == {"ok": 2, "error": 1}
        assert "not-a-benchmark" in store.failures()[run_key(bad)]

    def test_batched_resume(self, tmp_path):
        campaign = tiny_campaign(seeds=(1, 2, 3))
        store = ResultStore(tmp_path)
        executor = CampaignExecutor(store=store, backend="batched",
                                    max_workers=2)
        assert executor.run_campaign(campaign).counts() == {"ok": 6}
        assert executor.run_campaign(campaign).counts() == {"cached": 6}
