"""Simulation engine tests: DES mechanics, DPM, migration cost."""

import numpy as np
import pytest

from repro.analysis.runner import ExperimentRunner, RunSpec
from repro.errors import SchedulerError
from repro.power.states import CoreState
from repro.sched.dpm import FixedTimeoutDPM
from repro.sched.engine import EngineConfig
from repro.workload.benchmarks import benchmark
from repro.workload.generator import SyntheticWorkload


RUNNER = ExperimentRunner()


def short_spec(**kwargs):
    defaults = dict(exp_id=1, policy="Default", duration_s=10.0, seed=7)
    defaults.update(kwargs)
    return RunSpec(**defaults)


@pytest.fixture(scope="module")
def result():
    return RUNNER.run(short_spec())


class TestRunMechanics:
    def test_tick_count(self, result):
        assert result.n_ticks == 100
        assert result.times[-1] == pytest.approx(10.0)

    def test_jobs_complete(self, result):
        completed = result.completed_jobs()
        assert len(completed) > 10
        for job in completed:
            assert job.completion_time >= job.arrival_time
            assert job.remaining_s <= 1e-9

    def test_utilization_in_range(self, result):
        assert (result.utilization >= 0.0).all()
        assert (result.utilization <= 1.0).all()

    def test_temperatures_above_ambient(self, result):
        assert (result.core_temps_k > 300.0).all()
        assert (result.core_temps_k < 420.0).all()

    def test_peak_at_least_mean_series(self, result):
        assert (result.core_peak_temps_k >= result.core_temps_k - 1e-9).all()

    def test_energy_positive_and_consistent(self, result):
        assert result.energy_j > 0.0
        assert result.energy_j == pytest.approx(
            result.total_power_w.sum() * result.sampling_interval_s
        )

    def test_deterministic_given_seed(self):
        a = RUNNER.run(short_spec(seed=3))
        b = RUNNER.run(short_spec(seed=3))
        np.testing.assert_allclose(a.core_temps_k, b.core_temps_k)
        assert len(a.completed_jobs()) == len(b.completed_jobs())

    def test_different_seeds_differ(self):
        a = RUNNER.run(short_spec(seed=3))
        b = RUNNER.run(short_spec(seed=4))
        assert not np.allclose(a.core_temps_k, b.core_temps_k)

    def test_rejects_too_short_duration(self):
        engine = RUNNER.build_engine(short_spec())
        engine.config = EngineConfig(duration_s=0.01)
        with pytest.raises(SchedulerError):
            engine.run()

    def test_second_run_refused(self):
        """A run consumes the engine's job list, arrival heap and
        workload stream, so a rerun would carry the first run's jobs."""
        engine = RUNNER.build_engine(short_spec(duration_s=2.0, grid=(4, 4)))
        engine.run()
        with pytest.raises(SchedulerError, match="build_engine"):
            engine.run()


class TestWorkConservation:
    def test_completed_work_matches_utilization(self):
        """Total executed CPU-time must equal the integral of per-core
        utilization (energy-conservation analogue for the scheduler)."""
        result = RUNNER.run(short_spec(duration_s=20.0))
        executed = sum(
            job.work_s - job.remaining_s for job in result.jobs
        )
        integrated = result.utilization.sum() * result.sampling_interval_s
        assert executed == pytest.approx(integrated, rel=0.02)


class TestDPM:
    def test_sleep_occurs_with_light_load(self):
        spec = short_spec(
            with_dpm=True,
            duration_s=20.0,
            benchmark_mix=(("MPlayer", 8),),  # 6.5% utilization
        )
        result = RUNNER.run(spec)
        sleep_code = list(CoreState).index(CoreState.SLEEP)
        assert (result.core_states == sleep_code).any()

    def test_dpm_saves_energy(self):
        light = (("MPlayer", 8),)
        base = RUNNER.run(short_spec(duration_s=20.0, benchmark_mix=light))
        with_dpm = RUNNER.run(
            short_spec(duration_s=20.0, with_dpm=True, benchmark_mix=light)
        )
        assert with_dpm.energy_j < base.energy_j

    def test_no_sleep_without_dpm(self):
        result = RUNNER.run(short_spec(duration_s=10.0))
        sleep_code = list(CoreState).index(CoreState.SLEEP)
        assert not (result.core_states == sleep_code).any()


class TestMigrationAccounting:
    def test_migr_policy_counts_migrations(self):
        # A hot 4-tier system forces thermal migrations.
        spec = RunSpec(exp_id=4, policy="Migr", duration_s=20.0, seed=7)
        result = RUNNER.run(spec)
        assert result.migrations > 0
        migrated = [job for job in result.jobs if job.migrations > 0]
        assert migrated


class TestPolicyVisibleState:
    def test_vf_indices_recorded(self):
        spec = RunSpec(exp_id=4, policy="DVFS_TT", duration_s=20.0, seed=7)
        result = RUNNER.run(spec)
        assert result.vf_indices.max() > 0  # some throttling happened

    def test_gating_recorded_as_state(self):
        spec = RunSpec(exp_id=4, policy="CGate", duration_s=20.0, seed=7)
        result = RUNNER.run(spec)
        gated_code = list(CoreState).index(CoreState.GATED)
        assert (result.core_states == gated_code).any()
