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


class TestWarmStartMemo:
    """The assembly's warm-start memo serves each run the steady state
    of its own load.

    Every case builds engines whose loads differ in one input of the
    memo key, on shared models where the key alone tells them apart,
    and checks each warm start bit for bit against a fresh steady solve
    of that engine's load. Dropping the input from the key serves the
    first load's warm start to the second engine. The ambient is the
    assembly's own (a ``ThermalModel`` refuses any other), so it cannot
    vary under one memo.
    """

    @staticmethod
    def engine(spec=None, thermal=None, power=None, **config):
        """An engine over ``spec``'s stack, with ``thermal``, ``power``
        or ``EngineConfig`` fields swapped in."""
        from repro.core.registry import build_policy
        from repro.sched.engine import SimulationEngine
        from repro.thermal.model import ThermalModel

        base = RUNNER.build_engine(spec or short_spec())
        vf_table = config.pop("vf_table", base.vf_table)
        return SimulationEngine(
            thermal=thermal or ThermalModel(
                base.thermal.config, assembly=base.thermal.assembly
            ),
            power=power or base.power,
            policy=build_policy("Default"),
            workload=base.workload,
            config=EngineConfig(**config),
            vf_table=vf_table,
        )

    @staticmethod
    def warm_start(engine):
        """The node temperatures the engine's warm start leaves, next to
        a fresh steady solve of its load."""
        from repro.thermal.model import ThermalModel

        engine._initialize_thermal_state()
        thermal = engine.thermal
        fresh = ThermalModel(thermal.config, assembly=thermal.assembly)
        fresh.initialize_steady_state(engine.power.uniform_load(
            engine.config.warmup_utilization,
            engine.vf_table[engine.vf_table.nominal_index],
            engine.workload.memory_intensity(),
            thermal.ambient_k,
        ))
        return thermal.temperatures.copy(), fresh.temperatures

    def check(self, first, second):
        a, fresh_a = self.warm_start(first)
        b, fresh_b = self.warm_start(second)
        assert a.tobytes() == fresh_a.tobytes()
        assert b.tobytes() == fresh_b.tobytes()
        assert not np.array_equal(a, b)

    def test_mix_memory_intensity(self):
        mixes = [(("gzip", 8),), (("Web-high", 8),)]
        first, second = (
            self.engine(short_spec(benchmark_mix=mix)) for mix in mixes
        )
        assert first.thermal.assembly is second.thermal.assembly
        assert (first.workload.memory_intensity()
                != second.workload.memory_intensity())
        self.check(first, second)

    def test_warmup_utilization(self):
        self.check(self.engine(warmup_utilization=0.3),
                   self.engine(warmup_utilization=0.7))

    def test_nominal_vf_level(self):
        from repro.power.vf import DEFAULT_VF_TABLE, VFLevel, VFTable

        slow = VFTable([VFLevel(0.9, 0.9), VFLevel(0.85, 0.85)])
        self.check(self.engine(vf_table=DEFAULT_VF_TABLE),
                   self.engine(vf_table=slow))

    def test_power_model(self):
        from repro.power.chip_power import ChipPowerModel
        from repro.power.core_power import CorePowerModel

        base = RUNNER.build_engine(short_spec())
        hotter = ChipPowerModel(
            base.thermal.config,
            core_model=CorePowerModel(
                active_w=1.5 * CorePowerModel().active_w
            ),
        )
        self.check(self.engine(), self.engine(power=hotter))

    def test_stack(self):
        """One power model on two 8x8 EXP-1 assemblies (257 nodes each)
        whose interlayer resistivity differs."""
        from dataclasses import replace

        from repro.thermal.model import ThermalModel

        base = RUNNER.build_engine(short_spec())
        config = base.thermal.config
        other = ThermalModel(replace(
            config, interlayer_resistivity=2.0 * config.interlayer_resistivity
        ))
        assert other.network.n_nodes == base.thermal.network.n_nodes == 257
        self.check(self.engine(), self.engine(thermal=other))

    def test_exp1_against_exp2(self):
        first = self.engine(short_spec(exp_id=1))
        second = self.engine(short_spec(exp_id=2))
        assert first.thermal.network.n_nodes == 257
        assert second.thermal.network.n_nodes == 257
        self.check(first, second)

    def test_one_solve_per_load(self, monkeypatch):
        from repro.thermal.model import ThermalModel

        solves = []
        original = ThermalModel.initialize_steady_state

        def counting(model, powers):
            solves.append(1)
            original(model, powers)

        monkeypatch.setattr(ThermalModel, "initialize_steady_state", counting)
        engines = [self.engine(warmup_utilization=0.45) for _ in range(3)]
        starts = [self.warm_start(engine)[0] for engine in engines]
        # Three solves in warm_start's own fresh checks, at most one in
        # the engines (none if an earlier test solved this load).
        assert len(solves) <= 4
        assert all(start.tobytes() == starts[0].tobytes() for start in starts)
        # Runs copy in and out of the memo: moving their states in
        # place leaves the next run's warm start alone.
        for engine in engines:
            engine.thermal.temperatures += 1.0
        later = self.engine(warmup_utilization=0.45)
        later._initialize_thermal_state()
        assert later.thermal.temperatures.tobytes() == starts[0].tobytes()
