"""The span substrate: lazy per-core spans under event fidelity.

Event fidelity (``EngineConfig(fidelity="event")``) executes each
core's work between its own boundary events as one lazy span — the
head job is decremented in a closed-form update only when an event
materializes it, utilization comes from span anchors, and cached
completion events are trusted. The clock jumps themselves are covered
by ``tests/test_engine_event.py``; this module covers the substrate:

- telemetry of the substrate (span touches, and span closes traced);
- fidelity validation at the engine and batch level;
- batched event lanes, which run on the substrate and step their own
  modal stepper but never jump: bit-identical to serial event runs
  (whose jumps are exact shortcuts), including the stacked
  probabilistic and DVFS policy ticks only event batches take.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.runner import ExperimentRunner, RunSpec
from repro.errors import SchedulerError
from repro.obs.telemetry import TelemetryConfig
from repro.obs.trace import EV_SPAN_CLOSE
from repro.sched.batch import (
    BatchSimulationEngine,
    _DVFSBatchTick,
    _ProbabilisticBatchTick,
)
from tests.test_engine_batch import assert_results_identical
from tests.test_engine_event import (
    IDLE_MIX,
    QUIET_MIX,
    assert_event_close,
    count_event_jumps,
    run_fidelity,
)

RUNNER = ExperimentRunner()


class TestSpanTelemetry:
    """Telemetry on the span substrate: counters agree with what
    actually happened."""

    def test_counters_match_result_and_eager(self):
        spec = RunSpec(exp_id=1, policy="Default", duration_s=10.0, seed=5,
                       benchmark_mix=QUIET_MIX)
        eager = run_fidelity(spec, "eager",
                             telemetry=TelemetryConfig())
        event = run_fidelity(spec, "event",
                             telemetry=TelemetryConfig())
        for result in (eager, event):
            stats = result.telemetry["job_stats"]
            assert stats["completions"] == len(result.completed_jobs())
            assert stats["migrations"] == result.migrations
        assert (eager.telemetry["job_stats"]["completions"]
                == event.telemetry["job_stats"]["completions"])

    def test_span_close_counter(self):
        """Every heap invalidation closes the core's span, so span
        closes are counted once, as ``heap_invalidate``, and each shows
        in the trace."""
        spec = RunSpec(exp_id=4, policy="Adapt3D", duration_s=6.0, seed=3)
        result = run_fidelity(spec, "event",
                              telemetry=TelemetryConfig(trace=True))
        counters = result.telemetry["engine"]["counters"]
        assert counters["span_touch"] > 0
        assert "span_close" not in counters
        trace = result.telemetry["trace"]
        assert trace["dropped"] == 0
        closes = sum(1 for row in trace["rows"] if row[1] == EV_SPAN_CLOSE)
        assert closes == counters["heap_invalidate"] > 0


class TestSpanConfigValidation:
    def test_unknown_fidelity_rejected(self):
        engine = RUNNER.build_engine(
            RunSpec(exp_id=1, policy="Default", duration_s=2.0)
        )
        engine.config = replace(engine.config, fidelity="sloppy")
        with pytest.raises(SchedulerError):
            engine.run()

    def test_batch_rejects_mixed_fidelity(self):
        spec = RunSpec(exp_id=1, policy="Default", duration_s=2.0,
                       fidelity="eager")
        eager_lane = RUNNER.build_engine(spec)
        event_lane = RUNNER.build_engine(replace(spec, seed=2))
        event_lane.config = replace(event_lane.config, fidelity="event")
        with pytest.raises(SchedulerError):
            BatchSimulationEngine([eager_lane, event_lane])


class TestSpanBatch:
    """Batched event lanes (span substrate, one modal stepper per lane,
    no clock jumps) against serial references: bit for bit against
    serial event, within the event tolerance against eager."""

    def seed_sweep(self, policy, n_seeds=3, **overrides):
        return [
            RunSpec(exp_id=4, policy=policy, duration_s=6.0,
                    seed=2009 + i, fidelity="event", **overrides)
            for i in range(n_seeds)
        ]

    @pytest.mark.parametrize("propagation", ["exact", "gemm"])
    def test_batch_span_matches_serial_eager(self, propagation):
        """``propagation`` applies to eager lanes only: event lanes
        step their modal steppers either way."""
        specs = self.seed_sweep("Adapt3D")
        lanes = [RUNNER.build_engine(spec) for spec in specs]
        batched = BatchSimulationEngine(lanes, propagation=propagation).run()
        for spec, result in zip(specs, batched):
            eager = RUNNER.run(replace(spec, fidelity="eager"))
            assert_event_close(eager, result)
        assert_results_identical([RUNNER.run(s) for s in specs], batched)

    def test_batch_span_matches_serial_span(self):
        """The across-lane probability tick must evolve each lane
        exactly as its own on_tick does in a serial event run, and
        each lane's modal stepper must keep serial event's bits."""
        specs = self.seed_sweep("Adapt3D")
        lanes = [RUNNER.build_engine(spec) for spec in specs]
        batched = BatchSimulationEngine(lanes).run()
        assert_results_identical([RUNNER.run(s) for s in specs], batched)

    def test_batch_span_mixed_policies_fall_back(self):
        """Non-probabilistic lanes keep the per-lane policy sweep."""
        specs = [
            RunSpec(exp_id=4, policy=policy, duration_s=6.0, seed=2009,
                    fidelity="event")
            for policy in ("Default", "Adapt3D", "DVFS_TT")
        ]
        lanes = [RUNNER.build_engine(spec) for spec in specs]
        assert _ProbabilisticBatchTick.build(lanes) is None
        batched = BatchSimulationEngine(lanes).run()
        assert_results_identical([RUNNER.run(s) for s in specs], batched)

    def test_batch_span_with_dpm_and_noise(self):
        specs = self.seed_sweep("Adapt3D", with_dpm=True,
                                sensor_noise_sigma=0.5)
        lanes = [RUNNER.build_engine(spec) for spec in specs]
        batched = BatchSimulationEngine(lanes).run()
        assert_results_identical([RUNNER.run(s) for s in specs], batched)

    def test_batch_span_idle_lanes_match_jumping_serial(self, monkeypatch):
        """Idle-heavy lanes: the serial runs cross most ticks in clock
        jumps, the batch steps every tick; both give the same bits."""
        specs = [
            RunSpec(exp_id=4, policy=policy, duration_s=12.0, seed=7,
                    with_dpm=True, benchmark_mix=IDLE_MIX)
            for policy in ("Default", "Adapt3D", "DVFS_TT")
        ]
        calls = count_event_jumps(monkeypatch)
        serial = [RUNNER.run(spec) for spec in specs]
        assert calls["ticks"] > serial[0].n_ticks
        lanes = [RUNNER.build_engine(spec) for spec in specs]
        assert_results_identical(serial, BatchSimulationEngine(lanes).run())


class TestDVFSBatch:
    """The stacked DVFS policy tick: each lane's levels, migrations and
    heap invalidations must match its own serial on_tick sweep."""

    #: Enough load to exercise the base load-balancer's migrations and
    #: DVFS_Util's level churn inside the batch tick.
    BUSY_MIX = (("Web-high", 4), ("gcc", 3), ("Database", 2))

    def seed_sweep(self, policy, n_seeds=3):
        return [
            RunSpec(exp_id=1, policy=policy, duration_s=8.0,
                    seed=7 + i, benchmark_mix=self.BUSY_MIX,
                    fidelity="event", with_dpm=(i == 2))
            for i in range(n_seeds)
        ]

    @pytest.mark.parametrize("policy", ["DVFS_TT", "DVFS_Util", "DVFS_FLP"])
    def test_batch_dvfs_matches_serial(self, policy):
        specs = self.seed_sweep(policy)
        serial = [RUNNER.run(spec) for spec in specs]
        lanes = [RUNNER.build_engine(spec) for spec in specs]
        assert _DVFSBatchTick.build(lanes) is not None
        batched = BatchSimulationEngine(lanes, propagation="exact").run()
        assert_results_identical(serial, batched)

    def test_batch_dvfs_event_lanes(self):
        """The stacked DVFS tick with ``propagation="gemm"``, which
        event lanes ignore: still bit for bit the serial event runs."""
        specs = self.seed_sweep("DVFS_Util")
        serial = [RUNNER.run(spec) for spec in specs]
        lanes = [RUNNER.build_engine(spec) for spec in specs]
        assert _DVFSBatchTick.build(lanes) is not None
        batched = BatchSimulationEngine(lanes, propagation="gemm").run()
        assert_results_identical(serial, batched)

    def test_mixed_dvfs_policies_fall_back(self):
        """Different DVFS classes across lanes keep the per-lane sweep
        (and hybrids never take the stacked tick)."""
        specs = [
            RunSpec(exp_id=1, policy=policy, duration_s=4.0, seed=7,
                    fidelity="event")
            for policy in ("DVFS_TT", "DVFS_Util")
        ]
        lanes = [RUNNER.build_engine(spec) for spec in specs]
        assert _DVFSBatchTick.build(lanes) is None
        hybrid = [
            RUNNER.build_engine(
                RunSpec(exp_id=1, policy="Adapt3D&DVFS_TT", duration_s=4.0,
                        seed=7, fidelity="event")
            )
        ]
        assert _DVFSBatchTick.build(hybrid) is None

    def test_tt_level_math_matches_policy(self):
        """The vectorized DVFS_TT update against the per-core dict
        walk, including the step-down branch the thermal runs rarely
        reach and clamping at both table ends."""
        lanes = [
            RUNNER.build_engine(
                RunSpec(exp_id=1, policy="DVFS_TT", duration_s=2.0,
                        seed=7 + i, fidelity="event")
            )
            for i in range(2)
        ]
        tick = _DVFSBatchTick.build(lanes)
        assert tick is not None
        policies = [lane.policy for lane in lanes]
        table = policies[0].system.vf_table
        names = list(policies[0].system.core_names)
        threshold = policies[0].system.thermal_threshold_k
        shadow = [dict(policy._levels) for policy in policies]
        rng = np.random.default_rng(3)
        for _ in range(6):  # enough rounds to pin at both clamps
            temps = rng.uniform(threshold - 10.0, threshold + 10.0,
                                (len(lanes), len(names)))
            levels = tick.advance_levels(temps, np.zeros_like(temps))
            for r, expect in enumerate(shadow):
                for j, name in enumerate(names):
                    if temps[r, j] >= threshold:
                        expect[name] = table.step_down(expect[name])
                    else:
                        expect[name] = table.step_up(expect[name])
                    assert levels[r, j] == expect[name]
        tick.finish()
        for policy, expect in zip(policies, shadow):
            assert policy._levels == expect

    def test_util_level_math_matches_policy(self):
        """The vectorized lowest_covering against the scalar table
        walk over the closed [0, 1] utilization range."""
        lanes = [
            RUNNER.build_engine(
                RunSpec(exp_id=1, policy="DVFS_Util", duration_s=2.0,
                        seed=7, fidelity="event")
            )
        ]
        tick = _DVFSBatchTick.build(lanes)
        assert tick is not None
        table = lanes[0].policy.system.vf_table
        n = len(lanes[0].policy.system.core_names)
        rng = np.random.default_rng(9)
        rounds = [rng.uniform(0.0, 1.0, (1, n)) for _ in range(4)]
        for level in table._levels:  # exact frequency ties
            rounds.append(np.full((1, n), level.frequency))
        rounds.append(np.zeros((1, n)))
        rounds.append(np.ones((1, n)))
        for utils in rounds:
            levels = tick.advance_levels(np.zeros((1, n)), utils)
            for j in range(n):
                assert levels[0, j] == table.lowest_covering(
                    float(utils[0, j])
                )


