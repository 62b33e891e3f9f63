"""The span substrate: lazy per-core spans under event fidelity.

Event fidelity (``EngineConfig(fidelity="event")``) executes each
core's work between its own boundary events as one lazy span — the
head job is decremented in a closed-form update only when an event
materializes it, utilization comes from span anchors, and cached
completion events are trusted. The clock jumps themselves are covered
by ``tests/test_engine_event.py``; this module covers the substrate:

- telemetry of the substrate (span touches, and span closes traced);
- fidelity validation at the engine and batch level;
- batched event lanes, which run on the substrate and step their
  modal steppers as one block but never jump: bit-identical to serial
  event runs (whose jumps are exact shortcuts), including the stacked
  probabilistic and DVFS policy families only event batches take, on
  a batch that mixes every registered policy with ablation, online-index
  and custom lanes.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.runner import ExperimentRunner, RunSpec
from repro.core.dvfs_tt import DVFSTemperatureTriggered
from repro.core.dvfs_util import DVFSUtilizationBased
from repro.core.hybrid import HybridPolicy
from repro.core.probabilistic import ProbabilisticAllocator
from repro.core.registry import policy_names
from repro.errors import SchedulerError
from repro.obs.telemetry import TelemetryConfig
from repro.obs.trace import EV_SPAN_CLOSE
from repro.sched.batch import (
    BatchSimulationEngine,
    _DVFSBatchTick,
    _ProbabilisticBatchTick,
    _stack_policy_ticks,
)
from tests.test_custom_policy import CoolestFirstThrottle
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
        with pytest.raises(SchedulerError, match="event fidelity"):
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

    @pytest.mark.parametrize("propagation", ["exact"])
    def test_batch_span_matches_serial_eager(self, propagation):
        """Event lanes fused by ``run_batch`` (whose one thermal step
        is ``"exact"``) track the serial eager reference within the
        event tolerance and keep serial event's bits."""
        specs = self.seed_sweep("Adapt3D")
        assert ExperimentRunner.group_batchable(specs) == [[0, 1, 2]]
        batched = RUNNER.run_batch(specs, propagation=propagation)
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
        """A lane whose policy has no stacked family keeps the per-lane
        policy sweep beside the families of its batch mates."""
        specs = [
            RunSpec(exp_id=4, policy=policy, duration_s=6.0, seed=2009,
                    fidelity="event")
            for policy in ("Default", "Adapt3D", "DVFS_TT")
        ]
        families, fallback = _stack_policy_ticks(
            [RUNNER.build_engine(spec) for spec in specs]
        )
        assert [lane.policy.name for lane in fallback] == ["Default"]
        assert [type(family) for family in families] == [
            _ProbabilisticBatchTick, _DVFSBatchTick,
        ]
        lanes = [RUNNER.build_engine(spec) for spec in specs]
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


def one_family(lanes):
    """The single stacked family that takes every lane's policy tick."""
    families, fallback = _stack_policy_ticks(lanes)
    assert fallback == []
    [family] = families
    assert family.rows.tolist() == list(range(len(lanes)))
    return family


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
        assert isinstance(
            one_family([RUNNER.build_engine(spec) for spec in specs]),
            _DVFSBatchTick,
        )
        lanes = [RUNNER.build_engine(spec) for spec in specs]
        batched = BatchSimulationEngine(lanes).run()
        assert_results_identical(serial, batched)

    def test_batch_tt_hot_stack_matches_serial(self):
        """DVFS_TT on EXP-4, hot enough to cross its threshold: one
        stacked family whose standalone rows change levels and then
        migrate, beside hybrid rows that change levels. (EXP-1 never
        reaches the DVFS_TT threshold, so the EXP-1 sweeps above keep
        every TT level nominal; TestMixedRegistryBatch's saturated mix
        is what would make a hybrid row migrate.)"""
        specs = [
            RunSpec(exp_id=4, policy=policy, duration_s=6.0, seed=7,
                    fidelity="event", with_dpm=dpm)
            for policy in ("DVFS_TT", "Adapt3D&DVFS_TT")
            for dpm in (False, True)
        ]
        serial_lanes = [RUNNER.build_engine(spec) for spec in specs]
        serial = [lane.run() for lane in serial_lanes]
        lanes = [RUNNER.build_engine(spec) for spec in specs]
        families, fallback = _stack_policy_ticks(lanes)
        assert fallback == []
        [tt] = [f for f in families if isinstance(f, _DVFSBatchTick)]
        assert tt.rows.tolist() == [0, 1, 2, 3]
        assert tt.migrate_rows.tolist() == [0, 1]
        lanes = [RUNNER.build_engine(spec) for spec in specs]
        batched = BatchSimulationEngine(lanes).run()
        assert_results_identical(serial, batched)
        for s_lane, b_lane in zip(serial_lanes, lanes):
            assert policy_state(b_lane.policy) == policy_state(s_lane.policy)
        assert all(result.vf_indices.max() > 0 for result in batched)
        assert batched[1].migrations > 0

    def test_mixed_dvfs_policies_stack_per_class(self):
        """Each DVFS class stacks in a family of its own. A hybrid's
        DVFS half joins its class's family, without the standalone
        policy's load-balancing migration, and its Adapt3D half joins
        the allocators'."""
        lanes = [
            RUNNER.build_engine(
                RunSpec(exp_id=1, policy=policy, duration_s=4.0, seed=7,
                        fidelity="event")
            )
            for policy in ("DVFS_TT", "DVFS_Util", "Adapt3D&DVFS_TT")
        ]
        families, fallback = _stack_policy_ticks(lanes)
        assert fallback == []
        prob, tt, util = families
        assert isinstance(prob, _ProbabilisticBatchTick)
        assert prob.rows.tolist() == [2]
        assert prob.policies == [lanes[2].policy.allocator]
        assert tt.kind is DVFSTemperatureTriggered
        assert tt.rows.tolist() == [0, 2]
        assert tt.policies == [lanes[0].policy, lanes[2].policy.dvfs]
        assert tt.migrate_rows.tolist() == [0]
        assert util.kind is DVFSUtilizationBased
        assert util.rows.tolist() == [1]
        assert util.migrate_rows.tolist() == [0]

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
        tick = one_family(lanes)
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
        tick = one_family(lanes)
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




class TestMixedRegistryBatch:
    """One event batch over everything the policy partition can meet:
    the 11 registered policies with DPM off and on, Adapt3D ablation
    lanes on three history windows, Adapt3D with the online index
    estimator, and a custom policy. Every lane equals its serial event
    run bit for bit, so each stacked family (and the per-lane
    fallback) decides exactly as the lane's own ``on_tick``."""

    #: 12 threads on EXP-1's 8 cores: queues stay long enough for the
    #: load balancer to fire, so a hybrid lane's DVFS half would migrate
    #: (about 20 times per lane) if the stacked tick let it.
    SATURATED_MIX = (("Web-high", 8), ("Web&DB", 4))

    def spec(self, policy, with_dpm=False, **params):
        return RunSpec(exp_id=1, policy=policy, duration_s=8.0, seed=11,
                       benchmark_mix=self.SATURATED_MIX, with_dpm=with_dpm,
                       fidelity="event",
                       policy_params=tuple(sorted(params.items())) or None)

    def build_lanes(self):
        specs = [
            self.spec(policy, with_dpm=dpm)
            for policy in policy_names()
            for dpm in (False, True)
        ]
        specs += [
            self.spec("Adapt3D", history_window=window)
            for window in (5, 10, 20)
        ]
        specs.append(self.spec("Adapt3D", online_index_window=20))
        lanes = [RUNNER.build_engine(spec) for spec in specs]
        custom = RUNNER.build_engine(self.spec("Default", with_dpm=True))
        custom.policy = CoolestFirstThrottle()
        custom.policy.attach(custom.system_view)
        return lanes + [custom]

    def test_partition(self):
        lanes = self.build_lanes()
        families, fallback = _stack_policy_ticks(lanes)
        assert sorted(
            (lane.policy.name, lane.config.dpm is not None)
            for lane in fallback
        ) == sorted(
            [(name, dpm) for name in ("Default", "CGate", "Migr")
             for dpm in (False, True)]
            + [("Adapt3D", False), ("CoolestFirstThrottle", True)]
        )
        windows = sorted(
            (family.window, len(family.policies)) for family in families
            if isinstance(family, _ProbabilisticBatchTick)
        )
        # AdaptRand, Adapt3D and the hybrids' halves (DPM off and on)
        # plus the window-10 ablation lane share one update.
        assert windows == [(5, 1), (10, 11), (20, 1)]
        dvfs = [f for f in families if isinstance(f, _DVFSBatchTick)]
        assert sorted(
            (f.kind.name, len(f.policies), f.migrate_rows.size) for f in dvfs
        ) == [("DVFS_FLP", 4, 2), ("DVFS_TT", 4, 2), ("DVFS_Util", 4, 2)]

    def test_every_lane_matches_serial(self):
        serial_lanes = self.build_lanes()
        serial = [lane.run() for lane in serial_lanes]
        batch_lanes = self.build_lanes()
        batched = BatchSimulationEngine(batch_lanes).run()
        assert_results_identical(serial, batched)
        # The stacked families hand their state back: every allocator
        # ends on its serial probabilities and history, every DVFS_TT
        # policy on its serial levels.
        for s_lane, b_lane in zip(serial_lanes, batch_lanes):
            assert policy_state(b_lane.policy) == policy_state(s_lane.policy)
        # What the families decide shows in the runs: DVFS_Util,
        # DVFS_FLP and their hybrids change V/f (EXP-1 stays below the
        # DVFS_TT threshold: TestDVFSBatch's hot-stack case covers TT
        # transitions), standalone DVFS lanes migrate, and the
        # three history windows steer their allocators apart.
        by_name = {}
        for lane, result in zip(batch_lanes, batched):
            by_name.setdefault(lane.policy.name, []).append(result)
        for name in ("DVFS_Util", "DVFS_FLP", "Adapt3D&DVFS_Util",
                     "Adapt3D&DVFS_FLP"):
            assert all(r.vf_indices.max() > 0 for r in by_name[name]), name
        for name in ("DVFS_TT", "DVFS_Util", "DVFS_FLP"):
            assert any(r.migrations > 0 for r in by_name[name]), name
        ends = [policy_state(lane.policy) for lane in batch_lanes[22:25]]
        assert len({repr(end) for end in ends}) == 3


def policy_state(policy):
    """The tick state a stacked family re-homes or writes back."""
    if isinstance(policy, HybridPolicy):
        return policy_state(policy.allocator), policy_state(policy.dvfs)
    if isinstance(policy, ProbabilisticAllocator):
        return (
            policy.probabilities,
            policy._hist_pos,
            policy._hist_len,
            policy._hist.tolist(),
        )
    if isinstance(policy, DVFSTemperatureTriggered):
        return dict(policy._levels)
    return None
