"""Event-heap engine tests.

Two families:

- differential tests proving the engine's event-heap tick loop
  reproduces the all-core scan oracle (``tests/scan_engine.py``) bit
  for bit (every recorded array, energy, jobs, migrations) — a fast
  subset runs in tier-1, the full policy x DPM x experiment matrix
  under the ``slow`` marker;
- unit tests of the heap invalidation edges: dispatch, completion,
  V/f change, gating, sleep, and migration must each refresh the
  core's cached completion event.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.runner import ExperimentRunner, RunSpec
from repro.sched.engine import SimulationEngine
from repro.thermal.model import ThermalModel
from repro.workload.benchmarks import benchmark
from repro.workload.job import Job
from tests.scan_engine import ScanEngine

RUNNER = ExperimentRunner()

RESULT_ARRAYS = (
    "times",
    "unit_temps_k",
    "core_temps_k",
    "core_peak_temps_k",
    "layer_spreads_k",
    "utilization",
    "vf_indices",
    "core_states",
    "total_power_w",
)


def build(spec: RunSpec, oracle: bool = False, **config_overrides):
    """The eager engine for ``spec``, or the scan oracle when ``oracle``
    (the oracle is the eager reference, so both pin eager fidelity).
    A ``sampling_interval_s`` override rebuilds the engine on a thermal
    model that steps the same interval."""
    engine = RUNNER.build_engine(replace(spec, fidelity="eager"))
    config = replace(engine.config, **config_overrides)
    if config.sampling_interval_s != engine.thermal.sampling_interval:
        thermal = ThermalModel(
            engine.thermal.config, nrows=spec.grid[0], ncols=spec.grid[1],
            sampling_interval=config.sampling_interval_s,
        )
        engine = SimulationEngine(
            thermal=thermal, power=engine.power, policy=engine.policy,
            workload=engine.workload, config=config,
            vf_table=engine.vf_table, system_view=engine.system_view,
        )
    engine.config = config
    return ScanEngine.from_engine(engine) if oracle else engine


def assert_bit_identical(spec: RunSpec, **config_overrides):
    heap = build(spec, **config_overrides).run()
    scan = build(spec, oracle=True, **config_overrides).run()
    for name in RESULT_ARRAYS:
        np.testing.assert_array_equal(
            getattr(heap, name), getattr(scan, name), err_msg=name
        )
    assert heap.energy_j == scan.energy_j
    assert heap.migrations == scan.migrations
    assert len(heap.jobs) == len(scan.jobs)
    for h, s in zip(heap.jobs, scan.jobs):
        assert h.completion_time == s.completion_time
        assert h.remaining_s == s.remaining_s
        assert h.migrations == s.migrations
        assert h.core == s.core


class TestDifferentialFast:
    """Tier-1 smoke slice of the differential matrix."""

    @pytest.mark.parametrize("exp_id", [1, 4])
    @pytest.mark.parametrize("policy", ["Default", "Adapt3D&DVFS_TT"])
    def test_heap_matches_scan(self, exp_id, policy):
        assert_bit_identical(
            RunSpec(exp_id=exp_id, policy=policy, duration_s=6.0, seed=2009)
        )

    def test_heap_matches_scan_with_dpm(self):
        assert_bit_identical(
            RunSpec(
                exp_id=1, policy="Migr", duration_s=6.0, with_dpm=True,
                seed=7,
            )
        )

    def test_heap_matches_scan_nondefault_knobs(self):
        """Differential coverage of the knobs the default specs leave
        untouched (``tests/test_contracts.py`` checks that every
        EngineConfig / RunSpec field meets at least one differential
        harness).
        The 50 ms tick runs on a thermal model stepping 50 ms."""
        assert_bit_identical(
            RunSpec(
                exp_id=1, policy="Adapt3D", duration_s=6.0, seed=5,
                grid=(6, 6),
                policy_params=(("history_window", 5),),
            ),
            sampling_interval_s=0.05,
            migration_cost_s=0.002,
            sensor_quantization=0.5,
            warmup_utilization=0.6,
        )


@pytest.mark.slow
class TestDifferentialMatrix:
    """Full policy x DPM x experiment differential matrix."""

    @pytest.mark.parametrize("exp_id", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "policy",
        ["Default", "Adapt3D", "Adapt3D&DVFS_TT", "Migr", "CGate",
         "DVFS_Util"],
    )
    @pytest.mark.parametrize("with_dpm", [False, True])
    def test_heap_matches_scan(self, exp_id, policy, with_dpm):
        assert_bit_identical(
            RunSpec(
                exp_id=exp_id, policy=policy, duration_s=12.0,
                with_dpm=with_dpm, seed=2009,
            )
        )

    @pytest.mark.parametrize("seed", [1, 42])
    def test_heap_matches_scan_across_seeds(self, seed):
        assert_bit_identical(
            RunSpec(exp_id=3, policy="Adapt3D", duration_s=12.0, seed=seed)
        )


def heap_engine():
    """An engine outside run() (heap maintenance is always armed)."""
    return RUNNER.build_engine(
        RunSpec(exp_id=1, policy="Default", duration_s=5.0)
    )


def live_events(engine):
    """(name -> cached time) of the non-stale heap entries."""
    return {
        name: time
        for time, seq, name in engine._event_heap
        if seq == engine._cores[name].heap_seq
    }


def run_with_telemetry(spec: RunSpec, oracle: bool = False,
                       trace: bool = False):
    from repro.obs.telemetry import TelemetryConfig

    return build(
        spec, oracle=oracle, telemetry=TelemetryConfig(trace=trace)
    ).run()


class TestTelemetryCrossCheck:
    """Telemetry is observational: bit-identity holds with it on, and
    its counters agree with the result's own bookkeeping."""

    def test_eager_bit_identical_with_telemetry_on(self):
        spec = RunSpec(exp_id=4, policy="Adapt3D&DVFS_TT", duration_s=6.0,
                       seed=2009)
        plain = build(spec).run()
        telem = run_with_telemetry(spec, trace=True)
        for name in RESULT_ARRAYS:
            np.testing.assert_array_equal(
                getattr(plain, name), getattr(telem, name), err_msg=name
            )
        assert plain.energy_j == telem.energy_j
        assert plain.migrations == telem.migrations
        assert plain.telemetry is None
        assert telem.telemetry is not None

    @pytest.mark.parametrize(
        "oracle", [False, True], ids=["engine", "scan_oracle"]
    )
    def test_counters_match_result(self, oracle):
        spec = RunSpec(exp_id=4, policy="Migr", duration_s=10.0, seed=7)
        result = run_with_telemetry(spec, oracle)
        snap = result.telemetry
        stats = snap["job_stats"]
        assert stats["completions"] == len(result.completed_jobs())
        assert stats["migrations"] == result.migrations
        assert stats["completions"] <= stats["dispatches"]
        assert stats["arrivals"] == len(result.jobs)
        assert snap["engine"]["fidelity"] == "eager"

    def test_oracle_never_touches_the_heap(self):
        """The differential compares the engine with a loop that keeps
        no heap, never with itself."""
        spec = RunSpec(exp_id=4, policy="Migr", duration_s=10.0, seed=7)
        counters = run_with_telemetry(spec, oracle=True).telemetry[
            "engine"]["counters"]
        assert counters["heap_push"] == counters["heap_pop"] == 0
        assert counters["heap_invalidate"] == 0

    def test_heap_and_scan_report_same_lifecycle_counts(self):
        spec = RunSpec(exp_id=4, policy="Migr", duration_s=10.0, seed=7)
        heap = run_with_telemetry(spec)
        scan = run_with_telemetry(spec, oracle=True)
        for field in ("arrivals", "dispatches", "completions",
                      "migrations", "preemptions"):
            assert (heap.telemetry["job_stats"][field]
                    == scan.telemetry["job_stats"][field]), field

    def test_heap_counters_populated(self):
        spec = RunSpec(exp_id=4, policy="Adapt3D&DVFS_TT", duration_s=6.0,
                       seed=2009)
        result = run_with_telemetry(spec)
        counters = result.telemetry["engine"]["counters"]
        assert counters["heap_push"] > 0
        assert counters["heap_pop"] > 0
        assert counters["heap_invalidate"] > 0
        # Every entry popped, live or stale (a lazy-invalidation
        # discard), was pushed first.
        assert counters["heap_stale_pop"] >= 0
        assert (counters["heap_pop"] + counters["heap_stale_pop"]
                <= counters["heap_push"])

    def test_trace_events_match_stats(self):
        from repro.obs.trace import EV_COMPLETION, EV_MIGRATION

        spec = RunSpec(exp_id=4, policy="Migr", duration_s=10.0, seed=7)
        result = run_with_telemetry(spec, trace=True)
        rows = result.telemetry["trace"]["rows"]
        assert result.telemetry["trace"]["dropped"] == 0
        completions = sum(1 for r in rows if r[1] == EV_COMPLETION)
        migrations = sum(1 for r in rows if r[1] == EV_MIGRATION)
        assert completions == len(result.completed_jobs())
        assert migrations == result.migrations

    def test_profiler_accounts_for_all_ticks(self):
        spec = RunSpec(exp_id=1, policy="Default", duration_s=6.0, seed=3)
        result = run_with_telemetry(spec)
        phases = result.telemetry["phases"]
        assert phases["ticks"] == result.n_ticks
        assert phases["total_s"] > 0.0
        shares = [p["share_pct"] for p in phases["phases"].values()]
        assert sum(shares) == pytest.approx(100.0)


def make_job(job_id=1, work_s=2.0):
    return Job(
        job_id=job_id,
        thread_id=job_id,
        benchmark=benchmark("gcc"),
        arrival_time=0.0,
        work_s=work_s,
    )


class TestHeapInvalidation:
    def test_push_creates_completion_event(self):
        engine = heap_engine()
        core = engine._cores[engine.core_names[0]]
        core.queue.push(make_job(work_s=2.0))
        engine._invalidate_event(core, 0.0)
        events = live_events(engine)
        # Nominal relative frequency is 1.0: completion after 2 s.
        assert events[core.name] == pytest.approx(2.0)

    def test_invalidation_staleness(self):
        engine = heap_engine()
        core = engine._cores[engine.core_names[0]]
        core.queue.push(make_job(work_s=2.0))
        engine._invalidate_event(core, 0.0)
        engine._invalidate_event(core, 1.0)
        # Two entries on the heap, only the latest is live.
        assert len(engine._event_heap) == 2
        events = live_events(engine)
        assert len(events) == 1
        assert events[core.name] == pytest.approx(3.0)

    def test_vf_change_stretches_event(self):
        engine = heap_engine()
        name = engine.core_names[0]
        core = engine._cores[name]
        core.queue.push(make_job(work_s=2.0))
        engine._invalidate_event(core, 0.0)
        slow_index = engine.vf_table.lowest_index
        core.vf_index = slow_index
        core.speed = engine.vf_table[slow_index].frequency
        engine._invalidate_event(core, 0.0)
        events = live_events(engine)
        assert events[name] == pytest.approx(2.0 / 0.85)

    def test_gated_core_has_no_event(self):
        engine = heap_engine()
        core = engine._cores[engine.core_names[0]]
        core.queue.push(make_job())
        engine._invalidate_event(core, 0.0)
        core.gated = True
        core.halted = True
        engine._invalidate_event(core, 0.0)
        assert live_events(engine) == {}

    def test_sleeping_core_has_no_event(self):
        engine = heap_engine()
        core = engine._cores[engine.core_names[0]]
        core.queue.push(make_job())
        engine._invalidate_event(core, 0.0)
        core.sleeping = True
        core.halted = True
        engine._invalidate_event(core, 0.0)
        assert live_events(engine) == {}

    def test_migration_refreshes_both_cores(self):
        from repro.core.base import Migration

        engine = heap_engine()
        src_name, dst_name = engine.core_names[0], engine.core_names[1]
        src = engine._cores[src_name]
        src.queue.push(make_job(job_id=1, work_s=2.0))
        src.queue.push(make_job(job_id=2, work_s=4.0))
        engine._invalidate_event(src, 0.0)

        engine._migrate(
            Migration(src_name, dst_name, move_running=True, swap=False), 0.0
        )
        events = live_events(engine)
        # Source now runs the 4 s job; destination stalls for the 1 ms
        # migration cost before its 2 s job.
        assert events[src_name] == pytest.approx(4.0)
        assert events[dst_name] == pytest.approx(
            engine.config.migration_cost_s + 2.0
        )

    def test_event_time_accounts_for_stall(self):
        engine = heap_engine()
        core = engine._cores[engine.core_names[0]]
        core.stall_until = 0.5
        core.queue.push(make_job(work_s=2.0))
        engine._invalidate_event(core, 0.0)
        assert live_events(engine)[core.name] == pytest.approx(2.5)
