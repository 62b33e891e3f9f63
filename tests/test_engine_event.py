"""Event-fidelity differential harness and event-primitive unit tests.

The event engine (``EngineConfig(fidelity="event")``) advances the
clock between heap events: every stretch of whole ticks provably free
of scheduler events is crossed by one :meth:`_fast_forward_event` call
over the run-persistent reduced-order modal thermal stepper, however
long the stretch. Its contract with the eager reference
(docs/ENGINE.md) is not bit-identity but bounded agreement:

- the discrete planes (V/f indices, core states) and the job stream
  are identical to eager,
- recorded thermal planes within ``EVENT_TOL_K`` (1e-3 K),
- energy within ``EVENT_TOL_ENERGY`` (0.1%).

A smoke slice runs in tier-1 (``TestEventDifferentialFast``); the full
stack x policy x DPM matrix runs under the ``slow`` marker.

Within event fidelity one spec has one result, bit for bit
(``TestEventOneResult``): a clock jump is an exact shortcut for the
ticks it replaces, and a truncated run is the shorter run.
"""

import heapq
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.result_io import truncate_result
from repro.analysis.runner import ExperimentRunner, RunSpec
from repro.errors import ThermalModelError
from repro.floorplan.experiments import build_experiment
from repro.power.states import CODE_STATE
from repro.sched.engine import SimulationEngine
from repro.thermal.model import (
    MODAL_DROP_TOL,
    ThermalModel,
)
from tests.power_oracle import (
    CoreActivity,
    assert_event_kernel_close,
    unit_powers,
)
from tests.test_engine_batch import RESULT_ARRAYS, assert_results_identical

RUNNER = ExperimentRunner()

EVENT_TOL_K = 1e-3
EVENT_TOL_ENERGY = 1e-3

THERMAL_ARRAYS = (
    "unit_temps_k",
    "core_temps_k",
    "core_peak_temps_k",
    "layer_spreads_k",
)

DISCRETE_ARRAYS = ("vf_indices", "core_states")

#: Two long-running threads leave multi-tick event-free stretches once
#: the stack settles — steady clock jumps without DPM churn.
QUIET_MIX = (("gcc", 2),)

#: ~2% mean utilization: the workload shape the event loop targets —
#: long idle gaps between sparse arrivals, most ticks jumped.
IDLE_MIX = (("gzip", 1), ("MPlayer", 1))


def run_fidelity(spec, fidelity, **config_overrides):
    engine = RUNNER.build_engine(spec)
    engine.config = replace(
        engine.config, fidelity=fidelity, **config_overrides
    )
    return engine.run()


def assert_event_close(eager, event):
    """Assert the documented event-vs-eager agreement contract."""
    np.testing.assert_array_equal(eager.times, event.times)
    for name in DISCRETE_ARRAYS:
        np.testing.assert_array_equal(
            getattr(eager, name), getattr(event, name), err_msg=name
        )
    for name in THERMAL_ARRAYS:
        np.testing.assert_allclose(
            getattr(eager, name), getattr(event, name),
            rtol=0.0, atol=EVENT_TOL_K, err_msg=name,
        )
    np.testing.assert_allclose(
        eager.utilization, event.utilization, rtol=0.0, atol=1e-9
    )
    assert abs(eager.energy_j - event.energy_j) <= (
        EVENT_TOL_ENERGY * eager.energy_j
    )
    assert eager.migrations == event.migrations
    assert len(eager.completed_jobs()) == len(event.completed_jobs())
    for je, js in zip(eager.jobs, event.jobs):
        assert je.core == js.core
        if je.finished and js.finished:
            assert abs(je.completion_time - js.completion_time) <= 1e-6


def count_event_jumps(monkeypatch):
    """Patch the event fast-forward to count jumps/ticks it consumes."""
    calls = {"jumps": 0, "ticks": 0, "lengths": [], "starts": []}
    original = SimulationEngine._fast_forward_event

    def wrapper(self, rec, tick, *args):
        result = original(self, rec, tick, *args)
        if result[0]:
            calls["jumps"] += 1
            calls["ticks"] += result[0]
            calls["lengths"].append(result[0])
            calls["starts"].append(tick)
        return result

    monkeypatch.setattr(SimulationEngine, "_fast_forward_event", wrapper)
    return calls


class TestEventDifferentialFast:
    """Tier-1 smoke slice of the event-vs-eager differential."""

    @pytest.mark.parametrize("exp_id", [1, 4])
    @pytest.mark.parametrize("policy", ["Default", "Adapt3D"])
    def test_event_matches_eager(self, exp_id, policy):
        spec = RunSpec(exp_id=exp_id, policy=policy, duration_s=6.0, seed=3)
        assert_event_close(
            run_fidelity(spec, "eager"), run_fidelity(spec, "event")
        )

    def test_event_matches_eager_with_dpm(self):
        spec = RunSpec(exp_id=1, policy="Migr", duration_s=6.0,
                       with_dpm=True, seed=3)
        assert_event_close(
            run_fidelity(spec, "eager"), run_fidelity(spec, "event")
        )

    def test_event_matches_eager_with_sensor_noise(self):
        """Noisy sensors force per-tick reads (no control-skip prefix),
        keeping the RNG streams aligned across fidelities."""
        spec = RunSpec(exp_id=4, policy="Adapt3D", duration_s=6.0, seed=3,
                       sensor_noise_sigma=1.0)
        assert_event_close(
            run_fidelity(spec, "eager"), run_fidelity(spec, "event")
        )

    def test_event_matches_eager_dvfs(self):
        spec = RunSpec(exp_id=2, policy="Adapt3D&DVFS_TT", duration_s=6.0,
                       with_dpm=True, seed=3)
        assert_event_close(
            run_fidelity(spec, "eager"), run_fidelity(spec, "event")
        )

    def test_idle_heavy_with_dpm(self, monkeypatch):
        """The target scenario: sparse arrivals, sleeping cores, clock
        jumps covering most of the run."""
        calls = count_event_jumps(monkeypatch)
        spec = RunSpec(exp_id=4, policy="Default", duration_s=12.0, seed=7,
                       with_dpm=True, benchmark_mix=IDLE_MIX)
        eager = run_fidelity(spec, "eager")
        event = run_fidelity(spec, "event")
        assert calls["jumps"] > 0
        assert calls["ticks"] > eager.n_ticks // 2  # most ticks jumped
        assert_event_close(eager, event)


class TestEventJump:
    """The clock jump: triggers, no horizon cap, dense fallback."""

    def test_quiet_workload_jumps(self, monkeypatch):
        calls = count_event_jumps(monkeypatch)
        spec = RunSpec(exp_id=2, policy="Default", duration_s=30.0, seed=5,
                       benchmark_mix=QUIET_MIX)
        eager = run_fidelity(spec, "eager")
        event = run_fidelity(spec, "event")
        assert calls["jumps"] > 0
        assert calls["ticks"] >= 2 * calls["jumps"]
        assert_event_close(eager, event)

    def test_no_horizon_cap(self, monkeypatch):
        """A jump runs to the next heap event however far: the long
        idle stretches of this run are crossed in single jumps of 5 s
        or more."""
        calls = count_event_jumps(monkeypatch)
        spec = RunSpec(exp_id=2, policy="Default", duration_s=30.0, seed=5,
                       benchmark_mix=QUIET_MIX)
        run_fidelity(spec, "event")
        assert calls["lengths"] and max(calls["lengths"]) >= 50

    def test_no_settle_gate(self, monkeypatch):
        """Unsettled transients don't block jumps: the clock jumps in
        the first second, while the stack still moves away from its
        warm-up steady state, wherever the heap allows."""
        calls = count_event_jumps(monkeypatch)
        spec = RunSpec(exp_id=2, policy="Default", duration_s=30.0, seed=5,
                       benchmark_mix=QUIET_MIX)
        eager = run_fidelity(spec, "eager")
        event = run_fidelity(spec, "event")
        assert calls["jumps"] > 0
        assert min(calls["starts"]) < 10
        assert_event_close(eager, event)


class TestEventOrdering:
    """Heap-order invariants of the quiet-stretch scan."""

    def _prepared_engine(self, **overrides):
        spec = RunSpec(exp_id=1, policy="Default", duration_s=6.0, seed=3,
                       fidelity="event", **overrides)
        engine = RUNNER.build_engine(spec)
        engine._prepare_run()
        return engine

    def test_jump_never_crosses_next_event(self):
        engine = self._prepared_engine()
        dt = engine.config.sampling_interval_s
        quiet = engine._quiet_ticks_event(0.0, dt, 10_000)
        horizon = None
        if engine._arrivals:
            horizon = engine._arrivals[0][0]
        if engine._event_heap:
            horizon = min(
                horizon if horizon is not None else np.inf,
                engine._event_heap[0][0],
            )
        if quiet and horizon is not None:
            assert quiet * dt <= horizon  # the jump stops short
            assert (quiet + 1) * dt > horizon - 1e-9

    def test_event_on_tick_boundary_lands_in_controlled_tick(self):
        """An event at exactly t0 + k*dt belongs to tick k, so the jump
        may cover at most k-1 ticks — the tick containing the event
        runs the full controlled pipeline."""
        engine = self._prepared_engine()
        dt = engine.config.sampling_interval_s
        engine._arrivals = [(3 * dt, 0, None)]
        engine._event_heap.clear()
        assert engine._quiet_ticks_event(0.0, dt, 10_000) == 2

    def test_stale_heap_entries_skipped(self):
        """Invalidated heap entries (stale seq) are popped, never used
        as the jump horizon."""
        engine = self._prepared_engine()
        dt = engine.config.sampling_interval_s
        baseline = engine._quiet_ticks_event(0.0, dt, 10_000)
        name = engine.core_names[0]
        stale_seq = engine._cores[name].heap_seq - 1
        heapq.heappush(engine._event_heap, (0.5 * dt, stale_seq, name))
        assert engine._quiet_ticks_event(0.0, dt, 10_000) == baseline
        if engine._event_heap:
            assert engine._event_heap[0][1] != stale_seq


class TestEventTelemetry:
    """Telemetry on the event engine: non-perturbing, counters true."""

    def test_event_unperturbed_by_telemetry(self):
        from repro.obs.telemetry import TelemetryConfig

        spec = RunSpec(exp_id=4, policy="Adapt3D", duration_s=6.0, seed=3)
        plain = run_fidelity(spec, "event")
        telem = run_fidelity(spec, "event",
                             telemetry=TelemetryConfig(trace=True))
        np.testing.assert_array_equal(plain.vf_indices, telem.vf_indices)
        np.testing.assert_array_equal(plain.core_states, telem.core_states)
        np.testing.assert_array_equal(plain.unit_temps_k, telem.unit_temps_k)
        assert plain.energy_j == telem.energy_j
        assert telem.telemetry is not None

    def test_event_jump_counters(self, monkeypatch):
        from repro.obs.telemetry import TelemetryConfig

        calls = count_event_jumps(monkeypatch)
        spec = RunSpec(exp_id=4, policy="Default", duration_s=12.0, seed=7,
                       with_dpm=True, benchmark_mix=IDLE_MIX)
        result = run_fidelity(spec, "event",
                              telemetry=TelemetryConfig())
        counters = result.telemetry["engine"]["counters"]
        assert counters["event_jumps"] == calls["jumps"] > 0
        assert counters["event_jump_ticks"] == calls["ticks"]
        assert 0 <= counters["event_skipped_ticks"] <= calls["ticks"]
        # Profiler credits every reconstructed tick to the jump phase.
        phases = result.telemetry["phases"]
        assert phases["ticks"] == result.n_ticks
        assert "event_jump" in phases["phases"]


#: Traced EXP-4 runs with DPM on: a DVFS policy, a gating policy and a
#: migrating policy, under both fidelities.
ONE_HOME_SPECS = tuple(
    RunSpec(exp_id=4, policy=policy, duration_s=4.0, seed=2009,
            grid=(4, 4), with_dpm=True, fidelity=fidelity)
    for policy in ("DVFS_TT", "CGate", "Migr")
    for fidelity in ("eager", "event")
)

#: Engine counter -> the trace event type its transition emits.
TRANSITION_EVENTS = {
    "dpm_sleeps": "dpm_sleep",
    "dpm_wakes": "dpm_wake",
    "vf_changes": "vf_change",
    "gate_changes": "gate",
}


@pytest.fixture(scope="module")
def one_home_snapshots():
    from repro.obs.telemetry import TelemetryConfig

    return [
        RUNNER.build_engine(
            spec, telemetry_config=TelemetryConfig(trace=True)
        ).run().telemetry
        for spec in ONE_HOME_SPECS
    ]


class TestOneHomePerFact:
    """A run's telemetry records each fact once: lifecycle counts in
    ``job_stats``, decision-site counts in ``engine.counters``, events
    in the trace, phase times in ``phases``."""

    def test_transition_counts_match_trace(self, one_home_snapshots):
        from repro.obs.trace import EVENT_NAMES

        totals = dict.fromkeys(TRANSITION_EVENTS, 0)
        for snap in one_home_snapshots:
            assert snap["trace"]["dropped"] == 0
            counters = snap["engine"]["counters"]
            for name, event in TRANSITION_EVENTS.items():
                traced = sum(1 for row in snap["trace"]["rows"]
                             if EVENT_NAMES[row[1]] == event)
                assert counters[name] == traced, name
                totals[name] += traced
        assert all(totals.values()), totals

    def test_snapshot_sections(self, one_home_snapshots):
        for snap in one_home_snapshots:
            assert set(snap) == {"engine", "job_stats", "phases", "trace"}
            assert set(snap["engine"]) == {"fidelity", "policy", "counters"}
            for name in ("completions", "migrations"):
                assert name in snap["job_stats"]
                assert not any(name[:-1] in key
                               for key in snap["engine"]["counters"])

    def test_no_count_under_two_names(self, one_home_snapshots):
        """No two counts agree in every run, unless both are always 0
        (the server mix leaves no clock jump to count)."""
        rows = []
        for snap in one_home_snapshots:
            counts = {
                f"job_stats.{k}": v for k, v in snap["job_stats"].items()
                if isinstance(v, int)
            }
            counts.update(
                (f"engine.counters.{k}", v)
                for k, v in snap["engine"]["counters"].items()
                if isinstance(v, int)
            )
            rows.append(counts)
        names = sorted(rows[0])
        assert all(sorted(row) == names for row in rows)
        live = [name for name in names if any(row[name] for row in rows)]
        twins = [
            (a, b) for i, a in enumerate(live) for b in live[i + 1:]
            if all(row[a] == row[b] for row in rows)
        ]
        assert not twins


class TestEventOneResult:
    """One spec, one result: the event paths that reach a result by a
    different route give the same bits."""

    #: Idle-heavy with DPM (most ticks jumped), a quiet mix (long jumps
    #: without DPM), a busy server run (few jumps), a DVFS hybrid, and
    #: sensor noise (jumps without a control-skip prefix).
    SPECS = {
        "idle_dpm": RunSpec(exp_id=4, policy="Default", duration_s=12.0,
                            seed=7, with_dpm=True, benchmark_mix=IDLE_MIX),
        "idle_dpm_hybrid": RunSpec(exp_id=3, policy="Adapt3D&DVFS_TT",
                                   duration_s=12.0, seed=7, with_dpm=True,
                                   benchmark_mix=IDLE_MIX),
        "quiet": RunSpec(exp_id=2, policy="Default", duration_s=12.0,
                         seed=5, benchmark_mix=QUIET_MIX),
        "server": RunSpec(exp_id=4, policy="Adapt3D", duration_s=12.0,
                          seed=3, with_dpm=True),
        "noise": RunSpec(exp_id=4, policy="Adapt3D", duration_s=12.0,
                         seed=3, with_dpm=True, benchmark_mix=IDLE_MIX,
                         sensor_noise_sigma=1.0),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_jumps_change_no_bit(self, name, monkeypatch):
        """Event runs with clock jumps off step every tick; every array,
        the energy and the job list must match the jumping run."""
        spec = replace(self.SPECS[name], fidelity="event")
        calls = count_event_jumps(monkeypatch)
        jumped = RUNNER.run(spec)
        if name != "server":
            assert calls["ticks"] > 0
        monkeypatch.setattr(SimulationEngine, "_quiet_ticks_event",
                            lambda self, t0, dt, max_ticks: 0)
        stepped = RUNNER.run(spec)
        assert_results_identical([jumped], [stepped])

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_truncated_run_is_the_short_run(self, name):
        """Truncation is exact under event: the first 7.3 s of a 12 s
        run equal a fresh 7.3 s run in every array, the energy and the
        completed jobs."""
        spec = replace(self.SPECS[name], fidelity="event")
        served = truncate_result(RUNNER.run(spec), 7.3)
        fresh = RUNNER.run(replace(spec, duration_s=7.3))
        assert_prefix_identical(served, fresh)


def assert_prefix_identical(served, fresh):
    """A truncated result equals the fresh short run in every array,
    the energy and the completed jobs (the only jobs it keeps)."""
    for name in RESULT_ARRAYS:
        np.testing.assert_array_equal(
            getattr(served, name), getattr(fresh, name), err_msg=name
        )
    assert served.energy_j == fresh.energy_j
    assert [(j.job_id, j.core, j.completion_time)
            for j in served.completed_jobs()] == [
        (j.job_id, j.core, j.completion_time)
        for j in fresh.completed_jobs()]


class TestEventConfigValidation:
    def test_batch_group_key_separates_fidelities(self):
        eager = RunSpec(exp_id=1, policy="Default", duration_s=2.0,
                        fidelity="eager")
        event = replace(eager, fidelity="event")
        groups = ExperimentRunner.group_batchable([eager, event])
        assert groups == [[0], [1]]

    def test_campaign_fidelity_axis_accepts_event(self):
        from repro.campaign.spec import CampaignSpec

        spec = CampaignSpec(name="ev", fidelities=("eager", "event"))
        fids = {run.fidelity for run in spec.expand()}
        assert fids == {"eager", "event"}

    def test_campaign_rejects_unknown_fidelity(self):
        from repro.campaign.spec import CampaignSpec
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            CampaignSpec(name="bad", fidelities=("sloppy",))


class TestModalPrimitives:
    """The reduced-order modal stepper the event loop advances on."""

    @pytest.fixture(scope="class")
    def model(self):
        return ThermalModel(build_experiment(2))

    def _settled_state(self, model):
        model.initialize_steady_state(
            {name: 0.4 for name in model.unit_names}
        )

    @pytest.mark.parametrize("exp_id", [1, 2, 3, 4])
    def test_modal_basis_is_the_symmetric_eigenbasis(self, exp_id):
        assembly = ThermalModel(build_experiment(exp_id)).assembly
        basis = assembly.modal_step_basis()
        assert basis is not None
        propagator = assembly.exponential_step()[0]
        rho, v_mat, w_mat = basis["rho"], basis["V"], basis["W"]
        # W is the inverse of V on the kept modes.
        np.testing.assert_allclose(
            w_mat @ v_mat, np.eye(rho.size), rtol=0.0, atol=1e-12
        )
        # Real decay factors in (0, 1], slowest mode first.
        assert not np.iscomplexobj(rho)
        assert np.all(rho > 0.0) and np.all(rho <= 1.0)
        assert np.all(np.diff(np.abs(rho)) <= 0.0)
        # Truncation keeps exactly the modes a general eigensolver
        # finds above the drop tolerance...
        reference = np.abs(np.linalg.eigvals(propagator))
        assert rho.size == np.count_nonzero(reference > MODAL_DROP_TOL)
        assert rho.size < propagator.shape[0]
        # ...and rebuilds the propagator to ~3e-14; decomposing
        # C^-1/2 G C^-1/2 instead reconstructs to ~5e-13.
        err = np.abs(propagator - (v_mat * rho) @ w_mat).max()
        assert err == basis["err"]
        assert err <= 1e-13

    def test_asymmetric_propagator_gets_no_basis(self):
        """The reconstruction gate is the only acceptance test: a
        propagator that is not similar to a symmetric matrix
        reconstructs badly from the symmetrized decomposition, so the
        assembly refuses the basis, naming the stack and the error.
        There is no dense event fallback: the event run fails, and so
        only that run fails when the driver prepares its operators."""
        spec = RunSpec(exp_id=1, policy="Default", duration_s=6.0, seed=3,
                       benchmark_mix=QUIET_MIX, fidelity="event")
        # A private runner, so no other test's cached assembly sees
        # the perturbed propagator.
        runner = ExperimentRunner()
        engine = runner.build_engine(spec)
        thermal = engine.thermal
        propagator = thermal.assembly.exponential_step()[0]
        propagator[0, 1] += 1e-6  # A[1, 0] stays as it was
        refused = r"8x8 grid on 4 slabs \(257 nodes\).*[0-9]e-0[67]"
        with pytest.raises(ThermalModelError, match=refused):
            thermal.assembly.modal_step_basis()
        with pytest.raises(ThermalModelError, match=refused):
            thermal.modal_jump()
        runner.prepare([spec])
        with pytest.raises(ThermalModelError, match=refused):
            engine.run()

    def test_modal_jump_matches_dense_steps(self, model):
        self._settled_state(model)
        rng = np.random.default_rng(7)
        reference = ThermalModel(model.config, assembly=model.assembly)
        reference.temperatures = model.temperatures.copy()
        modal = model.modal_jump()
        assert modal is not None
        core_idx = np.array(
            [model._unit_global_index[name] for name in model._core_names]
        )
        n_units = len(model.unit_names)
        powers = rng.uniform(0.1, 2.0, n_units)
        modal.open(powers)
        for step in range(50):
            if step % 7 == 0:  # repriced steady point mid-stretch
                powers = rng.uniform(0.1, 2.0, n_units)
            reference.step_vector(powers)
            mean_row, peak_row = modal.advance(powers)
            np.testing.assert_allclose(
                mean_row, reference.unit_temperature_vector(),
                rtol=0.0, atol=1e-9,
            )
            np.testing.assert_allclose(
                peak_row[core_idx],
                reference.unit_max_vector()[core_idx],
                rtol=0.0, atol=1e-9,
            )
        modal.close()
        np.testing.assert_allclose(
            model.temperatures, reference.temperatures,
            rtol=0.0, atol=1e-9,
        )

    def test_modal_peak_row_is_core_restricted(self, model):
        """Only core units get a max readback (the per-tick consumers
        are core-indexed); non-core entries stay NaN by contract."""
        self._settled_state(model)
        modal = model.modal_jump()
        powers = np.full(len(model.unit_names), 0.5)
        modal.open(powers)
        _, peak_row = modal.advance(powers)
        core_idx = np.array(
            [model._unit_global_index[name] for name in model._core_names]
        )
        assert np.isfinite(peak_row[core_idx]).all()
        non_core = np.setdiff1d(np.arange(peak_row.size), core_idx)
        if non_core.size:
            assert np.isnan(peak_row[non_core]).all()

    def test_close_does_not_invalidate_coordinates(self, model):
        """A close rematerializes the node state without touching the
        reduced coordinates: advancing after it continues the same
        trajectory."""
        self._settled_state(model)
        reference = ThermalModel(model.config, assembly=model.assembly)
        reference.temperatures = model.temperatures.copy()
        modal = model.modal_jump()
        powers = np.full(len(model.unit_names), 0.7)
        modal.open(powers)
        for _ in range(3):
            reference.step_vector(powers)
            modal.advance(powers)
        modal.close()
        np.testing.assert_allclose(
            model.temperatures, reference.temperatures,
            rtol=0.0, atol=1e-9,
        )
        for _ in range(3):
            reference.step_vector(powers)
            mean_row, _ = modal.advance(powers)
        np.testing.assert_allclose(
            mean_row, reference.unit_temperature_vector(),
            rtol=0.0, atol=1e-9,
        )

    def test_steppers_share_the_assembly_pack(self, model):
        """Every stepper on one assembly reads one set of operands (a
        batch's lanes cycle through them each tick), while each keeps
        its own state."""
        other = ThermalModel(model.config, assembly=model.assembly)
        a, b = model.modal_jump(), other.modal_jump()
        assert a._reprice is b._reprice and a._readout is b._readout
        assert a._z is not b._z


class _JumpFactorRecorder:
    """Stands in for an engine's power model and records the event
    factors each clock jump computes: the jump's inputs and copies of
    the factors, taken when the jump returns (what it froze)."""

    def __init__(self, engine):
        self.inner = engine.power
        self.jumps = []
        self._inputs = None
        jump = engine._fast_forward_event

        def recording_jump(*args):
            self._inputs = None
            result = jump(*args)
            inputs, buf = self._inputs
            self.jumps.append((inputs, buf.base.copy(), buf.weight.copy()))
            return result

        engine.power = self
        engine._fast_forward_event = recording_jump

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def event_factors(self, *args):
        *inputs, buf = args
        if self._inputs is None:
            self._inputs = ([np.array(a, copy=True) for a in inputs], buf)
        self.inner.event_factors(*args)


class TestQuietPowerEval:
    """Frozen power factors: a clock jump computes the event kernel's
    factors once and re-evaluates them every tick at the evolving
    temperatures."""

    def test_quiet_eval_matches_power_kernel(self):
        spec = RunSpec(exp_id=4, policy="Default", duration_s=10.0, seed=5,
                       with_dpm=True, benchmark_mix=IDLE_MIX,
                       fidelity="event")
        engine = RUNNER.build_engine(spec)
        recorder = _JumpFactorRecorder(engine)
        engine.run()
        power = recorder.inner
        level_of = {
            engine.vf_table[i].voltage: engine.vf_table[i]
            for i in range(len(engine.vf_table))
        }
        rng = np.random.default_rng(5)
        assert len(recorder.jumps) >= 5
        fresh = power.event_buffers()
        out = np.empty(len(power.unit_names))
        for inputs, base, weight in recorder.jumps:
            state, util, dyn, volt, mem = inputs
            power.event_factors(state, util, dyn, volt, float(mem), fresh)
            np.testing.assert_array_equal(base, fresh.base)
            np.testing.assert_array_equal(weight, fresh.weight)
            activities = {
                name: CoreActivity(
                    CODE_STATE[state[c]], float(util[c]), level_of[volt[c]]
                )
                for c, name in enumerate(power.core_names)
            }
            for _ in range(3):
                temps = rng.uniform(300.0, 370.0, len(power.unit_names))
                oracle = unit_powers(
                    power, activities,
                    dict(zip(power.unit_names, temps.tolist())), float(mem),
                )
                assert_event_kernel_close(
                    power.event_eval(fresh, temps, out),
                    [oracle[name] for name in power.unit_names],
                )


@pytest.mark.slow
class TestEventDifferentialMatrix:
    """Full stack x policy x DPM event-vs-eager matrix (weekly in CI)."""

    @pytest.mark.parametrize("exp_id", [1, 2, 3, 4])
    @pytest.mark.parametrize("policy", [
        "Default", "AdaptRand", "Adapt3D", "Migr", "DVFS_TT",
        "Adapt3D&DVFS_TT",
    ])
    @pytest.mark.parametrize("with_dpm", [False, True])
    def test_event_matches_eager(self, exp_id, policy, with_dpm):
        spec = RunSpec(exp_id=exp_id, policy=policy, duration_s=6.0,
                       with_dpm=with_dpm, seed=2009)
        assert_event_close(
            run_fidelity(spec, "eager"), run_fidelity(spec, "event")
        )

    @pytest.mark.parametrize("policy", ["Default", "Adapt3D", "DVFS_TT"])
    def test_idle_heavy_event_matrix(self, policy):
        spec = RunSpec(exp_id=4, policy=policy, duration_s=30.0, seed=5,
                       with_dpm=True, benchmark_mix=IDLE_MIX)
        assert_event_close(
            run_fidelity(spec, "eager"), run_fidelity(spec, "event")
        )

    @pytest.mark.parametrize("seed", [11, 12, 13, 14, 15])
    def test_seed_sweep_discrete_identity(self, seed):
        """Any same-time event ties must resolve identically across
        fidelities: sweep seeds and require bitwise discrete planes."""
        spec = RunSpec(exp_id=3, policy="Adapt3D", duration_s=6.0,
                       seed=seed, with_dpm=True)
        assert_event_close(
            run_fidelity(spec, "eager"), run_fidelity(spec, "event")
        )
