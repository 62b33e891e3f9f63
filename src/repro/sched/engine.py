"""The simulation engine: scheduler + power + thermal, 100 ms ticks.

Reproduces the paper's §IV-D infrastructure: a multi-queue dispatcher
integrated with the thermal simulator and power manager. Within a
sampling tick, execution is event-driven (arrivals, completions, wakes);
at each tick boundary the engine

1. computes per-core utilization over the elapsed interval,
2. evaluates per-unit power (dynamic + temperature-dependent leakage),
3. advances the transient thermal solution by one interval,
4. reads the core temperature sensors,
5. applies DPM timeout transitions,
6. invokes the DTM policy and applies its V/f / gating / migration
   actions (migrations cost 1 ms each, the paper's measured value),
7. records everything for the metrics pipeline.

Performance model: jobs execute at a rate equal to the core's relative
frequency (the paper assumes performance scales linearly with f);
gated and sleeping cores make no progress.

Interval execution is event-driven over an indexed min-heap: each
core's next completion time is cached and invalidated lazily whenever
the core's state changes (dispatch, completion, migration, V/f change,
gating, sleep), so advancing to the next event pops the earliest cached
entry instead of rescanning every core. Per-core bookkeeping (queue
length, state code, V/f level, sensor reading) is kept in parallel
NumPy arrays maintained at the same invalidation sites, so dispatch and
policy contexts are live array views instead of dict copies, and the
tick boundary prices power with an array kernel (no per-unit dicts):
eager with the oracle-exact
:meth:`~repro.power.chip_power.ChipPowerModel.power_factors` /
:meth:`~repro.power.chip_power.ChipPowerModel.power_eval`, event with
the event kernel
:meth:`~repro.power.chip_power.ChipPowerModel.event_factors` /
:meth:`~repro.power.chip_power.ChipPowerModel.event_eval` (equal to
rounding, in far fewer NumPy calls). The original all-core rescan
loop, charged by the scalar per-unit power model, survives only as a
test oracle (``tests/scan_engine.py`` over ``tests/power_oracle.py``):
the eager engine reproduces it bit for bit
(``tests/test_engine_heap.py``).

One tick loop (:meth:`SimulationEngine._run_ticks`) serves both values
of ``EngineConfig.fidelity``, which selects how strictly the interval
execution reproduces the eager reference semantics:

- ``"eager"`` (the engine-level default and the reference): per-event
  execution sweeps with a recompute-on-pop heap and the dense thermal
  step, bit-identical to the scan oracle.
- ``"event"`` (the default of ``RunSpec``, campaigns and the CLI;
  approximately equal to eager): the clock jumps between
  heap events. It runs on the *span substrate*: each core's work
  between its own boundary events — dispatch, completion, migration,
  DPM or V/f/gating transition, stall expiry — is a lazy span whose
  head job is decremented in one closed-form update when the next
  event or readback *materializes* it, utilization is accumulated from
  span timestamps instead of per-event execution sweeps, and cached
  completion events are trusted (no recompute-on-pop). Every
  whole-tick stretch up to the next heap event (arrival or completion)
  is crossed in one jump. The thermal state advances
  tick-by-tick in the run-persistent reduced-order modal basis
  (:class:`~repro.thermal.model.ModalJump`, a truncated eigenbasis of
  the propagator), with leakage repriced each tick
  from the evolving unit readback through event power factors frozen
  over the jump
  (:meth:`~repro.power.chip_power.ChipPowerModel.event_factors`,
  evaluated per tick by ``event_eval``), so per-tick recording stays
  dense; the tolerance sources are the closed-form utilization fill,
  the basis truncation and the event power kernel's rounding.
  Sensor/DPM/policy control calls are skipped for the prefix of the
  jump where they are provably no-ops (ideal sensors, identity policy
  tick, DPM sleep horizon bounded by bisection) and run on
  reconstructed observations after that; the first mutation closes the
  jump at the acting tick. Deviations from eager execution are bounded
  at the documented tolerance (``docs/ENGINE.md``); the differential
  harness lives in ``tests/test_engine_event.py``.
  Within event fidelity a spec has one result: a clock jump is an exact
  shortcut for the ticks it replaces (jumps on or off give the same
  bits), and a lane of the batched multi-run engine
  (:mod:`repro.sched.batch`) gives the serial run's bits too. Only
  event runs fuse into batches; an eager run always runs here alone.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.base import (
    AllocationContext,
    ArrayBackedMapping,
    Migration,
    Policy,
    SnapshotArrayMapping,
    SystemView,
    TickArrays,
    TickContext,
    state_from_code,
)
from repro.errors import SchedulerError
from repro.obs.profiler import (
    NULL_PROFILER,
    PH_DPM,
    PH_EVENT_JUMP,
    PH_INTERVAL,
    PH_POLICY,
    PH_POWER,
    PH_RECORD,
    PH_SENSORS,
    PH_THERMAL,
)
from repro.obs.telemetry import (
    EngineTelemetry,
    NULL_TELEMETRY,
    TelemetryConfig,
)
from repro.power.chip_power import ChipPowerModel
from repro.power.states import STATE_CODE, CoreState
from repro.power.vf import DEFAULT_VF_TABLE, VFTable
from repro.sched.dpm import FixedTimeoutDPM
from repro.sched.queue import DispatchQueue
from repro.sched.workload_source import WorkloadSource
from repro.thermal.model import ThermalModel
from repro.thermal.sensors import SensorBank
from repro.workload.job import Job, JobTable

_TIME_EPS = 1e-9

# Inline state codes for the hot-path row sync.
_IDLE_CODE = STATE_CODE[CoreState.IDLE]
_ACTIVE_CODE = STATE_CODE[CoreState.ACTIVE]
_GATED_CODE = STATE_CODE[CoreState.GATED]
_SLEEP_CODE = STATE_CODE[CoreState.SLEEP]

DEFAULT_MIGRATION_COST_S = 0.001

FIDELITY_MODES = ("eager", "event")


def _check_fraction(name: str, value: float) -> float:
    """``value`` if it is a number in [0, 1] (NaN fails both bounds)."""
    if not 0.0 <= value <= 1.0:
        raise SchedulerError(f"{name} must be in [0, 1], got {value!r}")
    return value


@dataclass(frozen=True)
class EngineConfig:
    """Run parameters of one simulation.

    Attributes
    ----------
    duration_s:
        Simulated time.
    sampling_interval_s:
        Sensor sampling / scheduling tick (paper: 100 ms). Must equal
        the thermal model's ``sampling_interval``: the propagator spans
        exactly one of the model's intervals.
    migration_cost_s:
        Stall charged per thread migration (paper: 1 ms, measured on
        Solaris/UltraSPARC T1).
    dpm:
        Optional fixed-timeout power manager.
    sensor_noise_sigma, sensor_quantization:
        Sensor non-idealities in kelvin (default ideal).
    seed:
        Seed for sensor noise.
    warmup_utilization:
        Uniform core utilization, in [0, 1], assumed for the
        steady-state initialization of the thermal model.
    fidelity:
        ``"eager"`` (default here — per-event execution sweeps, the
        reference the scan oracle and the engine tests build on) or
        ``"event"`` (lazy per-core span execution with trusted
        completion events; the clock jumps between heap events, control
        calls skipped where provably no-ops; approximately equal to
        eager within the documented tolerance). ``RunSpec``, campaigns
        and the CLI default to ``"event"``.
    telemetry:
        Optional :class:`~repro.obs.telemetry.TelemetryConfig`; any
        config turns telemetry (job stats, tick profile, and the trace
        if asked) on. ``None`` (default) turns it off — the engine
        holds the no-op telemetry singleton and the hot loop pays
        nothing beyond plain integer counters. Telemetry is strictly
        observational: enabling it never changes a scheduling, power,
        or thermal outcome (eager runs stay bit-identical; asserted in
        the differential harnesses).
    """

    duration_s: float = 300.0
    sampling_interval_s: float = 0.1
    migration_cost_s: float = DEFAULT_MIGRATION_COST_S
    dpm: Optional[FixedTimeoutDPM] = None
    sensor_noise_sigma: float = 0.0
    sensor_quantization: float = 0.0
    seed: int = 1
    warmup_utilization: float = 0.3
    fidelity: str = "eager"
    telemetry: Optional[TelemetryConfig] = None


class _CoreRuntime:
    """Mutable per-core scheduling state."""

    __slots__ = (
        "name", "idx", "queue", "jobs", "vf_index", "speed", "gated",
        "sleeping", "halted", "idle_since", "stall_until", "busy_in_tick",
        "heap_seq", "span_start", "busy_anchor", "head_mem",
    )

    def __init__(self, name: str, vf_index: int, speed: float, idx: int = 0) -> None:
        self.name = name
        #: Position in the engine's canonical core order — the row this
        #: core owns in every structure-of-arrays buffer.
        self.idx = idx
        self.queue = DispatchQueue(name)
        #: Direct alias of ``queue.entries`` — the deque is created once
        #: and only ever mutated, so the hot loops skip one attribute
        #: hop per access.
        self.jobs = self.queue.entries
        self.vf_index = vf_index
        self.speed = speed
        self.gated = False
        self.sleeping = False
        # Derived ``gated or sleeping``, kept in sync at every flip so
        # the per-event hot path tests one attribute.
        self.halted = False
        self.idle_since = 0.0
        self.stall_until = 0.0
        self.busy_in_tick = 0.0
        # Generation counter of this core's cached event-heap entry;
        # entries whose sequence number is stale are discarded on pop.
        self.heap_seq = 0
        # Span-substrate bookkeeping (event fidelity): simulation time
        # up to which the head job's progress has been materialized,
        # and up to which busy time has been accounted into
        # busy_in_tick. Between a core's own events the job is
        # untouched; both anchors advance at materialization sites only.
        self.span_start = 0.0
        self.busy_anchor = 0.0
        # Head job's memory intensity (None when idle) — feeds the
        # span substrate's incremental mix-intensity accumulator.
        self.head_mem: Optional[float] = None


@dataclass
class SimulationResult:
    """Everything recorded during one run (input to the metrics layer).

    Temperature series are in kelvin. Rows are sampling ticks.

    ``jobs`` is one :class:`~repro.workload.job.JobTable`: every job's
    numeric fields as float64 columns (NaN completion while unfinished)
    plus its benchmark and core. The engine fills it from its own
    :class:`~repro.workload.job.Job` objects, which the table hands
    back when iterated; a loaded or unpickled table builds them from
    its rows on first iteration or indexing. The metrics and the result
    codec read the columns, and a pickled result carries the columns,
    not the objects. A list of jobs passed in is converted once, here.
    """

    times: np.ndarray
    unit_names: List[str]
    unit_temps_k: np.ndarray
    core_names: List[str]
    core_temps_k: np.ndarray
    core_peak_temps_k: np.ndarray
    layer_spreads_k: np.ndarray
    utilization: np.ndarray
    vf_indices: np.ndarray
    core_states: np.ndarray
    total_power_w: np.ndarray
    energy_j: float
    jobs: JobTable = field(default_factory=lambda: JobTable.of(()))
    migrations: int = 0
    policy_name: str = ""
    sampling_interval_s: float = 0.1
    #: JSON-ready telemetry snapshot (job stats, phases, engine
    #: counters, trace) when the run was instrumented; ``None``
    #: otherwise. Persisted as ``telemetry.json`` by the result store.
    telemetry: Optional[Dict] = None

    def __post_init__(self) -> None:
        self.jobs = JobTable.of(self.jobs)

    @property
    def n_ticks(self) -> int:
        """Number of recorded sampling intervals."""
        return self.times.shape[0]

    def completed_jobs(self) -> List[Job]:
        """Jobs that finished during the run."""
        return [job for job in self.jobs if job.finished]


@dataclass
class _Recording:
    """Per-run recording buffers plus the precomputed readout layout.

    Extracted from the tick loops so one allocation/readout scheme is
    shared by the serial engine and the batched multi-run engine (which
    records whole ``(R, ...)`` planes per tick and hands each run a
    contiguous copy of its slice at the end).

    A tick writes only the rows it produces: unit means, core peaks,
    utilization, V/f, states and total power. ``times``,
    ``core_temps`` and ``spreads`` are pure functions of the tick index
    and of ``unit_temps``, so :meth:`derive_planes` fills them once per
    run, after the last tick, with the same bits a per-tick write
    gives. The test-only scan oracle writes every plane per tick
    instead, as the reference.
    """

    times: np.ndarray
    unit_temps: np.ndarray
    core_temps: np.ndarray
    core_peaks: np.ndarray
    spreads: np.ndarray
    utilization: np.ndarray
    vf_indices: np.ndarray
    core_states: np.ndarray
    total_power: np.ndarray
    core_cols: np.ndarray
    die_starts: np.ndarray

    @classmethod
    def allocate(cls, engine: "SimulationEngine", n_ticks: int) -> "_Recording":
        unit_names = engine.thermal.unit_names
        n_units = len(unit_names)
        n_cores = len(engine.core_names)
        n_dies = engine.thermal.n_dies
        # Recording layout, computed once: the thermal model's vector
        # readback is already in unit_names order, so a core->column
        # gather and the die boundaries replace name lookups.
        unit_index = {name: i for i, name in enumerate(unit_names)}
        core_cols = np.fromiter(
            (unit_index[name] for name in engine.core_names),
            dtype=np.intp,
            count=n_cores,
        )
        die_slices = engine.thermal.die_unit_slices()
        # die_slices are contiguous and ordered, so per-die max/min
        # reduce to one reduceat pair over the unit rows.
        die_starts = np.fromiter(
            (sl.start for sl in die_slices), dtype=np.intp,
            count=len(die_slices),
        )
        return cls(
            times=np.zeros(n_ticks),
            unit_temps=np.zeros((n_ticks, n_units)),
            core_temps=np.zeros((n_ticks, n_cores)),
            core_peaks=np.zeros((n_ticks, n_cores)),
            spreads=np.zeros((n_ticks, n_dies)),
            utilization=np.zeros((n_ticks, n_cores)),
            vf_indices=np.zeros((n_ticks, n_cores), dtype=int),
            core_states=np.zeros((n_ticks, n_cores), dtype=int),
            total_power=np.zeros(n_ticks),
            core_cols=core_cols,
            die_starts=die_starts,
        )

    def derive_planes(self, dt: float) -> None:
        """Fill ``times``, ``core_temps`` and ``spreads`` from the
        recorded unit rows: tick ``k`` ends at ``k*dt + dt`` (the float
        arithmetic of every tick loop), a core reads its unit's mean,
        and a die's spread is its unit maximum minus its unit minimum.
        Gathers, maxima and minima are exact and each spread is the one
        subtraction a per-tick write makes, so the planes equal a
        per-tick write bit for bit."""
        self.times[:] = np.arange(self.times.shape[0]) * dt + dt
        unit_temps = self.unit_temps
        np.take(unit_temps, self.core_cols, axis=1, out=self.core_temps)
        np.subtract(
            np.maximum.reduceat(unit_temps, self.die_starts, axis=1),
            np.minimum.reduceat(unit_temps, self.die_starts, axis=1),
            out=self.spreads,
        )


class SimulationEngine:
    """One policy, one workload, one 3D system — run to completion.

    :meth:`run` drives one tick loop for both fidelities. An event
    engine doubles as a lane of the batched multi-run engine
    (:class:`repro.sched.batch.BatchSimulationEngine`): scheduler
    state, interval execution, DPM and policy control are all per-run
    methods here, while the batch engine replaces only the
    tick-boundary power/thermal/readback calls with blocked ones. The
    test-only scan oracle (``tests/scan_engine.py``) subclasses it,
    overriding the loop, the interval advance and how both policy
    contexts are made, while sharing dispatch placement, completions,
    DPM and policy actions."""

    def __init__(
        self,
        thermal: ThermalModel,
        power: ChipPowerModel,
        policy: Policy,
        workload: WorkloadSource,
        config: EngineConfig = EngineConfig(),
        vf_table: VFTable = DEFAULT_VF_TABLE,
        system_view: Optional[SystemView] = None,
    ) -> None:
        self.thermal = thermal
        self.power = power
        self.policy = policy
        self.workload = workload
        self.config = config
        self.vf_table = vf_table

        self.core_names = power.core_names
        if thermal.unit_names != power.unit_names:
            raise SchedulerError(
                "thermal and power models disagree on unit order; "
                "build both from the same experiment configuration"
            )
        if system_view is None:
            system_view = self._default_system_view()
        self.system_view = system_view
        policy.attach(system_view)

        self.sensors = SensorBank(
            thermal,
            noise_sigma=config.sensor_noise_sigma,
            quantization_step=config.sensor_quantization,
            seed=config.seed,
        )
        nominal_speed = vf_table[vf_table.nominal_index].frequency
        self._cores: Dict[str, _CoreRuntime] = {
            name: _CoreRuntime(name, vf_table.nominal_index, nominal_speed, i)
            for i, name in enumerate(self.core_names)
        }
        self._core_list: List[_CoreRuntime] = list(self._cores.values())
        self._arrivals: List[Tuple[float, int, Job]] = []
        # Arrival tiebreaker: equal-time arrivals pop in push order.
        self._arrival_seq = 0
        self._jobs: List[Job] = []
        self._thread_last_core: Dict[int, str] = {}
        self._migration_count = 0
        # An engine runs once: the job list, the arrival heap and the
        # workload's stream are consumed by the run (_prepare_run).
        self._has_run = False

        # Telemetry: lifecycle hooks fan out through _obs (the shared
        # no-op singleton when off), per-tick phases through _prof.
        # The decision sites bump the plain-int _ob_* counters below
        # unconditionally — an int add is cheaper than any call or
        # branch and can never perturb a decision.
        self._obs = NULL_TELEMETRY
        self._prof = NULL_PROFILER
        self._reset_micro_counters()

        # Event heap of (cached completion time, core.heap_seq, name).
        self._event_heap: List[Tuple[float, int, str]] = []
        # Cores whose queue head crossed the completion threshold since
        # the last _process_completions call (only these are checked,
        # instead of rescanning every core).
        self._finished_cores: List[_CoreRuntime] = []

        # Span-substrate state (event fidelity): incremental head-job
        # memory-intensity accumulator (maintained at the same
        # invalidation sites that change queue heads), the mutation flag
        # that closes a clock jump, and the flag suppressing busy
        # accounting while jumped ticks record utilization in closed
        # form.
        self._use_span = False
        self._mem_sum = 0.0
        self._mem_count = 0
        self._span_dirty = False
        self._in_fast_forward = False
        # Event mode's run-persistent reduced-order thermal stepper
        # (None in eager mode); owned by _run_ticks, shared with
        # _fast_forward_event.
        self._event_modal = None
        self._event_modal_open = False
        # This run's arrays for the event power kernel (the power model
        # is shared among engines, so its work arrays live here).
        self._event_power = power.event_buffers()
        # Dispatch (both fidelities) and the span substrate's policy
        # tick reuse one AllocationContext / TickContext shell per run
        # (the payloads are live array views; only the scalar fields
        # change between calls), rebuilt whenever the backing arrays
        # are re-homed.
        self._alloc_ctx: Optional[AllocationContext] = None
        self._span_tick_ctx: Optional[TickContext] = None

        # Structure-of-arrays core bookkeeping. Every array is indexed
        # by _CoreRuntime.idx and maintained at the heap-invalidation
        # sites (plus the tick boundary for sensor temperatures), so
        # dispatch contexts and policy snapshots read vectors instead
        # of rebuilding per-core dicts. Span execution
        # itself stays a scalar loop over the core objects: at the
        # paper's core counts (<= 16) NumPy's fixed per-op overhead
        # makes a vectorized execute ~2x slower than the tight loop
        # (measured; see docs/ENGINE.md).
        n_cores = len(self._core_list)
        self._core_names_tuple: Tuple[str, ...] = tuple(self.core_names)
        self._core_index: Dict[str, int] = {
            name: i for i, name in enumerate(self.core_names)
        }
        self._ql_arr = np.zeros(n_cores, dtype=np.int64)
        self._state_arr = np.full(
            n_cores, STATE_CODE[CoreState.IDLE], dtype=np.int64
        )
        # Plain-list mirrors of the queue-length/state rows, maintained
        # at the same sync sites: the scalar dispatch scoring loops
        # consume lists, so mirroring here removes two per-dispatch
        # ``tolist()`` unloads.
        self._ql_list: List[int] = [0] * n_cores
        self._state_list: List[int] = [_IDLE_CODE] * n_cores
        self._vf_arr = np.full(n_cores, vf_table.nominal_index, dtype=np.int64)
        self._temps_arr = np.zeros(n_cores)
        self._any_gated = False
        # Live Mapping views over the arrays, shared by every dispatch
        # context (the arrays mutate in place, so one view each is
        # enough for the whole run).
        self._alloc_queue_view = ArrayBackedMapping(
            self._core_index, self._ql_arr, int
        )
        self._alloc_temp_view = ArrayBackedMapping(
            self._core_index, self._temps_arr, float
        )
        self._alloc_state_view = ArrayBackedMapping(
            self._core_index, self._state_arr, state_from_code
        )

        # Per-level V/f lookup tables for the vectorized power path,
        # plus per-core rows maintained alongside _vf_arr so the tick
        # boundary skips the per-tick gather.
        levels = [vf_table[i] for i in range(len(vf_table))]
        self._vf_dyn_scale = np.array([lvl.dynamic_scale for lvl in levels])
        self._vf_voltage = np.array([lvl.voltage for lvl in levels])
        self._dyn_scale_arr = np.full(
            n_cores, self._vf_dyn_scale[vf_table.nominal_index]
        )
        self._voltage_arr = np.full(
            n_cores, self._vf_voltage[vf_table.nominal_index]
        )

    # ------------------------------------------------------------------

    def _reset_micro_counters(self) -> None:
        """Zero the decision-site counters (per run)."""
        self._ob_heap_push = 0
        self._ob_heap_invalidate = 0
        self._ob_heap_pop = 0
        self._ob_heap_stale = 0
        self._ob_span_touch = 0
        self._ob_event_jumps = 0
        self._ob_event_jump_ticks = 0
        self._ob_event_skipped = 0
        self._ob_dpm_sleeps = 0
        self._ob_dpm_wakes = 0
        self._ob_vf_changes = 0
        self._ob_gate_changes = 0

    def _default_system_view(self) -> SystemView:
        config = self.thermal.config
        positions = {}
        for plan in config.layers:
            for unit in plan.cores():
                positions[unit.name] = unit.center
        return SystemView(
            core_names=tuple(self.core_names),
            core_layer=config.core_layer_map(),
            n_layers=config.n_layers,
            vf_table=self.vf_table,
            core_positions=positions,
        )

    # ------------------------------------------------------------------
    # main loop

    def _prepare_run(self) -> Tuple[int, float]:
        """Validate the configuration and arm the run-time state.

        Shared by :meth:`run` and the batched engine: checks the tick
        against the thermal model's interval, arms the event heap and
        the structure-of-arrays bookkeeping, initializes the thermal
        state and pushes the workload's initial arrivals. Returns
        ``(n_ticks, dt)``. Refuses an engine that has already run.
        """
        if self._has_run:
            raise SchedulerError(
                "this engine has already run; build a fresh engine for "
                "each run (ExperimentRunner.build_engine)"
            )
        cfg = self.config
        if cfg.sampling_interval_s != self.thermal.sampling_interval:
            raise SchedulerError(
                f"sampling_interval_s {cfg.sampling_interval_s} s differs "
                "from the thermal model's sampling_interval "
                f"{self.thermal.sampling_interval} s; build the "
                "ThermalModel with the engine's tick"
            )
        if cfg.fidelity not in FIDELITY_MODES:
            raise SchedulerError(
                f"unknown fidelity {cfg.fidelity!r}; "
                f"expected one of {FIDELITY_MODES}"
            )
        dt = cfg.sampling_interval_s
        n_ticks = int(round(cfg.duration_s / dt))
        if n_ticks < 1:
            raise SchedulerError("duration shorter than one sampling interval")
        self._has_run = True

        tel = cfg.telemetry
        self._obs = NULL_TELEMETRY if tel is None else EngineTelemetry(tel)
        self._prof = self._obs.profiler
        self._reset_micro_counters()
        # Event fidelity runs entirely on the span substrate (lazy
        # spans, trusted heap, materialize-on-touch): every _use_span
        # site is an event-mode site.
        self._use_span = cfg.fidelity == "event"
        self._event_heap = []
        self._finished_cores = []
        self._mem_sum = 0.0
        self._mem_count = 0
        self._alloc_ctx = None
        self._span_tick_ctx = None
        self._util_buf = np.zeros(len(self._core_list))
        for core in self._core_list:
            core.span_start = 0.0
            core.busy_anchor = 0.0
            core.head_mem = None
            self._sync_core_arrays(core)

        self._initialize_thermal_state()
        for time, job in self.workload.initial_arrivals():
            self._push_arrival(time, job)
        return n_ticks, dt

    def _telemetry_snapshot(self, rec: _Recording) -> Dict:
        """Assemble the JSON-ready telemetry payload of a finished run."""
        occupancy = (
            rec.utilization.mean(axis=0) if rec.utilization.size else None
        )
        snap = self._obs.snapshot(self._core_names_tuple, occupancy)
        snap["engine"] = {
            "fidelity": self.config.fidelity,
            "policy": self.policy.name,
            "counters": {
                "heap_push": self._ob_heap_push,
                "heap_invalidate": self._ob_heap_invalidate,
                "heap_pop": self._ob_heap_pop,
                "heap_stale_pop": self._ob_heap_stale,
                "span_touch": self._ob_span_touch,
                "event_jumps": self._ob_event_jumps,
                "event_jump_ticks": self._ob_event_jump_ticks,
                "event_skipped_ticks": self._ob_event_skipped,
                "event_mean_jump_ticks": (
                    self._ob_event_jump_ticks / self._ob_event_jumps
                    if self._ob_event_jumps else 0.0
                ),
                "dpm_sleeps": self._ob_dpm_sleeps,
                "dpm_wakes": self._ob_dpm_wakes,
                "vf_changes": self._ob_vf_changes,
                "gate_changes": self._ob_gate_changes,
            },
        }
        return snap

    def _build_result(self, rec: _Recording, energy: float, dt: float
                      ) -> SimulationResult:
        """Package a finished recording (shared with the batch engine)."""
        return SimulationResult(
            times=rec.times,
            unit_names=list(self.thermal.unit_names),
            unit_temps_k=rec.unit_temps,
            core_names=list(self.core_names),
            core_temps_k=rec.core_temps,
            core_peak_temps_k=rec.core_peaks,
            layer_spreads_k=rec.spreads,
            utilization=rec.utilization,
            vf_indices=rec.vf_indices,
            core_states=rec.core_states,
            total_power_w=rec.total_power,
            energy_j=energy,
            jobs=self._jobs,
            migrations=self._migration_count,
            policy_name=self.policy.name,
            sampling_interval_s=dt,
            telemetry=(
                self._telemetry_snapshot(rec) if self._obs.enabled else None
            ),
        )

    @property
    def telemetry(self):
        """The run's live telemetry sink (``NULL_TELEMETRY`` when off).

        Valid after :meth:`run`; the ``repro trace`` CLI reads the
        recorder from here to export Chrome-trace/JSONL files.
        """
        return self._obs

    def run(self) -> SimulationResult:
        """Execute the configured simulation and return the recording."""
        n_ticks, dt = self._prepare_run()
        rec = _Recording.allocate(self, n_ticks)
        self._temps_arr[:] = self.sensors.read_cores_vector()
        energy = self._run_ticks(rec, n_ticks, dt)
        rec.derive_planes(dt)
        return self._build_result(rec, energy, dt)

    def _gather_utilization(self, dt: float) -> np.ndarray:
        """Per-core busy fraction of the elapsed interval (resets the
        accumulators); one gather over the structure-of-arrays state."""
        core_list = self._core_list
        util_arr = np.fromiter(
            (core.busy_in_tick for core in core_list),
            dtype=np.float64,
            count=len(core_list),
        )
        util_arr = np.minimum(1.0, util_arr / dt)
        for core in core_list:
            core.busy_in_tick = 0.0
        return util_arr

    def _record_tick(
        self,
        rec: _Recording,
        tick: int,
        unit_row: np.ndarray,
        peak_row: np.ndarray,
        util_arr: np.ndarray,
        tick_power: float,
    ) -> None:
        """Write the rows one end-of-interval produces (per-tick path
        and clock jumps alike). The tick's time, core means and die
        spreads are derived once per run
        (:meth:`_Recording.derive_planes`)."""
        rec.unit_temps[tick] = unit_row
        rec.core_peaks[tick] = peak_row[rec.core_cols]
        rec.utilization[tick] = util_arr
        rec.vf_indices[tick] = self._vf_arr
        rec.core_states[tick] = self._state_arr
        rec.total_power[tick] = tick_power

    def _run_ticks(self, rec: _Recording, n_ticks: int, dt: float
                   ) -> float:
        """The tick loop of both fidelities.

        Every tick runs the same pipeline in the paper's order
        (interval, power, thermal, sensors, DPM, policy, record); the
        structure-of-arrays rows are already current at the boundary
        (maintained at the invalidation sites). The fidelities differ
        in three places only:

        - the interval: eager sweeps execution per event
          (:meth:`_advance_interval_heap`, :meth:`_gather_utilization`);
          event advances lazy spans (:meth:`_advance_interval_span`,
          :meth:`_span_utilization`);
        - the thermal step: eager takes the dense ``step_vector``; event
          advances one run-persistent
          :class:`~repro.thermal.model.ModalJump` — the full node state
          is only rematerialized at the end of the run;
        - clock jumps: event crosses every stretch of whole ticks free
          of scheduler events (arrivals, completions, stall expiries)
          in one :meth:`_fast_forward_event` call, however long; the
          jump records exactly what the per-tick path would.

        A policy tick that is a proven no-op (:meth:`_policy_tick_noop`)
        is skipped in both; the skip is exact, so eager stays
        bit-identical to the scan oracle, which calls every tick.
        The post-step readback of tick k is the pre-step temperature of
        tick k+1, so one readback per tick suffices.
        """
        energy = 0.0
        powers_buf = np.zeros(len(self.thermal.unit_names))
        prof = self._prof
        span = self._use_span
        unit_row = self.thermal.unit_temperature_vector()
        modal = self.thermal.modal_jump() if span else None
        self._event_modal = modal
        self._event_modal_open = False
        tick = 0
        while tick < n_ticks:
            t0 = tick * dt
            if span:
                quiet = self._quiet_ticks_event(t0, dt, n_ticks - tick)
                if quiet >= 2:
                    prof.begin()
                    consumed, energy, unit_row = self._fast_forward_event(
                        rec, tick, dt, quiet, powers_buf, unit_row, energy
                    )
                    prof.lap(PH_EVENT_JUMP)
                    tick += consumed
                    prof.tick_done(consumed)
                    continue
            t1 = t0 + dt
            prof.begin()
            if span:
                self._advance_interval_span(t0, t1)
                util_arr = self._span_utilization(dt, t0, t1)
            else:
                self._advance_interval_heap(t0, t1)
                util_arr = self._gather_utilization(dt)
            prof.lap(PH_INTERVAL)

            if span:
                self.power.event_factors(
                    self._state_arr,
                    util_arr,
                    self._dyn_scale_arr,
                    self._voltage_arr,
                    self._memory_intensity(),
                    self._event_power,
                )
                powers_vec = self.power.event_eval(
                    self._event_power, unit_row, powers_buf
                )
            else:
                base, leak_mul = self.power.power_factors(
                    self._state_arr,
                    util_arr,
                    self._dyn_scale_arr,
                    self._voltage_arr,
                    self._memory_intensity(),
                )
                powers_vec = self.power.power_eval(
                    base, leak_mul, unit_row, out=powers_buf
                )
            prof.lap(PH_POWER)
            if modal is not None:
                if not self._event_modal_open:
                    modal.open(powers_vec)
                    self._event_modal_open = True
                mean_row, peak_row = modal.advance(powers_vec)
            else:
                self.thermal.step_vector(powers_vec)
                peak_row = self.thermal.unit_max_vector()
            prof.lap(PH_THERMAL)
            self._temps_arr[:] = self.sensors.read_cores_vector(peak_row)
            prof.lap(PH_SENSORS)

            self._apply_dpm(t1)
            prof.lap(PH_DPM)
            if not self._policy_tick_noop():
                self._run_policy(t1, util_arr)
            prof.lap(PH_POLICY)

            # Record the end-of-interval state.
            if modal is not None:
                unit_row = mean_row
            else:
                unit_row = self.thermal.unit_temperature_vector()
            tick_power = self.power.total_power(powers_vec)
            self._record_tick(
                rec, tick, unit_row, peak_row, util_arr, tick_power
            )
            energy += tick_power * dt
            prof.lap(PH_RECORD)
            tick += 1
            prof.tick_done()
        if self._event_modal_open:
            modal.close()
        self._event_modal = None
        self._event_modal_open = False
        return energy

    # ------------------------------------------------------------------
    # event-fidelity execution

    def _quiet_ticks_event(self, t0: float, dt: float, max_ticks: int
                           ) -> int:
        """Whole upcoming ticks guaranteed free of scheduler events.

        Returns 0 when a jump is not worthwhile or not safe: pending
        completion flags, a stalled busy core (its utilization would
        flip mid-stretch when the stall expires), or an event within the
        next two ticks. The only cap is the end of the run — the clock
        may jump all the way to the next heap event. No thermal gate is
        needed: the jump reprices leakage every tick.
        """
        if self._finished_cores:
            return 0
        horizon = None
        if self._arrivals:
            horizon = self._arrivals[0][0]
        heap = self._event_heap
        cores = self._cores
        while heap:
            cached_time, seq, name = heap[0]
            if cores[name].heap_seq != seq:
                heapq.heappop(heap)
                self._ob_heap_stale += 1
                continue
            if horizon is None or cached_time < horizon:
                horizon = cached_time
            break
        if horizon is None:
            quiet = max_ticks
        else:
            quiet = int((horizon - t0 - _TIME_EPS) / dt)
            if quiet > max_ticks:
                quiet = max_ticks
        if quiet < 2:
            return 0
        for core in self._core_list:
            if (
                core.jobs
                and not core.halted
                and core.stall_until > t0 + _TIME_EPS
            ):
                return 0
        return quiet

    def _event_bulk_ticks(self, t0: float, dt: float, quiet: int) -> int:
        """Prefix of a clock jump whose control calls are provable no-ops.

        Returns the largest ``noctl <= quiet`` such that skipping the
        sensor read, the DPM pass and the policy tick at boundaries
        ``1..noctl`` of the jump cannot change anything eager would
        compute:

        - sensors must be ideal (a noisy read draws from the RNG, so
          skipping it would desync the sample sequence);
        - the policy must declare its tick a no-op
          (:meth:`~repro.core.base.Policy.tick_is_noop`) over the
          queues, which are frozen — no events in the stretch; any
          other ``on_tick`` gets the controlled per-tick path;
        - no awake idle core may cross its DPM sleep timeout inside the
          prefix: the crossing boundary is found by bisection on the
          monotone ``should_sleep`` predicate, so the tick that fires
          the sleep always lands in the controlled region and
          ``_apply_dpm`` acts there exactly as eager does.
        """
        if not self.sensors.ideal:
            return 0
        if not self._policy_tick_noop():
            return 0
        noctl = quiet
        dpm = self.config.dpm
        if dpm is not None:
            for core in self._core_list:
                if core.sleeping or core.jobs:
                    continue
                idle_since = core.idle_since
                if not dpm.should_sleep(t0 + noctl * dt - idle_since):
                    continue
                # Largest i in [0, noctl) with should_sleep still False.
                lo = 0
                hi = noctl - 1
                while lo < hi:
                    mid = (lo + hi + 1) // 2
                    if dpm.should_sleep(t0 + mid * dt - idle_since):
                        hi = mid - 1
                    else:
                        lo = mid
                if dpm.should_sleep(t0 + lo * dt - idle_since):
                    lo = 0
                noctl = lo
                if noctl == 0:
                    return 0
        return noctl

    def _policy_tick_noop(self) -> bool:
        """True when the policy tick at this boundary provably returns
        no actions and mutates no state, so skipping the call cannot
        change anything the call would compute. The policy declares
        this (:meth:`~repro.core.base.Policy.tick_is_noop`) from the
        queue lengths. A pending un-gate sweep (``_any_gated``)
        disqualifies the skip: a policy that gates never declares a
        no-op tick, but the guard keeps the proof local."""
        if self._any_gated:
            return False
        return self.policy.tick_is_noop(self._ql_list)

    def _fast_forward_event(
        self,
        rec: _Recording,
        tick: int,
        dt: float,
        quiet: int,
        powers_buf: np.ndarray,
        unit_row: np.ndarray,
        energy: float,
    ) -> Tuple[int, float, np.ndarray]:
        """Cross up to ``quiet`` event-free ticks in one clock jump.

        The jump always proceeds and covers the whole stretch unless a
        control call mutates state, which closes it at the acting tick.
        It is an exact shortcut: every array, the run's energy and the
        job list come out bit for bit as if the per-tick path had run
        the same ticks (``tests/test_engine_event.py`` runs both).

        Power is repriced every tick: the event power factors
        (:meth:`~repro.power.chip_power.ChipPowerModel.event_factors`,
        into the run's own buffers) are computed once for the jump —
        exact while states, utilization and V/f are frozen, which the
        quiet stretch guarantees, and the same bits the per-tick path
        computes from the same inputs — and ``event_eval``
        re-evaluates the temperature-dependent leakage at the evolving
        unit readback.
        The thermal advance is the run-persistent reduced-order modal
        stepper (:meth:`~repro.thermal.model.ModalJump.advance`, owned
        by :meth:`_run_ticks`): each tick is an exact steady-point
        repricing, a modal decay, one readback GEMV and a core
        max-reduce — within the basis acceptance tolerance of the dense
        step at a fraction of its cost.

        Control calls are skipped for the provable-no-op prefix
        computed by :meth:`_event_bulk_ticks` and run on reconstructed
        observations after it. Each tick's ``power * dt`` is added to
        the run's running ``energy`` in tick order, as the per-tick
        path adds it. Returns
        ``(ticks_consumed, energy, last_unit_row)``.
        """
        core_list = self._core_list
        util_arr = self._util_buf
        util_arr.fill(0.0)
        for core in core_list:
            if core.jobs and not core.halted:
                util_arr[core.idx] = 1.0
        factors = self._event_power
        self.power.event_factors(
            self._state_arr,
            util_arr,
            self._dyn_scale_arr,
            self._voltage_arr,
            self._memory_intensity(),
            factors,
        )
        t0 = tick * dt
        noctl = self._event_bulk_ticks(t0, dt, quiet)
        power = self.power
        sensors = self.sensors
        modal = self._event_modal
        self._span_dirty = False
        self._in_fast_forward = True
        consumed = 0
        skipped = 0
        mean_row = unit_row
        peak_row = unit_row
        try:
            for i in range(1, quiet + 1):
                powers_vec = power.event_eval(factors, mean_row, powers_buf)
                if not self._event_modal_open:
                    modal.open(powers_vec)
                    self._event_modal_open = True
                mean_row, peak_row = modal.advance(powers_vec)
                if i <= noctl:
                    skipped += 1
                else:
                    # Same float arithmetic as the per-tick loops (t0 +
                    # dt for the absolute tick), so policy and DPM
                    # timestamps match the eager ones bitwise.
                    t_i = (tick + i - 1) * dt + dt
                    self._temps_arr[:] = sensors.read_cores_vector(peak_row)
                    self._apply_dpm(t_i)
                    if not self._policy_tick_noop():
                        self._run_policy(t_i, util_arr)
                tick_power = power.total_power(powers_vec)
                self._record_tick(
                    rec, tick + i - 1, mean_row, peak_row, util_arr,
                    tick_power,
                )
                energy += tick_power * dt
                consumed = i
                if self._span_dirty:
                    break
            t_end = (tick + consumed - 1) * dt + dt
            if skipped == consumed:
                # Every executed boundary was control-skipped: refresh
                # the sensor rows to what eager's last read would have
                # left (ideal read — noctl > 0 guarantees it — so this
                # is a plain gather, no RNG involved).
                self._temps_arr[:] = sensors.read_cores_vector(peak_row)
            # Close the busy accounting at the jump end, as
            # _span_utilization does at every tick boundary; the
            # consumed ticks' utilization was recorded in closed form
            # above. Spans stay lazy: the per-tick path never
            # materializes a span at a boundary either, and doing so
            # would re-round the head job's remaining work.
            for core in core_list:
                core.busy_anchor = t_end
                core.busy_in_tick = 0.0
        finally:
            self._in_fast_forward = False
        self._ob_event_jumps += 1
        self._ob_event_jump_ticks += consumed
        self._ob_event_skipped += skipped
        self._obs.event_jump(t_end, consumed)
        return consumed, energy, mean_row

    def _advance_interval_span(self, t0: float, t1: float) -> None:
        """Span-substrate interval loop: trusted event pops, lazy execution.

        Cached completion times are exact on the span substrate — nothing
        touches a running job between its own invalidation sites — so
        the loop pops events straight off the heap (no
        recompute-on-pop) and materializes only the affected cores;
        there is no per-boundary all-core execution sweep.
        """
        now = t0
        arrivals = self._arrivals
        heap = self._event_heap
        cores = self._cores
        while now < t1 - _TIME_EPS:
            next_time = t1
            if arrivals and arrivals[0][0] < next_time:
                next_time = arrivals[0][0]
            cached_time = None
            while heap:
                cached_time, seq, name = heap[0]
                if cores[name].heap_seq != seq:
                    heapq.heappop(heap)  # stale entry
                    self._ob_heap_stale += 1
                    cached_time = None
                    continue
                if cached_time < next_time:
                    next_time = cached_time
                break
            if next_time < now:
                next_time = now
            elif next_time > t1:
                next_time = t1
            now = next_time
            if cached_time is not None and cached_time <= now + _TIME_EPS:
                self._pop_due_completions(now)
            if self._finished_cores:
                self._process_completions(now)
            if arrivals and arrivals[0][0] <= now + _TIME_EPS:
                self._process_arrivals(now)

    def _pop_due_completions(self, now: float) -> None:
        """Consume every live heap event due at ``now`` and materialize
        the owning cores (their heads complete here, up to eps-scale
        boundary coincidences, which re-arm)."""
        heap = self._event_heap
        cores = self._cores
        due = now + _TIME_EPS
        while heap:
            cached_time, seq, name = heap[0]
            core = cores[name]
            if seq != core.heap_seq:
                heapq.heappop(heap)
                self._ob_heap_stale += 1
                continue
            if cached_time > due:
                break
            heapq.heappop(heap)
            self._ob_heap_pop += 1
            core.heap_seq += 1
            self._touch_core(core, now)
            if not (core.jobs and core.jobs[0].remaining_s <= _TIME_EPS):
                self._invalidate_event(core, now)

    def _touch_core(self, core: _CoreRuntime, now: float) -> None:
        """Materialize a core's lazy span up to ``now``.

        Called at every site that mutates what the span compiled over
        — dispatch, completion, migration, V/f or gating change, DPM
        transition — and at due completion events. Decrements the head
        job's remaining work in one closed-form update and accounts
        the unaccounted busy time (suppressed during a clock jump,
        which records utilization in closed form instead).
        """
        start = core.span_start
        if now <= start:
            return
        self._ob_span_touch += 1
        if core.jobs and not core.halted:
            stall = core.stall_until
            exec_start = start if start >= stall else stall
            if now > exec_start:
                job = core.jobs[0]
                remaining = job.remaining_s - (now - exec_start) * core.speed
                if remaining <= _TIME_EPS:
                    remaining = 0.0
                    self._finished_cores.append(core)
                job.remaining_s = remaining
                if not self._in_fast_forward:
                    busy_from = core.busy_anchor
                    if busy_from < exec_start:
                        busy_from = exec_start
                    if now > busy_from:
                        core.busy_in_tick += now - busy_from
        core.span_start = now
        core.busy_anchor = now

    def _span_utilization(self, dt: float, t0: float, t1: float
                          ) -> np.ndarray:
        """Closed-form per-core busy fraction of the tick ``[t0, t1]``
        (resets the accumulators; the span twin of
        :meth:`_gather_utilization`). Fills and returns the persistent
        utilization buffer the span tick context views.

        A core that runs through the whole tick with nothing accounted
        yet counts exactly ``dt`` busy, so its utilization is exactly
        1.0 — the value a clock jump records for it. ``t1`` minus the
        previous boundary can be an ulp short of ``dt``.
        """
        core_list = self._core_list
        util_arr = self._util_buf
        whole = t0 + _TIME_EPS
        idx = 0
        for core in core_list:
            busy = core.busy_in_tick
            if core.jobs and not core.halted:
                start = core.busy_anchor
                stall = core.stall_until
                if start < stall:
                    start = stall
                if busy == 0.0 and start <= whole:
                    busy = dt
                elif t1 > start:
                    busy += t1 - start
            core.busy_anchor = t1
            core.busy_in_tick = 0.0
            util_arr[idx] = busy
            idx += 1
        np.divide(util_arr, dt, out=util_arr)
        np.minimum(util_arr, 1.0, out=util_arr)
        return util_arr

    def _next_core_event_span(
        self, core: _CoreRuntime
    ) -> Optional[float]:
        """Completion time of the core's lazy span (exact while the
        span stays untouched — the heap can trust it)."""
        jobs = core.jobs
        if not jobs or core.halted:
            return None
        stall = core.stall_until
        start = core.span_start if core.span_start >= stall else stall
        return start + jobs[0].remaining_s / core.speed

    # ------------------------------------------------------------------
    # initialization

    def _initialize_thermal_state(self) -> None:
        """Steady-state warm start (the paper initializes HotSpot so):
        every core active at ``warmup_utilization`` and the nominal V/f
        level, leakage at ambient.

        Both load inputs come from outside the engine (the config and
        the workload plug-in) and the power kernel does not range-check,
        so they are checked here, before any arrival or tick.
        """
        utilization = _check_fraction(
            "EngineConfig.warmup_utilization", self.config.warmup_utilization
        )
        memory_intensity = _check_fraction(
            "workload memory_intensity()", self.workload.memory_intensity()
        )
        self.thermal.initialize_steady_state(
            self.power.uniform_load(
                utilization,
                self.vf_table[self.vf_table.nominal_index],
                memory_intensity,
                self.thermal.ambient_k,
            )
        )

    # ------------------------------------------------------------------
    # discrete-event interval execution

    def _push_arrival(self, time: float, job: Job) -> None:
        seq = self._arrival_seq
        self._arrival_seq = seq + 1
        heapq.heappush(self._arrivals, (time, seq, job))
        self._jobs.append(job)
        self._obs.job_arrival(time, job)

    def _advance_interval_heap(self, t0: float, t1: float) -> None:
        """Event-heap interval loop.

        Each core's next completion time is cached in ``_event_heap``
        and only invalidated (sequence bump + fresh push) when the
        core's state changes. Finding the next event pops the earliest
        live entry and recomputes that single core — the recompute
        guards against the ulp-level drift a cached absolute time
        accumulates as the running job's remaining work is re-rounded
        at intermediate boundaries, keeping boundary times bit-identical
        to an all-core rescan (the test-only scan oracle).
        """
        now = t0
        heap = self._event_heap
        cores = self._cores
        while now < t1 - _TIME_EPS:
            next_time = t1
            # Earliest arrival.
            if self._arrivals and self._arrivals[0][0] < next_time:
                next_time = max(self._arrivals[0][0], now)
            # Earliest cached core event, recomputed on pop.
            best: Optional[float] = None
            while heap:
                cached_time, seq, name = heap[0]
                core = cores[name]
                if seq != core.heap_seq:
                    heapq.heappop(heap)  # stale entry
                    self._ob_heap_stale += 1
                    continue
                if best is not None and best <= cached_time:
                    break
                heapq.heappop(heap)
                self._ob_heap_pop += 1
                core.heap_seq += 1
                event = self._next_core_event(core, now)
                if event is not None:
                    heapq.heappush(heap, (event, core.heap_seq, name))
                    self._ob_heap_push += 1
                    if best is None or event < best:
                        best = event
            if best is not None and best < next_time:
                next_time = best
            next_time = min(max(next_time, now), t1)

            self._execute(now, next_time)
            now = next_time
            self._process_completions(now)
            self._process_arrivals(now)

    def _sync_core_arrays(self, core: _CoreRuntime) -> None:
        """Refresh one core's full row of the structure-of-arrays state."""
        self._sync_queue_state(core)
        self._sync_vf_row(core)

    def _sync_vf_row(self, core: _CoreRuntime) -> None:
        """Refresh the V/f-derived row entries (V/f changes only)."""
        i = core.idx
        vf = core.vf_index
        self._vf_arr[i] = vf
        self._dyn_scale_arr[i] = self._vf_dyn_scale[vf]
        self._voltage_arr[i] = self._vf_voltage[vf]

    def _sync_queue_state(self, core: _CoreRuntime) -> None:
        """Refresh the queue-length/state row entries.

        Split from the V/f row because queue and state flip at every
        dispatch/completion while the V/f level changes only at policy
        actions — the split keeps the per-event sync to two array
        writes. The state code is computed inline, in the power
        model's precedence order: sleep, gated, active, idle.
        """
        i = core.idx
        jobs = core.jobs
        ql = len(jobs)
        self._ql_arr[i] = ql
        self._ql_list[i] = ql
        if core.sleeping:
            code = _SLEEP_CODE
        elif core.gated:
            code = _GATED_CODE
        elif jobs:
            code = _ACTIVE_CODE
        else:
            code = _IDLE_CODE
        self._state_arr[i] = code
        self._state_list[i] = code
        if self._use_span:
            # Incremental head-job memory-intensity accumulator: queue
            # heads only change at sites that sync this row, so the
            # span substrate reads the mix intensity in O(1) instead of
            # sweeping every core each tick.
            new_mem = jobs[0].benchmark.memory_intensity if jobs else None
            old_mem = core.head_mem
            if old_mem is None:
                if new_mem is not None:
                    self._mem_sum += new_mem
                    self._mem_count += 1
            elif new_mem is None:
                self._mem_sum -= old_mem
                self._mem_count -= 1
                if not self._mem_count:
                    self._mem_sum = 0.0  # shed accumulated drift
            elif new_mem != old_mem:
                self._mem_sum += new_mem - old_mem
            core.head_mem = new_mem

    def _adopt_core_rows(
        self,
        ql_row: np.ndarray,
        state_row: np.ndarray,
        vf_row: np.ndarray,
        temps_row: np.ndarray,
        dyn_row: np.ndarray,
        volt_row: np.ndarray,
    ) -> None:
        """Re-home the structure-of-arrays state onto caller-owned rows.

        The batched engine owns one ``(R, n_cores)`` matrix per field
        and hands each lane its row, so every invalidation-site update
        writes straight into the batch matrices and the tick boundary
        reads them with zero per-lane gathering. Current values are
        copied over and the live Mapping views are rebuilt against the
        new storage.
        """
        ql_row[:] = self._ql_arr
        state_row[:] = self._state_arr
        vf_row[:] = self._vf_arr
        temps_row[:] = self._temps_arr
        dyn_row[:] = self._dyn_scale_arr
        volt_row[:] = self._voltage_arr
        self._alloc_ctx = None  # views below are re-homed
        self._span_tick_ctx = None
        self._ql_arr = ql_row
        self._state_arr = state_row
        self._vf_arr = vf_row
        self._temps_arr = temps_row
        self._dyn_scale_arr = dyn_row
        self._voltage_arr = volt_row
        self._alloc_queue_view = ArrayBackedMapping(
            self._core_index, self._ql_arr, int
        )
        self._alloc_temp_view = ArrayBackedMapping(
            self._core_index, self._temps_arr, float
        )
        self._alloc_state_view = ArrayBackedMapping(
            self._core_index, self._state_arr, state_from_code
        )

    def _invalidate_event(self, core: _CoreRuntime, now: float) -> None:
        """Drop the core's cached event and push a fresh one (if any).

        Call sites are every mutation that changes when the core's
        running job completes: dispatch, completion pop, migration
        (source and destination), V/f change, gating flip, and sleep
        transitions. The structure-of-arrays row (queue length, state
        code, V/f level) is synced here too, since its inputs change at
        exactly these sites.
        """
        self._sync_queue_state(core)
        core.heap_seq += 1
        self._ob_heap_invalidate += 1
        if self._use_span:
            # Invalidation implies a state mutation — close any open
            # clock jump — and the fresh event is computed from the
            # span anchor (every mutation site materializes first, so
            # the cached time stays exact until the next invalidation).
            self._span_dirty = True
            self._obs.span_close(now, core.idx)
            event = self._next_core_event_span(core)
        else:
            event = self._next_core_event(core, now)
        if event is not None:
            heapq.heappush(
                self._event_heap, (event, core.heap_seq, core.name)
            )
            self._ob_heap_push += 1

    def _next_core_event(self, core: _CoreRuntime, now: float) -> Optional[float]:
        jobs = core.jobs
        if not jobs or core.halted:
            return None
        stall = core.stall_until
        start = now if now >= stall else stall
        return start + jobs[0].remaining_s / core.speed

    def _execute(self, start: float, end: float) -> None:
        # A vectorized (structure-of-arrays) variant of this loop was
        # measured ~2x slower at the paper's core counts: ~12 NumPy ops
        # of fixed ~1 us overhead lose to 16 trivial loop bodies. Span
        # execution therefore stays scalar; see docs/ENGINE.md.
        if end <= start + _TIME_EPS:
            return
        finished = self._finished_cores
        for core in self._core_list:
            if core.halted:
                continue
            jobs = core.jobs
            if not jobs:
                continue
            stall = core.stall_until
            exec_start = start if start >= stall else stall
            exec_time = end - exec_start
            if exec_time <= 0.0:
                continue
            speed = core.speed
            job = jobs[0]
            remaining = job.remaining_s
            available = exec_time * speed
            done = remaining if remaining <= available else available
            remaining -= done
            job.remaining_s = remaining
            core.busy_in_tick += done / speed
            if remaining <= _TIME_EPS:
                finished.append(core)

    def _process_completions(self, now: float) -> None:
        # Only cores flagged since the last call can hold a finished
        # head: _execute flags the crossing, and _dispatch /
        # _place_migrated flag the (degenerate) arrival of an
        # already-finished head. _core_list order is preserved because
        # _execute iterates it in order.
        finished = self._finished_cores
        if not finished:
            return
        self._finished_cores = []
        use_span = self._use_span
        for core in finished:
            jobs = core.jobs
            if not jobs or jobs[0].remaining_s > _TIME_EPS:
                continue
            if use_span:
                # Heads reaching this path were just materialized to
                # zero remaining work; pop them without the re-checks.
                pop = core.queue.pop_head
                while jobs and jobs[0].remaining_s <= _TIME_EPS:
                    job = pop()
                    job.completion_time = now
                    self._thread_last_core[job.thread_id] = core.name
                    self._obs.job_complete(now, job, core.idx)
                    follow_up = self.workload.on_completion(job, now)
                    if follow_up is not None:
                        self._push_arrival(*follow_up)
                if not jobs:
                    core.idle_since = now
                else:
                    self._obs.job_start(now, jobs[0], core.idx)
                self._invalidate_event(core, now)
                continue
            while True:
                job = core.queue.running
                if job is None or job.remaining_s > _TIME_EPS:
                    break
                job = core.queue.pop_finished()
                job.completion_time = now
                self._thread_last_core[job.thread_id] = core.name
                self._obs.job_complete(now, job, core.idx)
                follow_up = self.workload.on_completion(job, now)
                if follow_up is not None:
                    self._push_arrival(*follow_up)
                if len(core.queue) == 0:
                    core.idle_since = now
            if core.jobs:
                self._obs.job_start(now, core.jobs[0], core.idx)
            self._invalidate_event(core, now)

    def _process_arrivals(self, now: float) -> None:
        while self._arrivals and self._arrivals[0][0] <= now + _TIME_EPS:
            _, _, job = heapq.heappop(self._arrivals)
            self._dispatch(job, now)

    def _allocation_context(self, job: Job, now: float) -> AllocationContext:
        """The context ``select_core`` places ``job`` with.

        One frozen shell per run whose payloads are live views of the
        structure-of-arrays rows (synced in :meth:`_invalidate_event`
        and at the tick boundary, so they mirror the queues, core states
        and sensor reads exactly); only the scalars move between calls.
        """
        ctx = self._alloc_ctx
        if ctx is None:
            ctx = AllocationContext(
                time=now,
                queue_lengths=self._alloc_queue_view,
                temperatures_k=self._alloc_temp_view,
                states=self._alloc_state_view,
                last_core=self._thread_last_core.get(job.thread_id),
                core_names=self._core_names_tuple,
                temperatures_vec=self._temps_arr,
                queue_lengths_list=self._ql_list,
                state_codes_list=self._state_list,
            )
            self._alloc_ctx = ctx
        else:
            object.__setattr__(ctx, "time", now)
            object.__setattr__(
                ctx, "last_core", self._thread_last_core.get(job.thread_id)
            )
        return ctx

    def _dispatch(self, job: Job, now: float) -> None:
        target = self.policy.select_core(
            job, self._allocation_context(job, now)
        )
        if target not in self._cores:
            raise SchedulerError(
                f"policy {self.policy.name} selected unknown core {target!r}"
            )
        core = self._cores[target]
        if self._use_span:
            if core.jobs:
                # Tail insert behind a running head: the cached
                # completion event stays valid (a core with queued work
                # is never sleeping), so only the queue row changes.
                core.queue.push(job)
                self._sync_queue_state(core)
                self._obs.job_dispatch(now, job, core.idx)
                return
            self._touch_core(core, now)
        if core.sleeping:
            core.sleeping = False
            core.halted = core.gated
            wake = self.config.dpm.wake_latency_s if self.config.dpm else 0.0
            core.stall_until = max(core.stall_until, now + wake)
            self._ob_dpm_wakes += 1
            self._obs.dpm_wake(now, core.idx)
        core.queue.push(job)
        if job.remaining_s <= _TIME_EPS and len(core.jobs) == 1:
            # Degenerate zero-work job became the head without ever
            # executing; flag it so completion processing still sees
            # it.
            self._finished_cores.append(core)
        self._invalidate_event(core, now)
        self._obs.job_dispatch(now, job, core.idx)
        if len(core.jobs) == 1:
            self._obs.job_start(now, job, core.idx)

    # ------------------------------------------------------------------
    # tick-boundary control

    def _apply_dpm(self, now: float) -> None:
        dpm = self.config.dpm
        if dpm is None:
            return
        for core in self._core_list:
            if core.sleeping or len(core.queue) > 0:
                continue
            if dpm.should_sleep(now - core.idle_since):
                if self._use_span:
                    self._touch_core(core, now)
                core.sleeping = True
                core.halted = True
                self._invalidate_event(core, now)
                self._ob_dpm_sleeps += 1
                self._obs.dpm_sleep(now, core.idx)

    def _tick_context(
        self, now: float, util_arr: Optional[np.ndarray]
    ) -> TickContext:
        """The context ``on_tick`` decides on at the boundary ``now``."""
        if self._use_span:
            # The span substrate hands policies live views of the
            # engine's own row state through one persistent context
            # shell: no snapshot copies, no per-tick context objects.
            # Values at ``on_tick`` time equal the eager snapshots
            # (nothing mutates between the gather and the call);
            # policies must not hold the arrays across ticks (the
            # registry policies do not).
            ctx = self._span_tick_ctx
            if ctx is None:
                snap = TickArrays(
                    core_names=self._core_names_tuple,
                    temperature_k=self._temps_arr,
                    utilization=self._util_buf,
                    state_codes=self._state_arr,
                    vf_index=self._vf_arr,
                    queue_length=self._ql_arr,
                )
                ctx = TickContext(
                    time=now,
                    cores=SnapshotArrayMapping(self._core_index, snap),
                    arrays=snap,
                )
                self._span_tick_ctx = ctx
            else:
                object.__setattr__(ctx, "time", now)
            return ctx
        # Structure-of-arrays snapshot: policies decide on the arrays,
        # and the CoreSnapshot mapping (the custom-policy interface) is
        # materialized only on access.
        arrays = TickArrays(
            core_names=self._core_names_tuple,
            temperature_k=self._temps_arr.copy(),
            utilization=util_arr.copy(),
            state_codes=self._state_arr.copy(),
            vf_index=self._vf_arr.copy(),
            queue_length=self._ql_arr.copy(),
        )
        return TickContext(
            time=now,
            cores=SnapshotArrayMapping(self._core_index, arrays),
            arrays=arrays,
        )

    def _run_policy(
        self, now: float, util_arr: Optional[np.ndarray] = None
    ) -> None:
        ctx = self._tick_context(now, util_arr)
        actions = self.policy.on_tick(ctx)

        for name, level in actions.vf_settings.items():
            core = self._cores[name]
            if core.vf_index != level:
                # Indexing the table validates the new level.
                self._apply_vf_level(
                    core, level, self.vf_table[level].frequency, now
                )

        gated = set(actions.gated)
        if gated or self._any_gated:
            for name, core in self._cores.items():
                is_gated = name in gated
                if core.gated != is_gated:
                    if self._use_span:
                        self._touch_core(core, now)
                    core.gated = is_gated
                    core.halted = is_gated or core.sleeping
                    self._invalidate_event(core, now)
                    self._ob_gate_changes += 1
                    self._obs.gate_change(now, core.idx, is_gated)
            self._any_gated = bool(gated)

        for migration in actions.migrations:
            self._migrate(migration, now)

    def _apply_vf_level(
        self, core: _CoreRuntime, level: int, speed: float, now: float
    ) -> None:
        """Commit one core's V/f transition (caller checked it changed).

        Single writer for V/f state: the policy application loop above
        and the batch engine's stacked DVFS tick both route through
        here, so the span touch / row sync / heap invalidation /
        telemetry sequence cannot drift between the two paths.
        """
        if self._use_span:
            self._touch_core(core, now)
        core.vf_index = level
        core.speed = speed
        self._sync_vf_row(core)
        self._invalidate_event(core, now)
        self._ob_vf_changes += 1
        self._obs.vf_change(now, core.idx, level)

    def _migrate(self, migration: Migration, now: float) -> None:
        src = self._cores[migration.source]
        dst = self._cores[migration.destination]
        if len(src.queue) == 0:
            return
        if self._use_span:
            # Materialize both ends before any job moves: the stolen
            # head's progress and the swap victim's progress are lazy.
            self._touch_core(src, now)
            self._touch_core(dst, now)
        if migration.move_running:
            job = src.queue.steal()
        else:
            queued = src.queue.jobs()
            if len(queued) == 1:
                # The only queued job is the running one and the policy
                # asked not to preempt it — nothing to migrate.
                return
            job = src.queue.steal(queued[-1])

        swapped: Optional[Job] = None
        if migration.swap and len(dst.queue) > 0:
            swapped = dst.queue.steal()

        self._place_migrated(job, dst, now)
        self._obs.migration(now, job, src.idx, dst.idx,
                            migration.move_running)
        if swapped is not None:
            self._place_migrated(swapped, src, now)
            self._obs.migration(now, swapped, dst.idx, src.idx, True)
        self._invalidate_event(src, now)
        if src.jobs:
            # Stealing the head (or swapping one in) promoted a new
            # head on the source; telemetry marks its start.
            self._obs.job_start(now, src.jobs[0], src.idx)

    def _place_migrated(self, job: Job, core: _CoreRuntime, now: float) -> None:
        cost = self.config.migration_cost_s
        if self._use_span:
            self._touch_core(core, now)
        if core.sleeping:
            core.sleeping = False
            core.halted = core.gated
            wake = self.config.dpm.wake_latency_s if self.config.dpm else 0.0
            cost += wake
            self._ob_dpm_wakes += 1
            self._obs.dpm_wake(now, core.idx)
        core.queue.push(job)
        if core.jobs[0].remaining_s <= _TIME_EPS:
            # A finished head landed here without executing (possible
            # only for degenerate zero-work jobs); keep it visible to
            # completion processing.
            self._finished_cores.append(core)
        core.stall_until = max(core.stall_until, now + cost)
        job.migrations += 1
        self._migration_count += 1
        self._invalidate_event(core, now)
        if len(core.jobs) == 1:
            self._obs.job_start(now, job, core.idx)

    # ------------------------------------------------------------------

    def _memory_intensity(self) -> float:
        if self._use_span:
            if not self._mem_count:
                return 0.0
            return self._mem_sum / self._mem_count
        running = [
            core.jobs[0].benchmark.memory_intensity
            for core in self._core_list
            if core.jobs
        ]
        if not running:
            return 0.0
        return sum(running) / len(running)
