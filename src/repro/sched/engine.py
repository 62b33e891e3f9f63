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

Two interval-execution loops are provided, selected by
``EngineConfig.event_loop``:

- ``"event_heap"`` (default): each core's next completion time is
  cached in an indexed min-heap and invalidated lazily whenever the
  core's state changes (dispatch, completion, migration, V/f change,
  gating, sleep). Advancing to the next event pops the earliest cached
  entry and recomputes only that core, instead of rescanning every
  core on every event. Per-core bookkeeping (head-job remaining work,
  speed, stall deadline, queue length, state code, sensor reading) is
  kept in parallel NumPy arrays maintained at the same invalidation
  sites, so interval execution is a few vector expressions, dispatch
  contexts are live array views instead of dict copies, and the tick
  boundary uses the vectorized power/thermal path (no per-unit dicts).
- ``"legacy_scan"``: the original O(events x cores) scan with the
  dict-based power pipeline, kept for differential testing; both loops
  produce bit-identical :class:`SimulationResult` arrays (covered by
  ``tests/test_engine_heap.py``).

Orthogonally, ``EngineConfig.fidelity`` selects how strictly the
interval execution reproduces the eager reference semantics:

- ``"eager"`` (default): the loops above, with their bit-identity
  contracts (heap vs scan, batch vs serial) intact.
- ``"event"`` (opt-in, approximate-equality): the clock jumps between
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
  the propagator) — falling back to the dense ``step_vector`` only when
  the assembly has no accepted basis — with leakage repriced each tick
  from the evolving unit readback via the affine power decomposition
  (:meth:`~repro.power.chip_power.ChipPowerModel.quiet_power_factors`),
  so per-tick recording stays dense; the tolerance sources are the
  closed-form utilization fill and the basis truncation.
  Sensor/DPM/policy control calls are skipped for the prefix of the
  jump where they are provably no-ops (ideal sensors, identity policy
  tick, DPM sleep horizon bounded by bisection) and run on
  reconstructed observations after that; the first mutation closes the
  jump at the acting tick. Deviations from eager execution are bounded
  at the documented tolerance (``docs/ENGINE.md``); the differential
  harness lives in ``tests/test_engine_event.py``.
"""

from __future__ import annotations

import heapq
import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.base import (
    AllocationContext,
    ArrayBackedMapping,
    CoreSnapshot,
    Migration,
    Policy,
    SnapshotArrayMapping,
    SystemView,
    TickArrays,
    TickContext,
    state_from_code,
)
from repro.core.default import IMBALANCE_THRESHOLD, DefaultLoadBalancing
from repro.errors import CheckpointError, SchedulerError
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
from repro.power.chip_power import ChipPowerModel, CoreActivity
from repro.power.states import STATE_CODE, CoreState
from repro.power.vf import DEFAULT_VF_TABLE, VFTable
from repro.sched.dpm import FixedTimeoutDPM
from repro.sched.queue import DispatchQueue
from repro.sched.workload_source import WorkloadSource
from repro.thermal.model import ThermalModel
from repro.thermal.solver import SOLVER_METHODS
from repro.thermal.sensors import SensorBank
from repro.workload.job import Job

_TIME_EPS = 1e-9

# Inline state codes for the hot-path row sync (match power_state()).
_IDLE_CODE = STATE_CODE[CoreState.IDLE]
_ACTIVE_CODE = STATE_CODE[CoreState.ACTIVE]
_GATED_CODE = STATE_CODE[CoreState.GATED]
_SLEEP_CODE = STATE_CODE[CoreState.SLEEP]

DEFAULT_MIGRATION_COST_S = 0.001

EVENT_LOOPS = ("event_heap", "legacy_scan")

FIDELITY_MODES = ("eager", "event")


@dataclass(frozen=True)
class EngineConfig:
    """Run parameters of one simulation.

    Attributes
    ----------
    duration_s:
        Simulated time.
    sampling_interval_s:
        Sensor sampling / scheduling tick (paper: 100 ms).
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
        Uniform core utilization assumed for the steady-state
        initialization of the thermal model.
    event_loop:
        ``"event_heap"`` (default) or ``"legacy_scan"`` — the debug
        flag keeping the old all-core rescan loop available for
        differential testing.
    thermal_solver:
        Transient integrator for the thermal step: ``"exponential"``
        (default — exact under the engine's piecewise-constant power
        contract), ``"backward_euler"`` or ``"crank_nicolson"``.
    fidelity:
        ``"eager"`` (default — per-event execution sweeps, keeps the
        bit-identity contracts) or ``"event"`` (lazy per-core span
        execution with trusted completion events; the clock jumps
        between heap events, control calls skipped where provably
        no-ops; approximately equal to eager within the documented
        tolerance). Event mode requires the event-heap loop.
    telemetry:
        Optional :class:`~repro.obs.telemetry.TelemetryConfig`. ``None``
        (default) disables all instrumentation — the engine holds the
        no-op telemetry singleton and the hot loop pays nothing beyond
        plain integer micro-counters. Telemetry is strictly
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
    event_loop: str = "event_heap"
    thermal_solver: str = "exponential"
    fidelity: str = "eager"
    telemetry: Optional[TelemetryConfig] = None


class _CoreRuntime:
    """Mutable per-core scheduling state."""

    __slots__ = (
        "name", "idx", "queue", "jobs", "vf_index", "speed", "gated",
        "sleeping", "halted", "idle_since", "stall_until", "busy_in_tick",
        "last_utilization", "heap_seq", "span_start", "busy_anchor",
        "head_mem",
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
        self.last_utilization = 0.0
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

    def executing(self, now: float) -> bool:
        """Whether the core makes progress at time ``now``."""
        return (
            len(self.queue) > 0
            and not self.gated
            and not self.sleeping
            and now >= self.stall_until - _TIME_EPS
        )

    def power_state(self) -> CoreState:
        """State used by the power model for the elapsed interval."""
        if self.sleeping:
            return CoreState.SLEEP
        if self.gated:
            return CoreState.GATED
        if len(self.queue) > 0:
            return CoreState.ACTIVE
        return CoreState.IDLE


@dataclass
class SimulationResult:
    """Everything recorded during one run (input to the metrics layer).

    Temperature series are in kelvin. Rows are sampling ticks.
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
    jobs: List[Job] = field(default_factory=list)
    migrations: int = 0
    policy_name: str = ""
    sampling_interval_s: float = 0.1
    #: JSON-ready telemetry snapshot (registry, job stats, phases,
    #: engine counters) when the run was instrumented; ``None``
    #: otherwise. Persisted as ``telemetry.json`` by the result store.
    telemetry: Optional[Dict] = None

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
    die_slices: List[slice]
    die_starts: np.ndarray

    @classmethod
    def allocate(cls, engine: "SimulationEngine", n_ticks: int) -> "_Recording":
        unit_names = engine.thermal.unit_names
        n_units = len(unit_names)
        n_cores = len(engine.core_names)
        n_dies = engine.thermal.n_dies
        # Recording layout, computed once: the thermal model's vector
        # readback is already in unit_names order, so a core->column
        # gather and per-die slices replace per-tick name lookups.
        unit_index = {name: i for i, name in enumerate(unit_names)}
        core_cols = np.fromiter(
            (unit_index[name] for name in engine.core_names),
            dtype=np.intp,
            count=n_cores,
        )
        die_slices = engine.thermal.die_unit_slices()
        # die_slices are contiguous and ordered, so per-die max/min
        # reduce to one reduceat pair over a unit row.
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
            die_slices=die_slices,
            die_starts=die_starts,
        )


class SimulationEngine:
    """One policy, one workload, one 3D system — run to completion.

    The class doubles as the per-run state machine of the batched
    multi-run engine (:class:`repro.sched.batch.BatchSimulationEngine`):
    scheduler state, interval execution, DPM and policy control are all
    per-run methods here, while the batch engine replaces only the
    tick-boundary power/thermal/readback calls with blocked ones."""

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
        # Plain int (not itertools.count): the arrival tiebreaker is
        # part of the checkpointable state and must pickle.
        self._arrival_seq = 0
        self._jobs: List[Job] = []
        self._thread_last_core: Dict[int, str] = {}
        self._sensor_temps: Dict[str, float] = {}
        self._migration_count = 0

        # Telemetry: lifecycle hooks fan out through _obs (the shared
        # no-op singleton when off), per-tick phases through _prof.
        # The truly hot decision sites bump the plain-int _ob_*
        # micro-counters below unconditionally — an int add is cheaper
        # than any call or branch and can never perturb a decision.
        self._obs = NULL_TELEMETRY
        self._prof = NULL_PROFILER
        self._reset_micro_counters()

        # Event heap of (cached completion time, core.heap_seq, name);
        # maintained only when the event_heap loop is active.
        self._event_heap: List[Tuple[float, int, str]] = []
        self._use_heap = False
        # Cores whose queue head crossed the completion threshold since
        # the last _process_completions call (heap mode checks only
        # these instead of rescanning every core).
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
        # (None when the assembly rejected a modal basis); owned by
        # _run_event_ticks, shared with _fast_forward_event.
        self._event_modal = None
        self._event_modal_open = False
        # Quiet-stretch power-factor memo: idle-heavy runs cycle
        # through a handful of frozen activity configurations, so jumps
        # re-derive identical (base, leak_mul) pairs — key them by the
        # exact inputs. Values are read-only to every consumer.
        self._qpf_cache: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = {}
        # The span substrate reuses one AllocationContext / TickContext
        # shell per run (the payloads are live array views; only the
        # scalar fields change between calls), rebuilt whenever the
        # backing arrays are re-homed.
        self._span_alloc_ctx: Optional[AllocationContext] = None
        self._span_tick_ctx: Optional[TickContext] = None

        # Structure-of-arrays core bookkeeping (event_heap mode). Every
        # array is indexed by _CoreRuntime.idx and maintained at the
        # heap-invalidation sites (plus the tick boundary for sensor
        # temperatures), so dispatch contexts and policy snapshots read
        # vectors instead of rebuilding per-core dicts. Span execution
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
        """Zero the hot-loop decision-site counters (per run)."""
        self._ob_heap_push = 0
        self._ob_heap_invalidate = 0
        self._ob_heap_pop = 0
        self._ob_heap_stale = 0
        self._ob_heap_recompute = 0
        self._ob_span_touch = 0
        self._ob_span_close = 0
        self._ob_event_jumps = 0
        self._ob_event_jump_ticks = 0
        self._ob_event_skipped = 0
        self._ob_arrival_pop = 0

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

        Shared by :meth:`run` and the batched engine: selects the
        thermal solver, arms the event heap and the structure-of-arrays
        bookkeeping, initializes the thermal state and pushes the
        workload's initial arrivals. Returns ``(n_ticks, dt)``.
        """
        cfg = self.config
        if cfg.event_loop not in EVENT_LOOPS:
            raise SchedulerError(
                f"unknown event loop {cfg.event_loop!r}; "
                f"expected one of {EVENT_LOOPS}"
            )
        if cfg.thermal_solver not in SOLVER_METHODS:
            raise SchedulerError(
                f"unknown thermal solver {cfg.thermal_solver!r}; "
                f"expected one of {SOLVER_METHODS}"
            )
        if cfg.fidelity not in FIDELITY_MODES:
            raise SchedulerError(
                f"unknown fidelity {cfg.fidelity!r}; "
                f"expected one of {FIDELITY_MODES}"
            )
        if cfg.fidelity == "event" and cfg.event_loop != "event_heap":
            raise SchedulerError(
                "event fidelity compiles the event-heap state machine; "
                "it cannot drive the legacy_scan loop"
            )
        dt = cfg.sampling_interval_s
        n_ticks = int(round(cfg.duration_s / dt))
        if n_ticks < 1:
            raise SchedulerError("duration shorter than one sampling interval")

        self.thermal.use_solver(cfg.thermal_solver)
        tel = cfg.telemetry
        if tel is not None and tel.enabled:
            self._obs = EngineTelemetry(tel)
        else:
            self._obs = NULL_TELEMETRY
        self._prof = self._obs.profiler
        self._reset_micro_counters()
        self._use_heap = cfg.event_loop == "event_heap"
        # Event fidelity runs entirely on the span substrate (lazy
        # spans, trusted heap, materialize-on-touch): every _use_span
        # site is an event-mode site.
        self._use_span = cfg.fidelity == "event"
        self._event_heap = []
        self._finished_cores = []
        self._mem_sum = 0.0
        self._mem_count = 0
        self._span_alloc_ctx = None
        self._span_tick_ctx = None
        self._util_buf = np.zeros(len(self._core_list))
        if self._use_heap:
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
            "event_loop": self.config.event_loop,
            "fidelity": self.config.fidelity,
            "policy": self.policy.name,
            "jobs_total": len(self._jobs),
            "jobs_completed": sum(1 for j in self._jobs if j.finished),
            "migrations": self._migration_count,
            "counters": {
                "heap_push": self._ob_heap_push,
                "heap_invalidate": self._ob_heap_invalidate,
                "heap_pop": self._ob_heap_pop,
                "heap_stale_pop": self._ob_heap_stale,
                "heap_recompute_on_pop": self._ob_heap_recompute,
                "span_touch": self._ob_span_touch,
                "span_close": self._ob_span_close,
                "event_jumps": self._ob_event_jumps,
                "event_jump_ticks": self._ob_event_jump_ticks,
                "event_skipped_ticks": self._ob_event_skipped,
                "event_mean_jump_ticks": (
                    self._ob_event_jump_ticks / self._ob_event_jumps
                    if self._ob_event_jumps else 0.0
                ),
                "event_pop_arrivals": self._ob_arrival_pop,
                "event_pop_completions": self._ob_heap_pop,
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

    def run(
        self,
        checkpoint_every: int = 0,
        checkpoint_sink=None,
        resume: Optional[bytes] = None,
    ) -> SimulationResult:
        """Execute the configured simulation and return the recording.

        ``checkpoint_every`` > 0 (with a ``checkpoint_sink`` callable
        taking ``(blob, tick)``) emits a full-state checkpoint every N
        ticks; ``resume`` restores one such blob and continues the run
        mid-flight.  A resumed run is bit-identical to an uninterrupted
        one (covered by ``tests/test_campaign_faults.py``).  Both knobs
        are execution-infrastructure arguments, not :class:`RunSpec`
        fields, so they are key-neutral by construction — like
        telemetry, they can never change what a result *is*.
        Checkpointing requires the event-heap loop (eager or event
        fidelity); the legacy scan loop predates the snapshotable
        structure-of-arrays state and raises.
        """
        if (checkpoint_every > 0 or resume is not None) and (
            self.config.event_loop != "event_heap"
        ):
            raise SchedulerError(
                "checkpoint/resume requires the event_heap loop; "
                "legacy_scan keeps no snapshotable row state"
            )
        n_ticks, dt = self._prepare_run()
        rec = _Recording.allocate(self, n_ticks)
        start_tick = 0
        energy0 = 0.0
        unit_row: Optional[np.ndarray] = None
        if resume is not None:
            start_tick, energy0, unit_row = self._restore_checkpoint(
                resume, rec, n_ticks, dt
            )
        if self._use_heap and resume is None:
            # The priming sensor read advances the noise RNG; on resume
            # the restored RNG state already accounts for it.
            self._temps_arr[:] = self.sensors.read_cores_vector()
        if self._use_span:
            energy = self._run_event_ticks(
                rec, n_ticks, dt, start_tick, energy0, unit_row,
                checkpoint_every, checkpoint_sink,
            )
        elif self._use_heap:
            energy = self._run_heap_ticks(
                rec, n_ticks, dt, start_tick, energy0,
                checkpoint_every, checkpoint_sink,
            )
        else:
            self._sensor_temps = self.sensors.read_cores()
            energy = self._run_scan_ticks(rec, n_ticks, dt)
        return self._build_result(rec, energy, dt)

    # ------------------------------------------------------------------
    # checkpoint / resume

    _CHECKPOINT_VERSION = 1

    def _checkpoint_payload(
        self,
        rec: _Recording,
        next_tick: int,
        energy: float,
        dt: float,
        n_ticks: int,
        unit_row: np.ndarray,
    ) -> bytes:
        """Serialize the full run state at a tick boundary.

        Everything mutable goes through ONE ``pickle.dumps`` call so
        shared references (jobs living simultaneously in ``_jobs``,
        core queues, the arrivals heap and the workload source) are
        preserved by pickle's memo table and re-materialize as shared
        on restore.  The recording prefix, the thermal node-state
        vector, the structure-of-arrays rows, the sensor RNG state and
        the loop's current unit readback row ride along.  Called from the
        hot tick loops but only every ``checkpoint_every`` ticks; the
        dict display below is the checkpoint cost itself, not per-tick
        overhead (the method is deliberately not in the hot-path
        manifest).
        """
        payload = {
            "version": SimulationEngine._CHECKPOINT_VERSION,
            # identity guard: a blob may only resume the run it came from
            "fidelity": self.config.fidelity,
            "event_loop": self.config.event_loop,
            "policy_name": self.policy.name,
            "core_names": self._core_names_tuple,
            "n_ticks": n_ticks,
            "dt": dt,
            # loop position
            "next_tick": next_tick,
            "energy": energy,
            # recording prefix (ticks [0, next_tick))
            "rec_times": rec.times[:next_tick].copy(),
            "rec_unit_temps": rec.unit_temps[:next_tick].copy(),
            "rec_core_temps": rec.core_temps[:next_tick].copy(),
            "rec_core_peaks": rec.core_peaks[:next_tick].copy(),
            "rec_spreads": rec.spreads[:next_tick].copy(),
            "rec_utilization": rec.utilization[:next_tick].copy(),
            "rec_vf_indices": rec.vf_indices[:next_tick].copy(),
            "rec_core_states": rec.core_states[:next_tick].copy(),
            "rec_total_power": rec.total_power[:next_tick].copy(),
            # physical + scheduler state
            "thermal_nodes": self.thermal.temperatures.copy(),
            "sensor_rng": self.sensors.rng_state(),
            "workload": self.workload,
            "policy": self.policy,
            "cores": self._core_list,
            "arrivals": self._arrivals,
            "arrival_seq": self._arrival_seq,
            "jobs": self._jobs,
            "thread_last_core": self._thread_last_core,
            "migration_count": self._migration_count,
            "event_heap": self._event_heap,
            "finished_cores": self._finished_cores,
            "mem_sum": self._mem_sum,
            "mem_count": self._mem_count,
            "any_gated": self._any_gated,
            # structure-of-arrays rows (restored in place: the live
            # ArrayBackedMapping views alias these buffers)
            "ql_arr": self._ql_arr.copy(),
            "state_arr": self._state_arr.copy(),
            "vf_arr": self._vf_arr.copy(),
            "temps_arr": self._temps_arr.copy(),
            "dyn_scale_arr": self._dyn_scale_arr.copy(),
            "voltage_arr": self._voltage_arr.copy(),
            "ql_list": list(self._ql_list),
            "state_list": list(self._state_list),
            # the unit readback row exactly as carried by the loop (the
            # event loop's modal row is not the node state's readback)
            "unit_row": unit_row.copy(),
        }
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    def _restore_checkpoint(
        self, blob: bytes, rec: _Recording, n_ticks: int, dt: float
    ) -> Tuple[int, float, np.ndarray]:
        """Overwrite the freshly prepared run state from a checkpoint.

        Must be called after :meth:`_prepare_run` (which re-arms the
        solver, the telemetry sinks and the scratch buffers); this
        method then replaces every piece of state the tick loops read.
        Raises :class:`CheckpointError` when the blob is unreadable or
        belongs to a different run configuration.
        """
        try:
            payload = pickle.loads(blob)
        except Exception as exc:
            raise CheckpointError(f"unreadable checkpoint: {exc}") from exc
        if not isinstance(payload, dict):
            raise CheckpointError("checkpoint payload is not a mapping")
        if payload.get("version") != SimulationEngine._CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {payload.get('version')!r}"
            )
        for name, want in (
            ("fidelity", self.config.fidelity),
            ("event_loop", self.config.event_loop),
            ("policy_name", self.policy.name),
            ("core_names", self._core_names_tuple),
            ("n_ticks", n_ticks),
            ("dt", dt),
        ):
            if payload.get(name) != want:
                raise CheckpointError(
                    f"checkpoint mismatch on {name}: saved "
                    f"{payload.get(name)!r}, this run expects {want!r}"
                )
        next_tick = int(payload["next_tick"])
        if not 0 < next_tick < n_ticks:
            raise CheckpointError(
                f"checkpoint tick {next_tick} outside (0, {n_ticks})"
            )

        rec.times[:next_tick] = payload["rec_times"]
        rec.unit_temps[:next_tick] = payload["rec_unit_temps"]
        rec.core_temps[:next_tick] = payload["rec_core_temps"]
        rec.core_peaks[:next_tick] = payload["rec_core_peaks"]
        rec.spreads[:next_tick] = payload["rec_spreads"]
        rec.utilization[:next_tick] = payload["rec_utilization"]
        rec.vf_indices[:next_tick] = payload["rec_vf_indices"]
        rec.core_states[:next_tick] = payload["rec_core_states"]
        rec.total_power[:next_tick] = payload["rec_total_power"]

        self.thermal.temperatures = payload["thermal_nodes"]
        self.sensors.set_rng_state(payload["sensor_rng"])
        self.workload = payload["workload"]
        self.policy = payload["policy"]
        core_list = payload["cores"]
        self._core_list = core_list
        self._cores = {core.name: core for core in core_list}
        self._arrivals = payload["arrivals"]
        self._arrival_seq = payload["arrival_seq"]
        self._jobs = payload["jobs"]
        self._thread_last_core = payload["thread_last_core"]
        self._migration_count = payload["migration_count"]
        self._event_heap = payload["event_heap"]
        self._finished_cores = payload["finished_cores"]
        self._mem_sum = payload["mem_sum"]
        self._mem_count = payload["mem_count"]
        self._any_gated = payload["any_gated"]
        self._ql_arr[:] = payload["ql_arr"]
        self._state_arr[:] = payload["state_arr"]
        self._vf_arr[:] = payload["vf_arr"]
        self._temps_arr[:] = payload["temps_arr"]
        self._dyn_scale_arr[:] = payload["dyn_scale_arr"]
        self._voltage_arr[:] = payload["voltage_arr"]
        self._ql_list[:] = payload["ql_list"]
        self._state_list[:] = payload["state_list"]
        # Span context shells are rebuilt lazily against the (unchanged)
        # array buffers; the dirty flags start a resumed tick clean.
        self._span_alloc_ctx = None
        self._span_tick_ctx = None
        self._span_dirty = False
        self._in_fast_forward = False
        return next_tick, float(payload["energy"]), payload["unit_row"]

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
        t1: float,
        unit_row: np.ndarray,
        peak_row: np.ndarray,
        util_arr: np.ndarray,
        tick_power: float,
    ) -> None:
        """Write one end-of-interval row of the heap-mode recording."""
        rec.times[tick] = t1
        rec.unit_temps[tick] = unit_row
        rec.core_temps[tick] = unit_row[rec.core_cols]
        rec.core_peaks[tick] = peak_row[rec.core_cols]
        rec.spreads[tick] = np.maximum.reduceat(
            unit_row, rec.die_starts
        ) - np.minimum.reduceat(unit_row, rec.die_starts)
        rec.utilization[tick] = util_arr
        rec.vf_indices[tick] = self._vf_arr
        rec.core_states[tick] = self._state_arr
        rec.total_power[tick] = tick_power

    def _run_heap_ticks(self, rec: _Recording, n_ticks: int, dt: float,
                        start_tick: int = 0, energy0: float = 0.0,
                        checkpoint_every: int = 0, checkpoint_sink=None
                        ) -> float:
        """Tick loop of the event-heap mode: indexed event pops inside
        the interval, structure-of-arrays activity readout and the
        vectorized power/thermal path at the boundary."""
        energy = energy0
        powers_buf = np.zeros(len(self.thermal.unit_names))
        prof = self._prof
        next_ckpt = n_ticks + 1
        if checkpoint_every > 0 and checkpoint_sink is not None:
            next_ckpt = start_tick + checkpoint_every
        # Post-step readback of tick k is the pre-step temperature of
        # tick k+1, so one vector readback per tick suffices (on resume
        # the restored node state reads back the checkpointed row).
        unit_row = self.thermal.unit_temperature_vector()
        for tick in range(start_tick, n_ticks):
            if tick >= next_ckpt:
                checkpoint_sink(
                    self._checkpoint_payload(
                        rec, tick, energy, dt, n_ticks, unit_row
                    ),
                    tick,
                )
                next_ckpt = tick + checkpoint_every
            t0 = tick * dt
            t1 = t0 + dt
            prof.begin()
            self._advance_interval_heap(t0, t1)

            # Per-core activity over [t0, t1): the state/vf arrays are
            # already current (maintained at the invalidation sites),
            # utilization is one gather over the busy accumulators.
            util_arr = self._gather_utilization(dt)
            prof.lap(PH_INTERVAL)

            powers_vec = self.power.unit_power_vector(
                self._state_arr,
                util_arr,
                self._dyn_scale_arr,
                self._voltage_arr,
                unit_row,
                self._memory_intensity(),
                out=powers_buf,
            )
            prof.lap(PH_POWER)
            self.thermal.step_vector(powers_vec)
            peak_row = self.thermal.unit_max_vector()
            prof.lap(PH_THERMAL)
            self._temps_arr[:] = self.sensors.read_cores_vector(peak_row)
            prof.lap(PH_SENSORS)

            self._apply_dpm(t1)
            prof.lap(PH_DPM)
            self._run_policy(t1, util_arr)
            prof.lap(PH_POLICY)

            # Record the end-of-interval state.
            unit_row = self.thermal.unit_temperature_vector()
            tick_power = self.power.total_power(powers_vec)
            self._record_tick(
                rec, tick, t1, unit_row, peak_row, util_arr, tick_power
            )
            energy += tick_power * dt
            prof.lap(PH_RECORD)
        prof.tick_done(n_ticks - start_tick)
        return energy

    # ------------------------------------------------------------------
    # event-fidelity execution

    def _run_event_ticks(self, rec: _Recording, n_ticks: int, dt: float,
                         start_tick: int = 0, energy0: float = 0.0,
                         resume_row: Optional[np.ndarray] = None,
                         checkpoint_every: int = 0, checkpoint_sink=None
                         ) -> float:
        """Tick loop of the event fidelity mode.

        The clock jumps from heap event to heap event: every stretch of
        whole ticks guaranteed free of scheduler events (arrivals,
        completions, stall expiries) is crossed by one
        :meth:`_fast_forward_event` call, however long. Ticks that do
        contain events run the per-tick pipeline on the span substrate,
        so the within-tick event ordering (interval, power, thermal,
        sensors, DPM, policy, record) is exactly the eager one whenever
        an event and a tick boundary coincide.

        The thermal state lives in one persistent
        :class:`~repro.thermal.model.ModalJump` for the whole run when
        the assembly accepted a modal basis: every tick — jump or
        normal — advances the reduced coordinates, and the full node
        state is only rematerialized at checkpoints and at the end of
        the run. Without a basis (non-exponential solver) every tick
        falls back to the dense ``step_vector``.
        """
        energy = energy0
        powers_buf = np.zeros(len(self.thermal.unit_names))
        prof = self._prof
        next_ckpt = n_ticks + 1
        if checkpoint_every > 0 and checkpoint_sink is not None:
            next_ckpt = start_tick + checkpoint_every
        unit_row = resume_row
        if unit_row is None:
            unit_row = self.thermal.unit_temperature_vector()
        modal = self.thermal.modal_jump()
        self._event_modal = modal
        self._event_modal_open = False
        tick = start_tick
        while tick < n_ticks:
            if tick >= next_ckpt:
                if self._event_modal_open:
                    modal.close()
                checkpoint_sink(
                    self._checkpoint_payload(
                        rec, tick, energy, dt, n_ticks, unit_row
                    ),
                    tick,
                )
                next_ckpt = tick + checkpoint_every
            t0 = tick * dt
            quiet = self._quiet_ticks_event(t0, dt, n_ticks - tick)
            if quiet >= 2:
                prof.begin()
                consumed, jump_energy, jump_row = self._fast_forward_event(
                    rec, tick, dt, quiet, powers_buf, unit_row
                )
                prof.lap(PH_EVENT_JUMP)
                if consumed:
                    energy += jump_energy
                    unit_row = jump_row
                    tick += consumed
                    prof.tick_done(consumed)
                    continue
            t1 = t0 + dt
            prof.begin()
            self._advance_interval_span(t0, t1)
            util_arr = self._span_utilization(dt, t1)
            prof.lap(PH_INTERVAL)

            powers_vec = self.power.unit_power_vector(
                self._state_arr,
                util_arr,
                self._dyn_scale_arr,
                self._voltage_arr,
                unit_row,
                self._memory_intensity(),
                out=powers_buf,
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

            if modal is not None:
                unit_row = mean_row
            else:
                unit_row = self.thermal.unit_temperature_vector()
            tick_power = self.power.total_power(powers_vec)
            self._record_tick(
                rec, tick, t1, unit_row, peak_row, util_arr, tick_power
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
        - the policy tick must be the base no-op or the default
          load-balancer over balanced (frozen — no events in the
          stretch) queues; any other ``on_tick`` gets the controlled
          per-tick path;
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
        change anything eager would compute: the base :class:`Policy`
        no-op, or the default load balancer over balanced queues (its
        ``on_tick`` only compares queue lengths). A pending un-gate
        sweep (``_any_gated``) disqualifies the skip — neither policy
        gates, but the guard keeps the proof local."""
        if self._any_gated:
            return False
        tick_fn = type(self.policy).on_tick
        if tick_fn is Policy.on_tick:
            return True
        if tick_fn is not DefaultLoadBalancing.on_tick:
            return False
        ql = self._ql_list
        return max(ql) - min(ql) < IMBALANCE_THRESHOLD

    def _fast_forward_event(
        self,
        rec: _Recording,
        tick: int,
        dt: float,
        quiet: int,
        powers_buf: np.ndarray,
        unit_row: np.ndarray,
    ) -> Tuple[int, float, np.ndarray]:
        """Cross up to ``quiet`` event-free ticks in one clock jump.

        The jump always proceeds and covers the whole stretch unless a
        control call mutates state, which closes it at the acting tick.

        Power is repriced every tick: the temperature-dependent leakage
        is re-evaluated at the evolving unit readback through the
        affine decomposition
        (:meth:`~repro.power.chip_power.ChipPowerModel.quiet_power_factors`
        — exact while states/utilization/Vf are frozen, which the quiet
        stretch guarantees). The thermal advance takes one of two
        integrators:

        - the run-persistent reduced-order modal stepper
          (:meth:`~repro.thermal.model.ModalJump.advance`, owned by
          :meth:`_run_event_ticks`) when the assembly accepted a
          truncated eigenbasis of the propagator: each tick is an
          exact steady-point repricing, a modal decay, one readback
          GEMV and a core max-reduce — within the basis acceptance
          tolerance of the dense step at a fraction of its cost;
        - otherwise the same dense ``step_vector`` call the eager loop
          makes — bitwise-identical to eager's thermal step given the
          same power vector.

        Control calls are skipped for the provable-no-op prefix
        computed by :meth:`_event_bulk_ticks` and run on reconstructed
        observations after it. Returns
        ``(ticks_consumed, energy, last_unit_row)``.
        """
        core_list = self._core_list
        util_arr = self._util_buf
        util_arr.fill(0.0)
        for core in core_list:
            if core.jobs and not core.halted:
                util_arr[core.idx] = 1.0
        mem = self._memory_intensity()
        qpf_key = (
            self._state_arr.tobytes(), util_arr.tobytes(),
            self._dyn_scale_arr.tobytes(), self._voltage_arr.tobytes(),
            mem,
        )
        factors = self._qpf_cache.get(qpf_key)
        if factors is None:
            if len(self._qpf_cache) >= 64:
                self._qpf_cache.clear()
            factors = self.power.quiet_power_factors(
                self._state_arr,
                util_arr,
                self._dyn_scale_arr,
                self._voltage_arr,
                mem,
            )
            self._qpf_cache[qpf_key] = factors
        base, leak_mul = factors
        t0 = tick * dt
        noctl = self._event_bulk_ticks(t0, dt, quiet)
        thermal = self.thermal
        power = self.power
        sensors = self.sensors
        modal = self._event_modal
        self._span_dirty = False
        self._in_fast_forward = True
        consumed = 0
        skipped = 0
        energy = 0.0
        mean_row = unit_row
        peak_row = unit_row
        try:
            for i in range(1, quiet + 1):
                # Same float arithmetic as the per-tick loops (t0 + dt
                # for the absolute tick), so recorded times and policy
                # timestamps match the eager recording bitwise.
                t_i = (tick + i - 1) * dt + dt
                powers_vec = power.quiet_power_eval(
                    base, leak_mul, mean_row, out=powers_buf
                )
                if modal is not None:
                    if not self._event_modal_open:
                        modal.open(powers_vec)
                        self._event_modal_open = True
                    mean_row, peak_row = modal.advance(powers_vec)
                else:
                    thermal.step_vector(powers_vec)
                    peak_row = thermal.unit_max_vector()
                if i <= noctl:
                    skipped += 1
                else:
                    self._temps_arr[:] = sensors.read_cores_vector(peak_row)
                    self._apply_dpm(t_i)
                    if not self._policy_tick_noop():
                        self._run_policy(t_i, util_arr)
                if modal is None:
                    mean_row = thermal.unit_temperature_vector()
                tick_power = power.total_power(powers_vec)
                self._record_tick(
                    rec, tick + i - 1, t_i, mean_row, peak_row, util_arr,
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
            # Materialize every core at the jump end (busy accounting
            # stays off: the consumed ticks' utilization was recorded
            # in closed form above).
            for core in core_list:
                self._touch_core(core, t_end)
                core.busy_in_tick = 0.0
        finally:
            self._in_fast_forward = False
        self._ob_event_jumps += 1
        self._ob_event_jump_ticks += consumed
        self._ob_event_skipped += skipped
        self._obs.event_jump(t_end, consumed, skipped)
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

    def _span_utilization(self, dt: float, t1: float) -> np.ndarray:
        """Closed-form per-core busy fraction of the tick ending at
        ``t1`` (resets the accumulators; the span twin of
        :meth:`_gather_utilization`). Fills and returns the persistent
        utilization buffer the span tick context views."""
        core_list = self._core_list
        util_arr = self._util_buf
        idx = 0
        for core in core_list:
            busy = core.busy_in_tick
            if core.jobs and not core.halted:
                start = core.busy_anchor
                stall = core.stall_until
                if start < stall:
                    start = stall
                if t1 > start:
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

    def _run_scan_ticks(self, rec: _Recording, n_ticks: int, dt: float
                        ) -> float:
        """Tick loop of the legacy mode: all-core rescans inside the
        interval, dict-based power pipeline at the boundary."""
        core_list = self._core_list
        n_cores = len(core_list)
        energy = 0.0
        for tick in range(n_ticks):
            t0 = tick * dt
            t1 = t0 + dt
            self._advance_interval_scan(t0, t1)

            # Per-core activity over [t0, t1).
            activities: Dict[str, CoreActivity] = {}
            for name, core in self._cores.items():
                util = min(1.0, core.busy_in_tick / dt)
                core.last_utilization = util
                activities[name] = CoreActivity(
                    state=core.power_state(),
                    utilization=util,
                    vf=self.vf_table[core.vf_index],
                )
                core.busy_in_tick = 0.0

            unit_temps_now = self.thermal.unit_temperatures()
            powers = self.power.unit_powers(
                activities, unit_temps_now, self._memory_intensity()
            )
            self.thermal.step(powers)
            self._sensor_temps = self.sensors.read_cores()

            self._apply_dpm(t1)
            self._run_policy(t1)

            # Record the end-of-interval state.
            rec.times[tick] = t1
            unit_row = self.thermal.unit_temperature_vector()
            peak_row = self.thermal.unit_max_vector()
            rec.unit_temps[tick] = unit_row
            rec.core_temps[tick] = unit_row[rec.core_cols]
            rec.core_peaks[tick] = peak_row[rec.core_cols]
            rec.spreads[tick] = [
                unit_row[sl].max() - unit_row[sl].min()
                for sl in rec.die_slices
            ]
            rec.utilization[tick] = np.fromiter(
                (core.last_utilization for core in core_list),
                dtype=np.float64,
                count=n_cores,
            )
            rec.vf_indices[tick] = np.fromiter(
                (core.vf_index for core in core_list),
                dtype=np.int64,
                count=n_cores,
            )
            rec.core_states[tick] = np.fromiter(
                (STATE_CODE[core.power_state()] for core in core_list),
                dtype=np.int64,
                count=n_cores,
            )
            tick_power = sum(powers.values())
            rec.total_power[tick] = tick_power
            energy += tick_power * dt
        return energy

    # ------------------------------------------------------------------
    # initialization

    def _initialize_thermal_state(self) -> None:
        """Steady-state warm start (the paper initializes HotSpot so)."""
        nominal = self.vf_table[self.vf_table.nominal_index]
        activities = {
            name: CoreActivity(
                CoreState.ACTIVE, self.config.warmup_utilization, nominal
            )
            for name in self.core_names
        }
        ambient = {
            name: self.thermal.ambient_k for name in self.thermal.unit_names
        }
        powers = self.power.unit_powers(
            activities, ambient, self.workload.memory_intensity()
        )
        self.thermal.initialize_steady_state(powers)

    # ------------------------------------------------------------------
    # discrete-event interval execution

    def _push_arrival(self, time: float, job: Job) -> None:
        seq = self._arrival_seq
        self._arrival_seq = seq + 1
        heapq.heappush(self._arrivals, (time, seq, job))
        self._jobs.append(job)
        self._obs.job_arrival(time, job)

    def _advance_interval_scan(self, t0: float, t1: float) -> None:
        """Legacy interval loop: recompute every core's next event at
        every boundary (O(events x cores))."""
        now = t0
        while now < t1 - _TIME_EPS:
            next_time = t1
            # Earliest arrival.
            if self._arrivals and self._arrivals[0][0] < next_time:
                next_time = max(self._arrivals[0][0], now)
            # Earliest completion or stall expiry.
            for core in self._core_list:
                event = self._next_core_event(core, now)
                if event is not None and event < next_time:
                    next_time = event
            next_time = min(max(next_time, now), t1)

            self._execute(now, next_time)
            now = next_time
            self._process_completions(now)
            self._process_arrivals(now)

    def _advance_interval_heap(self, t0: float, t1: float) -> None:
        """Event-heap interval loop.

        Each core's next completion time is cached in ``_event_heap``
        and only invalidated (sequence bump + fresh push) when the
        core's state changes. Finding the next event pops the earliest
        live entry and recomputes that single core — the recompute
        guards against the ulp-level drift a cached absolute time
        accumulates as the running job's remaining work is re-rounded
        at intermediate boundaries, keeping boundary times bit-identical
        to the legacy rescan loop.
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
                self._ob_heap_recompute += 1
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
        writes. The state code is computed inline in
        :meth:`power_state`'s precedence order.
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
        self._span_alloc_ctx = None  # views below are re-homed
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
        if not self._use_heap:
            return
        self._sync_queue_state(core)
        core.heap_seq += 1
        self._ob_heap_invalidate += 1
        if self._use_span:
            # Invalidation implies a state mutation — close any open
            # clock jump — and the fresh event is computed from the
            # span anchor (every mutation site materializes first, so
            # the cached time stays exact until the next invalidation).
            self._span_dirty = True
            self._ob_span_close += 1
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
        if self._use_heap:
            # Only cores flagged since the last call can hold a finished
            # head: _execute flags the crossing, and _dispatch /
            # _place_migrated flag the (degenerate) arrival of an
            # already-finished head. _core_list order is preserved
            # because _execute iterates it in order.
            finished = self._finished_cores
            if not finished:
                return
            self._finished_cores = []
            candidates: List[_CoreRuntime] = finished
        else:
            self._finished_cores.clear()
            candidates = self._core_list
        use_span = self._use_span
        for core in candidates:
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
            self._ob_arrival_pop += 1
            self._dispatch(job, now)

    def _dispatch(self, job: Job, now: float) -> None:
        if self._use_span:
            ctx = self._span_alloc_ctx
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
                self._span_alloc_ctx = ctx
            else:
                # One frozen shell per run; only the scalars move.
                object.__setattr__(ctx, "time", now)
                object.__setattr__(
                    ctx, "last_core",
                    self._thread_last_core.get(job.thread_id),
                )
        elif self._use_heap:
            # The arrays mirror len(queue)/power_state()/sensor reads
            # exactly (synced in _invalidate_event and at the tick
            # boundary), so the context is live views — no per-dispatch
            # dict assembly.
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
        else:
            # Dicts read from the core objects, not the SoA rows; the
            # context packs its arrays from them, so heap-vs-scan runs
            # cross-check the rows' sync.
            ctx = AllocationContext(
                time=now,
                queue_lengths={
                    n: len(c.queue) for n, c in self._cores.items()
                },
                temperatures_k=dict(self._sensor_temps),
                states={n: c.power_state() for n, c in self._cores.items()},
                last_core=self._thread_last_core.get(job.thread_id),
            )
        target = self.policy.select_core(job, ctx)
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
            self._obs.dpm_wake(now, core.idx)
        core.queue.push(job)
        if job.remaining_s <= _TIME_EPS and len(core.jobs) == 1:
            # Degenerate zero-work job became the head without ever
            # executing; flag it so heap-mode completion processing
            # still sees it (the legacy scan finds it by rescanning).
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
                self._obs.dpm_sleep(now, core.idx)

    def _run_policy(
        self,
        now: float,
        util_arr: Optional[np.ndarray] = None,
        arrays: Optional[TickArrays] = None,
    ) -> None:
        if self._use_span:
            # The span substrate hands policies live views of the
            # engine's own row state through one persistent context
            # shell: no snapshot copies, no per-tick context objects.
            # Values at
            # ``on_tick`` time equal the eager snapshots (nothing
            # mutates between the gather and the call); policies must
            # not hold the arrays across ticks (the registry policies
            # do not).
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
        elif self._use_heap:
            # Structure-of-arrays snapshot: policies decide on the
            # arrays, and the CoreSnapshot mapping (the custom-policy
            # interface) is materialized only on access. The batch
            # engine passes a prebuilt ``arrays`` (rows of one per-tick
            # batch copy) so lanes skip the per-run copies.
            if arrays is None:
                arrays = TickArrays(
                    core_names=self._core_names_tuple,
                    temperature_k=self._temps_arr.copy(),
                    utilization=util_arr.copy(),
                    state_codes=self._state_arr.copy(),
                    vf_index=self._vf_arr.copy(),
                    queue_length=self._ql_arr.copy(),
                )
            ctx = TickContext(
                time=now,
                cores=SnapshotArrayMapping(self._core_index, arrays),
                arrays=arrays,
            )
        else:
            # Packed into arrays by the context, as in _dispatch.
            ctx = TickContext(
                time=now,
                cores={
                    name: CoreSnapshot(
                        temperature_k=self._sensor_temps[name],
                        utilization=self._cores[name].last_utilization,
                        state=self._cores[name].power_state(),
                        vf_index=self._cores[name].vf_index,
                        queue_length=len(self._cores[name].queue),
                    )
                    for name in self.core_names
                },
            )
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
            self._obs.dpm_wake(now, core.idx)
        core.queue.push(job)
        if core.jobs[0].remaining_s <= _TIME_EPS:
            # A finished head landed here without executing (possible
            # only for degenerate zero-work jobs); keep it visible to
            # heap-mode completion processing.
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
