"""The all-core scan loop: a test-only oracle for the engine.

:class:`ScanEngine` runs a simulation the way the engine did before it
kept an event heap and structure-of-arrays rows:

- every event boundary inside an interval rescans every core for its
  next completion, and completion processing rescans every core;
- the tick boundary and the warm start take the dict-based pipeline:
  the scalar power model of ``tests/power_oracle.py`` (not the
  engine's power kernel), ``ThermalModel.step``,
  ``SensorBank.read_cores``;
- both policy contexts are built from the core objects, never from the
  engine's rows, and every policy tick is called (no no-op skip).

Dispatch placement, completions, DPM, policy actions and migrations are
the engine's own methods. An engine run that matches the oracle bit for
bit therefore checks the event heap, the row sync at every invalidation
site, the vectorized tick boundary (power kernel included) and the
no-op tick skip against a reference that uses none of them
(``tests/test_engine_heap.py``).

Eager fidelity only. Build one from a freshly built engine with
:meth:`ScanEngine.from_engine`.
"""

from __future__ import annotations

from repro.core.base import AllocationContext, CoreSnapshot, TickContext
from repro.errors import SchedulerError
from repro.power.states import STATE_CODE, CoreState
from repro.sched.engine import (
    _TIME_EPS,
    SimulationEngine,
    SimulationResult,
    _Recording,
)
from tests.power_oracle import CoreActivity, unit_powers


def power_state(core) -> CoreState:
    """State the power model charges a core for the elapsed interval."""
    if core.sleeping:
        return CoreState.SLEEP
    if core.gated:
        return CoreState.GATED
    if len(core.queue) > 0:
        return CoreState.ACTIVE
    return CoreState.IDLE


class ScanEngine(SimulationEngine):
    """The engine with its all-core rescan loop (see module docs)."""

    @classmethod
    def from_engine(cls, engine: SimulationEngine) -> "ScanEngine":
        """An oracle over ``engine``'s models, policy, workload and
        config; ``engine`` itself must not run afterwards (they share
        the thermal state, the policy and the workload)."""
        return cls(
            thermal=engine.thermal,
            power=engine.power,
            policy=engine.policy,
            workload=engine.workload,
            config=engine.config,
            vf_table=engine.vf_table,
            system_view=engine.system_view,
        )

    def run(self) -> SimulationResult:
        if self.config.fidelity != "eager":
            raise SchedulerError("the scan oracle runs eager fidelity only")
        n_ticks, dt = self._prepare_run()
        rec = _Recording.allocate(self, n_ticks)
        die_slices = self.thermal.die_unit_slices()
        self._sensor_temps = self.sensors.read_cores()
        core_list = self._core_list
        energy = 0.0
        for tick in range(n_ticks):
            t0 = tick * dt
            t1 = t0 + dt
            self._advance_interval_scan(t0, t1)

            # Per-core activity over [t0, t1).
            utils = [min(1.0, core.busy_in_tick / dt) for core in core_list]
            activities = {}
            for core, util in zip(core_list, utils):
                activities[core.name] = CoreActivity(
                    state=power_state(core),
                    utilization=util,
                    vf=self.vf_table[core.vf_index],
                )
                core.busy_in_tick = 0.0

            powers = unit_powers(
                self.power,
                activities,
                self.thermal.unit_temperatures(),
                self._memory_intensity(),
            )
            self.thermal.step(powers)
            self._sensor_temps = self.sensors.read_cores()

            self._apply_dpm(t1)
            self._run_policy(t1, utils)

            # Record the end-of-interval state.
            rec.times[tick] = t1
            unit_row = self.thermal.unit_temperature_vector()
            peak_row = self.thermal.unit_max_vector()
            rec.unit_temps[tick] = unit_row
            rec.core_temps[tick] = unit_row[rec.core_cols]
            rec.core_peaks[tick] = peak_row[rec.core_cols]
            rec.spreads[tick] = [
                unit_row[sl].max() - unit_row[sl].min()
                for sl in die_slices
            ]
            rec.utilization[tick] = utils
            rec.vf_indices[tick] = [core.vf_index for core in core_list]
            rec.core_states[tick] = [
                STATE_CODE[power_state(core)] for core in core_list
            ]
            tick_power = sum(powers.values())
            rec.total_power[tick] = tick_power
            energy += tick_power * dt
        return self._build_result(rec, energy, dt)

    def _initialize_thermal_state(self) -> None:
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
        self.thermal.initialize_steady_state(
            unit_powers(
                self.power, activities, ambient,
                self.workload.memory_intensity(),
            )
        )

    def _advance_interval_scan(self, t0: float, t1: float) -> None:
        """Recompute every core's next event at every boundary
        (O(events x cores))."""
        now = t0
        while now < t1 - _TIME_EPS:
            next_time = t1
            if self._arrivals and self._arrivals[0][0] < next_time:
                next_time = max(self._arrivals[0][0], now)
            for core in self._core_list:
                event = self._next_core_event(core, now)
                if event is not None and event < next_time:
                    next_time = event
            next_time = min(max(next_time, now), t1)

            self._execute(now, next_time)
            now = next_time
            self._process_completions(now)
            self._process_arrivals(now)

    def _process_completions(self, now: float) -> None:
        # Every core is a candidate, not only the ones _execute flagged.
        self._finished_cores = list(self._core_list)
        super()._process_completions(now)

    def _invalidate_event(self, core, now: float) -> None:
        """No heap, no rows: the oracle reads the core objects."""

    def _allocation_context(self, job, now: float) -> AllocationContext:
        # Mappings read from the core objects and the dict sensor read;
        # the context packs its arrays from them.
        return AllocationContext(
            time=now,
            queue_lengths={c.name: len(c.queue) for c in self._core_list},
            temperatures_k=dict(self._sensor_temps),
            states={c.name: power_state(c) for c in self._core_list},
            last_core=self._thread_last_core.get(job.thread_id),
        )

    def _tick_context(self, now: float, util_arr) -> TickContext:
        # ``util_arr`` is the loop's per-core utilization list.
        return TickContext(
            time=now,
            cores={
                c.name: CoreSnapshot(
                    temperature_k=self._sensor_temps[c.name],
                    utilization=util_arr[c.idx],
                    state=power_state(c),
                    vf_index=c.vf_index,
                    queue_length=len(c.queue),
                )
                for c in self._core_list
            },
        )
