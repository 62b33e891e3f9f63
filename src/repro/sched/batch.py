"""Batched multi-run engine: one tick loop shared by R simulations.

A campaign grid is mostly *independent* runs over the same stack —
seeds, policies, noise points. After the exponential-propagator rework
each serial run spends its tick boundary in a fixed set of small NumPy
calls (power kernel, thermal step, readback, recording) whose ~1 us/op
dispatch overhead is paid once per run per tick. The
:class:`BatchSimulationEngine` advances R runs that share one
:class:`~repro.thermal.model.ThermalAssembly` through a single fused
tick loop, so that overhead is paid once per *batch* per tick:

- power injection is one power-kernel call for the whole batch: eager
  lanes take the oracle-exact kernel
  (:meth:`~repro.power.chip_power.ChipPowerModel.power_factors` then
  ``power_eval``) on the transposed ``(R, n_cores)``
  state/utilization/V-f matrices, one column per lane; event lanes
  take the event kernel
  (:meth:`~repro.power.chip_power.ChipPowerModel.event_factors` then
  ``event_eval``) on the rows themselves — elementwise, then one GEMV
  per lane on its contiguous row, as serial event issues it;
- eager lanes hold the thermal state as one ``(n_nodes, R)`` matrix
  advanced by :meth:`~repro.thermal.model.ThermalModel.step_block` —
  the exact step as (up to) one GEMM ``A @ T`` over the whole batch —
  and read it back with one blocked gather
  (:meth:`~repro.thermal.model.ThermalModel.unit_max_block` /
  :meth:`unit_mean_block`);
- recording is one ``(R, ...)`` plane write per field per tick.

Per-run scheduler state — event heaps, dispatch queues, policies, DPM,
workload generators — stays scalar: each run's
:class:`~repro.sched.engine.SimulationEngine` acts as its lane's state
machine, driven lock-step by the shared boundary sweep. The lanes'
structure-of-arrays bookkeeping is re-homed onto rows of batch-owned
``(R, n_cores)`` matrices at construction, so the boundary reads them
with zero per-lane gathering.

With ``EngineConfig(fidelity="event")`` lanes (uniform across the
batch), the per-lane interval advance switches to the span substrate —
lazy per-core spans, trusted completion events — and each lane steps
its own :class:`~repro.thermal.model.ModalJump`, the stepper a serial
event run steps, fed the lane's contiguous power row. Two further
batch-level fusions engage: ideal-sensor reads become one gather over
the peak block, and batches whose policies are all plain probabilistic
allocators — or all the same plain §III-A DVFS policy — tick their
per-lane policy state through one stacked ``(R, n_cores)`` update
(:class:`_ProbabilisticBatchTick` / :class:`_DVFSBatchTick`) instead of
R per-lane ``on_tick`` sweeps. The serial engine's event clock jumps do
not engage in the fused loop: they are an alternative to the batch's
amortization, not an addition to it, and a jump is an exact shortcut
for the ticks it replaces, so leaving it out changes no bit. Shrinking
the per-lane scalar term is what breaks the eager batch's Amdahl cap
(docs/ENGINE.md). Event lanes are bit-identical to serial event runs
(``tests/test_engine_batch.py``, ``tests/test_engine_span.py``).

Bit-identity
------------

Everything except the three dense products of the exact thermal step
(steady gain, propagator, mean readback) batches with *exactly* the
serial engine's floating-point behavior: elementwise ops, segment
``reduceat`` and the event power kernel's per-lane GEMVs all process a
run's lane independently of its neighbors. The dense products are the
one exception — BLAS GEMM kernels accumulate differently from the
single-column GEMV — so the engine offers two propagation modes for
eager lanes (event lanes ignore the mode: their modal steppers issue
the serial GEMVs):

- ``propagation="exact"`` (default): dense products are applied
  column-by-column with the same GEMV calls the serial engine makes.
  Results are **bit-identical** to running each lane through
  :meth:`SimulationEngine.run` (covered across the policy x stack
  matrix by ``tests/test_engine_batch.py``).
- ``propagation="gemm"``: the dense products are single GEMMs over the
  state matrix — the fastest path — at BLAS-kernel-level deviation
  (~1e-13 K per step, eleven orders below the 0.01 K accuracy budget).
  Scheduling decisions compare temperatures against thresholds, so in
  practice the discrete stream (jobs, migrations, V/f) still matches.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.adapt3d import Adapt3D
from repro.core.base import Migration, TickArrays
from repro.core.default import IMBALANCE_THRESHOLD
from repro.core.dvfs_flp import DVFSFloorplanAware
from repro.core.dvfs_tt import DVFSTemperatureTriggered
from repro.core.dvfs_util import DVFSUtilizationBased
from repro.core.probabilistic import ProbabilisticAllocator
from repro.errors import SchedulerError
from repro.obs.profiler import (
    NULL_PROFILER,
    PH_DPM,
    PH_INTERVAL,
    PH_POLICY,
    PH_POWER,
    PH_RECORD,
    PH_SENSORS,
    PH_THERMAL,
    TickProfiler,
)
from repro.sched.engine import SimulationEngine, _Recording

PROPAGATION_MODES = ("exact", "gemm")


class _ProbabilisticBatchTick:
    """One §III-B probability update per tick for a whole event batch.

    When every lane's policy is a plain probabilistic allocator (base
    ``on_tick``, or Adapt3D without the online index estimator), the
    per-tick update is R independent copies of the same handful of
    vector expressions. This helper re-homes each policy's probability
    row and temperature history onto stacked ``(R, n)`` / ``(R, n,
    window)`` matrices and applies the update once per tick for the
    batch — row ``r`` evolves exactly as lane ``r``'s own ``on_tick``
    would evolve it (all operations are row-independent), and the
    allocators issue no tick actions, so the per-lane policy sweep
    disappears entirely. Event fidelity only; the eager batch keeps the
    per-lane calls that its bit-identity contract is proven against.
    """

    @staticmethod
    def build(lanes) -> Optional["_ProbabilisticBatchTick"]:
        policies = [lane.policy for lane in lanes]
        for policy in policies:
            if not isinstance(policy, ProbabilisticAllocator):
                return None
            tick = type(policy).on_tick
            if tick is ProbabilisticAllocator.on_tick:
                continue
            if (
                tick is Adapt3D.on_tick
                and policy.online_index_window is None
            ):
                continue
            return None
        base = policies[0]
        n = len(base._names)
        window = base.history_window
        for policy in policies:
            if (
                len(policy._names) != n
                or policy.history_window != window
                or policy._hist_len != base._hist_len
                or policy._hist_pos != base._hist_pos
            ):
                return None
        return _ProbabilisticBatchTick(policies, n, window)

    def __init__(self, policies, n: int, window: int) -> None:
        r = len(policies)
        self.policies = policies
        self.window = window
        self.prob_mat = np.empty((r, n))
        self.hist_block = np.empty((r, n, window))
        for i, policy in enumerate(policies):
            policy._adopt_batch_rows(self.prob_mat[i], self.hist_block[i])
        self.alpha_mat = np.stack([p._alpha_arr for p in policies])
        self.binc_col = np.array([[p.beta_inc] for p in policies])
        self.bdec_col = np.array([[p.beta_dec] for p in policies])
        self.pref_col = np.array(
            [[p.system.preferred_temperature_k] for p in policies]
        )
        self.thr_col = np.array(
            [[p.system.thermal_threshold_k] for p in policies]
        )
        self.hist_pos = policies[0]._hist_pos
        self.hist_len = policies[0]._hist_len

    def tick(self, temps_mat: np.ndarray) -> None:
        """Advance every lane's probability state by one tick."""
        self.hist_block[:, :, self.hist_pos] = temps_mat
        self.hist_pos = (self.hist_pos + 1) % self.window
        if self.hist_len < self.window:
            self.hist_len += 1
        t_avg = (
            self.hist_block[:, :, : self.hist_len].sum(axis=2)
            / self.hist_len
        )
        w_diff = self.pref_col - t_avg
        weight = np.where(
            w_diff >= 0.0,
            self.binc_col * w_diff / self.alpha_mat,
            self.bdec_col * w_diff * self.alpha_mat,
        )
        prob = self.prob_mat
        prob += weight
        prob[temps_mat >= self.thr_col] = 0.0
        np.maximum(prob, 0.0, out=prob)
        totals = prob.sum(axis=1)
        positive = totals > 0.0
        if positive.all():
            prob /= totals[:, None]
        elif positive.any():
            prob[positive] /= totals[positive, None]
        for policy in self.policies:
            policy._prob_list = None

    def finish(self) -> None:
        """Write the shared cursor back to the per-lane policies."""
        for policy in self.policies:
            policy._hist_pos = self.hist_pos
            policy._hist_len = self.hist_len


class _DVFSBatchTick:
    """One stacked §III-A DVFS update per tick for a whole event batch.

    When every lane runs the same plain DVFS policy
    (:class:`DVFSTemperatureTriggered`, :class:`DVFSUtilizationBased`
    or :class:`DVFSFloorplanAware`, unmodified ``on_tick``), the
    per-tick decision is R copies of the same per-core level rule plus
    the base load-balancing imbalance check. This helper computes the
    ``(R, n)`` level matrix in a handful of vector expressions and
    routes the (rare) transitions through the engine's single V/f
    writer, :meth:`SimulationEngine._apply_vf_level`, so each lane's
    discrete stream is exactly what its own ``on_tick`` sweep would
    produce. Transitions are applied in the same per-lane core order
    the serial loop iterates ``actions.vf_settings`` in (core order for
    TT/Util, susceptibility-ranked order for FLP) so event-heap
    invalidation sequence numbers — and therefore same-time event
    tie-breaks — match the serial engine. Event fidelity only.
    """

    @staticmethod
    def build(lanes) -> Optional["_DVFSBatchTick"]:
        policies = [lane.policy for lane in lanes]
        cls = type(policies[0])
        if cls not in (
            DVFSTemperatureTriggered,
            DVFSUtilizationBased,
            DVFSFloorplanAware,
        ):
            return None
        freqs = tuple(
            level.frequency for level in policies[0].system.vf_table._levels
        )
        for policy in policies:
            if type(policy) is not cls:
                return None
            lane_freqs = tuple(
                level.frequency for level in policy.system.vf_table._levels
            )
            if lane_freqs != freqs:
                return None
        return _DVFSBatchTick(lanes, policies, cls)

    def __init__(self, lanes, policies, cls) -> None:
        self.lanes = list(lanes)
        self.policies = policies
        base = policies[0]
        table = base.system.vf_table
        names = list(base.system.core_names)
        n = len(names)
        r = len(policies)
        self.core_names = names
        self.speeds = [table[i].frequency for i in range(len(table))]
        self.lowest = table.lowest_index
        self.kind = cls
        # Per-lane column application order: must match the serial
        # loop's ``actions.vf_settings`` iteration order (see class
        # docstring).
        col_index = {name: i for i, name in enumerate(names)}
        if cls is DVFSFloorplanAware:
            self.col_orders = [
                [col_index[name] for name in policy._assignment]
                for policy in policies
            ]
            self.level_mat = np.array(
                [
                    [policy._assignment[name] for name in names]
                    for policy in policies
                ],
                dtype=np.int64,
            )
        else:
            self.col_orders = [list(range(n))] * r
            self.level_mat = np.empty((r, n), dtype=np.int64)
        if cls is DVFSTemperatureTriggered:
            for i, policy in enumerate(policies):
                row = self.level_mat[i]
                for j, name in enumerate(names):
                    row[j] = policy._levels[name]
            self.thr_col = np.array(
                [[policy.system.thermal_threshold_k] for policy in policies]
            )
        elif cls is DVFSUtilizationBased:
            # Table frequencies are descending; negate so searchsorted
            # sees an ascending key and the per-row count of levels
            # still covering the utilization is one call.
            self.neg_freqs = -np.asarray(self.speeds)

    def advance_levels(
        self, temps_mat: np.ndarray, util_mat: np.ndarray
    ) -> np.ndarray:
        """Stacked level decision: row ``r`` is lane ``r``'s levels."""
        levels = self.level_mat
        if self.kind is DVFSTemperatureTriggered:
            np.copyto(
                levels,
                np.where(
                    temps_mat >= self.thr_col,
                    np.minimum(levels + 1, self.lowest),
                    np.maximum(levels - 1, 0),
                ),
            )
        elif self.kind is DVFSUtilizationBased:
            # lowest_covering(u): largest index whose frequency still
            # covers u — the count of covering levels minus one,
            # clamped to the nominal setting when none covers.
            counts = np.searchsorted(self.neg_freqs, -util_mat, side="right")
            np.maximum(counts - 1, 0, out=levels)
        return levels

    def tick(
        self,
        now: float,
        temps_mat: np.ndarray,
        util_mat: np.ndarray,
        ql_mat: np.ndarray,
        vf_mat: np.ndarray,
    ) -> None:
        """Advance every lane's DVFS decision by one tick."""
        levels = self.advance_levels(temps_mat, util_mat)
        speeds = self.speeds
        for r, lane in enumerate(self.lanes):
            row = levels[r]
            vf_row = vf_mat[r]
            core_list = lane._core_list
            for i in self.col_orders[r]:
                level = int(row[i])
                if vf_row[i] != level:
                    lane._apply_vf_level(
                        core_list[i], level, speeds[level], now
                    )
        # Base load-balancing migration (DefaultLoadBalancing.on_tick):
        # first-max / first-min over core order, as Python's max/min
        # resolve ties.
        longest = ql_mat.argmax(axis=1)
        shortest = ql_mat.argmin(axis=1)
        rows = np.arange(ql_mat.shape[0])
        imbalanced = (
            ql_mat[rows, longest] - ql_mat[rows, shortest]
            >= IMBALANCE_THRESHOLD
        )
        if imbalanced.any():
            names = self.core_names
            for r in np.nonzero(imbalanced)[0]:
                lane = self.lanes[r]
                lane._migrate(
                    Migration(
                        names[longest[r]],
                        names[shortest[r]],
                        move_running=False,
                        swap=False,
                    ),
                    now,
                )

    def finish(self) -> None:
        """Write the stacked level state back to the per-lane policies."""
        if self.kind is not DVFSTemperatureTriggered:
            return
        names = self.core_names
        for r, policy in enumerate(self.policies):
            row = self.level_mat[r]
            for i, name in enumerate(names):
                policy._levels[name] = int(row[i])


class BatchSimulationEngine:
    """Run R compatible simulations through one fused tick loop.

    Parameters
    ----------
    engines:
        The lanes: one fully-built :class:`SimulationEngine` per run.
        All lanes must share the same :class:`ThermalAssembly` and
        :class:`ChipPowerModel` instances (the
        :class:`~repro.analysis.runner.ExperimentRunner` caches
        guarantee this for runs on the same (exp, grid)), the same
        sampling interval, duration and fidelity.
        Policies, workloads, seeds, DPM and sensor noise may differ per
        lane.
    propagation:
        ``"exact"`` (bit-identical to serial runs, default) or
        ``"gemm"`` (single-GEMM thermal propagation, see module docs);
        eager lanes only — event lanes are always bit-identical.
    """

    def __init__(
        self,
        engines: Sequence[SimulationEngine],
        propagation: str = "exact",
    ) -> None:
        lanes = list(engines)
        if not lanes:
            raise SchedulerError("batch engine needs at least one run")
        if propagation not in PROPAGATION_MODES:
            raise SchedulerError(
                f"unknown propagation mode {propagation!r}; "
                f"expected one of {PROPAGATION_MODES}"
            )
        base = lanes[0]
        for lane in lanes[1:]:
            if lane.thermal.assembly is not base.thermal.assembly:
                raise SchedulerError(
                    "batched runs must share one ThermalAssembly; build "
                    "the engines through one ExperimentRunner so the "
                    "(exp, grid) cache hands every lane the same assembly"
                )
            if lane.power is not base.power:
                raise SchedulerError(
                    "batched runs must share one ChipPowerModel instance"
                )
            if (
                lane.config.sampling_interval_s
                != base.config.sampling_interval_s
            ):
                raise SchedulerError(
                    "batched runs must share the sampling interval"
                )
            if lane.config.duration_s != base.config.duration_s:
                raise SchedulerError("batched runs must share the duration")
            if lane.config.fidelity != base.config.fidelity:
                raise SchedulerError(
                    "batched runs must share the fidelity mode; eager "
                    "and event lanes advance their intervals differently"
                )
        self.lanes = lanes
        self.propagation = propagation

    @property
    def n_runs(self) -> int:
        """Number of lanes in the batch."""
        return len(self.lanes)

    # ------------------------------------------------------------------

    def run(self) -> List["object"]:
        """Advance every lane to completion; results in lane order.

        Returns one :class:`~repro.sched.engine.SimulationResult` per
        lane, each indistinguishable from (and for event lanes or in
        ``exact`` mode bit-identical to) the lane's own
        :meth:`SimulationEngine.run`.
        """
        lanes = self.lanes
        n_lanes = len(lanes)
        base = lanes[0]
        # Event lanes advance event-to-event on the span substrate
        # (lazy per-core spans, trusted completion heap) and report
        # utilization from span anchors. The serial engine's event clock
        # jumps do not engage here — the batch already amortizes the
        # boundary they would skip, and R lanes are almost never quiet
        # simultaneously; a jump is an exact shortcut for the ticks it
        # replaces, so skipping it changes no bit.
        use_span = base.config.fidelity == "event"

        shapes = [lane._prepare_run() for lane in lanes]
        n_ticks, dt = shapes[0]
        if any(shape != (n_ticks, dt) for shape in shapes[1:]):
            raise SchedulerError("batched runs disagree on tick layout")

        # Each event lane steps its own modal stepper, as serial event
        # does; propagation applies to eager lanes only.
        modals = (
            [lane.thermal.modal_jump() for lane in lanes] if use_span else None
        )
        exact = self.propagation == "exact"

        # Initial sensor read (the serial engine does this between
        # preparation and the first tick).
        for lane in lanes:
            lane._temps_arr[:] = lane.sensors.read_cores_vector()

        # Re-home each lane's structure-of-arrays state onto rows of
        # batch-owned matrices: every heap-invalidation-site update now
        # writes straight into the batch view.
        n_cores = len(base.core_names)
        ql_mat = np.zeros((n_lanes, n_cores), dtype=np.int64)
        state_mat = np.zeros((n_lanes, n_cores), dtype=np.int64)
        vf_mat = np.zeros((n_lanes, n_cores), dtype=np.int64)
        temps_mat = np.zeros((n_lanes, n_cores))
        dyn_mat = np.zeros((n_lanes, n_cores))
        volt_mat = np.zeros((n_lanes, n_cores))
        for r, lane in enumerate(lanes):
            lane._adopt_core_rows(
                ql_mat[r], state_mat[r], vf_mat[r],
                temps_mat[r], dyn_mat[r], volt_mat[r],
            )

        thermal = base.thermal
        power = base.power
        n_nodes = thermal.network.n_nodes
        n_units = len(thermal.unit_names)
        n_dies = thermal.n_dies

        if modals is None:
            # (n_nodes, R) thermal state: column r is lane r's node
            # vector.
            temps_block = np.empty((n_nodes, n_lanes))
            for r, lane in enumerate(lanes):
                temps_block[:, r] = lane.thermal.temperatures
        else:
            # Modal lanes hold their state in the steppers; their peak
            # rows are NaN outside core units, as in serial event.
            peak_block = np.full((n_units, n_lanes), np.nan)

        # Post-step readback of tick k is the pre-step temperature of
        # tick k+1; the initial row uses the same per-lane GEMV the
        # serial engine starts from.
        unit_block = np.empty((n_units, n_lanes))
        for r, lane in enumerate(lanes):
            unit_block[:, r] = lane.thermal.unit_temperature_vector()

        recs = [_Recording.allocate(lane, n_ticks) for lane in lanes]
        core_cols = recs[0].core_cols
        die_starts = recs[0].die_starts
        # Event batches of plain probabilistic allocators tick their
        # probability state once per tick for the whole batch; batches
        # of plain DVFS policies stack their level math the same way.
        policy_batch = (
            _ProbabilisticBatchTick.build(lanes) if use_span else None
        )
        dvfs_batch = (
            _DVFSBatchTick.build(lanes)
            if use_span and policy_batch is None
            else None
        )
        # Ideal sensors read the true per-core peaks, so the whole
        # batch's sensor sweep is one gather (bitwise equal to the
        # per-lane reads); noisy lanes keep their per-lane RNG draws.
        all_ideal = all(lane.sensors.ideal for lane in lanes)

        # Per-tick planes, written once per field per tick and unpacked
        # into the per-lane recordings at the end.
        plane_unit = np.empty((n_ticks, n_lanes, n_units))
        plane_core = np.empty((n_ticks, n_lanes, n_cores))
        plane_peak = np.empty((n_ticks, n_lanes, n_cores))
        plane_spread = np.empty((n_ticks, n_lanes, n_dies))
        plane_util = np.empty((n_ticks, n_lanes, n_cores))
        plane_vf = np.empty((n_ticks, n_lanes, n_cores), dtype=np.int64)
        plane_state = np.empty((n_ticks, n_lanes, n_cores), dtype=np.int64)
        plane_power = np.empty((n_ticks, n_lanes))
        times = np.empty(n_ticks)

        energies = [0.0] * n_lanes
        mem_vec = np.empty(n_lanes)
        util_mat = np.empty((n_lanes, n_cores))
        if use_span:
            # Event lanes price power with the event kernel on the
            # C-contiguous (R, ·) rows, one GEMV per lane.
            event_power = power.event_buffers(n_lanes)
            mem_col = mem_vec[:, None]
            power_mat = np.empty((n_lanes, n_units))
        core_names_tuples = [lane._core_names_tuple for lane in lanes]
        dpm_lanes = [lane for lane in lanes if lane.config.dpm is not None]

        # Batch-level tick-phase profiler: the fused boundary runs once
        # for all lanes, so its time cannot be attributed per lane —
        # one shared profile covers the batch, attached to every
        # instrumented lane's snapshot below. Per-lane lifecycle hooks
        # (dispatch, completion, migration, ...) fire inside the lane
        # state machines as usual.
        prof = (
            TickProfiler()
            if any(lane._prof.enabled for lane in lanes)
            else NULL_PROFILER
        )

        for tick in range(n_ticks):
            t0 = tick * dt
            t1 = t0 + dt
            prof.begin()

            # Per-lane interval execution (scalar state machines, in
            # lane order — lanes are independent).
            if use_span:
                for lane in lanes:
                    lane._advance_interval_span(t0, t1)
                for r, lane in enumerate(lanes):
                    util_mat[r] = lane._span_utilization(dt, t0, t1)
                    mem_vec[r] = lane._memory_intensity()
            else:
                for lane in lanes:
                    lane._advance_interval_heap(t0, t1)
                for r, lane in enumerate(lanes):
                    util_mat[r] = lane._gather_utilization(dt)
                    mem_vec[r] = lane._memory_intensity()
            prof.lap(PH_INTERVAL)

            # Fused boundary: one power kernel call for the whole batch
            # and, for dense lanes, one thermal block step and one
            # blocked max-readback. Event lanes take the event kernel
            # on their rows (elementwise, then one GEMV per lane on its
            # contiguous row: serial event's bits). Eager lanes take the
            # oracle-exact kernel with cores/units down axis 0, one
            # column per lane. Either way the thermal step gets a
            # C-contiguous (R, n_units) power block, so its per-lane
            # GEMV operands are contiguous rows as in serial.
            if use_span:
                power.event_factors(
                    state_mat, util_mat, dyn_mat, volt_mat, mem_col,
                    event_power,
                )
                power.event_eval(event_power, unit_block.T, power_mat)
            else:
                base_mat, leak_mat = power.power_factors(
                    state_mat.T, util_mat.T, dyn_mat.T, volt_mat.T, mem_vec
                )
                power_mat = np.ascontiguousarray(
                    power.power_eval(base_mat, leak_mat, unit_block).T
                )
            prof.lap(PH_POWER)
            if modals is None:
                temps_block = thermal.step_block(
                    power_mat, temps_block, column_exact=exact
                )
                peak_block = thermal.unit_max_block(temps_block)
            else:
                # The serial loop's stepper per lane, fed the lane's
                # contiguous power row: every GEMV operand is laid out
                # exactly as in serial event, so each lane keeps its bits.
                for r, modal in enumerate(modals):
                    power_row = power_mat[r]
                    if tick == 0:
                        modal.open(power_row)
                    mean_row, peak_row = modal.advance(power_row)
                    unit_block[:, r] = mean_row
                    peak_block[:, r] = peak_row
            prof.lap(PH_THERMAL)
            if all_ideal:
                temps_mat[:, :] = peak_block[core_cols].T
            else:
                for r, lane in enumerate(lanes):
                    lane._temps_arr[:] = lane.sensors.read_cores_vector(
                        peak_block[:, r]
                    )
            prof.lap(PH_SENSORS)

            # DPM before the policy snapshots, as in the serial loop.
            for lane in dpm_lanes:
                lane._apply_dpm(t1)
            prof.lap(PH_DPM)

            if policy_batch is not None:
                policy_batch.tick(temps_mat)
            elif dvfs_batch is not None:
                dvfs_batch.tick(t1, temps_mat, util_mat, ql_mat, vf_mat)
            elif use_span:
                # Event lanes view their live batch rows through one
                # persistent per-lane context (no snapshot copies).
                for lane in lanes:
                    lane._run_policy(t1)
            else:
                # One batch copy per snapshot field; each lane's
                # TickArrays is a row view of the copies (identical
                # values to the serial per-run copies, without R small
                # allocations).
                temps_snap = temps_mat.copy()
                state_snap = state_mat.copy()
                vf_snap = vf_mat.copy()
                ql_snap = ql_mat.copy()
                util_snap = util_mat.copy()
                for r, lane in enumerate(lanes):
                    arrays = TickArrays(
                        core_names=core_names_tuples[r],
                        temperature_k=temps_snap[r],
                        utilization=util_snap[r],
                        state_codes=state_snap[r],
                        vf_index=vf_snap[r],
                        queue_length=ql_snap[r],
                    )
                    lane._run_policy(t1, util_mat[r], arrays=arrays)
            prof.lap(PH_POLICY)

            # Record the end-of-interval state: one blocked mean
            # readback (modal lanes filled theirs at the step), then one
            # plane write per field.
            if modals is None:
                unit_block = thermal.unit_mean_block(
                    temps_block, column_exact=exact
                )
            times[tick] = t1
            plane_unit[tick] = unit_block.T
            plane_core[tick] = unit_block[core_cols].T
            plane_peak[tick] = peak_block[core_cols].T
            plane_spread[tick] = (
                np.maximum.reduceat(unit_block, die_starts, axis=0)
                - np.minimum.reduceat(unit_block, die_starts, axis=0)
            ).T
            plane_util[tick] = util_mat
            plane_vf[tick] = vf_mat
            plane_state[tick] = state_mat
            tick_powers = power.total_power_rows(power_mat)
            plane_power[tick] = tick_powers
            for r in range(n_lanes):
                energies[r] += tick_powers[r] * dt
            prof.lap(PH_RECORD)
            prof.tick_done()

        if policy_batch is not None:
            policy_batch.finish()
        if dvfs_batch is not None:
            dvfs_batch.finish()

        # Unpack the planes into per-lane recordings and hand each lane
        # its state back.
        results = []
        for r, lane in enumerate(lanes):
            rec = recs[r]
            rec.times[:] = times
            rec.unit_temps[:] = plane_unit[:, r]
            rec.core_temps[:] = plane_core[:, r]
            rec.core_peaks[:] = plane_peak[:, r]
            rec.spreads[:] = plane_spread[:, r]
            rec.utilization[:] = plane_util[:, r]
            rec.vf_indices[:] = plane_vf[:, r]
            rec.core_states[:] = plane_state[:, r]
            rec.total_power[:] = plane_power[:, r]
            if modals is None:
                lane.thermal.temperatures = temps_block[:, r].copy()
            else:
                modals[r].close()
            results.append(lane._build_result(rec, energies[r], dt))
        if prof.enabled:
            batch_phases = prof.summary()
            for result in results:
                if result.telemetry is not None:
                    result.telemetry["batch"] = {
                        "n_lanes": n_lanes,
                        "phases": batch_phases,
                    }
        return results
