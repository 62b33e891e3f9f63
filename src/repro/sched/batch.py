"""Batched multi-run engine: one tick loop shared by R event runs.

A campaign grid is mostly *independent* runs over the same stack —
seeds, policies, noise points. Each serial run spends its tick boundary
in a fixed set of small NumPy calls (power kernel, thermal step,
readback, recording) whose ~1 us/op dispatch overhead is paid once per
run per tick. The :class:`BatchSimulationEngine` advances R event-
fidelity runs that share one
:class:`~repro.thermal.model.ThermalAssembly` through a single fused
tick loop, so that overhead is paid once per *batch* per tick:

- power injection is one event-kernel call for the whole batch
  (:meth:`~repro.power.chip_power.ChipPowerModel.event_factors` then
  ``event_eval``) on the ``(R, n_cores)`` state/utilization/V-f rows:
  elementwise, then one GEMV per lane on its contiguous row, as serial
  event issues it;
- the thermal step is one block step. Each lane's
  :class:`~repro.thermal.model.ModalJump` (the stepper a serial event
  run steps) is re-homed onto rows of ``(R, ·)`` blocks
  (:meth:`~repro.thermal.model.ModalJump.stack`), so every elementwise
  op and the peak segment max run once per batch and only the two
  GEMVs run per lane, on contiguous rows
  (:meth:`~repro.thermal.model.ModalJump.advance_rows`);
- ideal-sensor reads become one gather over the peak block;
- policy ticks are stacked per family (:func:`_stack_policy_ticks`).
  Every plain probabilistic allocator — a §III-C hybrid's Adapt3D half
  included — ticks in one §III-B update per history window
  (:class:`_ProbabilisticBatchTick`), and every plain §III-A DVFS
  policy — a hybrid's DVFS half included — in one update per exact
  class (:class:`_DVFSBatchTick`), whose V/f transitions one
  ``levels != vf`` compare finds. Lanes whose policy has no family
  (Default, CGate, Migr, custom policies, Adapt3D with the online
  index estimator) keep their own ``on_tick``, skipped when provably a
  no-op, as in serial;
- recording is one ``(R, ...)`` plane write per field per tick.

Per-run scheduler state — event heaps, dispatch queues, DPM, workload
generators — stays scalar: each run's
:class:`~repro.sched.engine.SimulationEngine` acts as its lane's state
machine, driven lock-step by the shared boundary sweep on the span
substrate (lazy per-core spans, trusted completion events). The lanes'
structure-of-arrays bookkeeping is re-homed onto rows of batch-owned
``(R, n_cores)`` matrices at construction, so the boundary reads them
with zero per-lane gathering.

The serial engine's event clock jumps do not engage in the fused loop:
they are an alternative to the batch's amortization, not an addition
to it, and a jump is an exact shortcut for the ticks it replaces, so
leaving it out changes no bit. What stays per lane is the interval
advance (dispatch, completions, spans), the utilization and memory
readback, DPM, the V/f transitions and migrations the families find,
and the fallback lanes' policy calls.

Bit-identity
------------

Every batched operation processes a run's lane independently of its
neighbors: elementwise ops, segment ``reduceat``, and the per-lane
GEMVs of the event power kernel and of the modal step, each on a
contiguous row as the serial loop passes it. Lanes are therefore
bit-identical to serial event runs (``tests/test_engine_batch.py``,
``tests/test_engine_span.py``). One GEMM over the batch would not be:
BLAS GEMM columns differ from GEMV at ~1e-13 K.

Eager runs, the per-event reference, never fuse: the engine refuses an
eager lane, and ``ExperimentRunner.group_batchable`` hands each eager
spec to :meth:`SimulationEngine.run` alone.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.adapt3d import Adapt3D
from repro.core.base import Migration
from repro.core.default import IMBALANCE_THRESHOLD
from repro.core.dvfs_flp import DVFSFloorplanAware
from repro.core.dvfs_tt import DVFSTemperatureTriggered
from repro.core.dvfs_util import DVFSUtilizationBased
from repro.core.hybrid import HybridPolicy
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
from repro.thermal.model import ModalJump

#: The plain §III-A DVFS classes a stacked family can tick.
_DVFS_KINDS = (
    DVFSTemperatureTriggered,
    DVFSUtilizationBased,
    DVFSFloorplanAware,
)


def _plain_allocator(policy) -> bool:
    """A probabilistic allocator whose tick is exactly the §III-B
    update (base ``on_tick``, or Adapt3D's without the online index
    estimator)."""
    if not isinstance(policy, ProbabilisticAllocator):
        return False
    tick = type(policy).on_tick
    if tick is ProbabilisticAllocator.on_tick:
        return True
    return tick is Adapt3D.on_tick and policy.online_index_window is None


def _stack_parts(lane: SimulationEngine):
    """``(allocator, dvfs, migrate)``: the halves of a lane's policy the
    stacked families take over, or ``None`` when the lane has no family.

    Plain allocators and plain DVFS policies stand alone (a DVFS policy
    keeps its base load-balancing migration); a :class:`HybridPolicy`
    of the two splits into both halves and drops the DVFS half's
    migration, as its ``on_tick`` does. A policy that does not decide
    in the engine's core order keeps its own ``on_tick``, which raises
    or maps names as in a serial run.
    """
    policy = lane.policy
    if type(policy) is HybridPolicy:
        allocator, dvfs, migrate = policy.allocator, policy.dvfs, False
        if not (_plain_allocator(allocator) and type(dvfs) in _DVFS_KINDS):
            return None
    elif _plain_allocator(policy):
        allocator, dvfs, migrate = policy, None, False
    elif type(policy) in _DVFS_KINDS:
        allocator, dvfs, migrate = None, policy, True
    else:
        return None
    for part in (allocator, dvfs):
        if (
            part is not None
            and tuple(part.system.core_names) != lane._core_names_tuple
        ):
            return None
    return allocator, dvfs, migrate


def _stack_policy_ticks(
    lanes: Sequence[SimulationEngine],
) -> Tuple[list, List[SimulationEngine]]:
    """Partition lanes into stacked policy families.

    Returns ``(families, fallback)``. Every plain probabilistic
    allocator (a hybrid's Adapt3D half included) joins one
    :class:`_ProbabilisticBatchTick` per history window (and cursor);
    every plain DVFS policy (a hybrid's DVFS half included) joins one
    :class:`_DVFSBatchTick` per exact class (and V/f table). A lane
    whose policy has no family — Default, CGate, Migr, custom policies,
    Adapt3D with ``online_index_window`` — is returned in ``fallback``
    and keeps its own ``on_tick``.
    """
    prob: Dict[tuple, list] = {}
    dvfs: Dict[tuple, list] = {}
    fallback = []
    for row, lane in enumerate(lanes):
        parts = _stack_parts(lane)
        if parts is None:
            fallback.append(lane)
            continue
        allocator, dvfs_part, migrate = parts
        if allocator is not None:
            key = (
                allocator.history_window,
                allocator._hist_pos,
                allocator._hist_len,
            )
            prob.setdefault(key, []).append((row, allocator))
        if dvfs_part is not None:
            freqs = tuple(
                level.frequency for level in dvfs_part.system.vf_table._levels
            )
            dvfs.setdefault((type(dvfs_part), freqs), []).append(
                (row, lane, dvfs_part, migrate)
            )
    families: list = [
        _ProbabilisticBatchTick(members) for members in prob.values()
    ]
    families += [_DVFSBatchTick(members) for members in dvfs.values()]
    return families, fallback


class _ProbabilisticBatchTick:
    """One §III-B probability update per tick for a family of lanes.

    The per-tick update of a plain probabilistic allocator is a handful
    of vector expressions, the same for every lane. This helper
    re-homes each member allocator's probability row and temperature
    history onto stacked ``(R, n)`` / ``(R, n, window)`` matrices and
    applies the update once per tick for the family — row ``i`` evolves
    exactly as member ``i``'s own ``on_tick`` would evolve it (all
    operations are row-independent), and allocators issue no tick
    actions. Members share the history window and cursor. Built from
    ``(batch row, allocator)`` pairs.
    """

    def __init__(self, members) -> None:
        rows, policies = zip(*members)
        self.rows = np.array(rows, dtype=np.intp)
        self.policies = list(policies)
        base = policies[0]
        n = len(base._names)
        self.window = base.history_window
        self.prob_mat = np.empty((len(policies), n))
        self.hist_block = np.empty((len(policies), n, self.window))
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
        self.hist_pos = base._hist_pos
        self.hist_len = base._hist_len

    def tick(self, now, temps_mat, util_mat, ql_mat, vf_mat) -> None:
        """Advance every member's probability state by one tick."""
        temps = temps_mat[self.rows]
        self.hist_block[:, :, self.hist_pos] = temps
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
        prob[temps >= self.thr_col] = 0.0
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
        """Write the shared cursor back to the member allocators."""
        for policy in self.policies:
            policy._hist_pos = self.hist_pos
            policy._hist_len = self.hist_len


class _DVFSBatchTick:
    """One stacked §III-A DVFS update per tick for a family of lanes.

    Members run one plain DVFS class (:class:`DVFSTemperatureTriggered`,
    :class:`DVFSUtilizationBased` or :class:`DVFSFloorplanAware`,
    unmodified ``on_tick``), standalone or as a hybrid's DVFS half. The
    per-tick decision is the same per-core level rule for every member,
    computed as one ``(R, n)`` level matrix; one ``levels != vf``
    compare finds the (rare) transitions, which go through the engine's
    single V/f writer, :meth:`SimulationEngine._apply_vf_level`, in the
    order the serial loop iterates ``actions.vf_settings`` (core order
    for TT/Util, susceptibility-ranked order for FLP), so event-heap
    invalidation sequence numbers — and therefore same-time event
    tie-breaks — match the serial engine. Standalone members then take
    the base load-balancing migration, decided on the queue lengths the
    tick saw; hybrid members drop it, as :class:`HybridPolicy` does.
    Built from ``(batch row, lane, policy, migrate)`` tuples.
    """

    def __init__(self, members) -> None:
        rows, lanes, policies, migrate = zip(*members)
        self.rows = np.array(rows, dtype=np.intp)
        self.lanes = list(lanes)
        self.policies = list(policies)
        self.migrate_rows = np.flatnonzero(migrate)
        base = policies[0]
        cls = self.kind = type(base)
        table = base.system.vf_table
        names = self.core_names = list(base.system.core_names)
        self.lowest = table.lowest_index
        self.order = None
        if cls is DVFSFloorplanAware:
            # Static levels; transitions are found in each member's
            # assignment order.
            col_index = {name: i for i, name in enumerate(names)}
            self.order = np.array(
                [[col_index[name] for name in p._assignment] for p in policies],
                dtype=np.intp,
            )
            self.level_mat = np.array(
                [[p._assignment[name] for name in names] for p in policies],
                dtype=np.int64,
            )
            self.ordered_levels = np.take_along_axis(
                self.level_mat, self.order, axis=1
            )
        elif cls is DVFSTemperatureTriggered:
            self.level_mat = np.array(
                [[p._levels[name] for name in names] for p in policies],
                dtype=np.int64,
            )
            self.thr_col = np.array(
                [[p.system.thermal_threshold_k] for p in policies]
            )
        else:
            self.level_mat = np.empty((len(policies), len(names)), np.int64)
            # Table frequencies are descending; negate so searchsorted
            # sees an ascending key and the per-row count of levels
            # still covering the utilization is one call.
            self.neg_freqs = -np.array(
                [level.frequency for level in table._levels]
            )

    def advance_levels(
        self, temps: np.ndarray, utils: np.ndarray
    ) -> np.ndarray:
        """Stacked level decision: row ``i`` is member ``i``'s levels."""
        levels = self.level_mat
        if self.kind is DVFSTemperatureTriggered:
            np.copyto(
                levels,
                np.where(
                    temps >= self.thr_col,
                    np.minimum(levels + 1, self.lowest),
                    np.maximum(levels - 1, 0),
                ),
            )
        elif self.kind is DVFSUtilizationBased:
            # lowest_covering(u): largest index whose frequency still
            # covers u — the count of covering levels minus one,
            # clamped to the nominal setting when none covers.
            counts = np.searchsorted(self.neg_freqs, -utils, side="right")
            np.maximum(counts - 1, 0, out=levels)
        return levels

    def tick(self, now, temps_mat, util_mat, ql_mat, vf_mat) -> None:
        """Advance every member's DVFS decision by one tick."""
        rows = self.rows
        temps = temps_mat[rows]
        utils = util_mat[rows]
        ql = ql_mat[rows]
        vf = vf_mat[rows]
        levels = self.advance_levels(temps, utils)
        # Load balancing decides on the queues on_tick sees, before any
        # action applies.
        moves = []
        if self.migrate_rows.size:
            ql = ql[self.migrate_rows]
            for k in np.flatnonzero(
                ql.max(axis=1) - ql.min(axis=1) >= IMBALANCE_THRESHOLD
            ).tolist():
                moves.append((self.migrate_rows[k], ql[k]))
        order = self.order
        if order is None:
            changed = levels != vf
        else:
            changed = self.ordered_levels != np.take_along_axis(
                vf, order, axis=1
            )
        if changed.any():
            members, cols = np.nonzero(changed)
            if order is not None:
                cols = order[members, cols]
            for i, col, level in zip(
                members.tolist(),
                cols.tolist(),
                levels[members, cols].tolist(),
            ):
                lane = self.lanes[i]
                lane._apply_vf_level(
                    lane._core_list[col],
                    level,
                    lane.vf_table[level].frequency,
                    now,
                )
        names = self.core_names
        for i, queues in moves:
            # First longest / first shortest in core order, as
            # DefaultLoadBalancing.on_tick resolves ties.
            self.lanes[i]._migrate(
                Migration(
                    names[queues.argmax()],
                    names[queues.argmin()],
                    move_running=False,
                    swap=False,
                ),
                now,
            )

    def finish(self) -> None:
        """Write the stacked level state back to the member policies."""
        if self.kind is not DVFSTemperatureTriggered:
            return
        names = self.core_names
        for policy, row in zip(self.policies, self.level_mat.tolist()):
            for name, level in zip(names, row):
                policy._levels[name] = level


class BatchSimulationEngine:
    """Run R compatible event simulations through one fused tick loop.

    Parameters
    ----------
    engines:
        The lanes: one fully-built :class:`SimulationEngine` per run,
        each with ``EngineConfig(fidelity="event")``; an eager lane is
        refused (run it alone with :meth:`SimulationEngine.run`). All
        lanes must share the same :class:`ThermalAssembly` and
        :class:`ChipPowerModel` instances (the
        :class:`~repro.analysis.runner.ExperimentRunner` caches
        guarantee this for runs on the same (exp, grid)), the same
        sampling interval and duration. Policies, workloads, seeds, DPM
        and sensor noise may differ per lane.
    """

    def __init__(self, engines: Sequence[SimulationEngine]) -> None:
        lanes = list(engines)
        if not lanes:
            raise SchedulerError("batch engine needs at least one run")
        base = lanes[0]
        for lane in lanes:
            if lane.config.fidelity != "event":
                raise SchedulerError(
                    "batched lanes run at event fidelity, got "
                    f"{lane.config.fidelity!r}; run the engine alone "
                    "with SimulationEngine.run"
                )
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
        self.lanes = lanes

    @property
    def n_runs(self) -> int:
        """Number of lanes in the batch."""
        return len(self.lanes)

    # ------------------------------------------------------------------

    def run(self) -> List["object"]:
        """Advance every lane to completion; results in lane order.

        Returns one :class:`~repro.sched.engine.SimulationResult` per
        lane, bit-identical to the lane's own
        :meth:`SimulationEngine.run`.
        """
        lanes = self.lanes
        n_lanes = len(lanes)
        base = lanes[0]

        shapes = [lane._prepare_run() for lane in lanes]
        n_ticks, dt = shapes[0]
        if any(shape != (n_ticks, dt) for shape in shapes[1:]):
            raise SchedulerError("batched runs disagree on tick layout")

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

        power = base.power
        n_units = len(base.thermal.unit_names)

        # Each lane's ModalJump, the stepper serial event steps,
        # re-homed onto rows of (R, ·) blocks: a tick is one block step
        # (ModalJump.advance_rows), which also fills the readback rows
        # ``unit_rows`` (mean) and ``peak_rows`` (max, NaN outside core
        # units). The post-step readback of tick k is the pre-step
        # temperature of tick k+1; the initial rows use the same
        # per-lane GEMV the serial engine starts from.
        modals = [lane.thermal.modal_jump() for lane in lanes]
        modal_blocks = ModalJump.stack(modals)
        unit_rows = modal_blocks["mean"]
        peak_rows = modal_blocks["peak"]
        for r, lane in enumerate(lanes):
            unit_rows[r] = lane.thermal.unit_temperature_vector()

        recs = [_Recording.allocate(lane, n_ticks) for lane in lanes]
        core_cols = recs[0].core_cols
        # Each policy family ticks once for the batch; lanes without a
        # family keep their own on_tick.
        families, fallback = _stack_policy_ticks(lanes)
        # Ideal sensors read the true per-core peaks, so the whole
        # batch's sensor sweep is one gather (bitwise equal to the
        # per-lane reads); noisy lanes keep their per-lane RNG draws.
        all_ideal = all(lane.sensors.ideal for lane in lanes)

        # Per-tick planes, written once per field per tick and unpacked
        # into the per-lane recordings at the end (which derive their
        # times, core means and die spreads from the unit rows).
        plane_unit = np.empty((n_ticks, n_lanes, n_units))
        plane_peak = np.empty((n_ticks, n_lanes, n_cores))
        plane_util = np.empty((n_ticks, n_lanes, n_cores))
        plane_vf = np.empty((n_ticks, n_lanes, n_cores), dtype=np.int64)
        plane_state = np.empty((n_ticks, n_lanes, n_cores), dtype=np.int64)
        plane_power = np.empty((n_ticks, n_lanes))

        energies = [0.0] * n_lanes
        mem_vec = np.empty(n_lanes)
        util_mat = np.empty((n_lanes, n_cores))
        # The event kernel prices power on the C-contiguous (R, ·) rows,
        # one GEMV per lane.
        event_power = power.event_buffers(n_lanes)
        mem_col = mem_vec[:, None]
        power_mat = np.empty((n_lanes, n_units))
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

            # Per-lane interval execution on the span substrate (scalar
            # state machines, in lane order — lanes are independent).
            for lane in lanes:
                lane._advance_interval_span(t0, t1)
            for r, lane in enumerate(lanes):
                util_mat[r] = lane._span_utilization(dt, t0, t1)
                mem_vec[r] = lane._memory_intensity()
            prof.lap(PH_INTERVAL)

            # Fused boundary: one event-kernel call for the whole batch
            # (elementwise, then one GEMV per lane on its contiguous
            # row: serial event's bits) and one modal block step.
            power.event_factors(
                state_mat, util_mat, dyn_mat, volt_mat, mem_col,
                event_power,
            )
            power.event_eval(event_power, unit_rows, power_mat)
            prof.lap(PH_POWER)
            if tick == 0:
                for r, modal in enumerate(modals):
                    modal.open(power_mat[r])
            ModalJump.advance_rows(modals, modal_blocks, power_mat)
            prof.lap(PH_THERMAL)
            if all_ideal:
                temps_mat[:, :] = peak_rows[:, core_cols]
            else:
                for r, lane in enumerate(lanes):
                    lane._temps_arr[:] = lane.sensors.read_cores_vector(
                        peak_rows[r]
                    )
            prof.lap(PH_SENSORS)

            # DPM before the policy reads the rows, as in the serial loop.
            for lane in dpm_lanes:
                lane._apply_dpm(t1)
            prof.lap(PH_DPM)

            for family in families:
                family.tick(t1, temps_mat, util_mat, ql_mat, vf_mat)
            # Lanes without a family view their live batch rows through
            # one persistent per-lane context (no snapshot copies) and
            # skip a provable no-op tick, as serial.
            for lane in fallback:
                if not lane._policy_tick_noop():
                    lane._run_policy(t1)
            prof.lap(PH_POLICY)

            # Record the end-of-interval state (the block step filled
            # the mean rows): one plane write per field.
            plane_unit[tick] = unit_rows
            plane_peak[tick] = peak_rows[:, core_cols]
            plane_util[tick] = util_mat
            plane_vf[tick] = vf_mat
            plane_state[tick] = state_mat
            tick_powers = power.total_power_rows(power_mat)
            plane_power[tick] = tick_powers
            for r in range(n_lanes):
                energies[r] += tick_powers[r] * dt
            prof.lap(PH_RECORD)
            prof.tick_done()

        for family in families:
            family.finish()

        # Unpack the planes into per-lane recordings and hand each lane
        # its state back.
        results = []
        for r, lane in enumerate(lanes):
            rec = recs[r]
            rec.unit_temps[:] = plane_unit[:, r]
            rec.core_peaks[:] = plane_peak[:, r]
            rec.utilization[:] = plane_util[:, r]
            rec.vf_indices[:] = plane_vf[:, r]
            rec.core_states[:] = plane_state[:, r]
            rec.total_power[:] = plane_power[:, r]
            rec.derive_planes(dt)
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
