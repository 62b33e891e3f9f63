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

Per-run scheduler state — event heaps, dispatch queues, DPM, workload
generators — stays scalar: each run's
:class:`~repro.sched.engine.SimulationEngine` acts as its lane's state
machine, driven lock-step by the shared boundary sweep. The lanes'
structure-of-arrays bookkeeping is re-homed onto rows of batch-owned
``(R, n_cores)`` matrices at construction, so the boundary reads them
with zero per-lane gathering.

With ``EngineConfig(fidelity="event")`` lanes (uniform across the
batch), the per-lane interval advance switches to the span substrate —
lazy per-core spans, trusted completion events — and three further
batch-level fusions engage:

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
  no-op, as in serial.

The serial engine's event clock jumps do not engage in the fused loop:
they are an alternative to the batch's amortization, not an addition
to it, and a jump is an exact shortcut for the ticks it replaces, so
leaving it out changes no bit. What stays per lane is the interval
advance (dispatch, completions, spans), the utilization and memory
readback, DPM, the V/f transitions and migrations the families find,
and the fallback lanes' policy calls. Shrinking the per-lane scalar
term is what breaks the eager batch's Amdahl cap (docs/ENGINE.md).
Event lanes are bit-identical to serial event runs
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

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.adapt3d import Adapt3D
from repro.core.base import Migration, TickArrays
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

PROPAGATION_MODES = ("exact", "gemm")

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
    """Partition event lanes into stacked policy families.

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
    ``(batch row, allocator)`` pairs; event fidelity only.
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
    Built from ``(batch row, lane, policy, migrate)`` tuples; event
    fidelity only.
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

        # Readback rows, one per lane: ``unit_rows`` (mean) and
        # ``peak_rows`` (max, NaN outside core units on event lanes).
        # The post-step readback of tick k is the pre-step temperature
        # of tick k+1; the initial rows use the same per-lane GEMV the
        # serial engine starts from.
        if use_span:
            # Each event lane's ModalJump, the stepper serial event
            # steps, re-homed onto rows of (R, ·) blocks: a tick is one
            # block step (ModalJump.advance_rows).
            modals = [lane.thermal.modal_jump() for lane in lanes]
            modal_blocks = ModalJump.stack(modals)
            unit_rows = modal_blocks["mean"]
            peak_rows = modal_blocks["peak"]
        else:
            # (n_nodes, R) thermal state: column r is lane r's node
            # vector; the readback blocks are (n_units, R), read through
            # their transposes.
            temps_block = np.empty((n_nodes, n_lanes))
            for r, lane in enumerate(lanes):
                temps_block[:, r] = lane.thermal.temperatures
            unit_rows = np.empty((n_units, n_lanes)).T
        for r, lane in enumerate(lanes):
            unit_rows[r] = lane.thermal.unit_temperature_vector()

        recs = [_Recording.allocate(lane, n_ticks) for lane in lanes]
        core_cols = recs[0].core_cols
        # Event lanes tick each policy family once for the batch
        # (_stack_policy_ticks); lanes without a family keep their own
        # on_tick.
        if use_span:
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
            # and one thermal block step. Event lanes take the event
            # kernel on their rows (elementwise, then one GEMV per lane
            # on its contiguous row: serial event's bits). Eager lanes
            # take the oracle-exact kernel with cores/units down axis
            # 0, one column per lane. Either way the thermal step gets a
            # C-contiguous (R, n_units) power block, so its per-lane
            # GEMV operands are contiguous rows as in serial.
            if use_span:
                power.event_factors(
                    state_mat, util_mat, dyn_mat, volt_mat, mem_col,
                    event_power,
                )
                power.event_eval(event_power, unit_rows, power_mat)
            else:
                base_mat, leak_mat = power.power_factors(
                    state_mat.T, util_mat.T, dyn_mat.T, volt_mat.T, mem_vec
                )
                power_mat = np.ascontiguousarray(
                    power.power_eval(base_mat, leak_mat, unit_rows.T).T
                )
            prof.lap(PH_POWER)
            if use_span:
                if tick == 0:
                    for r, modal in enumerate(modals):
                        modal.open(power_mat[r])
                ModalJump.advance_rows(modals, modal_blocks, power_mat)
            else:
                temps_block = thermal.step_block(
                    power_mat, temps_block, column_exact=exact
                )
                peak_rows = thermal.unit_max_block(temps_block).T
            prof.lap(PH_THERMAL)
            if all_ideal:
                temps_mat[:, :] = peak_rows[:, core_cols]
            else:
                for r, lane in enumerate(lanes):
                    lane._temps_arr[:] = lane.sensors.read_cores_vector(
                        peak_rows[r]
                    )
            prof.lap(PH_SENSORS)

            # DPM before the policy snapshots, as in the serial loop.
            for lane in dpm_lanes:
                lane._apply_dpm(t1)
            prof.lap(PH_DPM)

            if use_span:
                for family in families:
                    family.tick(t1, temps_mat, util_mat, ql_mat, vf_mat)
                # Lanes without a family view their live batch rows
                # through one persistent per-lane context (no snapshot
                # copies) and skip a provable no-op tick, as serial.
                for lane in fallback:
                    if not lane._policy_tick_noop():
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
            if not use_span:
                unit_rows = thermal.unit_mean_block(
                    temps_block, column_exact=exact
                ).T
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

        if use_span:
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
            if use_span:
                modals[r].close()
            else:
                lane.thermal.temperatures = temps_block[:, r].copy()
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
