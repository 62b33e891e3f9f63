"""Chip-level power aggregation: one power value per floorplan unit.

``ChipPowerModel`` computes the per-unit power vector the thermal model
consumes each sampling interval:

- cores: state/utilization/DVFS dynamic power + polynomial leakage,
- L2 banks: access-scaled dynamic power + leakage; each bank serves two
  cores (T1: one shared L2 per core pair), assigned in canonical order,
- crossbars: per-layer, scaled by that layer's active cores and the
  workload's memory intensity, + leakage,
- misc ('other') blocks: small area-proportional dynamic floor + leakage.

Leakage is evaluated at each unit's *current* temperature, closing the
temperature-leakage feedback loop through the thermal model.

The equations are written as two kernels, each in two halves: a
factor half folds one interval's activity (core states, utilization,
V/f, memory intensity) into an affine form, and an eval half prices it
at a temperature row.

- :meth:`ChipPowerModel.power_factors` / :meth:`ChipPowerModel.power_eval`
  is the oracle-exact kernel, ``power = base + leak_mul *
  (density*area * leak_poly(T))`` in the scalar model's floating-point
  order: bit for bit the test oracle (``tests/power_oracle.py``). Eager
  ticks, the warm start and the thermal-index characterization take
  it, one run per call. Eager is the bit-identity reference, and the
  engine-vs-scan-oracle differential can only hold bitwise if the
  engine prices power with the oracle's bits.
- :meth:`ChipPowerModel.event_factors` / :meth:`ChipPowerModel.event_eval`
  is the event kernel, ``base = K + M @ x`` with one precomputed unit ×
  core matrix ``M``, then ``power = base + w * clamp(poly(T))``. It
  makes far fewer NumPy calls and matches the oracle to rounding (per
  unit within 1e-13 relative). Event ticks, event clock jumps (factors
  once per jump, one eval per tick) and batched event lanes take it,
  writing into caller-owned :class:`EventPowerBuffers`: the runner
  shares one power model per stack among all its engines.

Both kernels derive their constants from the same index and weight
tables (:meth:`ChipPowerModel._build_tables`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import PowerModelError
from repro.floorplan.experiments import ExperimentConfig
from repro.floorplan.unit import Unit, UnitKind
from repro.power.cache_power import CachePowerModel
from repro.power.core_power import CorePowerModel
from repro.power.crossbar import CrossbarPowerModel
from repro.power.leakage import (
    DEFAULT_LEAKAGE,
    REFERENCE_TEMPERATURE_K,
    LeakageModel,
)
from repro.power.states import CODE_STATE, STATE_CODE, CoreState
from repro.power.vf import VFLevel

# Dynamic power density of miscellaneous logic (I/O, FPU, buffers) at
# full chip activity, W/mm².
OTHER_DENSITY_W_PER_MM2 = 0.05
OTHER_BASELINE_FRACTION = 0.4

_ACTIVE_CODE = STATE_CODE[CoreState.ACTIVE]
_GATED_CODE = STATE_CODE[CoreState.GATED]
_SLEEP_CODE = STATE_CODE[CoreState.SLEEP]


def _segments(groups: List[List[int]]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenated indices, start offsets and float sizes of non-empty
    index groups: one gather + one ``reduceat`` sums every group."""
    flat = [i for group in groups for i in group]
    sizes = [len(group) for group in groups]
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    return (
        np.array(flat, dtype=np.intp),
        starts.astype(np.intp),
        np.array(sizes, dtype=np.float64),
    )


def _segment_ids(sizes: np.ndarray) -> np.ndarray:
    """Segment ordinal of every entry of a :func:`_segments` gather."""
    return np.repeat(np.arange(len(sizes)), sizes.astype(np.intp))


class EventPowerBuffers:
    """One caller's work and result arrays for the event power kernel.

    :meth:`ChipPowerModel.event_factors` writes the per-state
    multipliers of the cores (``state``, one row per lookup table), the
    activity vector ``act = [dyn; umem; amem; active]`` (one
    ``n_cores`` block each, exposed as views), the core leakage scales
    and the factors ``base`` and ``weight``;
    :meth:`ChipPowerModel.event_eval` reads the factors. ``runs=None``
    holds one run (``(n_cores,)`` inputs); ``runs=R`` holds R runs as
    C-contiguous rows (``(R, n_cores)`` inputs), and ``gemv_rows``
    pairs each run's contiguous ``act`` row with its ``base`` row, so
    every run's GEMV gets the operands a single-run call gets.
    """

    __slots__ = (
        "state", "state_rows", "act", "dyn", "umem", "amem", "active",
        "leak", "core_leak", "base", "weight", "gemv_rows",
    )

    def __init__(
        self, n_cores: int, n_units: int, runs: Optional[int] = None
    ) -> None:
        lead = () if runs is None else (runs,)
        # One row per per-state table: executes, fixed power, active,
        # awake.
        self.state = np.zeros((4,) + lead + (n_cores,))
        self.state_rows = tuple(self.state)
        self.act = np.zeros(lead + (4 * n_cores,))
        self.dyn, self.umem, self.amem, self.active = np.split(
            self.act, 4, axis=-1
        )
        # [1, V²·awake per core]: gathered onto the units, so every
        # non-core unit reads the leading 1.
        self.leak = np.ones(lead + (n_cores + 1,))
        self.core_leak = self.leak[..., 1:]
        self.base = np.zeros(lead + (n_units,))
        self.weight = np.zeros(lead + (n_units,))
        if runs is None:
            self.gemv_rows = ((self.act, self.base),)
        else:
            self.gemv_rows = tuple(zip(self.act, self.base))


class ChipPowerModel:
    """Per-unit power of one experiment configuration."""

    def __init__(
        self,
        config: ExperimentConfig,
        core_model: CorePowerModel = CorePowerModel(),
        cache_model: CachePowerModel = CachePowerModel(),
        crossbar_model: CrossbarPowerModel = CrossbarPowerModel(),
        leakage_model: LeakageModel = DEFAULT_LEAKAGE,
    ) -> None:
        self.config = config
        self.core_model = core_model
        self.cache_model = cache_model
        self.crossbar_model = crossbar_model
        self.leakage_model = leakage_model

        units = [
            (layer_index, unit)
            for layer_index, plan in enumerate(config.layers)
            for unit in plan
        ]
        # Canonical unit order: the insertion order of config.layers,
        # which matches ThermalModel.unit_names.
        self._unit_names = [unit.name for _, unit in units]
        self._core_names = [
            unit.name for _, unit in units if unit.kind is UnitKind.CORE
        ]
        self._cache_names = [
            unit.name for _, unit in units if unit.kind is UnitKind.CACHE
        ]
        if not self._core_names:
            raise PowerModelError("configuration has no cores")
        self._cache_cores = self._assign_caches()
        self._build_tables(units)
        self._build_event_kernel()

    def _build_tables(self, units: List[Tuple[int, Unit]]) -> None:
        """Precompute the index/weight arrays of the exact kernel (the
        event kernel's constants are derived from them).

        Every per-unit array is in canonical unit order and every
        per-core array in ``core_names`` order, so the kernel is a
        handful of NumPy expressions whose per-element arithmetic is
        the scalar equations' (``tests/power_oracle.py``).
        """
        positions = {
            kind: np.array(
                [i for i, (_, unit) in enumerate(units) if unit.kind is kind],
                dtype=np.intp,
            )
            for kind in UnitKind
        }
        self._core_idx = positions[UnitKind.CORE]
        self._cache_idx = positions[UnitKind.CACHE]
        self._xbar_idx = positions[UnitKind.CROSSBAR]
        self._other_idx = positions[UnitKind.OTHER]

        areas_mm2 = np.array([unit.area * 1e6 for _, unit in units])
        # density * area_mm2 is the first product of the scalar leakage
        # evaluation, so precomputing it keeps bitwise parity.
        self._leak_dens_area = np.array(
            [self.leakage_model.densities[unit.kind] for _, unit in units]
        ) * areas_mm2
        self._other_dyn_w = OTHER_DENSITY_W_PER_MM2 * areas_mm2[self._other_idx]

        # L2 banks: each fed bank's mean utilization is one segment of
        # a reduceat over its served cores (a bank serving no core has
        # a zero mean).
        core_index = {name: i for i, name in enumerate(self._core_names)}
        served = [
            [core_index[c] for c in self._cache_cores[name]]
            for name in self._cache_names
        ]
        self._cache_fed = np.array(
            [b for b, group in enumerate(served) if group], dtype=np.intp
        )
        self._cache_served, self._cache_starts, self._cache_sizes = (
            _segments([group for group in served if group])
        )

        # Active-core fractions: one segment per crossbar (its layer's
        # cores, or every core when its layer has none: an EXP-1 style
        # crossbar serves the whole chip from the only logic layer),
        # then a last segment of every core (the chip fraction, which
        # also scales the misc logic). Counts are exact integers, so
        # the fractions are the scalar count loop's bit for bit.
        all_cores = list(range(len(self._core_names)))
        layer_cores: Dict[int, List[int]] = {}
        for layer, unit in units:
            if unit.kind is UnitKind.CORE:
                layer_cores.setdefault(layer, []).append(core_index[unit.name])
        groups = [
            layer_cores.get(units[i][0]) or all_cores for i in self._xbar_idx
        ]
        self._act_cores, self._act_starts, self._act_sizes = _segments(
            groups + [all_cores]
        )

        # The scalar model's summation order (cores, L2 banks,
        # crossbars, misc): total_power() folds in it.
        self._sum_order = np.concatenate(
            [self._core_idx, self._cache_idx, self._xbar_idx, self._other_idx]
        )

    def _build_event_kernel(self) -> None:
        """Precompute the event kernel's constants from the tables.

        ``M`` (``n_units × 4·n_cores``) maps the activity vector ``x =
        [dyn; u·mem; active·(0.5+0.5·mem); active]`` to each unit's
        activity power above its constant floor ``K``: a core's row
        picks its dynamic power, an L2 bank's row averages its served
        cores' ``u·mem`` and a crossbar's row its segment's
        ``active·(0.5+0.5·mem)``, each weighted by the component's
        activity share, and a misc row averages the chip's ``active``.
        Per-state lookup tables (indexed by state code) turn the core
        states into the multipliers of ``x`` and of the leakage weights.
        The leakage polynomial is expanded around 0 K, ``poly(T) = c0
        + T·(c1 + T·c2)``: one call and one scratch row fewer than
        Horner's form in ``T − 383``, and as accurate (both within
        4e-15 relative of the exact polynomial between the clamps).
        """
        n_cores = len(self._core_names)
        n_units = len(self._unit_names)
        matrix = np.zeros((n_units, 4, n_cores))
        const = np.zeros(n_units)
        matrix[self._core_idx, 0, np.arange(n_cores)] = 1.0

        cache = self.cache_model
        seg = _segment_ids(self._cache_sizes)
        share = cache.full_power_w * (1.0 - cache.baseline_fraction)
        matrix[self._cache_idx[self._cache_fed][seg], 1, self._cache_served] = (
            share / self._cache_sizes
        )[seg]
        const[self._cache_idx] = cache.full_power_w * cache.baseline_fraction

        # The last active-core segment is the chip's (misc logic).
        xbar = self.crossbar_model
        seg = _segment_ids(self._act_sizes[:-1])
        share = xbar.full_power_w * (1.0 - xbar.baseline_fraction)
        matrix[self._xbar_idx[seg], 2, self._act_cores[: len(seg)]] = (
            share / self._act_sizes[:-1]
        )[seg]
        const[self._xbar_idx] = xbar.full_power_w * xbar.baseline_fraction
        matrix[self._other_idx, 3, :] = (
            self._other_dyn_w * (1.0 - OTHER_BASELINE_FRACTION)
            / self._act_sizes[-1]
        )[:, None]
        const[self._other_idx] = self._other_dyn_w * OTHER_BASELINE_FRACTION
        self._ev_matrix = matrix.reshape(n_units, 4 * n_cores)
        self._ev_const = const

        # Per-state tables, one row each, gathered in one call: whether
        # the state executes (its dynamic power is the busy blend), its
        # fixed power otherwise, whether it counts as active, and
        # whether the leakage model applies (a sleeping core's state
        # power already includes its leakage).
        core = self.core_model
        fixed_w = {CoreState.GATED: core.gated_w, CoreState.SLEEP: core.sleep_w}
        self._ev_state_table = np.array([
            [float(s.executes) for s in CODE_STATE],
            [fixed_w.get(s, 0.0) for s in CODE_STATE],
            [float(s is CoreState.ACTIVE) for s in CODE_STATE],
            [0.0 if core.includes_leakage(s) else 1.0 for s in CODE_STATE],
        ])
        # 0-d constants: as cheap an operand as a full array, cheaper
        # than a Python float.
        self._ev_busy_slope = np.array(core.active_w - core.idle_w)
        self._ev_idle_w = np.array(core.idle_w)

        leak_map = np.zeros(n_units, dtype=np.intp)
        leak_map[self._core_idx] = np.arange(1, n_cores + 1)
        self._ev_leak_map = leak_map
        leakage = self.leakage_model
        k1, k2, ref = leakage.k1, leakage.k2, REFERENCE_TEMPERATURE_K
        self._ev_c2 = np.array(k2)
        self._ev_c1 = np.array(k1 - 2.0 * k2 * ref)
        self._ev_c0 = np.array(1.0 - k1 * ref + k2 * ref * ref)
        self._ev_floor = np.array(leakage.floor)
        self._ev_ceiling = np.array(leakage.ceiling)

    def _assign_caches(self) -> Dict[str, List[str]]:
        """Distribute cores over L2 banks in canonical order (2 per bank)."""
        if not self._cache_names:
            raise PowerModelError("configuration has no L2 banks")
        per_bank = max(1, len(self._core_names) // len(self._cache_names))
        mapping: Dict[str, List[str]] = {}
        for bank_index, cache in enumerate(self._cache_names):
            start = bank_index * per_bank
            mapping[cache] = self._core_names[start: start + per_bank]
        return mapping

    # ------------------------------------------------------------------

    @property
    def core_names(self) -> List[str]:
        """Core unit names in canonical order."""
        return list(self._core_names)

    @property
    def unit_names(self) -> List[str]:
        """All unit names in canonical order (matches the thermal
        model's ``unit_names`` for the same configuration)."""
        return list(self._unit_names)

    def cache_serving(self, cache_name: str) -> List[str]:
        """Core names served by one L2 bank."""
        try:
            return list(self._cache_cores[cache_name])
        except KeyError:
            raise PowerModelError(f"unknown cache {cache_name!r}") from None

    # ------------------------------------------------------------------

    def power_factors(
        self,
        core_states: np.ndarray,
        core_utils: np.ndarray,
        core_dyn_scale: np.ndarray,
        core_voltage: np.ndarray,
        memory_intensity: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fold one interval's activity into ``(base, leak_mul)``.

        Parameters
        ----------
        core_states:
            :data:`~repro.power.states.STATE_CODE` codes in canonical
            ``core_names`` order, ``(n_cores,)``.
        core_utils:
            Busy fraction of the interval, in [0, 1]; same shape.
        core_dyn_scale, core_voltage:
            ``VFLevel.dynamic_scale`` and relative voltage; same shape.
        memory_intensity:
            Normalized L2 traffic of the running mix, in [0, 1].

        Returns ``(base, leak_mul)``, each ``(n_units,)`` in canonical
        ``unit_names`` order, for :meth:`power_eval`. ``base`` is the
        activity-dependent power: state/DVFS core power (``sleep_w``
        outright for a sleeping core, whose state power already
        includes leakage), cache access power, crossbar and misc
        activity power. ``leak_mul`` scales each unit's leakage: ``V²``
        for a core, 0 for a sleeping one, 1 elsewhere.
        """
        n_units = len(self._unit_names)
        base = np.empty(n_units)
        leak_mul = np.ones(n_units)

        core = self.core_model
        busy = core.active_w * core_utils + core.idle_w * (1.0 - core_utils)
        dyn = np.where(
            core_states == _GATED_CODE, core.gated_w, busy * core_dyn_scale
        )
        sleeping = core_states == _SLEEP_CODE
        base[self._core_idx] = np.where(sleeping, core.sleep_w, dyn)
        leak_mul[self._core_idx] = np.where(
            sleeping, 0.0, core_voltage * core_voltage
        )

        # L2 banks: the served cores' mean utilization scales the
        # access rate.
        mean_util = np.zeros(len(self._cache_idx))
        mean_util[self._cache_fed] = np.add.reduceat(
            core_utils[self._cache_served], self._cache_starts
        ) / self._cache_sizes
        cache = self.cache_model
        access = mean_util * memory_intensity
        base[self._cache_idx] = cache.full_power_w * (
            cache.baseline_fraction + (1.0 - cache.baseline_fraction) * access
        )

        # Crossbars: the active-core fraction of their segment; the
        # last fraction is the chip's.
        active = (core_states == _ACTIVE_CODE) | (core_utils > 0.0)
        fractions = np.add.reduceat(
            active[self._act_cores], self._act_starts, dtype=np.float64
        ) / self._act_sizes
        xbar = self.crossbar_model
        activity = fractions[:-1] * (0.5 + 0.5 * memory_intensity)
        base[self._xbar_idx] = xbar.full_power_w * (
            xbar.baseline_fraction + (1.0 - xbar.baseline_fraction) * activity
        )

        # Misc logic: a small area-proportional floor that grows with
        # the chip's activity.
        scale = (
            OTHER_BASELINE_FRACTION
            + (1.0 - OTHER_BASELINE_FRACTION) * fractions[-1]
        )
        base[self._other_idx] = self._other_dyn_w * scale
        return base, leak_mul

    def power_eval(
        self,
        base: np.ndarray,
        leak_mul: np.ndarray,
        unit_temps: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-unit power (W) of :meth:`power_factors` at ``unit_temps``.

        ``base + leak_mul * (density*area * leak_poly(unit_temps))``,
        where ``unit_temps`` (K) is an ``(n_units,)`` row. The leakage
        term is the scalar model's product in its order — density·area,
        then the polynomial, then the voltage factor — added to the
        dynamic power last (a sleeping core adds an exact ``+0.0``).
        ``out`` is an optional preallocated result (an eager engine
        reuses one per run). Factors stay valid while the activity is
        frozen, so they can be evaluated at any number of temperature
        rows.
        """
        leak = self._leak_dens_area * self.leakage_model.normalized_array(
            unit_temps
        )
        leak *= leak_mul
        return np.add(base, leak, out=out)

    def event_buffers(self, runs: Optional[int] = None) -> EventPowerBuffers:
        """Fresh :class:`EventPowerBuffers` for one run (``runs=None``)
        or for ``runs`` runs."""
        return EventPowerBuffers(
            len(self._core_names), len(self._unit_names), runs
        )

    def event_factors(
        self,
        core_states: np.ndarray,
        core_utils: np.ndarray,
        core_dyn_scale: np.ndarray,
        core_voltage: np.ndarray,
        memory_intensity: Union[float, np.ndarray],
        buf: EventPowerBuffers,
    ) -> None:
        """Fold one interval's activity into ``buf.base`` / ``buf.weight``.

        The event kernel's factor half, over the inputs of
        :meth:`power_factors`: ``(n_cores,)`` rows for one run, or
        C-contiguous ``(R, n_cores)`` matrices for a batch
        (row ``r`` is run ``r``) with ``memory_intensity`` an ``(R, 1)``
        column. ``base = K + M @ x`` is the activity-dependent power,
        one GEMV per run on its contiguous ``x`` row (no GEMM, so a row
        of an R-run call is bit-identical to the single-run call), and
        ``weight = density·area·V²·[not sleeping]`` scales each unit's
        leakage polynomial (a sleeping core's state power already
        includes its leakage).
        """
        self._ev_state_table.take(core_states, axis=1, out=buf.state)
        executes, fixed_w, state_active, awake = buf.state_rows
        # Per-core dynamic power: the busy blend at the V/f scale for an
        # executing core, the state's fixed power otherwise.
        dyn = buf.dyn
        np.multiply(core_utils, self._ev_busy_slope, out=dyn)
        dyn += self._ev_idle_w
        dyn *= core_dyn_scale
        dyn *= executes
        dyn += fixed_w
        np.multiply(core_utils, memory_intensity, out=buf.umem)
        # A core counts as active when its state is active or it ran
        # (u > 0): sign(u) is 1 exactly then, 0 or below otherwise.
        active = buf.active
        np.sign(core_utils, out=active)
        np.maximum(active, state_active, out=active)
        np.multiply(active, 0.5 + 0.5 * memory_intensity, out=buf.amem)
        matrix = self._ev_matrix
        for act_row, base_row in buf.gemv_rows:
            np.dot(matrix, act_row, out=base_row)
        buf.base += self._ev_const

        core_leak = buf.core_leak
        np.multiply(core_voltage, core_voltage, out=core_leak)
        core_leak *= awake
        buf.leak.take(self._ev_leak_map, axis=-1, out=buf.weight)
        buf.weight *= self._leak_dens_area

    def event_eval(
        self, buf: EventPowerBuffers, unit_temps: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Per-unit power (W) of :meth:`event_factors` at ``unit_temps``.

        ``base + weight * clamp(poly(unit_temps))``, clamped below by
        the leakage floor and above by its ceiling, written into ``out``
        (shaped like ``buf.base``; it must not alias ``unit_temps``)
        and returned. The factors stay valid while the activity is
        frozen, so a clock jump computes them once and calls this every
        tick.
        """
        np.multiply(unit_temps, self._ev_c2, out=out)
        out += self._ev_c1
        out *= unit_temps
        out += self._ev_c0
        np.maximum(out, self._ev_floor, out=out)
        np.minimum(out, self._ev_ceiling, out=out)
        out *= buf.weight
        out += buf.base
        return out

    def uniform_load(
        self,
        utilization: float,
        vf: VFLevel,
        memory_intensity: float,
        temperature_k: float,
    ) -> Dict[str, float]:
        """Unit name -> power (W) with every core active at
        ``utilization`` and ``vf`` and every unit at ``temperature_k``.

        The load of the steady-state solves: the engine's warm start
        and the thermal-index characterization.
        """
        n_cores = len(self._core_names)
        base, leak_mul = self.power_factors(
            np.full(n_cores, _ACTIVE_CODE),
            np.full(n_cores, utilization, dtype=np.float64),
            np.full(n_cores, vf.dynamic_scale),
            np.full(n_cores, vf.voltage),
            memory_intensity,
        )
        temps = np.full(len(self._unit_names), temperature_k, dtype=np.float64)
        powers = self.power_eval(base, leak_mul, temps)
        return dict(zip(self._unit_names, powers.tolist()))

    def total_power(self, unit_power_vec: np.ndarray) -> float:
        """Chip total (W) of a canonical-order power vector.

        Left-fold sum in the scalar model's unit order (cores, L2
        banks, crossbars, misc), so the result is bit-identical to
        summing that model's per-unit values.
        """
        return sum(unit_power_vec[self._sum_order].tolist())

    def total_power_rows(self, unit_power_mat: np.ndarray) -> List[float]:
        """Per-run chip totals (W) of a ``(R, n_units)`` power matrix.

        Each row is left-folded in the same order as
        :meth:`total_power`, so element ``r`` equals
        ``total_power(unit_power_mat[r])`` bit for bit; the fancy-index
        gather is just done once for the whole batch.
        """
        return [
            sum(row) for row in unit_power_mat[:, self._sum_order].tolist()
        ]
