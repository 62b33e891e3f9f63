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

The equations are written once, as a kernel in two halves.
:meth:`ChipPowerModel.power_factors` folds one interval's activity
(core states, utilization, V/f, memory intensity) into an affine form
``(base, leak_mul)``, and :meth:`ChipPowerModel.power_eval` prices it at
a temperature row:

    power = base + leak_mul * (density*area * leak_poly(T))

Every caller takes this pair: the engine's tick (both fidelities), the
event clock jump (factors frozen over the jump, one eval per tick), the
batched engine (``(n_cores, R)`` inputs, one column per run), the warm
start and the thermal-index characterization. A scalar per-unit model of
the same equations is the kernel's test oracle (``tests/power_oracle.py``).
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
from repro.power.leakage import DEFAULT_LEAKAGE, LeakageModel
from repro.power.states import STATE_CODE, CoreState
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

    def _build_tables(self, units: List[Tuple[int, Unit]]) -> None:
        """Precompute the index/weight arrays of the kernel.

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
        memory_intensity: Union[float, np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fold one interval's activity into ``(base, leak_mul)``.

        Parameters
        ----------
        core_states:
            :data:`~repro.power.states.STATE_CODE` codes in canonical
            ``core_names`` order: ``(n_cores,)`` for one run, or
            ``(n_cores, R)`` for R runs (column ``r`` is run ``r``).
        core_utils:
            Busy fraction of the interval, in [0, 1]; same shape.
        core_dyn_scale, core_voltage:
            ``VFLevel.dynamic_scale`` and relative voltage; same shape.
        memory_intensity:
            Normalized L2 traffic of the running mix, in [0, 1]: a
            float, or a length-R vector with ``(n_cores, R)`` inputs.

        Returns ``(base, leak_mul)``, each ``(n_units,)`` or
        ``(n_units, R)`` in canonical ``unit_names`` order, for
        :meth:`power_eval`. ``base`` is the activity-dependent power:
        state/DVFS core power (``sleep_w`` outright for a sleeping core,
        whose state power already includes leakage), cache access
        power, crossbar and misc activity power. ``leak_mul`` scales
        each unit's leakage: ``V²`` for a core, 0 for a sleeping one, 1
        elsewhere. The core/unit axis comes first, so every gather and
        segment reduction runs down axis 0 and a column of an
        ``(n_cores, R)`` call is bit-identical to the single-run call
        with that column's inputs.
        """
        run_axes = core_utils.shape[1:]
        # Per-unit and per-segment constants broadcast down axis 0.
        col = (slice(None),) + (None,) * len(run_axes)
        shape = (len(self._unit_names),) + run_axes
        base = np.empty(shape)
        leak_mul = np.ones(shape)

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
        mean_util = np.zeros((len(self._cache_idx),) + run_axes)
        mean_util[self._cache_fed] = np.add.reduceat(
            core_utils[self._cache_served], self._cache_starts, axis=0
        ) / self._cache_sizes[col]
        cache = self.cache_model
        access = mean_util * memory_intensity
        base[self._cache_idx] = cache.full_power_w * (
            cache.baseline_fraction + (1.0 - cache.baseline_fraction) * access
        )

        # Crossbars: the active-core fraction of their segment; the
        # last fraction is the chip's.
        active = (core_states == _ACTIVE_CODE) | (core_utils > 0.0)
        fractions = np.add.reduceat(
            active[self._act_cores], self._act_starts, axis=0,
            dtype=np.float64,
        ) / self._act_sizes[col]
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
        base[self._other_idx] = self._other_dyn_w[col] * scale
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
        where ``unit_temps`` (K) is shaped like ``base``. The leakage
        term is the scalar model's product in its order — density·area,
        then the polynomial, then the voltage factor — added to the
        dynamic power last (a sleeping core adds an exact ``+0.0``).
        ``out`` is an optional preallocated result (the engine reuses
        one per run). Factors stay valid while the activity is frozen,
        so the event clock jump computes them once and calls this every
        tick.
        """
        dens_area = self._leak_dens_area
        if unit_temps.ndim > 1:
            dens_area = dens_area[:, None]
        leak = dens_area * self.leakage_model.normalized_array(unit_temps)
        leak *= leak_mul
        return np.add(base, leak, out=out)

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
