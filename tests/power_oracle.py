"""The scalar per-unit power model: a test-only oracle for the kernel.

:func:`unit_powers` charges one unit at a time, in Python floats, from
the component models' own scalar methods
(``CorePowerModel.dynamic_power``, ``CachePowerModel.dynamic_power``,
``CrossbarPowerModel.dynamic_power``, ``LeakageModel.power``), and
reads the floorplan from the experiment configuration, not from the
kernel's index tables. ``ChipPowerModel.power_factors`` /
``power_eval`` must reproduce it bit for bit
(``tests/test_power_kernel.py``), and the scan oracle
(``tests/scan_engine.py``) charges its tick boundary and warm start
with it, so the engine-vs-oracle differential checks the kernel too.
The event kernel (``ChipPowerModel.event_factors`` / ``event_eval``)
rearranges the same equations, so it must match to rounding:
per unit within :data:`EVENT_KERNEL_RTOL`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

import numpy as np

from repro.errors import PowerModelError
from repro.floorplan.unit import UnitKind
from repro.power.chip_power import (
    OTHER_BASELINE_FRACTION,
    OTHER_DENSITY_W_PER_MM2,
    ChipPowerModel,
)
from repro.power.states import CoreState
from repro.power.vf import VFLevel


#: Largest per-unit relative error of the event kernel against
#: :func:`unit_powers`.
EVENT_KERNEL_RTOL = 1e-13


def assert_event_kernel_close(got, expected) -> None:
    """Every unit's event-kernel power within :data:`EVENT_KERNEL_RTOL`
    of the oracle's (every unit's power is positive)."""
    got = np.asarray(got)
    expected = np.asarray(expected)
    assert got.shape == expected.shape
    worst = float(np.max(np.abs(got - expected) / expected))
    assert worst <= EVENT_KERNEL_RTOL, f"relative error {worst:.3g}"


@dataclass(frozen=True)
class CoreActivity:
    """One core's activity over the last sampling interval.

    Attributes
    ----------
    state:
        Core state (dominant state if it changed mid-interval).
    utilization:
        Busy fraction of the interval, in [0, 1].
    vf:
        The V/f level the core ran at.
    """

    state: CoreState
    utilization: float
    vf: VFLevel


def _active_fraction(
    activities: Mapping[str, CoreActivity], cores: List[str]
) -> float:
    if not cores:
        return 0.0
    busy = sum(
        1.0
        for c in cores
        if activities[c].state is CoreState.ACTIVE
        or activities[c].utilization > 0.0
    )
    return busy / len(cores)


def unit_powers(
    model: ChipPowerModel,
    activities: Mapping[str, CoreActivity],
    unit_temperatures: Mapping[str, float],
    memory_intensity: float,
) -> Dict[str, float]:
    """Per-unit power (W) for one sampling interval, by unit name.

    Parameters
    ----------
    model:
        Supplies the configuration, the component models and the L2
        bank assignment (``cache_serving``).
    activities:
        Core name -> :class:`CoreActivity` for every core.
    unit_temperatures:
        Unit name -> temperature (K); used for the leakage feedback.
    memory_intensity:
        Normalized L2 traffic of the running mix, in [0, 1].

    Values are in kind order (cores, L2 banks, crossbars, misc), each
    kind in canonical unit order: ``sum(values())`` is the fold
    ``ChipPowerModel.total_power`` reproduces.
    """
    kind: Dict[str, UnitKind] = {}
    area: Dict[str, float] = {}
    layer_of: Dict[str, int] = {}
    for layer_index, plan in enumerate(model.config.layers):
        for unit in plan:
            kind[unit.name] = unit.kind
            area[unit.name] = unit.area
            layer_of[unit.name] = layer_index

    def of_kind(wanted: UnitKind) -> List[str]:
        return [name for name, k in kind.items() if k is wanted]

    core_names = of_kind(UnitKind.CORE)
    missing = set(core_names) - set(activities)
    if missing:
        raise PowerModelError(f"missing activity for cores: {sorted(missing)}")
    leakage = model.leakage_model
    powers: Dict[str, float] = {}

    for name in core_names:
        act = activities[name]
        dyn = model.core_model.dynamic_power(act.state, act.utilization, act.vf)
        if model.core_model.includes_leakage(act.state):
            powers[name] = dyn
        else:
            leak = leakage.power(
                UnitKind.CORE, area[name], unit_temperatures[name],
                act.vf.voltage,
            )
            powers[name] = dyn + leak

    for cache in of_kind(UnitKind.CACHE):
        served = model.cache_serving(cache)
        if served:
            mean_util = sum(
                activities[c].utilization for c in served
            ) / len(served)
        else:
            mean_util = 0.0
        dyn = model.cache_model.dynamic_power(mean_util * memory_intensity)
        leak = leakage.power(UnitKind.CACHE, area[cache], unit_temperatures[cache])
        powers[cache] = dyn + leak

    chip_active = _active_fraction(activities, core_names)
    for xbar in of_kind(UnitKind.CROSSBAR):
        layer_cores = [c for c in core_names if layer_of[c] == layer_of[xbar]]
        # An EXP-1 style crossbar serves the whole chip even though it
        # sits on the only logic layer; fall back to chip activity
        # when its layer has no cores of its own.
        fraction = (
            _active_fraction(activities, layer_cores)
            if layer_cores
            else chip_active
        )
        dyn = model.crossbar_model.dynamic_power(fraction, memory_intensity)
        leak = leakage.power(
            UnitKind.CROSSBAR, area[xbar], unit_temperatures[xbar]
        )
        powers[xbar] = dyn + leak

    for name in of_kind(UnitKind.OTHER):
        area_mm2 = area[name] * 1e6
        scale = OTHER_BASELINE_FRACTION + (1.0 - OTHER_BASELINE_FRACTION) * chip_active
        dyn = OTHER_DENSITY_W_PER_MM2 * area_mm2 * scale
        leak = leakage.power(UnitKind.OTHER, area[name], unit_temperatures[name])
        powers[name] = dyn + leak

    return powers
