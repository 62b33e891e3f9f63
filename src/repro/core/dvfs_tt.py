"""DVFS with temperature trigger (DVFS_TT) — §III-A.

When a core exceeds the thermal threshold its V/f drops one level; if it
is still above threshold at the next scheduling interval it drops
another level. Below the threshold the setting steps back up one level
per interval. Every core scales independently (paper assumption).
"""

from __future__ import annotations

from typing import Dict

from repro.core.base import PolicyActions, SystemView, TickContext
from repro.core.default import DefaultLoadBalancing


class DVFSTemperatureTriggered(DefaultLoadBalancing):
    """Stepwise per-core DVFS keyed on the thermal threshold.

    A tick that throttles or recovers returns one V/f setting per core,
    in core order. A cool, unthrottled tick (every reading below the
    threshold, every level in ``_levels`` and every running level in
    the context at nominal) returns none: each core would step "up" to
    nominal, where it already runs, so neither ``_levels`` nor the
    applied V/f could change. Omitted cores keep their setting
    (:class:`~repro.core.base.PolicyActions`), so the two answers are
    the same decision on any context.
    """

    name = "DVFS_TT"

    def __init__(self) -> None:
        super().__init__()
        self._levels: Dict[str, int] = {}

    def attach(self, system: SystemView) -> None:
        super().attach(system)
        self._levels = {
            core: system.vf_table.nominal_index for core in system.core_names
        }

    def on_tick(self, ctx: TickContext) -> PolicyActions:
        actions = super().on_tick(ctx)
        table = self.system.vf_table
        threshold = self.system.thermal_threshold_k
        temps = ctx.arrays.temperature_k.tolist()
        levels = self._levels
        if max(temps) < threshold:
            nominal = table.nominal_index
            running = ctx.arrays.vf_index.tolist()
            if (
                list(levels.values()).count(nominal) == len(levels)
                and running.count(nominal) == len(running)
            ):
                return actions
        vf_settings = actions.vf_settings
        for core, temp in zip(ctx.arrays.core_names, temps):
            if temp >= threshold:
                level = table.step_down(levels[core])
            else:
                level = table.step_up(levels[core])
            levels[core] = level
            vf_settings[core] = level
        return actions
