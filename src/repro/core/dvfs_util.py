"""Utilization-based DVFS (DVFS_Util) — §III-A.

Observes each core's workload over the last interval and, if the core is
under-utilized, selects the lowest V/f setting that still covers that
utilization (performance-oriented: the job stream should not back up).
"""

from __future__ import annotations

from repro.core.base import PolicyActions, TickContext
from repro.core.default import DefaultLoadBalancing


class DVFSUtilizationBased(DefaultLoadBalancing):
    """Match the V/f setting to the observed core utilization."""

    name = "DVFS_Util"

    def on_tick(self, ctx: TickContext) -> PolicyActions:
        actions = super().on_tick(ctx)
        covering = self.system.vf_table.lowest_covering
        utils = ctx.arrays.utilization.tolist()
        vf_settings = actions.vf_settings
        for core, util in zip(ctx.arrays.core_names, utils):
            vf_settings[core] = covering(util)
        return actions
