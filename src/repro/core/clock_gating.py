"""Clock gating (CGate) — §III-A.

Each core runs at the default V/f until it reaches the thermal
threshold; the hot core is then stalled and its clock gated. If its
temperature drops below the threshold, execution continues at the next
sampling interval. Allocation follows the default load balancer.
"""

from __future__ import annotations

from repro.core.base import PolicyActions, TickContext
from repro.core.default import DefaultLoadBalancing


class ClockGating(DefaultLoadBalancing):
    """Stall-and-gate on thermal emergency."""

    name = "CGate"

    def on_tick(self, ctx: TickContext) -> PolicyActions:
        actions = super().on_tick(ctx)
        threshold = self.system.thermal_threshold_k
        temps = ctx.arrays.temperature_k.tolist()
        actions.gated = [
            core
            for core, temp in zip(ctx.arrays.core_names, temps)
            if temp >= threshold
        ]
        return actions
