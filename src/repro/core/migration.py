"""Migration policy (Migr) — §III-B.

Moves the running job off any core whose temperature exceeds the
threshold, to the coolest core that has not already received a migrated
job during the current scheduling tick. If the selected cool core is
already running a job, the jobs swap. This extends core-hopping /
activity-migration techniques [Heo'03, Gomaa'04] to the multicore case.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.core.base import Migration, PolicyActions, TickContext
from repro.core.default import DefaultLoadBalancing


class MigrationPolicy(DefaultLoadBalancing):
    """Threshold-triggered migrate-to-coolest with swapping."""

    name = "Migr"

    def on_tick(self, ctx: TickContext) -> PolicyActions:
        # Note: no queue rebalancing on top; migration decisions are
        # purely thermal for this policy.
        actions = PolicyActions()
        threshold = self.system.thermal_threshold_k
        arrays = ctx.arrays
        temps = arrays.temperature_k.tolist()
        if max(temps) < threshold:
            return actions
        queue = arrays.queue_length.tolist()
        names = arrays.core_names
        # Stable sorts: equally hot (or cool) cores keep core order.
        order = range(len(temps))
        by_temp = sorted(order, key=temps.__getitem__)
        received: Set[int] = set()
        for hot in sorted(order, key=temps.__getitem__, reverse=True):
            if temps[hot] < threshold:
                break
            if queue[hot] == 0:
                continue
            destination = self._coolest_available(by_temp, temps, received)
            if destination is None:
                break
            received.add(destination)
            actions.migrations.append(
                Migration(names[hot], names[destination],
                          move_running=True, swap=True)
            )
        return actions

    def _coolest_available(
        self, by_temp: List[int], temps: List[float], received: Set[int]
    ) -> Optional[int]:
        # A destination must itself be below the threshold — shuffling
        # jobs between two hot cores burns migration cost for nothing
        # (so the hot source itself never qualifies).
        threshold = self.system.thermal_threshold_k
        for i in by_temp:
            if temps[i] >= threshold:
                return None  # coolest first: no later core is cooler
            if i not in received:
                return i
        return None
