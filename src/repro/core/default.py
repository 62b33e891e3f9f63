"""Dynamic load balancing — the baseline policy (paper §V).

Models the Solaris multi-queue dispatcher the paper uses as its
baseline: an incoming thread is assigned to the core where it ran
previously; threads without a recent home go to the least-loaded queue.
At runtime, a significant queue imbalance triggers migration from the
longest to the shortest queue.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.base import (
    AllocationContext,
    Migration,
    Policy,
    PolicyActions,
    TickContext,
)
from repro.errors import PolicyError
from repro.power.states import STATE_CODE, CoreState
from repro.workload.job import Job

# Queue-length difference that counts as "significant imbalance".
IMBALANCE_THRESHOLD = 2

_SLEEP_CODE = STATE_CODE[CoreState.SLEEP]


class DefaultLoadBalancing(Policy):
    """Locality-first load balancing with runtime rebalancing."""

    name = "Default"

    def __init__(self) -> None:
        super().__init__()
        # Rotating tie-break pointer: a layer-blind OS dispatcher has no
        # thermal preference among equally loaded cores, so ties rotate
        # round-robin (a fixed canonical order would systematically
        # favor the cores of one tier, which no real dispatcher does).
        self._rr_next = 0

    def select_core(self, job: Job, ctx: AllocationContext) -> str:
        cores = self.system.core_names
        if ctx.core_names != cores:
            raise PolicyError(
                f"{self.name}: allocation context cores are not in system order"
            )
        queue = ctx.queue_lengths_list
        last = ctx.last_core
        if last is not None and last in cores:
            # Locality rule: return to the previous core unless its queue
            # is significantly longer than the best alternative.
            if queue[cores.index(last)] - min(queue) < IMBALANCE_THRESHOLD:
                return last
        # Least loaded. Prefer awake cores on ties so DPM sleep is not
        # cut short needlessly; round-robin order breaks remaining ties
        # (the first core from the pointer wins).
        codes = ctx.state_codes_list
        n = len(cores)
        i = best = self._rr_next % n
        best_length = queue[i]
        best_sleeping = codes[i] == _SLEEP_CODE
        for _ in range(n - 1):
            i += 1
            if i == n:
                i = 0
            length = queue[i]
            if length < best_length or (
                length == best_length
                and best_sleeping
                and codes[i] != _SLEEP_CODE
            ):
                best = i
                best_length = length
                best_sleeping = codes[i] == _SLEEP_CODE
        self._rr_next = (best + 1) % n
        return cores[best]

    def on_tick(self, ctx: TickContext) -> PolicyActions:
        actions = PolicyActions()
        queue = ctx.arrays.queue_length.tolist()
        longest = max(queue)
        shortest = min(queue)
        if longest - shortest >= IMBALANCE_THRESHOLD:
            # First longest / first shortest in core order on ties.
            names = ctx.arrays.core_names
            actions.migrations.append(Migration(
                names[queue.index(longest)], names[queue.index(shortest)],
                move_running=False, swap=False,
            ))
        return actions

    def tick_is_noop(self, queue_lengths: Sequence[int]) -> bool:
        """Balanced queues make :meth:`on_tick` a no-op: it only
        compares queue lengths, mutates no state and never gates. A
        subclass that overrides ``on_tick`` (CGate, the DVFS policies,
        Migr, user policies) does not inherit the skip."""
        return (
            type(self).on_tick is DefaultLoadBalancing.on_tick
            and max(queue_lengths) - min(queue_lengths) < IMBALANCE_THRESHOLD
        )
