"""Watchdog and attempt budget for campaign execution.

A run is deterministic: one key has one result, and a run that raises
raises again on every attempt. So only a failure of the environment is
retried, never a failure of the run:

- a worker death (``BrokenProcessPool``) or a watchdog timeout is
  **transient**: the unit is simulated again from tick 0, on a fresh
  pool, up to :attr:`ResiliencePolicy.max_attempts` attempts;
- an ordinary exception from a run records the key as failed at once,
  on every backend. The next campaign tries the key once more, so a
  fix is picked up without any command.

:class:`ResiliencePolicy` holds the two values a caller may set: the
attempt budget and an explicit per-unit watchdog deadline. A retried
run is simulated again from tick 0: at the paper's run lengths that
costs seconds, well under the watchdog's 60 s floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError

__all__ = [
    "MIN_TIMEOUT_S",
    "ResiliencePolicy",
    "TIMEOUT_SCALE_S",
]

#: Wall seconds a derived deadline grants per simulated second per lane.
TIMEOUT_SCALE_S = 5.0

#: Floor of a derived deadline, in wall seconds.
MIN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ResiliencePolicy:
    """Attempt budget and watchdog deadline of the pool backends.

    ``max_attempts`` bounds how often a unit whose worker died or timed
    out is simulated (1 disables retries). ``unit_timeout_s=None``
    derives the watchdog deadline from the simulated duration and
    batch width; an explicit value is used verbatim per unit and must
    be finite and positive: a NaN deadline never expires, and an
    infinite one overflows the pool's wait timeout.
    """

    max_attempts: int = 3
    unit_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        value = self.unit_timeout_s
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ConfigurationError(
                f"unit_timeout_s must be finite and positive, got {value!r}")

    def unit_deadline_s(self, duration_s: float, lanes: int) -> float:
        """Wall-clock budget for one unit (single run or fused batch)."""
        if self.unit_timeout_s is not None:
            return self.unit_timeout_s
        return max(MIN_TIMEOUT_S,
                   TIMEOUT_SCALE_S * duration_s * max(lanes, 1))
