"""Resilience counters for campaign execution.

The campaign executor records every watchdog firing, retry, worker
crash and quarantine decision through a :class:`ResilienceStats`
instance: four plain counts, flattened by ``snapshot()`` for the
store's lifetime tally and the reports layer.
"""

from __future__ import annotations

from typing import Dict

__all__ = [
    "ResilienceStats",
]


class ResilienceStats:
    """Live resilience counters of one campaign pass."""

    __slots__ = ("retries", "timeouts", "crashes", "quarantines")

    def __init__(self) -> None:
        self.retries = 0
        self.timeouts = 0
        self.crashes = 0
        self.quarantines = 0

    def retry(self, n: int = 1) -> None:
        """A unit was requeued after a transient failure."""
        self.retries += n

    def timeout(self, n: int = 1) -> None:
        """The per-unit watchdog deadline expired."""
        self.timeouts += n

    def crash(self, n: int = 1) -> None:
        """A worker process died (``BrokenProcessPool``)."""
        self.crashes += n

    def quarantine(self, n: int = 1) -> None:
        """A run was classified deterministic-failing and quarantined."""
        self.quarantines += n

    def snapshot(self) -> Dict[str, int]:
        """Flat ``{name: count}`` view of the resilience counters."""
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "quarantines": self.quarantines,
        }
