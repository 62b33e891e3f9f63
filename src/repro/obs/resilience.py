"""Resilience counters for campaign execution.

The campaign executor records every watchdog firing, worker crash and
the retry each of them causes through a :class:`ResilienceStats`
instance: three plain counts, flattened by ``snapshot()`` for the
store's lifetime tally and the reports layer. A run that raises is not
counted here: it is recorded as failed, not retried.
"""

from __future__ import annotations

from typing import Dict

__all__ = [
    "ResilienceStats",
]


class ResilienceStats:
    """Live resilience counters of one campaign pass."""

    __slots__ = ("retries", "timeouts", "crashes")

    def __init__(self) -> None:
        self.retries = 0
        self.timeouts = 0
        self.crashes = 0

    def retry(self, n: int = 1) -> None:
        """A unit was requeued after a crash or a timeout."""
        self.retries += n

    def timeout(self, n: int = 1) -> None:
        """The per-unit watchdog deadline expired."""
        self.timeouts += n

    def crash(self, n: int = 1) -> None:
        """A worker process died (``BrokenProcessPool``)."""
        self.crashes += n

    def snapshot(self) -> Dict[str, int]:
        """Flat ``{name: count}`` view of the resilience counters."""
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
        }
