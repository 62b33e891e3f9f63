"""Resilience counters for campaign execution.

The campaign executor records every watchdog firing, retry, worker
crash and quarantine decision through a :class:`ResilienceStats`
instance.  Internally the stats object is a thin facade over a
:class:`~repro.obs.metrics.MetricsRegistry`, so the counters live in
the same registry namespace (``campaign.*``) as the engine metrics and
serialize through the same ``snapshot()`` shape.
"""

from __future__ import annotations

from typing import Dict

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "ResilienceStats",
]

#: Counter names, in reporting order.  Kept as a module constant so the
#: store tally, the reports layer, and the tests agree on the key set.
RESILIENCE_COUNTERS = (
    "campaign.retries",
    "campaign.timeouts",
    "campaign.crashes",
    "campaign.quarantines",
)


class ResilienceStats:
    """Live resilience counters backed by a metrics registry."""

    __slots__ = ("registry",)

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        for name in RESILIENCE_COUNTERS:
            self.registry.counter(name)

    def retry(self, n: int = 1) -> None:
        """A unit was requeued after a transient failure."""
        self.registry.counter("campaign.retries").inc(n)

    def timeout(self, n: int = 1) -> None:
        """The per-unit watchdog deadline expired."""
        self.registry.counter("campaign.timeouts").inc(n)

    def crash(self, n: int = 1) -> None:
        """A worker process died (``BrokenProcessPool``)."""
        self.registry.counter("campaign.crashes").inc(n)

    def quarantine(self, n: int = 1) -> None:
        """A run was classified deterministic-failing and quarantined."""
        self.registry.counter("campaign.quarantines").inc(n)

    def snapshot(self) -> Dict[str, int]:
        """Flat ``{short_name: count}`` view of the resilience counters."""
        counters = self.registry.snapshot()["counters"]
        out: Dict[str, int] = {}
        for name in RESILIENCE_COUNTERS:
            out[_short(name)] = int(counters.get(name, 0))
        return out


def _short(name: str) -> str:
    return name.split(".", 1)[1]
