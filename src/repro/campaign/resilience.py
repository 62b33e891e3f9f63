"""Retry, watchdog, and checkpoint policy for campaign execution.

:class:`RetryPolicy` bounds how often a failing unit is re-attempted
and spaces the attempts with exponential backoff.  The jitter term is
*deterministic*: it is derived from a SHA-256 of ``(seed, run key,
attempt)``, so two replays of the same campaign back off identically —
chaos tests stay reproducible while distinct keys still decorrelate.

:class:`ResiliencePolicy` bundles the retry policy with the per-unit
watchdog deadline, the lease TTL for multi-driver stores, the engine
checkpoint cadence, and the multi-driver fabric knobs (heartbeat
cadence, dead-driver threshold, store latency budget).  Failure
*classification* lives here too:

- ``BrokenProcessPool`` and watchdog timeouts are **transient** — the
  environment failed, not the run — and are retried;
- an ordinary exception with the same signature on two consecutive
  attempts is **deterministic** — the run itself is broken — and the
  key is quarantined so resumes stop burning attempts on it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError

__all__ = [
    "RetryPolicy",
    "ResiliencePolicy",
    "failure_signature",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget and backoff schedule for transient failures."""

    max_attempts: int = 3
    base_delay_s: float = 0.1
    max_delay_s: float = 5.0
    jitter: float = 0.5  # +/- fraction of the nominal delay
    seed: int = 2009

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < self.base_delay_s:
            raise ConfigurationError(
                "need 0 <= base_delay_s <= max_delay_s")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError("jitter must be in [0, 1]")

    def backoff_s(self, key: str, attempt: int) -> float:
        """Delay before re-attempting ``key`` (``attempt`` >= 1 failed).

        Exponential in the attempt number, capped at ``max_delay_s``,
        then jittered by up to ``+/- jitter`` deterministically from
        ``(seed, key, attempt)``.
        """
        nominal = min(self.base_delay_s * (2.0 ** (attempt - 1)),
                      self.max_delay_s)
        if self.jitter == 0.0 or nominal == 0.0:
            return nominal
        digest = hashlib.sha256(
            f"{self.seed}:{key}:{attempt}".encode("utf-8")).digest()
        frac = int.from_bytes(digest[:8], "big") / 2.0 ** 64  # [0, 1)
        return nominal * (1.0 + self.jitter * (2.0 * frac - 1.0))


@dataclass(frozen=True)
class ResiliencePolicy:
    """Everything the executor needs to survive faults.

    ``unit_timeout_s=None`` derives the watchdog deadline from the
    simulated duration and batch width; an explicit value is used
    verbatim per unit.  ``lease_ttl_s=0`` / ``checkpoint_every_ticks=0``
    disable leasing and engine checkpointing respectively, which keeps
    the fault-free fast path identical to the pre-resilience executor.

    Fabric knobs: ``heartbeat_s=0`` derives the heartbeat cadence from
    the lease TTL (one beacon per TTL/3, matching the renewal cadence;
    no leasing → no heartbeat).  ``driver_stale_s=0`` derives the
    dead-driver threshold as three missed heartbeats.  A driver whose
    beacon is older than the threshold is presumed dead and its live
    leases become reclaimable (:meth:`ResultStore.takeover_lease`).
    ``store_latency_budget_s`` arms degraded mode: a store save slower
    than the budget (or failing outright) flips the executor to
    spilling results into its local staging store until a reconcile
    probe finds the store healthy again.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    unit_timeout_s: Optional[float] = None
    timeout_scale_s: float = 5.0  # wall seconds per simulated second/lane
    min_timeout_s: float = 60.0
    lease_ttl_s: float = 0.0
    checkpoint_every_ticks: int = 0
    heartbeat_s: float = 0.0
    driver_stale_s: float = 0.0
    store_latency_budget_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.unit_timeout_s is not None and self.unit_timeout_s <= 0:
            raise ConfigurationError("unit_timeout_s must be positive")
        if self.timeout_scale_s <= 0 or self.min_timeout_s <= 0:
            raise ConfigurationError(
                "timeout_scale_s and min_timeout_s must be positive")
        if self.lease_ttl_s < 0:
            raise ConfigurationError("lease_ttl_s must be >= 0")
        if self.checkpoint_every_ticks < 0:
            raise ConfigurationError(
                "checkpoint_every_ticks must be >= 0")
        if self.heartbeat_s < 0:
            raise ConfigurationError("heartbeat_s must be >= 0")
        if self.driver_stale_s < 0:
            raise ConfigurationError("driver_stale_s must be >= 0")
        if (self.store_latency_budget_s is not None
                and self.store_latency_budget_s <= 0):
            raise ConfigurationError(
                "store_latency_budget_s must be positive")

    def unit_deadline_s(self, duration_s: float, lanes: int) -> float:
        """Wall-clock budget for one unit (single run or fused batch)."""
        if self.unit_timeout_s is not None:
            return self.unit_timeout_s
        return max(self.min_timeout_s,
                   self.timeout_scale_s * duration_s * max(lanes, 1))

    def heartbeat_interval_s(self) -> float:
        """Seconds between liveness beacons (0 disables heartbeating)."""
        if self.heartbeat_s > 0:
            return self.heartbeat_s
        if self.lease_ttl_s > 0:
            return self.lease_ttl_s / 3.0
        return 0.0

    def heartbeat_stale_s(self) -> float:
        """Beacon age beyond which a driver is presumed dead (0 = never)."""
        if self.driver_stale_s > 0:
            return self.driver_stale_s
        interval = self.heartbeat_interval_s()
        return 3.0 * interval if interval > 0 else 0.0


def failure_signature(exc: BaseException) -> str:
    """Stable identity of a failure for same-error-twice detection."""
    return f"{type(exc).__name__}: {exc}"
