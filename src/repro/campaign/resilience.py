"""Retry and watchdog policy for campaign execution.

:class:`RetryPolicy` bounds how often a failing unit is re-attempted
and spaces the attempts with exponential backoff.  The jitter term is
*deterministic*: it is derived from a SHA-256 of ``(seed, run key,
attempt)``, so two replays of the same campaign back off identically —
chaos tests stay reproducible while distinct keys still decorrelate.

:class:`ResiliencePolicy` bundles the retry policy with the per-unit
watchdog deadline.  A retried run is simulated again from tick 0: at
the paper's run lengths that costs seconds, well under the watchdog's
60 s floor.  Failure *classification* lives here too:

- ``BrokenProcessPool`` and watchdog timeouts are **transient** — the
  environment failed, not the run — and are retried;
- an ordinary exception with the same signature on two consecutive
  attempts is **deterministic** — the run itself is broken — and the
  key is quarantined so resumes stop burning attempts on it.
"""

from __future__ import annotations

import hashlib
import math
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
    verbatim per unit.  Every deadline setting must be finite and
    positive: a NaN deadline never expires, and an infinite one
    overflows the pool's wait timeout.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    unit_timeout_s: Optional[float] = None
    timeout_scale_s: float = 5.0  # wall seconds per simulated second/lane
    min_timeout_s: float = 60.0

    def __post_init__(self) -> None:
        for name in ("unit_timeout_s", "timeout_scale_s", "min_timeout_s"):
            value = getattr(self, name)
            if value is None and name == "unit_timeout_s":
                continue
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(
                    f"{name} must be finite and positive, got {value!r}")

    def unit_deadline_s(self, duration_s: float, lanes: int) -> float:
        """Wall-clock budget for one unit (single run or fused batch)."""
        if self.unit_timeout_s is not None:
            return self.unit_timeout_s
        return max(self.min_timeout_s,
                   self.timeout_scale_s * duration_s * max(lanes, 1))


def failure_signature(exc: BaseException) -> str:
    """Stable identity of a failure for same-error-twice detection."""
    return f"{type(exc).__name__}: {exc}"
