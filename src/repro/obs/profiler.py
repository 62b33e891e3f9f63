"""Tick-phase profiler: perf_counter sections around the engine loop.

One :class:`TickProfiler` accumulates wall time into a fixed set of
phases (interval maintenance, power, thermal step, sensors, DPM,
policy, recording, event-mode clock jumps).  The engine calls ``begin()``
at the top of each tick and ``lap(phase)`` after each section — a lap
is two float reads and an add, cheap enough to leave on for whole
campaigns.  When telemetry is off the engine holds
:data:`NULL_PROFILER`, whose methods are empty.

``summary()`` yields per-phase totals, ms/tick, and percentage shares —
the live replacement for the hand-measured Amdahl table in
docs/ENGINE.md.  :func:`merge_phase_summaries` folds the summaries of
many runs together for campaign-level aggregation.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List

__all__ = [
    "PHASES",
    "PH_INTERVAL",
    "PH_POWER",
    "PH_THERMAL",
    "PH_SENSORS",
    "PH_DPM",
    "PH_POLICY",
    "PH_RECORD",
    "PH_EVENT_JUMP",
    "TickProfiler",
    "NULL_PROFILER",
    "merge_phase_summaries",
]

PHASES = (
    "interval",       # heap/span advance: completions, arrivals, dispatch
    "power",          # per-unit power vector
    "thermal",        # RC network step
    "sensors",        # noisy/quantized temperature readout
    "dpm",            # sleep-state transitions
    "policy",         # DTM policy decisions (V/f, gating, migration)
    "record",         # per-tick series bookkeeping
    "event_jump",     # event-mode clock jumps between heap events
)

PH_INTERVAL = 0
PH_POWER = 1
PH_THERMAL = 2
PH_SENSORS = 3
PH_DPM = 4
PH_POLICY = 5
PH_RECORD = 6
PH_EVENT_JUMP = 7


class TickProfiler:
    """Accumulates per-phase wall time across the tick loop."""

    __slots__ = ("totals", "ticks", "_t0")

    enabled = True

    def __init__(self) -> None:
        self.totals: List[float] = [0.0] * len(PHASES)
        self.ticks = 0
        self._t0 = 0.0

    def begin(self) -> None:
        self._t0 = perf_counter()

    def lap(self, phase: int) -> None:
        now = perf_counter()
        self.totals[phase] += now - self._t0
        self._t0 = now

    def tick_done(self, n: int = 1) -> None:
        self.ticks += n

    def summary(self) -> Dict[str, object]:
        """JSON-ready per-phase breakdown.

        ``{"ticks": N, "total_s": T, "phases": {name: {"total_s", "ms_per_tick",
        "share_pct"}}}`` — phases that never ran are omitted.
        """
        total = sum(self.totals)
        ticks = max(self.ticks, 1)
        phases = {}
        for name, spent in zip(PHASES, self.totals):
            if spent <= 0.0:
                continue
            phases[name] = {
                "total_s": spent,
                "ms_per_tick": spent / ticks * 1e3,
                "share_pct": (spent / total * 100.0) if total > 0 else 0.0,
            }
        return {
            "ticks": self.ticks,
            "total_s": total,
            "ms_per_tick": (total / ticks * 1e3) if self.ticks else 0.0,
            "phases": phases,
        }


class _NullProfiler:
    """Disabled profiler: every method is an empty body."""

    __slots__ = ()
    enabled = False
    ticks = 0
    totals = [0.0] * len(PHASES)

    def begin(self) -> None:
        pass

    def lap(self, phase: int) -> None:
        pass

    def tick_done(self, n: int = 1) -> None:
        pass

    def summary(self) -> Dict[str, object]:
        return {"ticks": 0, "total_s": 0.0, "ms_per_tick": 0.0, "phases": {}}


NULL_PROFILER = _NullProfiler()


def merge_phase_summaries(summaries) -> Dict[str, object]:
    """Fold per-run ``summary()`` dicts into one campaign-level view.

    Accepts any iterable of summaries (dicts with ``ticks``/``phases``);
    entries that are ``None`` or empty are skipped.
    """
    merged = TickProfiler()
    runs = 0
    for s in summaries:
        if not s or not s.get("ticks"):
            continue
        runs += 1
        merged.ticks += int(s["ticks"])
        for name, stats in s.get("phases", {}).items():
            try:
                idx = PHASES.index(name)
            except ValueError:
                continue
            merged.totals[idx] += float(stats.get("total_s", 0.0))
    out = merged.summary()
    out["runs"] = runs
    return out
