"""Structured trace recorder with Chrome-trace / Perfetto export.

The recorder is a preallocated ring buffer of typed event tuples
(time, event type, core index, job id, value).  ``emit`` is one tuple
build and one slot store — measured ~10x cheaper per event than
per-element NumPy column stores, which matters because the 10% trace
overhead gate in ``benchmarks/bench_obs_overhead.py`` is spent almost
entirely here.  When the buffer wraps, the oldest events are
overwritten and counted in :attr:`TraceRecorder.dropped`.

Event timestamps are *simulation* seconds.  The Chrome-trace exporter
maps them to microseconds (the ``ts`` unit chrome://tracing and
https://ui.perfetto.dev expect), assigns one thread track per core plus
a ``system`` track for core-less events, and reconstructs duration
slices (``ph: "X"``) for job residency between dispatch/migration and
completion so queue churn is visible at a glance.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "EV_ARRIVAL",
    "EV_DISPATCH",
    "EV_START",
    "EV_COMPLETION",
    "EV_MIGRATION",
    "EV_DPM_SLEEP",
    "EV_DPM_WAKE",
    "EV_VF_CHANGE",
    "EV_GATE",
    "EV_SPAN_CLOSE",
    "EV_EVENT_JUMP",
    "EVENT_NAMES",
    "TraceRecorder",
    "TraceEvent",
    "NULL_TRACE",
]

EV_ARRIVAL = 1
EV_DISPATCH = 2
EV_START = 3
EV_COMPLETION = 4
EV_MIGRATION = 5
EV_DPM_SLEEP = 6
EV_DPM_WAKE = 7
EV_VF_CHANGE = 8
EV_GATE = 9
EV_SPAN_CLOSE = 10
EV_EVENT_JUMP = 11

EVENT_NAMES: Dict[int, str] = {
    EV_ARRIVAL: "arrival",
    EV_DISPATCH: "dispatch",
    EV_START: "start",
    EV_COMPLETION: "completion",
    EV_MIGRATION: "migration",
    EV_DPM_SLEEP: "dpm_sleep",
    EV_DPM_WAKE: "dpm_wake",
    EV_VF_CHANGE: "vf_change",
    EV_GATE: "gate",
    EV_SPAN_CLOSE: "span_close",
    EV_EVENT_JUMP: "event_jump",
}

#: (time_s, event_type, core_index, job_id, value)
TraceEvent = Tuple[float, int, int, int, float]

_US = 1e6  # simulation seconds -> trace microseconds


class TraceRecorder:
    """Fixed-capacity ring buffer of typed simulation events."""

    __slots__ = ("capacity", "emitted", "_buf")

    def __init__(self, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise ValueError(f"trace capacity must be positive: {capacity}")
        self.capacity = int(capacity)
        self.emitted = 0
        self._buf: List[Optional[TraceEvent]] = [None] * self.capacity

    def emit(self, t: float, etype: int, core: int = -1, job: int = -1,
             value: float = 0.0) -> None:
        self._buf[self.emitted % self.capacity] = (t, etype, core, job, value)
        self.emitted += 1

    @property
    def dropped(self) -> int:
        """Events overwritten after the ring wrapped."""
        return max(0, self.emitted - self.capacity)

    def __len__(self) -> int:
        return min(self.emitted, self.capacity)

    def events(self) -> List[TraceEvent]:
        """Retained events, oldest first."""
        n = len(self)
        if n == 0:
            return []
        if not self.dropped:
            return list(self._buf[:n])
        start = self.emitted % self.capacity
        return [
            self._buf[(start + k) % self.capacity] for k in range(n)
        ]

    def to_lists(self) -> Dict[str, list]:
        """Compact JSON-ready row encoding of the retained events.

        Rows are the event tuples themselves (JSON serializes tuples
        as arrays); building this inside a timed ``run()`` must stay
        cheap, so no per-row copying.
        """
        return {
            "emitted": self.emitted,
            "dropped": self.dropped,
            "columns": ["time_s", "event", "core", "job", "value"],
            "rows": self.events(),
        }

    # ------------------------------------------------------------------
    # Chrome trace (Perfetto) export
    # ------------------------------------------------------------------

    def to_chrome_trace(
        self, core_names: Sequence[str] = ()
    ) -> Dict[str, object]:
        """Render retained events in the Chrome trace event format.

        Loadable by chrome://tracing and ui.perfetto.dev.  Instant
        events land on the emitting core's track; job residency is
        reconstructed as duration slices from dispatch/migration to
        completion/migration-away.
        """
        retained = self.events()
        events: List[Dict[str, object]] = []
        n_tracks = max(
            len(core_names),
            max((e[2] for e in retained), default=-1) + 1,
        )
        events.append(_meta(0, "process_name", {"name": "repro-engine"}))
        for idx in range(n_tracks):
            name = core_names[idx] if idx < len(core_names) else f"core{idx}"
            events.append(_meta(idx + 1, "thread_name", {"name": name}))
            events.append(_meta(idx + 1, "thread_sort_index",
                                {"sort_index": idx + 1}))
        events.append(_meta(n_tracks + 1, "thread_name", {"name": "system"}))
        events.append(_meta(n_tracks + 1, "thread_sort_index",
                            {"sort_index": 0}))

        # job -> (dispatch_ts_us, core_tid) for open residency slices
        open_slices: Dict[int, Tuple[float, int]] = {}

        for t, etype, core, job, value in retained:
            ts = t * _US
            tid = core + 1 if core >= 0 else n_tracks + 1
            name = EVENT_NAMES.get(etype, f"event{etype}")
            args: Dict[str, object] = {}
            if job >= 0:
                args["job"] = job
            if value:
                args["value"] = value
            events.append({
                "name": name, "ph": "i", "s": "t",
                "ts": ts, "pid": 0, "tid": tid, "args": args,
            })
            if etype in (EV_DISPATCH, EV_START) and job >= 0:
                open_slices.setdefault(job, (ts, tid))
            elif etype == EV_MIGRATION and job >= 0:
                opened = open_slices.pop(job, None)
                if opened is not None:
                    events.append(_slice(job, opened[0], ts, opened[1]))
                open_slices[job] = (ts, tid)
            elif etype == EV_COMPLETION and job >= 0:
                opened = open_slices.pop(job, None)
                if opened is not None:
                    events.append(_slice(job, opened[0], ts, opened[1]))

        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "emitted": self.emitted,
                "dropped": self.dropped,
                "clock": "simulation-time",
            },
        }

    def write_chrome_trace(self, path, core_names: Sequence[str] = ()) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_trace(core_names), fh)

    def write_jsonl(self, path, core_names: Sequence[str] = ()) -> None:
        """One JSON object per line: raw typed events, oldest first."""
        with open(path, "w", encoding="utf-8") as fh:
            for t, etype, core, job, value in self.events():
                record = {
                    "t": t,
                    "event": EVENT_NAMES.get(etype, f"event{etype}"),
                }
                if 0 <= core < len(core_names):
                    record["core"] = core_names[core]
                elif core >= 0:
                    record["core"] = core
                if job >= 0:
                    record["job"] = job
                if value:
                    record["value"] = value
                fh.write(json.dumps(record) + "\n")


def _meta(tid: int, name: str, args: Dict[str, object]) -> Dict[str, object]:
    return {"name": name, "ph": "M", "pid": 0, "tid": tid, "args": args}


def _slice(job: int, ts0: float, ts1: float, tid: int) -> Dict[str, object]:
    return {
        "name": f"job {job}", "ph": "X",
        "ts": ts0, "dur": max(ts1 - ts0, 0.0),
        "pid": 0, "tid": tid, "args": {"job": job},
    }


class _NullTrace:
    """Disabled trace: emit is a no-op, exports are empty."""

    __slots__ = ()
    capacity = 0
    emitted = 0
    dropped = 0

    def emit(self, t: float, etype: int, core: int = -1, job: int = -1,
             value: float = 0.0) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def events(self) -> List[TraceEvent]:
        return []

    def to_lists(self) -> Dict[str, list]:
        return {"emitted": 0, "dropped": 0,
                "columns": ["time_s", "event", "core", "job", "value"],
                "rows": []}

    def to_chrome_trace(
        self, core_names: Sequence[str] = ()
    ) -> Dict[str, object]:
        return {
            "traceEvents": [],
            "displayTimeUnit": "ms",
            "otherData": {"emitted": 0, "dropped": 0,
                          "clock": "simulation-time"},
        }

    def write_chrome_trace(self, path, core_names: Sequence[str] = ()) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_trace(core_names), fh)

    def write_jsonl(self, path, core_names: Sequence[str] = ()) -> None:
        with open(path, "w", encoding="utf-8"):
            pass


NULL_TRACE = _NullTrace()
