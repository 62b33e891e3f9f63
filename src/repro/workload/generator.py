"""Closed-loop synthetic workload with Table I statistics.

Each thread alternates exponentially distributed busy and think phases;
the think mean is set so busy/(busy+think) matches the benchmark's
average utilization. Server benchmarks additionally modulate their think
times with a two-state (burst/lull) process whose time-average scale is
one, so bursts appear without shifting the long-run utilization — this
reproduces the bursty arrivals the paper's SLAMD web traces show without
the original traces (EXPERIMENTS.md, "Substitutions").

The generator is callback-driven: the engine asks for the initial
arrivals and then, on every job completion, for the thread's next
arrival. Everything is deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.workload.benchmarks import BenchmarkSpec
from repro.workload.job import Job, ThreadState, WorkloadThread

# Burst/lull think-time scales; chosen so a burstiness of 1 produces
# ~4x denser arrivals during bursts. The lull scale is derived per
# thread to keep the time-average scale at 1. Dwell times are tens of
# seconds: real server traces (the paper's SLAMD/mpstat profiles) show
# load phases on that scale, and those phases are what drives the
# sleep/wake thermal cycling the paper evaluates in Figure 6.
_BURST_SCALE = 0.22
_BURST_DWELL_S = 6.0
_LULL_DWELL_S = 12.0


@dataclass(slots=True)
class _ModulatorState:
    """Per-thread burst/lull state."""

    in_burst: bool
    until: float


class SyntheticWorkload:
    """Closed-loop workload over a benchmark mix.

    Parameters
    ----------
    mix:
        (benchmark, thread count) pairs; threads are numbered in mix
        order.
    seed:
        RNG seed; the workload is fully deterministic given it.
    """

    def __init__(
        self, mix: Sequence[Tuple[BenchmarkSpec, int]], seed: int = 2009
    ) -> None:
        if not mix:
            raise WorkloadError("workload mix is empty")
        self._rng = np.random.default_rng(seed)
        specs: List[BenchmarkSpec] = []
        for spec, count in mix:
            if count < 0:
                raise WorkloadError(f"negative thread count for {spec.name}")
            specs.extend([spec] * count)
        if not specs:
            raise WorkloadError("workload mix has zero threads")
        # Shuffle so heavy and light threads arrive interleaved — the OS
        # sees an arbitrary arrival order, and a deterministic
        # benchmark-sorted order would systematically place the heavy
        # threads on whichever cores the dispatcher enumerates first.
        order = self._rng.permutation(len(specs))
        self.threads = [
            WorkloadThread(i, specs[order[i]]) for i in range(len(specs))
        ]
        self._next_job_id = 0
        self._modulators: Dict[int, _ModulatorState] = {
            t.thread_id: _ModulatorState(in_burst=False, until=0.0)
            for t in self.threads
        }
        # Bulk-drawn standard-exponential block: NumPy's
        # ``exponential(scale)`` is bitwise ``scale *
        # standard_exponential()``, so scaling values popped from a
        # pre-drawn block amortizes the per-call Generator overhead the
        # engine's event handlers would otherwise pay per job. Note the
        # block refill advances the underlying stream past draws other
        # call sites (initial_arrivals' uniform offsets) would have
        # consumed, so per-seed realizations differ from pre-block
        # versions — same distributions, different samples (campaign
        # KEY_VERSION 4 invalidated stored trajectories accordingly).
        self._exp_buf = np.empty(0)
        self._exp_pos = 0

    def _draw_exp(self, scale: float) -> float:
        """One exponential draw with the given scale (block-buffered)."""
        pos = self._exp_pos
        buf = self._exp_buf
        if pos >= buf.shape[0]:
            buf = self._exp_buf = self._rng.standard_exponential(256)
            pos = 0
        self._exp_pos = pos + 1
        return scale * buf[pos]

    @property
    def n_threads(self) -> int:
        """Total thread count."""
        return len(self.threads)

    # ------------------------------------------------------------------

    def initial_arrivals(self) -> List[Tuple[float, Job]]:
        """First job of every thread, staggered over one think period."""
        arrivals = []
        for thread in self.threads:
            offset = float(
                self._rng.uniform(0.0, max(thread.benchmark.mean_think_s, 0.05))
            )
            arrivals.append((offset, self._make_job(thread, offset)))
        arrivals.sort(key=lambda pair: pair[0])
        return arrivals

    def next_arrival(
        self, thread_id: int, completion_time: float
    ) -> Tuple[float, Job]:
        """Schedule the thread's next job after its think phase."""
        thread = self._thread(thread_id)
        thread.state = ThreadState.THINKING
        think = self._draw_think(thread, completion_time)
        arrival = completion_time + think
        return arrival, self._make_job(thread, arrival)

    # ------------------------------------------------------------------

    def _thread(self, thread_id: int) -> WorkloadThread:
        try:
            return self.threads[thread_id]
        except IndexError:
            raise WorkloadError(f"unknown thread id {thread_id}") from None

    def _make_job(self, thread: WorkloadThread, arrival: float) -> Job:
        work = float(self._draw_exp(thread.benchmark.mean_busy_s))
        # Avoid degenerate zero-length jobs from the exponential tail.
        work = max(work, 1e-3)
        job = Job(
            job_id=self._next_job_id,
            thread_id=thread.thread_id,
            benchmark=thread.benchmark,
            arrival_time=arrival,
            work_s=work,
        )
        self._next_job_id += 1
        thread.state = ThreadState.RUNNABLE
        thread.jobs_issued += 1
        return job

    def _draw_think(self, thread: WorkloadThread, now: float) -> float:
        scale = self._modulation_scale(thread, now)
        mean = thread.benchmark.mean_think_s * scale
        return float(self._draw_exp(max(mean, 1e-3)))

    def _modulation_scale(self, thread: WorkloadThread, now: float) -> float:
        """Burst/lull think-time multiplier with time-average one."""
        burstiness = thread.benchmark.burstiness
        if burstiness <= 0.0:
            return 1.0
        mod = self._modulators[thread.thread_id]
        while now >= mod.until:
            if mod.in_burst:
                dwell = float(self._draw_exp(_LULL_DWELL_S))
            else:
                dwell = float(self._draw_exp(_BURST_DWELL_S))
            mod.in_burst = not mod.in_burst
            mod.until = max(mod.until, now) + dwell
        # Burst fraction of time under the dwell means above.
        p_burst = _BURST_DWELL_S / (_BURST_DWELL_S + _LULL_DWELL_S)
        lull_scale = (1.0 - p_burst * _BURST_SCALE) / (1.0 - p_burst)
        full = _BURST_SCALE if mod.in_burst else lull_scale
        # Blend toward 1 for low-burstiness benchmarks.
        return burstiness * full + (1.0 - burstiness)

    # ------------------------------------------------------------------

    def mix_memory_intensity(self) -> float:
        """Thread-weighted mean memory intensity of the mix."""
        total = sum(t.benchmark.memory_intensity for t in self.threads)
        return total / len(self.threads)
