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
arrival. Everything is deterministic given the seed, drawn from one
``numpy.random.default_rng(seed)`` stream in this order:

1. the thread permutation (``permutation(n_threads)``);
2. per thread, in thread order: one ``uniform(0, max(mean_think_s,
   0.05))`` offset, then the first job's work;
3. per completion: the thread's burst/lull dwell draws (bursty threads
   only, as many as bring its modulator past the completion time), its
   think time, then the next job's work.

Every exponential draw (work, think, dwell) is ``scale *`` the next
value of a 256-value ``standard_exponential`` block, drawn from the
stream when the previous block runs out; the first block is drawn by
the first thread's work, right after its offset.
``tests/test_generator.py`` derives the sequence from these rules
alone and compares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.workload.benchmarks import BenchmarkSpec
from repro.workload.job import Job, WorkloadThread

# Burst/lull think-time scales; chosen so a burstiness of 1 produces
# ~4x denser arrivals during bursts. Dwell times are tens of seconds:
# real server traces (the paper's SLAMD/mpstat profiles) show load
# phases on that scale, and those phases are what drives the
# sleep/wake thermal cycling the paper evaluates in Figure 6.
_BURST_SCALE = 0.22
_BURST_DWELL_S = 6.0
_LULL_DWELL_S = 12.0
# Burst fraction of time under the dwell means above, and the lull
# scale that keeps the time-average scale at one.
_P_BURST = _BURST_DWELL_S / (_BURST_DWELL_S + _LULL_DWELL_S)
_LULL_SCALE = (1.0 - _P_BURST * _BURST_SCALE) / (1.0 - _P_BURST)


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
        # The block is held as a list: its floats are the float64
        # values exactly, and scaling a Python float is cheaper.
        self._exp_buf: List[float] = []
        self._exp_pos = 0

    def _exp_block(self) -> List[float]:
        """Draw the next standard-exponential block (position 0)."""
        buf = self._exp_buf = self._rng.standard_exponential(256).tolist()
        self._exp_pos = 0
        return buf

    def _draw_exp(self, scale: float) -> float:
        """One exponential draw with the given scale (block-buffered)."""
        buf = self._exp_buf
        pos = self._exp_pos
        if pos == len(buf):
            buf = self._exp_block()
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
        """Schedule the thread's next job after its think phase.

        One pass over the thread's draws, in stream order: the
        burst/lull dwell draws that carry a bursty thread's modulator
        past ``completion_time``, the think time (its mean scaled by
        the burst/lull multiplier, floored at 1 ms) and the next job's
        work (floored at 1 ms). The multiplier blends the burst or lull
        scale toward one by the benchmark's burstiness, so its time
        average is one.
        """
        thread = self._thread(thread_id)
        spec = thread.benchmark
        buf = self._exp_buf
        pos = self._exp_pos
        scale = 1.0
        burstiness = spec.burstiness
        if burstiness > 0.0:
            mod = self._modulators[thread.thread_id]
            while completion_time >= mod.until:
                if pos == len(buf):
                    buf = self._exp_block()
                    pos = 0
                if mod.in_burst:
                    dwell = _LULL_DWELL_S * buf[pos]
                else:
                    dwell = _BURST_DWELL_S * buf[pos]
                pos += 1
                mod.in_burst = not mod.in_burst
                mod.until = max(mod.until, completion_time) + dwell
            full = _BURST_SCALE if mod.in_burst else _LULL_SCALE
            scale = burstiness * full + (1.0 - burstiness)
        if pos == len(buf):
            buf = self._exp_block()
            pos = 0
        think = max(spec.mean_think_s * scale, 1e-3) * buf[pos]
        pos += 1
        if pos == len(buf):
            buf = self._exp_block()
            pos = 0
        # Avoid degenerate zero-length jobs from the exponential tail.
        work = max(spec.mean_busy_s * buf[pos], 1e-3)
        self._exp_pos = pos + 1
        arrival = completion_time + think
        job = Job(self._next_job_id, thread.thread_id, spec, arrival, work)
        self._next_job_id += 1
        return arrival, job

    # ------------------------------------------------------------------

    def _thread(self, thread_id: int) -> WorkloadThread:
        if not 0 <= thread_id < len(self.threads):
            raise WorkloadError(f"unknown thread id {thread_id}")
        return self.threads[thread_id]

    def _make_job(self, thread: WorkloadThread, arrival: float) -> Job:
        # Avoid degenerate zero-length jobs from the exponential tail.
        work = max(self._draw_exp(thread.benchmark.mean_busy_s), 1e-3)
        job = Job(
            job_id=self._next_job_id,
            thread_id=thread.thread_id,
            benchmark=thread.benchmark,
            arrival_time=arrival,
            work_s=work,
        )
        self._next_job_id += 1
        return job

    # ------------------------------------------------------------------

    def mix_memory_intensity(self) -> float:
        """Thread-weighted mean memory intensity of the mix."""
        total = sum(t.benchmark.memory_intensity for t in self.threads)
        return total / len(self.threads)
