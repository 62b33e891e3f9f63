"""Jobs and workload threads.

Execution model (paper §IV-B/§IV-D): user and kernel threads alternate
between *busy* intervals (a job that must run on some core) and *think*
intervals (no CPU demand). DTrace gave the paper the real active/idle
slot lengths; our synthetic generator draws them from per-benchmark
distributions.

A :class:`Job` is one busy interval: it carries its CPU demand in
nominal-frequency seconds and accumulates bookkeeping (queueing delay,
migrations, completion time) used by the performance metric. A
finished run hands its jobs on as one :class:`JobTable`: their numeric
fields as columns, which the metrics and the result codec read without
building a :class:`Job` per row.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, List, Optional

import numpy as np

from repro.errors import WorkloadError
from repro.workload.benchmarks import BenchmarkSpec

#: Numeric job fields in :class:`JobTable` column order.
JOB_COLUMNS = ("job_id", "thread_id", "arrival_time", "work_s",
               "remaining_s", "completion_time", "migrations")

_ARRIVAL = JOB_COLUMNS.index("arrival_time")
_COMPLETION = JOB_COLUMNS.index("completion_time")


@dataclass(slots=True)
class Job:
    """One busy interval of a workload thread.

    Attributes
    ----------
    job_id:
        Unique id within a simulation.
    thread_id:
        Owning thread (used for the default policy's locality rule).
    benchmark:
        The benchmark this thread belongs to.
    arrival_time:
        Simulation time (s) the job became runnable.
    work_s:
        Total CPU demand in seconds at the nominal frequency.
    remaining_s:
        Outstanding demand; decreases as the job executes.
    core:
        Name of the core currently hosting the job, if dispatched.
    completion_time:
        Set when the job finishes.
    migrations:
        Number of times the job was moved between cores.
    """

    job_id: int
    thread_id: int
    benchmark: BenchmarkSpec
    arrival_time: float
    work_s: float
    remaining_s: float = field(init=False)
    core: Optional[str] = None
    completion_time: Optional[float] = None
    migrations: int = 0

    def __post_init__(self) -> None:
        if self.work_s <= 0.0:
            raise WorkloadError(f"job {self.job_id}: work must be positive")
        if self.arrival_time < 0.0:
            raise WorkloadError(f"job {self.job_id}: negative arrival time")
        self.remaining_s = self.work_s

    @property
    def finished(self) -> bool:
        """Whether the job has completed."""
        return self.completion_time is not None

    @property
    def response_time(self) -> float:
        """Arrival-to-completion latency (s); raises if unfinished."""
        if self.completion_time is None:
            raise WorkloadError(f"job {self.job_id} has not completed")
        return self.completion_time - self.arrival_time

    @property
    def delay(self) -> float:
        """Response time beyond the pure CPU demand (queueing, slowdown,
        migration overhead)."""
        return self.response_time - self.work_s


class JobTable(Sequence):
    """A run's jobs as columns, in job order.

    ``rows`` holds one float64 row per job, columns in
    :data:`JOB_COLUMNS` order; an unfinished job's completion time is
    NaN. ``benchmarks`` and ``cores`` hold each row's
    :class:`BenchmarkSpec` and core name. The metrics and the result
    codec read the columns. As a sequence the table yields :class:`Job`
    objects: built from the rows on first use and cached, or, for a
    table made from jobs (:meth:`of`), those very objects. It pickles
    as its rows and lists, never as :class:`Job` objects.
    """

    __slots__ = ("rows", "benchmarks", "cores", "_jobs")

    def __init__(self, rows: np.ndarray, benchmarks: List[BenchmarkSpec],
                 cores: List[Optional[str]],
                 jobs: Optional[List[Job]] = None) -> None:
        self.rows = rows
        self.benchmarks = benchmarks
        self.cores = cores
        self._jobs = jobs

    @classmethod
    def of(cls, jobs: Iterable[Job]) -> "JobTable":
        """``jobs`` as a table; a table is returned as it is."""
        if isinstance(jobs, JobTable):
            return jobs
        jobs = list(jobs)
        width = len(JOB_COLUMNS)
        # One flat pass over the fields, in JOB_COLUMNS order.
        rows = np.fromiter(chain.from_iterable(
            (job.job_id, job.thread_id, job.arrival_time, job.work_s,
             job.remaining_s,
             math.nan if job.completion_time is None else job.completion_time,
             job.migrations)
            for job in jobs
        ), dtype=np.float64, count=width * len(jobs))
        return cls(rows.reshape(-1, width), [job.benchmark for job in jobs],
                   [job.core for job in jobs], jobs)

    def column(self, name: str) -> np.ndarray:
        """One numeric field of every job (a view of ``rows``)."""
        return self.rows[:, JOB_COLUMNS.index(name)]

    def finished(self) -> np.ndarray:
        """Mask of the rows whose job completed."""
        return ~np.isnan(self.rows[:, _COMPLETION])

    def response_times(self) -> np.ndarray:
        """Arrival-to-completion latency (s) of each completed job, in
        job order."""
        times = self.rows[:, _COMPLETION] - self.rows[:, _ARRIVAL]
        return times[~np.isnan(times)]

    def take(self, mask: np.ndarray) -> "JobTable":
        """The rows where ``mask`` is true, as a new table."""
        index = np.flatnonzero(mask).tolist()
        return JobTable(self.rows[index], [self.benchmarks[i] for i in index],
                        [self.cores[i] for i in index])

    def _objects(self) -> List[Job]:
        if self._jobs is None:
            self._jobs = [
                _job(row, spec, core) for row, spec, core
                in zip(self.rows.tolist(), self.benchmarks, self.cores)
            ]
        return self._jobs

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, index):
        return self._objects()[index]

    def __iter__(self) -> Iterator[Job]:
        return iter(self._objects())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, JobTable):
            return (np.array_equal(self.rows, other.rows, equal_nan=True)
                    and self.benchmarks == other.benchmarks
                    and self.cores == other.cores)
        if isinstance(other, (list, tuple)):
            return self._objects() == list(other)
        return NotImplemented

    def __reduce__(self):
        return JobTable, (self.rows, self.benchmarks, self.cores)

    def __repr__(self) -> str:
        done = int(np.count_nonzero(self.finished()))
        return f"JobTable({len(self)} jobs, {done} completed)"


def _job(row: List[float], spec: BenchmarkSpec, core: Optional[str]) -> Job:
    """The :class:`Job` one table row describes."""
    job_id, thread_id, arrival, work, remaining, completion, migrations = row
    job = Job(int(job_id), int(thread_id), spec, arrival, work, core=core,
              completion_time=None if math.isnan(completion) else completion,
              migrations=int(migrations))
    job.remaining_s = remaining
    return job


class ThreadState(enum.Enum):
    """Lifecycle state of a workload thread."""

    THINKING = "thinking"
    RUNNABLE = "runnable"


@dataclass(slots=True)
class WorkloadThread:
    """One closed-loop thread: alternates think and busy phases.

    Attributes
    ----------
    thread_id:
        Unique id within a workload.
    benchmark:
        The Table I benchmark characterizing this thread.
    state:
        Current lifecycle state.
    last_core:
        Core the thread's previous job ran on (locality hint for the
        default load-balancing policy).
    jobs_issued:
        Count of busy intervals generated so far.
    """

    thread_id: int
    benchmark: BenchmarkSpec
    state: ThreadState = ThreadState.THINKING
    last_core: Optional[str] = None
    jobs_issued: int = 0
