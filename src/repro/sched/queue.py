"""Per-core dispatch queues.

Modern OSes use a multi-queue structure where each core owns a
dispatching queue and executes the threads allocated to it in order
(paper §IV-D). The head of the queue is the running job.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, List, Optional

from repro.errors import SchedulerError
from repro.workload.job import Job


class DispatchQueue:
    """FIFO dispatch queue of one core."""

    def __init__(self, core_name: str) -> None:
        self.core_name = core_name
        #: The underlying deque, head first. Public so the engine's hot
        #: path can inspect the head without a method-call round trip;
        #: mutate only through the queue methods.
        self.entries: Deque[Job] = deque()

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.entries)

    @property
    def running(self) -> Optional[Job]:
        """The job at the head of the queue (currently executing)."""
        return self.entries[0] if self.entries else None

    def push(self, job: Job) -> None:
        """Enqueue a job at the tail and bind it to this core."""
        job.core = self.core_name
        self.entries.append(job)

    def pop_finished(self) -> Job:
        """Remove and return the head job (must be complete)."""
        if not self.entries:
            raise SchedulerError(f"{self.core_name}: queue empty")
        job = self.entries[0]
        if job.remaining_s > 1e-12:
            raise SchedulerError(
                f"{self.core_name}: popping unfinished job {job.job_id}"
            )
        return self.entries.popleft()

    def pop_head(self) -> Job:
        """Remove and return the head job without the finished check.

        The span substrate's completion path pops only heads it has just
        materialized to zero remaining work, so the re-verification in
        :meth:`pop_finished` would be pure per-event overhead there.
        """
        return self.entries.popleft()

    def steal(self, job: Optional[Job] = None) -> Job:
        """Remove a job for migration: the given one, or the head.

        The stolen job keeps its progress; the caller re-enqueues it on
        the destination core and charges the migration cost.
        """
        if not self.entries:
            raise SchedulerError(f"{self.core_name}: nothing to steal")
        if job is None:
            return self.entries.popleft()
        try:
            self.entries.remove(job)
        except ValueError:
            raise SchedulerError(
                f"{self.core_name}: job {job.job_id} not in queue"
            ) from None
        return job

    def jobs(self) -> List[Job]:
        """Snapshot of queued jobs, head first."""
        return list(self.entries)

    def total_remaining_s(self) -> float:
        """Outstanding CPU demand in the queue (nominal-frequency s)."""
        return sum(job.remaining_s for job in self.entries)
