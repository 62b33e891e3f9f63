"""Performance metrics (paper §V-A, the Figure 3 line series).

The paper evaluates performance as "the average delay in the completion
time of jobs with respect to the default policy". We compute the mean
job response time (arrival to completion) per run; the figure series is
that value normalized to the Default policy's run on the same workload
(1.0 = no overhead, higher = slower).

The job metrics take a run's jobs as a
:class:`~repro.workload.job.JobTable` (a list of :class:`Job` is
converted first) and read its columns. Sums run left to right in job
order over Python floats, as the builtin ``sum`` does, so every value
equals the per-job formula bit for bit.

Beyond the single paper mean, this module carries the shared latency
toolkit used by the telemetry layer (``repro.obs.stats``): exact
linear-interpolation percentiles and tail-latency summaries over
arbitrary sample lists, plus job-level convenience wrappers for
response-time percentiles.  Queue wait and dispatch latency are not
derivable from :class:`Job` alone (the job records arrival and
completion, not when it first reached a core's run slot), so those
samples are collected by the engine's ``JobStatsCollector`` and fed
through the same :func:`latency_summary` helper.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.errors import ConfigurationError
from repro.workload.job import Job, JobTable

#: Default percentile set reported by summaries (median + tails).
DEFAULT_PERCENTILES = (50.0, 95.0, 99.0)


def _response_times(jobs: Sequence[Job]) -> List[float]:
    """Response times (s) of the finished jobs, in job order; raises if
    none finished."""
    times = JobTable.of(jobs).response_times().tolist()
    if not times:
        raise ConfigurationError("no completed jobs to evaluate")
    return times


def mean_response_time(jobs: Sequence[Job]) -> float:
    """Mean arrival-to-completion latency (s) over finished jobs."""
    times = _response_times(jobs)
    return sum(times) / len(times)


def normalized_delay(jobs: Sequence[Job], baseline_jobs: Sequence[Job]) -> float:
    """Mean response time relative to the baseline run (1.0 = equal)."""
    baseline = mean_response_time(baseline_jobs)
    if baseline <= 0.0:
        raise ConfigurationError("baseline mean response time is zero")
    return mean_response_time(jobs) / baseline


def throughput(jobs: Sequence[Job], duration_s: float) -> float:
    """Completed jobs per second of simulated time."""
    if duration_s <= 0.0:
        raise ConfigurationError("duration must be positive")
    return int(JobTable.of(jobs).finished().sum()) / duration_s


def percentile(values: Sequence[float], q: float) -> float:
    """Exact ``q``-th percentile with linear interpolation.

    Matches ``numpy.percentile``'s default (``linear``) method without
    requiring the samples to be an array.  Raises on an empty sample
    set rather than inventing a number.
    """
    if not values:
        raise ConfigurationError("no samples to take a percentile of")
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"percentile out of range: {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = q / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def latency_summary(
    values: Sequence[float],
    percentiles: Sequence[float] = DEFAULT_PERCENTILES,
) -> Dict[str, float]:
    """Count/mean/max plus the requested percentiles for a sample list.

    Empty input yields a zeroed summary (``count == 0``) so callers can
    serialize it without special-casing runs where no jobs finished.
    """
    if not values:
        summary = {"count": 0, "mean": 0.0, "max": 0.0}
        summary.update({_pct_key(q): 0.0 for q in percentiles})
        return summary
    summary = {
        "count": len(values),
        "mean": sum(values) / len(values),
        "max": max(values),
    }
    summary.update({_pct_key(q): percentile(values, q) for q in percentiles})
    return summary


def response_time_percentiles(
    jobs: Sequence[Job],
    percentiles: Sequence[float] = DEFAULT_PERCENTILES,
) -> Dict[str, float]:
    """Response-time percentiles (s) over finished jobs.

    Raises if nothing finished — a run with zero completions has no
    meaningful response distribution.
    """
    times = _response_times(jobs)
    return {_pct_key(q): percentile(times, q) for q in percentiles}


def _pct_key(q: float) -> str:
    label = f"{q:g}".replace(".", "_")
    return f"p{label}"
