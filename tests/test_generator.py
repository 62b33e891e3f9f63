"""Synthetic workload generator tests: statistics must match Table I."""

import pytest

from repro.errors import WorkloadError
from repro.workload.benchmarks import benchmark
from repro.workload.generator import SyntheticWorkload


def drain(workload, duration_s):
    """Simulate an uncontended run: every job executes immediately."""
    busy = 0.0
    arrivals = workload.initial_arrivals()
    while arrivals:
        time, job = arrivals.pop(0)
        if time >= duration_s:
            continue
        end = time + job.work_s
        busy += min(job.work_s, max(0.0, duration_s - time))
        follow = workload.next_arrival(job.thread_id, end)
        arrivals.append(follow)
        arrivals.sort(key=lambda pair: pair[0])
    return busy


class TestConstruction:
    def test_thread_count(self):
        workload = SyntheticWorkload([(benchmark("gcc"), 3), (benchmark("gzip"), 2)])
        assert workload.n_threads == 5

    def test_rejects_empty_mix(self):
        with pytest.raises(WorkloadError):
            SyntheticWorkload([])

    def test_rejects_zero_threads(self):
        with pytest.raises(WorkloadError):
            SyntheticWorkload([(benchmark("gcc"), 0)])

    def test_shuffle_is_deterministic(self):
        mix = [(benchmark("Web-high"), 3), (benchmark("gzip"), 3)]
        a = SyntheticWorkload(mix, seed=5)
        b = SyntheticWorkload(mix, seed=5)
        assert [t.benchmark.name for t in a.threads] == [
            t.benchmark.name for t in b.threads
        ]

    def test_shuffle_interleaves(self):
        mix = [(benchmark("Web-high"), 8), (benchmark("gzip"), 8)]
        workload = SyntheticWorkload(mix, seed=1)
        names = [t.benchmark.name for t in workload.threads]
        # Not all heavy threads first.
        assert names[:8] != ["Web-high"] * 8


class TestStatistics:
    @pytest.mark.parametrize("name,tolerance", [
        ("Web-high", 0.10),
        ("Web-med", 0.15),
        ("gzip", 0.30),
    ])
    def test_mean_utilization_matches_table1(self, name, tolerance):
        """Uncontended closed-loop utilization must track the published
        average (relative tolerance reflects the stochastic run)."""
        spec = benchmark(name)
        workload = SyntheticWorkload([(spec, 4)], seed=11)
        duration = 600.0
        busy = drain(workload, duration)
        utilization = busy / (duration * 4)
        assert utilization == pytest.approx(spec.utilization, rel=tolerance)

    def test_initial_arrivals_sorted(self):
        workload = SyntheticWorkload([(benchmark("gcc"), 6)])
        times = [t for t, _ in workload.initial_arrivals()]
        assert times == sorted(times)

    def test_job_ids_unique(self):
        workload = SyntheticWorkload([(benchmark("gcc"), 4)])
        jobs = [job for _, job in workload.initial_arrivals()]
        for _ in range(20):
            _, job = workload.next_arrival(0, 100.0)
            jobs.append(job)
        ids = [job.job_id for job in jobs]
        assert len(ids) == len(set(ids))

    def test_memory_intensity_weighted(self):
        workload = SyntheticWorkload(
            [(benchmark("Web-high"), 1), (benchmark("gzip"), 1)]
        )
        expected = (
            benchmark("Web-high").memory_intensity
            + benchmark("gzip").memory_intensity
        ) / 2
        assert workload.mix_memory_intensity() == pytest.approx(expected)

    def test_unknown_thread_raises(self):
        workload = SyntheticWorkload([(benchmark("gcc"), 1)])
        with pytest.raises(WorkloadError):
            workload.next_arrival(99, 1.0)

    @pytest.mark.parametrize("thread_id", [-1, 2])
    def test_thread_id_outside_range_raises(self, thread_id):
        """A negative id must not wrap around to the last thread."""
        workload = SyntheticWorkload(
            [(benchmark("gzip"), 1), (benchmark("MPlayer"), 1)]
        )
        with pytest.raises(WorkloadError,
                           match=f"unknown thread id {thread_id}"):
            workload.next_arrival(thread_id, 1.0)

    def test_deterministic_given_seed(self):
        mix = [(benchmark("Web-med"), 4)]
        a = SyntheticWorkload(mix, seed=3)
        b = SyntheticWorkload(mix, seed=3)
        arr_a = [(t, j.work_s) for t, j in a.initial_arrivals()]
        arr_b = [(t, j.work_s) for t, j in b.initial_arrivals()]
        assert arr_a == arr_b
