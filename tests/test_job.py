"""Job and thread model tests."""

import pytest

from repro.errors import WorkloadError
from repro.workload.benchmarks import benchmark
from repro.workload.job import Job


def make_job(work=1.0, arrival=0.0):
    return Job(1, 0, benchmark("gcc"), arrival, work)


class TestJob:
    def test_remaining_initialized_to_work(self):
        assert make_job(2.5).remaining_s == pytest.approx(2.5)

    def test_rejects_non_positive_work(self):
        with pytest.raises(WorkloadError):
            make_job(0.0)

    def test_rejects_negative_arrival(self):
        with pytest.raises(WorkloadError):
            make_job(1.0, -1.0)

    def test_response_time(self):
        job = make_job(1.0, arrival=2.0)
        job.completion_time = 5.5
        assert job.response_time == pytest.approx(3.5)
        assert job.delay == pytest.approx(2.5)

    def test_response_before_completion_raises(self):
        with pytest.raises(WorkloadError):
            make_job().response_time

    def test_finished_flag(self):
        job = make_job()
        assert not job.finished
        job.completion_time = 1.0
        assert job.finished
