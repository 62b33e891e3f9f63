"""Synthetic workload generator tests: statistics must match Table I."""

import pytest

from repro.errors import WorkloadError
from repro.workload.benchmarks import BenchmarkSpec, benchmark
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


def closed_loop(initial, next_arrival, n_jobs):
    """``(thread_id, arrival, work_s)`` of the first ``n_jobs`` jobs of an
    uncontended closed loop: each job completes ``work_s`` after it
    arrives, and its thread's next job comes from
    ``next_arrival(thread_id, completion) -> (arrival, work_s)``.
    ``initial`` holds each thread's first ``(arrival, thread_id,
    work_s)``."""
    pending = list(initial)
    jobs = []
    while len(jobs) < n_jobs:
        pending.sort(key=lambda entry: entry[0])
        arrival, thread_id, work = pending.pop(0)
        jobs.append((thread_id, arrival, work))
        nxt, nxt_work = next_arrival(thread_id, arrival + work)
        pending.append((nxt, thread_id, nxt_work))
    return jobs


class TestDrawOrder:
    """The generator's stream, derived from its documented draw order.

    The expected jobs come straight from ``np.random.default_rng(seed)``
    following the module docstring: the thread permutation; per thread
    one uniform offset and the first job's work; per completion the
    burst/lull dwell draws, the think time and the work. Exponential
    draws scale the next value of 256-value ``standard_exponential``
    blocks. 800 jobs cross several block refills.
    """

    MIX = [
        (benchmark("Web-high"), 3),  # bursty (0.5)
        (benchmark("gcc"), 2),       # barely bursty (0.1)
        # Steady arrivals: no dwell draws, think scale one.
        (BenchmarkSpec("steady", 40.0, 10.0, 50.0, 1.0, 0.0, 0.5), 3),
    ]

    @staticmethod
    def derive(mix, seed, n_jobs):
        import numpy as np

        from repro.workload.generator import (
            _BURST_DWELL_S,
            _BURST_SCALE,
            _LULL_DWELL_S,
            _LULL_SCALE,
        )

        rng = np.random.default_rng(seed)
        specs = [spec for spec, count in mix for _ in range(count)]
        threads = [specs[i] for i in rng.permutation(len(specs))]
        block = []

        def draw(scale):
            if not block:
                block.extend(rng.standard_exponential(256).tolist())
            return scale * block.pop(0)

        initial = []
        for thread_id, spec in enumerate(threads):
            offset = float(rng.uniform(0.0, max(spec.mean_think_s, 0.05)))
            initial.append(
                (offset, thread_id, max(draw(spec.mean_busy_s), 1e-3))
            )
        # Per thread: [in burst, burst/lull phase end].
        phase = [[False, 0.0] for _ in threads]

        def next_arrival(thread_id, done):
            spec = threads[thread_id]
            scale = 1.0
            if spec.burstiness > 0.0:
                state = phase[thread_id]
                while done >= state[1]:
                    dwell = draw(_LULL_DWELL_S if state[0] else _BURST_DWELL_S)
                    state[0] = not state[0]
                    state[1] = max(state[1], done) + dwell
                full = _BURST_SCALE if state[0] else _LULL_SCALE
                scale = spec.burstiness * full + (1.0 - spec.burstiness)
            think = draw(max(spec.mean_think_s * scale, 1e-3))
            return done + think, max(draw(spec.mean_busy_s), 1e-3)

        return closed_loop(initial, next_arrival, n_jobs)

    @staticmethod
    def generate(mix, seed, n_jobs):
        workload = SyntheticWorkload(mix, seed=seed)
        initial = [
            (arrival, job.thread_id, job.work_s)
            for arrival, job in workload.initial_arrivals()
        ]

        def next_arrival(thread_id, done):
            arrival, job = workload.next_arrival(thread_id, done)
            assert job.arrival_time == arrival
            return arrival, job.work_s

        return closed_loop(initial, next_arrival, n_jobs)

    @pytest.mark.parametrize("seed", [2009, 77])
    def test_generator_follows_documented_draw_order(self, seed):
        expected = self.derive(self.MIX, seed, 800)
        assert self.generate(self.MIX, seed, 800) == expected
        # Every thread ran, and bursty and steady threads alike.
        assert {thread for thread, _, _ in expected} == set(range(8))
