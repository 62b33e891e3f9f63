"""The columnar job table: codec bytes, pickling and bit-identical metrics.

Each reference below works on :class:`Job` objects, as the codec and
the metrics did before a result's jobs became one
:class:`~repro.workload.job.JobTable`; the table must give the same
bytes and the same floats.
"""

import json
import os
import pickle
import pickletools
from operator import attrgetter

import numpy as np
import pytest

from repro.analysis.result_io import load_result, save_result, truncate_result
from repro.analysis.runner import ExperimentRunner, RunSpec
from repro.metrics.performance import (
    DEFAULT_PERCENTILES,
    mean_response_time,
    normalized_delay,
    percentile,
    response_time_percentiles,
    throughput,
)
from repro.workload.benchmarks import benchmark
from repro.workload.job import JOB_COLUMNS, Job, JobTable

RUNNER = ExperimentRunner()


def spec(exp_id=1, policy="Default", seed=1, **overrides) -> RunSpec:
    base = dict(exp_id=exp_id, policy=policy, duration_s=3.0, seed=seed,
                grid=(4, 4))
    base.update(overrides)
    return RunSpec(**base)


#: Per-tick result fields, in the payload's block order.
PLANES = ("times", "unit_temps_k", "core_temps_k", "core_peak_temps_k",
          "layer_spreads_k", "utilization", "vf_indices", "core_states",
          "total_power_w")


def reference_payload(result):
    """The payload frame as encoded per Job object: one attrgetter row
    per completed job after the planes, each plane as little-endian
    float64, behind the 32-byte size preamble and the header line."""
    jobs = result.completed_jobs()
    rows = np.array(list(map(attrgetter(*JOB_COLUMNS), jobs)),
                    dtype=np.float64).reshape(-1, len(JOB_COLUMNS))
    meta = {
        "version": 3,
        "policy_name": result.policy_name,
        "sampling_interval_s": result.sampling_interval_s,
        "energy_j": result.energy_j,
        "migrations": result.migrations,
        "unit_names": list(result.unit_names),
        "core_names": list(result.core_names),
        "n_dies": result.layer_spreads_k.shape[1],
        "n_ticks": len(result.times),
        "job_benchmarks": [job.benchmark.name for job in jobs],
        "job_cores": [job.core for job in jobs],
    }
    body = b"".join(getattr(result, name).astype("<f8").tobytes()
                    for name in PLANES) + rows.astype("<f8").tobytes()
    return frame(meta, body)


def frame(meta, body):
    """A format-3 payload frame built by hand: the 32-byte preamble
    declaring the frame's size, ``meta`` as one JSON line space-padded
    to an 8-byte boundary, then ``body``."""
    header = json.dumps(meta, sort_keys=True).encode()
    header += b" " * (-(32 + len(header) + 1) % 8) + b"\n"
    size = 32 + len(header) + len(body)
    return b"repro-dtm result v3 %011d\n" % size + header + body


def job_fields(job):
    return (job.job_id, job.thread_id, job.benchmark, job.arrival_time,
            job.work_s, job.remaining_s, job.core, job.completion_time,
            job.migrations)


def pickled_names(data: bytes) -> set:
    """Every string a pickle pushes or names a global with, read with
    pickletools; a referenced class shows up by its qualified name."""
    return {
        part for _, arg, _ in pickletools.genops(data)
        if isinstance(arg, str) for part in arg.split()
    }


CODEC_CASES = {
    "event": lambda: RUNNER.run(spec(fidelity="event", with_dpm=True)),
    "eager": lambda: RUNNER.run(spec(exp_id=4, policy="Migr",
                                     fidelity="eager")),
    "batch_lane": lambda: RUNNER.run_batch(
        [spec(seed=1), spec(policy="Adapt3D", seed=2)])[1],
    "no_completed_job": lambda: RUNNER.run(
        spec(duration_s=2.0, benchmark_mix=(("gzip", 1),))),
}


@pytest.fixture(scope="module", params=sorted(CODEC_CASES))
def case(request):
    return request.param, CODEC_CASES[request.param]()


class TestCodecBytes:
    def test_payload_matches_per_job_encoder(self, case, tmp_path):
        name, result = case
        path = save_result(result, tmp_path / "r")
        assert os.listdir(tmp_path) == ["r.bin"]
        assert path.read_bytes() == reference_payload(result)
        if name == "no_completed_job":
            assert len(result.jobs) and not result.completed_jobs()
        else:
            # Every case but the idle one ends with jobs still running,
            # which the payload leaves out.
            assert 0 < len(result.completed_jobs()) < len(result.jobs)

    def test_loaded_arrays_own_their_data(self, case, tmp_path):
        # Each plane and the job rows are arrays of their own, not views
        # into a read buffer that would pin the file's bytes, with the
        # dtypes the engine records.
        _, result = case
        save_result(result, tmp_path / "r")
        loaded = load_result(tmp_path / "r")
        for name in PLANES:
            array, fresh = getattr(loaded, name), getattr(result, name)
            assert array.flags.owndata and array.flags.c_contiguous, name
            assert (array.dtype, array.shape) == (fresh.dtype, fresh.shape)
            assert array.dtype == (
                int if name in ("vf_indices", "core_states") else float)
        rows = loaded.jobs.rows
        assert rows.flags.owndata and rows.dtype == np.float64
        assert rows.shape == (len(result.completed_jobs()), len(JOB_COLUMNS))

    def test_loaded_jobs_equal_the_fresh_runs_completed_jobs(
            self, case, tmp_path):
        _, result = case
        save_result(result, tmp_path / "r")
        loaded = load_result(tmp_path / "r")
        assert isinstance(loaded.jobs, JobTable)
        assert loaded.jobs == result.completed_jobs()
        assert ([job_fields(j) for j in loaded.completed_jobs()]
                == [job_fields(j) for j in result.completed_jobs()])


class TestPickle:
    def test_pickle_carries_columns_not_jobs(self, case):
        _, result = case
        for protocol in (2, pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL):
            names = pickled_names(pickle.dumps(result, protocol=protocol))
            assert "JobTable" in names
            assert "Job" not in names

    def test_unpickled_copy_equals_the_original(self, case):
        _, result = case
        copy = pickle.loads(pickle.dumps(result))
        assert np.array_equal(copy.jobs.rows, result.jobs.rows,
                              equal_nan=True)
        assert copy.jobs.rows.dtype == np.float64
        assert copy.jobs.benchmarks == result.jobs.benchmarks
        assert copy.jobs.cores == result.jobs.cores
        assert copy.jobs == result.jobs
        assert ([job_fields(j) for j in copy.completed_jobs()]
                == [job_fields(j) for j in result.completed_jobs()])


class TestTable:
    def test_engine_table_hands_back_the_engines_jobs(self):
        engine = RUNNER.build_engine(spec())
        result = engine.run()
        assert all(a is b for a, b in zip(result.jobs, engine._jobs))
        assert len(result.jobs) == len(engine._jobs)

    def test_sequence_of_jobs(self):
        gcc = benchmark("gcc")
        done = Job(1, 0, gcc, 0.5, 1.0, core="c0", completion_time=2.0,
                   migrations=1)
        done.remaining_s = 0.0
        running = Job(2, 1, gcc, 1.0, 2.0, core="c1")
        table = JobTable.of([done, running])
        assert len(table) == 2 and table[1] is running
        assert table.finished().tolist() == [True, False]
        assert table.response_times().tolist() == [1.5]
        rebuilt = JobTable(table.rows.copy(), table.benchmarks, table.cores)
        assert list(rebuilt) == [done, running]
        assert rebuilt == [done, running] and rebuilt == table
        assert JobTable.of(table) is table
        assert JobTable.of([]).rows.shape == (0, len(JOB_COLUMNS))

    def test_truncation_reads_the_columns(self):
        result = RUNNER.run(spec(exp_id=4, policy="Migr", duration_s=4.0))
        short = truncate_result(result, 2.5)
        end = float(result.times[short.n_ticks - 1])
        kept = [j for j in result.jobs
                if j.finished and j.completion_time <= end + 1e-9]
        assert short.jobs == kept
        assert short.migrations == sum(j.migrations for j in kept)
        assert isinstance(short.migrations, int)


# ----------------------------------------------------------------------
# the four job metrics, bit for bit against per-Job formulas

METRIC_SPECS = [
    spec(exp_id=exp, policy=policy, seed=seed, fidelity=fidelity)
    for exp in (1, 2, 3, 4)
    for policy, seed, fidelity in (
        ("Default", 3, "event"), ("Adapt3D", 3, "event"),
        ("DVFS_TT", 5, "eager"), ("Migr", 7, "event"),
        ("Default", 5, "eager"),
    )
]


def ref_response_times(jobs):
    return [job.response_time for job in jobs if job.finished]


def ref_mean(jobs):
    finished = [job for job in jobs if job.finished]
    return sum(job.completion_time - job.arrival_time
               for job in finished) / len(finished)


@pytest.fixture(scope="module")
def metric_results(tmp_path_factory):
    """(fresh, [fresh, loaded, unpickled]) for every metric spec."""
    out = []
    for i, run in enumerate(METRIC_SPECS):
        fresh = RUNNER.run(run)
        stem = tmp_path_factory.mktemp("metrics") / f"r{i}"
        save_result(fresh, stem)
        variants = [fresh, load_result(stem),
                    pickle.loads(pickle.dumps(fresh))]
        out.append((fresh, variants))
    return out


class TestMetricsBitIdentical:
    def test_at_least_twenty_results_complete_jobs(self, metric_results):
        assert len(metric_results) >= 20
        assert all(fresh.completed_jobs() for fresh, _ in metric_results)

    def test_mean_response_time(self, metric_results):
        for fresh, variants in metric_results:
            want = ref_mean(fresh.jobs)
            assert mean_response_time(fresh.completed_jobs()) == want
            for result in variants:
                assert mean_response_time(result.jobs) == want

    def test_normalized_delay(self, metric_results):
        # Each run against the first run on its stack.
        for i, (fresh, variants) in enumerate(metric_results):
            base, base_variants = metric_results[i - i % 5]
            want = ref_mean(fresh.jobs) / ref_mean(base.jobs)
            for result, baseline in zip(variants, base_variants):
                assert normalized_delay(result.jobs, baseline.jobs) == want

    def test_throughput(self, metric_results):
        for fresh, variants in metric_results:
            want = sum(1 for job in fresh.jobs if job.finished) / 3.0
            for result in variants:
                assert throughput(result.jobs, 3.0) == want

    def test_response_time_percentiles(self, metric_results):
        for fresh, variants in metric_results:
            times = ref_response_times(fresh.jobs)
            want = {f"p{q:g}": percentile(times, q)
                    for q in DEFAULT_PERCENTILES}
            for result in variants:
                assert response_time_percentiles(result.jobs) == want
