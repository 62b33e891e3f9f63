"""Workloads: Table I benchmarks, jobs/threads, traces, generators.

The paper profiles eight real benchmarks on an UltraSPARC T1 with
mpstat/DTrace (Table I). Those traces are not available, so this package
provides (see EXPERIMENTS.md, "Substitutions"):

- :mod:`~repro.workload.benchmarks` — the published per-benchmark
  statistics (average utilization, L2 miss rates, FP instruction rates),
- :mod:`~repro.workload.job` — the job/thread execution model and the
  columnar job table a finished run hands on,
- :mod:`~repro.workload.generator` — a closed-loop synthetic workload
  whose statistics match Table I (bursty think/busy thread model),
- :mod:`~repro.workload.trace` — open-loop per-core utilization traces
  with CSV I/O,
- :mod:`~repro.workload.mpstat` — a parser for mpstat-style output so
  real traces can be dropped in.
"""

from repro.workload.benchmarks import (
    BenchmarkSpec,
    BENCHMARKS,
    benchmark,
    benchmark_names,
    default_server_mix,
)
from repro.workload.job import Job, JobTable, WorkloadThread
from repro.workload.generator import SyntheticWorkload
from repro.workload.trace import UtilizationTrace
from repro.workload.mpstat import parse_mpstat

__all__ = [
    "BenchmarkSpec",
    "BENCHMARKS",
    "benchmark",
    "benchmark_names",
    "default_server_mix",
    "Job",
    "JobTable",
    "WorkloadThread",
    "SyntheticWorkload",
    "UtilizationTrace",
    "parse_mpstat",
]
