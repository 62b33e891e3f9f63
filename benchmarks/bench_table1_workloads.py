"""Table I regeneration: workload characteristics of the 8 benchmarks.

Runs each benchmark's synthetic workload uncontended and reports the
measured average utilization next to the published value, plus the
L2 miss / FP metadata carried by the model. The measured utilization
must track Table I — that is the substitution-validity check for the
synthetic traces (EXPERIMENTS.md, "Substitutions").
"""

import pytest

from repro.analysis.tables import format_table
from repro.workload.benchmarks import benchmark, benchmark_names
from repro.workload.generator import SyntheticWorkload

from benchmarks.conftest import emit

THREADS = 8
DURATION_S = 1200.0


def measured_utilization(name: str) -> float:
    workload = SyntheticWorkload([(benchmark(name), THREADS)], seed=7)
    busy = 0.0
    arrivals = workload.initial_arrivals()
    while arrivals:
        arrivals.sort(key=lambda pair: pair[0])
        time, job = arrivals.pop(0)
        if time >= DURATION_S:
            continue
        busy += min(job.work_s, DURATION_S - time)
        arrivals.append(workload.next_arrival(job.thread_id, time + job.work_s))
    return busy / (DURATION_S * THREADS)


def build_table():
    rows = []
    for name in benchmark_names():
        spec = benchmark(name)
        util = measured_utilization(name)
        rows.append(
            [
                name,
                spec.avg_util_pct,
                round(100.0 * util, 2),
                spec.l2_imiss,
                spec.l2_dmiss,
                spec.fp_per_100k,
            ]
        )
    return rows


def test_table1_workload_characteristics(benchmark, results_dir):
    rows = benchmark.pedantic(build_table, rounds=1, iterations=1)
    text = format_table(
        ["Benchmark", "Util% (paper)", "Util% (measured)",
         "L2 I-Miss", "L2 D-Miss", "FP instr"],
        rows,
        title="Table I — workload characteristics (paper vs measured)",
    )
    emit(results_dir, "table1_workloads", text)

    for row in rows:
        paper, measured = row[1], row[2]
        assert measured == pytest.approx(paper, rel=0.25), row[0]
