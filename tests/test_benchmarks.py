"""Table I benchmark data tests."""

import pytest

from repro.errors import WorkloadError
from repro.workload.benchmarks import (
    BENCHMARKS,
    BenchmarkSpec,
    benchmark,
    benchmark_names,
    default_server_mix,
)

# The paper's Table I rows: (name, util %, I-miss, D-miss, FP).
TABLE_I = [
    ("Web-med", 53.12, 12.9, 167.7, 31.2),
    ("Web-high", 92.87, 67.6, 288.7, 31.2),
    ("Database", 17.75, 6.5, 102.3, 5.9),
    ("Web&DB", 75.12, 21.5, 115.3, 24.1),
    ("gcc", 15.25, 31.7, 96.2, 18.1),
    ("gzip", 9.0, 2.0, 57.0, 0.2),
    ("MPlayer", 6.5, 9.6, 136.0, 1.0),
    ("MPlayer&Web", 26.62, 9.1, 66.8, 29.9),
]


class TestTableI:
    def test_all_eight_benchmarks_present(self):
        assert benchmark_names() == [row[0] for row in TABLE_I]

    @pytest.mark.parametrize("name,util,imiss,dmiss,fp", TABLE_I)
    def test_published_statistics(self, name, util, imiss, dmiss, fp):
        spec = benchmark(name)
        assert spec.avg_util_pct == pytest.approx(util)
        assert spec.l2_imiss == pytest.approx(imiss)
        assert spec.l2_dmiss == pytest.approx(dmiss)
        assert spec.fp_per_100k == pytest.approx(fp)

    def test_web_high_is_most_memory_intensive(self):
        intensities = {n: benchmark(n).memory_intensity for n in benchmark_names()}
        assert max(intensities, key=intensities.get) == "Web-high"
        assert intensities["Web-high"] == pytest.approx(1.0)

    def test_unknown_benchmark_raises(self):
        with pytest.raises(WorkloadError):
            benchmark("nope")


class TestDerivedParameters:
    def test_think_time_matches_utilization(self):
        for name in benchmark_names():
            spec = benchmark(name)
            implied = spec.mean_busy_s / (spec.mean_busy_s + spec.mean_think_s)
            assert implied == pytest.approx(spec.utilization)

    def test_validation_rejects_bad_util(self):
        with pytest.raises(WorkloadError):
            BenchmarkSpec("bad", 0.0, 1, 1, 1, 0.5, 0.5)

    def test_validation_rejects_bad_burstiness(self):
        with pytest.raises(WorkloadError):
            BenchmarkSpec("bad", 50.0, 1, 1, 1, 1.5, 0.5)

    @pytest.mark.parametrize("field,value", [
        ("l2_imiss", -100.0), ("l2_dmiss", -10.0), ("fp_per_100k", -1.0),
        ("l2_imiss", float("nan")), ("l2_dmiss", float("inf")),
        ("fp_per_100k", float("nan")),
    ])
    def test_validation_rejects_bad_counts(self, field, value):
        # A negative count once gave memory_intensity -0.309, which
        # priced cache power below its idle baseline; a NaN count read
        # as intensity 1.0 (min(1.0, nan) is 1.0).
        counts = {"l2_imiss": 12.9, "l2_dmiss": 167.7, "fp_per_100k": 31.2}
        counts[field] = value
        with pytest.raises(WorkloadError, match=field):
            BenchmarkSpec("bad", 50.0, counts["l2_imiss"],
                          counts["l2_dmiss"], counts["fp_per_100k"], 0.5, 0.3)

    @pytest.mark.parametrize("busy", [float("inf"), float("nan"), 0.0, -1.0])
    def test_validation_rejects_bad_busy_time(self, busy):
        # An infinite mean makes every think and work draw infinite.
        with pytest.raises(WorkloadError, match="busy"):
            BenchmarkSpec("bad", 50.0, 1, 1, 1, 0.5, busy)

    def test_derived_values_are_fixed_at_construction(self):
        spec = BenchmarkSpec("x", 40.0, 30.0, 100.0, 5.0, 0.5, 0.2)
        assert spec.memory_intensity == min(1.0, (30.0 + 100.0) / 356.3)
        assert spec.mean_think_s == 0.2 * (1.0 - 0.4) / 0.4
        # Derived values are attributes, not fields: equality and repr
        # cover the published statistics only.
        assert spec == BenchmarkSpec("x", 40.0, 30.0, 100.0, 5.0, 0.5, 0.2)
        assert "memory_intensity" not in repr(spec)


class TestServerMix:
    def test_thread_count_exact(self):
        for n in (4, 8, 16, 23):
            mix = default_server_mix(n)
            assert sum(count for _, count in mix) == n

    def test_dominated_by_web_workloads(self):
        mix = default_server_mix(16)
        counts = {spec.name: count for spec, count in mix}
        assert counts["Web-high"] >= max(counts.values()) - 1

    def test_rejects_zero_threads(self):
        with pytest.raises(WorkloadError):
            default_server_mix(0)
