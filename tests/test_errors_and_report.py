"""Exception hierarchy and MetricsReport tests."""

import pytest

from repro.analysis.runner import ExperimentRunner, RunSpec
from repro.errors import (
    ConfigurationError,
    FloorplanError,
    PolicyError,
    PowerModelError,
    ReproError,
    SchedulerError,
    ThermalModelError,
    WorkloadError,
)
from repro.metrics.cycles import thermal_cycle_fraction
from repro.metrics.hotspots import hot_spot_fraction
from repro.metrics.performance import mean_response_time, normalized_delay
from repro.metrics.report import summarize


class TestErrorHierarchy:
    @pytest.mark.parametrize("error", [
        FloorplanError, ThermalModelError, PowerModelError, WorkloadError,
        SchedulerError, PolicyError, ConfigurationError,
    ])
    def test_all_derive_from_repro_error(self, error):
        assert issubclass(error, ReproError)
        with pytest.raises(ReproError):
            raise error("boom")


class TestMetricsReport:
    @pytest.fixture(scope="class")
    def result(self):
        return ExperimentRunner().run(
            RunSpec(exp_id=1, policy="Default", duration_s=5.0)
        )

    def test_fields_populated(self, result):
        report = summarize(result)
        assert report.policy == "Default"
        assert 0.0 <= report.hot_spot_pct <= 100.0
        assert 0.0 <= report.gradient_pct <= 100.0
        assert report.mean_response_s > 0.0
        assert report.energy_j > 0.0
        assert report.avg_power_w > 0.0
        assert 40.0 < report.peak_temperature_c < 120.0

    def test_delay_none_without_baseline(self, result):
        assert summarize(result).normalized_delay is None

    def test_delay_one_against_itself(self, result):
        report = summarize(result, baseline=result)
        assert report.normalized_delay == pytest.approx(1.0)

    def test_no_completed_job_leaves_job_metrics_undefined(self, result):
        idle = ExperimentRunner().run(RunSpec(
            exp_id=1, policy="Default", duration_s=2.0, seed=1,
            benchmark_mix=(("gzip", 1),)))
        assert not idle.completed_jobs()
        report = summarize(idle)
        assert report.mean_response_s is None
        assert report.normalized_delay is None
        assert summarize(idle, baseline=result).normalized_delay is None
        assert summarize(result, baseline=idle).normalized_delay is None
        # Every defined metric keeps its exact value.
        assert report.hot_spot_pct == 100.0 * hot_spot_fraction(
            idle.core_peak_temps_k)
        assert report.cycle_pct == 100.0 * thermal_cycle_fraction(
            idle.core_peak_temps_k)
        assert report.energy_j == idle.energy_j

    def test_run_shorter_than_cycle_window(self, result):
        short = ExperimentRunner().run(
            RunSpec(exp_id=1, policy="Default", duration_s=1.0))
        assert short.n_ticks == 10
        report = summarize(short, baseline=result)
        assert report.cycle_pct is None
        assert report.mean_response_s == mean_response_time(short.jobs)
        assert report.normalized_delay == normalized_delay(short.jobs,
                                                           result.jobs)

    def test_defined_metrics_are_exact(self, result):
        report = summarize(result, baseline=result)
        assert report.mean_response_s == mean_response_time(result.jobs)
        assert report.normalized_delay == 1.0
        assert report.cycle_pct == 100.0 * thermal_cycle_fraction(
            result.core_peak_temps_k)

    def test_frozen(self, result):
        report = summarize(result)
        with pytest.raises(AttributeError):
            report.policy = "other"
