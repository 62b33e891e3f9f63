"""Calibration tests: the operating points the reproduction relies on.

These pin the qualitative temperature regime of the four stacks (see
EXPERIMENTS.md, "Calibration regime"). If a
model change shifts the calibration, these fail before the figure
benches silently lose their shape.
"""

import pytest

from repro.analysis.runner import ExperimentRunner, RunSpec
from repro.metrics.report import summarize

RUNNER = ExperimentRunner()
DURATION = 60.0


def run(exp_id, policy="Default", dpm=False):
    return RUNNER.run(
        RunSpec(exp_id=exp_id, policy=policy, duration_s=DURATION,
                with_dpm=dpm, seed=2009)
    )


@pytest.fixture(scope="module")
def defaults():
    return {exp: run(exp) for exp in (1, 2, 3, 4)}


class TestOperatingPoints:
    def test_two_tier_stacks_run_below_threshold(self, defaults):
        for exp in (1, 2):
            report = summarize(defaults[exp])
            assert report.peak_temperature_c < 85.0
            assert report.hot_spot_pct == pytest.approx(0.0, abs=1.0)

    def test_four_tier_stacks_exceed_threshold(self, defaults):
        for exp in (3, 4):
            report = summarize(defaults[exp])
            assert report.peak_temperature_c > 85.0
            assert report.hot_spot_pct > 5.0

    def test_layer_count_ordering(self, defaults):
        """More stacked layers -> hotter (the paper's central premise)."""
        peaks = {exp: summarize(defaults[exp]).peak_temperature_c
                 for exp in (1, 2, 3, 4)}
        assert peaks[3] > peaks[1]
        assert peaks[4] > peaks[2]
        assert peaks[4] > peaks[3]

    def test_power_scale_is_t1_class(self, defaults):
        """8-core stacks draw tens of watts; 16-core roughly double."""
        p1 = summarize(defaults[1]).avg_power_w
        p3 = summarize(defaults[3]).avg_power_w
        assert 25.0 < p1 < 90.0
        assert 1.5 < p3 / p1 < 3.0

    def test_no_thermal_runaway(self, defaults):
        for exp in (1, 2, 3, 4):
            assert summarize(defaults[exp]).peak_temperature_c < 130.0


class TestDPMEffect:
    def test_dpm_reduces_hot_spots_on_hot_stack(self, defaults):
        """Figure 4 vs Figure 3: DPM cuts hot-spot time significantly."""
        without = summarize(defaults[4]).hot_spot_pct
        with_dpm = summarize(run(4, dpm=True)).hot_spot_pct
        assert with_dpm < without

    def test_dpm_reduces_energy(self, defaults):
        without = summarize(defaults[1]).energy_j
        with_dpm = summarize(run(1, dpm=True)).energy_j
        assert with_dpm < without
