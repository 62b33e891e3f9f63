"""Analysis layer tests: runner, tables, figure series, sweeps."""

import pytest

import repro.analysis.runner as runner_module
from repro.analysis.figures import FigureSeries
from repro.analysis.runner import ExperimentRunner, RunSpec
from repro.analysis.sweep import sweep
from repro.analysis.tables import format_table
from repro.errors import ConfigurationError
from repro.floorplan.experiments import build_experiment
from repro.metrics.report import summarize


class TestRunner:
    def test_build_engine_wires_policy(self):
        engine = ExperimentRunner().build_engine(
            RunSpec(exp_id=1, policy="Adapt3D", duration_s=5.0)
        )
        assert engine.policy.name == "Adapt3D"
        assert len(engine.core_names) == 8

    def test_thermal_index_cache_reused(self):
        runner = ExperimentRunner()
        runner.build_engine(RunSpec(exp_id=1, policy="Default", duration_s=5.0))
        assert (1, (8, 8)) in runner._index_cache
        before = runner._index_cache[(1, (8, 8))]
        runner.build_engine(RunSpec(exp_id=1, policy="Adapt3D", duration_s=5.0))
        assert runner._index_cache[(1, (8, 8))] is before

    def test_experiment_config_built_once_per_stack(self, monkeypatch):
        """Floorplan validation is O(n²) per build: prepare, the index
        solve and every engine share one frozen config per exp_id."""
        builds = []

        def counted(exp_id):
            builds.append(exp_id)
            return build_experiment(exp_id)

        monkeypatch.setattr(runner_module, "build_experiment", counted)
        runner = ExperimentRunner()
        specs = [RunSpec(exp_id=1, policy=policy, duration_s=5.0)
                 for policy in ("Default", "Adapt3D")]
        runner.prepare(specs)
        runner.thermal_indices(1)
        engines = [runner.build_engine(spec) for spec in specs]
        assert builds == [1]
        assert engines[0].thermal.config is engines[1].thermal.config

    def test_explicit_benchmark_mix(self):
        spec = RunSpec(
            exp_id=1, policy="Default", duration_s=5.0,
            benchmark_mix=(("gzip", 8),),
        )
        result = ExperimentRunner().run(spec)
        assert result.utilization.mean() < 0.3  # gzip is a 9% benchmark

    def test_explicit_mix_resolves_as_written(self):
        """A count spelled 8.0 equals and hashes like 8 but fails the
        workload's thread expansion; one runner must treat each
        spelling as a fresh runner does, in either order."""
        as_int = RunSpec(exp_id=1, policy="Default", duration_s=1.0,
                         benchmark_mix=(("gzip", 8),))
        as_float = RunSpec(exp_id=1, policy="Default", duration_s=1.0,
                           benchmark_mix=(("gzip", 8.0),))
        runner = ExperimentRunner()
        for spec in (as_float, as_int, as_float):
            if spec is as_int:
                threads = runner.build_engine(spec).workload.workload.threads
                assert len(threads) == 8
            else:
                with pytest.raises(TypeError):
                    runner.build_engine(spec)

    def test_run_policies_share_spec(self):
        runner = ExperimentRunner()
        base = RunSpec(exp_id=1, policy="Default", duration_s=5.0)
        results = runner.run_policies(base, ["Default", "Adapt3D"])
        assert set(results) == {"Default", "Adapt3D"}
        report = summarize(results["Adapt3D"], results["Default"])
        assert report.normalized_delay is not None


class TestTables:
    def test_alignment_and_floats(self):
        text = format_table(["name", "value"], [["a", 1.234], ["bb", 5.0]])
        lines = text.splitlines()
        assert "1.23" in lines[2]
        assert lines[1].startswith("-")

    def test_title(self):
        text = format_table(["x"], [[1]], title="Table T")
        assert text.splitlines()[0] == "Table T"

    def test_row_width_mismatch(self):
        with pytest.raises(ConfigurationError):
            format_table(["a", "b"], [[1]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ConfigurationError):
            format_table([], [])


class TestFigureSeries:
    def test_add_and_lookup(self):
        fig = FigureSeries("Fig", groups=["Default", "Adapt3D"])
        fig.add_series("EXP1", [10.0, 2.0])
        assert fig.value("EXP1", "Adapt3D") == pytest.approx(2.0)

    def test_wrong_length_rejected(self):
        fig = FigureSeries("Fig", groups=["a", "b"])
        with pytest.raises(ConfigurationError):
            fig.add_series("s", [1.0])

    def test_unknown_group(self):
        fig = FigureSeries("Fig", groups=["a"])
        fig.add_series("s", [1.0])
        with pytest.raises(ConfigurationError):
            fig.value("s", "zzz")

    def test_to_text_contains_all(self):
        fig = FigureSeries("Fig title", groups=["a", "b"])
        fig.add_series("s1", [1.0, 2.0])
        text = fig.to_text()
        assert "Fig title" in text
        assert "s1" in text


class TestSweep:
    def test_collects_pairs(self):
        assert sweep([1, 2, 3], lambda v: v * v) == [(1, 1), (2, 4), (3, 9)]

    def test_empty(self):
        assert sweep([], lambda v: v) == []
