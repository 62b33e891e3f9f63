"""Batched multi-run engine tests.

Two families:

- differential tests proving a :class:`BatchSimulationEngine`
  reproduces per-run serial :meth:`SimulationEngine.run` results bit
  for bit (every recorded array, energy, jobs, migrations) on its
  event lanes (one modal stepper each) — a fast multi-seed slice runs
  in tier-1, the full stack x policy x DPM matrix under the ``slow``
  marker;
- unit tests of the batching contract: compatibility validation (an
  eager lane is refused), ``run_batch`` grouping/order (eager specs
  run alone), and the noise/mix plumbing through the batched path.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.runner import ExperimentRunner, RunSpec
from repro.core.registry import policy_names
from repro.errors import ConfigurationError, SchedulerError
from repro.sched.batch import BatchSimulationEngine

RUNNER = ExperimentRunner()

RESULT_ARRAYS = (
    "times",
    "unit_temps_k",
    "core_temps_k",
    "core_peak_temps_k",
    "layer_spreads_k",
    "utilization",
    "vf_indices",
    "core_states",
    "total_power_w",
)


def seed_sweep(exp_id, policy, n_seeds=3, duration_s=6.0, **overrides):
    """A small multi-seed batch of otherwise identical specs."""
    return [
        RunSpec(exp_id=exp_id, policy=policy, duration_s=duration_s,
                seed=2009 + i, **overrides)
        for i in range(n_seeds)
    ]


def run_serial(specs):
    return [RUNNER.run(spec) for spec in specs]


def run_batched(specs):
    lanes = [RUNNER.build_engine(spec) for spec in specs]
    return BatchSimulationEngine(lanes).run()


def assert_results_identical(serial, batched):
    for s, b in zip(serial, batched):
        for name in RESULT_ARRAYS:
            np.testing.assert_array_equal(
                getattr(s, name), getattr(b, name), err_msg=name
            )
        assert s.energy_j == b.energy_j
        assert s.migrations == b.migrations
        assert_jobs_identical(s, b)


def assert_jobs_identical(s, b):
    assert len(s.jobs) == len(b.jobs)
    for js, jb in zip(s.jobs, b.jobs):
        assert js.completion_time == jb.completion_time
        assert js.remaining_s == jb.remaining_s
        assert js.migrations == jb.migrations
        assert js.core == jb.core


class TestBatchDifferentialFast:
    """Tier-1 smoke slice: batched event lanes, and eager specs on the
    batched route, are bit-identical."""

    @pytest.mark.parametrize("exp_id", [1, 4])
    @pytest.mark.parametrize("policy", ["Default", "Adapt3D&DVFS_TT"])
    def test_batch_matches_serial(self, exp_id, policy):
        specs = seed_sweep(exp_id, policy)
        assert_results_identical(run_serial(specs), run_batched(specs))

    @pytest.mark.parametrize("exp_id", [1, 4])
    @pytest.mark.parametrize("policy", ["Default", "Adapt3D&DVFS_TT"])
    def test_eager_batch_matches_serial(self, exp_id, policy):
        """Eager specs on the batched route run alone and keep the
        serial bytes."""
        specs = seed_sweep(exp_id, policy, fidelity="eager")
        assert ExperimentRunner.group_batchable(specs) == [[0], [1], [2]]
        assert_results_identical(run_serial(specs), RUNNER.run_batch(specs))

    def test_batch_matches_serial_with_dpm(self):
        specs = seed_sweep(1, "Migr", with_dpm=True)
        assert_results_identical(run_serial(specs), run_batched(specs))

    def test_batch_matches_serial_with_sensor_noise(self):
        """Per-lane sensor RNG draws stay in serial order, so even noisy
        runs batch bit-identically."""
        specs = seed_sweep(4, "Adapt3D", sensor_noise_sigma=1.0)
        assert_results_identical(run_serial(specs), run_batched(specs))

    def test_single_lane_batch_is_bitwise(self):
        spec = RunSpec(exp_id=1, policy="Adapt3D", duration_s=6.0, seed=2009)
        assert_results_identical(run_serial([spec]), run_batched([spec]))


@pytest.mark.slow
class TestBatchDifferentialMatrix:
    """Full stack x policy x DPM differential matrix, multi-seed, on
    event lanes: every registered policy, so each stacked policy family
    of the batch (and each hybrid's split into two) is checked on every
    stack."""

    @pytest.mark.parametrize("exp_id", [1, 2, 3, 4])
    @pytest.mark.parametrize("policy", policy_names())
    @pytest.mark.parametrize("with_dpm", [False, True])
    def test_batch_matches_serial(self, exp_id, policy, with_dpm):
        specs = seed_sweep(
            exp_id, policy, n_seeds=2, duration_s=12.0, with_dpm=with_dpm,
        )
        assert_results_identical(run_serial(specs), run_batched(specs))

    def test_mixed_policy_batch(self):
        """Lanes need not be homogeneous: one batch may mix policies."""
        specs = [
            RunSpec(exp_id=3, policy=policy, duration_s=12.0, seed=2009)
            for policy in ("Default", "Adapt3D", "Migr", "Adapt3D&DVFS_TT")
        ]
        assert_results_identical(run_serial(specs), run_batched(specs))


class TestBatchValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(SchedulerError):
            BatchSimulationEngine([])

    def test_eager_lane_rejected(self):
        """An eager lane runs alone: the batch refuses it, even beside
        event lanes, and names the serial entry point."""
        spec = RunSpec(exp_id=1, policy="Default", duration_s=2.0)
        event = RUNNER.build_engine(spec)
        eager = RUNNER.build_engine(replace(spec, seed=2, fidelity="eager"))
        for lanes in ([eager], [event, eager]):
            with pytest.raises(SchedulerError, match="SimulationEngine.run"):
                BatchSimulationEngine(lanes)

    def test_mixed_duration_rejected(self):
        a = RUNNER.build_engine(
            RunSpec(exp_id=1, policy="Default", duration_s=2.0)
        )
        b = RUNNER.build_engine(
            RunSpec(exp_id=1, policy="Default", duration_s=3.0, seed=2)
        )
        with pytest.raises(SchedulerError):
            BatchSimulationEngine([a, b])

    def test_lane_reused_in_second_batch_refused(self):
        lanes = [
            RUNNER.build_engine(RunSpec(exp_id=1, policy="Default",
                                        duration_s=2.0, seed=seed))
            for seed in (1, 2)
        ]
        BatchSimulationEngine(lanes).run()
        with pytest.raises(SchedulerError, match="build_engine"):
            BatchSimulationEngine(lanes).run()

    def test_foreign_assembly_rejected(self):
        """Lanes from different runners hold different assemblies."""
        a = RUNNER.build_engine(
            RunSpec(exp_id=1, policy="Default", duration_s=2.0)
        )
        b = ExperimentRunner().build_engine(
            RunSpec(exp_id=1, policy="Default", duration_s=2.0, seed=2)
        )
        with pytest.raises(SchedulerError):
            BatchSimulationEngine([a, b])


class TestRunBatch:
    def test_groups_and_preserves_order(self):
        """Mixed-stack spec lists come back in input order, each result
        bit-identical to a serial run; the eager specs run alone."""
        specs = [
            RunSpec(exp_id=1, policy="Default", duration_s=4.0, seed=1),
            RunSpec(exp_id=4, policy="Adapt3D", duration_s=4.0, seed=1),
            RunSpec(exp_id=1, policy="Adapt3D", duration_s=4.0, seed=2),
            RunSpec(exp_id=1, policy="Migr", duration_s=4.0, seed=4,
                    fidelity="eager"),
            RunSpec(exp_id=4, policy="Adapt3D", duration_s=4.0, seed=2),
            RunSpec(exp_id=1, policy="Default", duration_s=2.0, seed=3),
            RunSpec(exp_id=1, policy="Adapt3D", duration_s=4.0, seed=5,
                    fidelity="eager"),
        ]
        serial = run_serial(specs)
        batched = RUNNER.run_batch(specs)
        assert_results_identical(serial, batched)

    def test_group_batchable_partitions_by_compatibility(self):
        specs = [
            RunSpec(exp_id=1, policy="Default", duration_s=4.0, seed=1),
            RunSpec(exp_id=4, policy="Default", duration_s=4.0, seed=1),
            RunSpec(exp_id=1, policy="Adapt3D", duration_s=4.0, seed=2),
            RunSpec(exp_id=1, policy="Default", duration_s=8.0, seed=1),
            RunSpec(exp_id=1, policy="Default", duration_s=4.0, seed=3,
                    fidelity="eager"),
            RunSpec(exp_id=1, policy="Adapt3D", duration_s=4.0, seed=4,
                    fidelity="eager"),
        ]
        groups = ExperimentRunner.group_batchable(specs)
        assert groups == [[0, 2], [1], [3], [4], [5]]

    def test_non_exact_propagation_rejected(self):
        """``propagation`` accepts only ``"exact"``: no other thermal
        step exists, so anything else is refused before any run."""
        specs = seed_sweep(1, "Default", n_seeds=2, duration_s=2.0)
        assert_results_identical(
            run_serial(specs), RUNNER.run_batch(specs, propagation="exact")
        )
        with pytest.raises(ConfigurationError, match="propagation"):
            RUNNER.run_batch(specs, propagation="gemm")

    def test_named_mix_plumbs_through_batch(self):
        specs = seed_sweep(
            1, "Default", n_seeds=2, duration_s=4.0,
            workload_mix="batch_compute",
        )
        assert_results_identical(run_serial(specs), run_batched(specs))

    def test_conflicting_mix_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            RUNNER.build_engine(
                RunSpec(exp_id=1, policy="Default", duration_s=2.0,
                        workload_mix="server",
                        benchmark_mix=(("gzip", 4),))
            )

    def test_unknown_named_mix_rejected(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            RUNNER.build_engine(
                RunSpec(exp_id=1, policy="Default", duration_s=2.0,
                        workload_mix="nope")
            )
