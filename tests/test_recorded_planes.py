"""The derived planes of a recording equal their per-row definitions.

A tick records only the rows it produces; ``times``, ``core_temps_k``
and ``layer_spreads_k`` are derived once per run from ``unit_temps_k``
(``_Recording.derive_planes``). Each path that records is checked here
bit for bit against the definitions, computed row by row from the
result alone: tick ``k`` ends at ``k*dt + dt``, a core reads its own
unit's mean, and a die's spread is the maximum minus the minimum of
the units whose names carry its layer prefix.
"""

import numpy as np

from repro.analysis.runner import ExperimentRunner, RunSpec
from repro.sched.batch import BatchSimulationEngine
from tests.test_engine_event import IDLE_MIX, count_event_jumps

RUNNER = ExperimentRunner()


def assert_planes_match_definitions(result):
    dt = result.sampling_interval_s
    column = {name: i for i, name in enumerate(result.unit_names)}
    dies = {}
    for i, name in enumerate(result.unit_names):
        dies.setdefault(name.split("_", 1)[0], []).append(i)
    assert len(dies) == result.layer_spreads_k.shape[1]
    times, cores, spreads = [], [], []
    for k, row in enumerate(result.unit_temps_k.tolist()):
        times.append(k * dt + dt)
        cores.append([row[column[name]] for name in result.core_names])
        spreads.append([
            max(row[i] for i in units) - min(row[i] for i in units)
            for units in dies.values()
        ])
    np.testing.assert_array_equal(result.times, times)
    np.testing.assert_array_equal(result.core_temps_k, cores)
    np.testing.assert_array_equal(result.layer_spreads_k, spreads)


def test_serial_eager_planes():
    result = RUNNER.run(RunSpec(exp_id=4, policy="Adapt3D&DVFS_TT",
                                duration_s=6.0, seed=3, with_dpm=True,
                                fidelity="eager"))
    assert_planes_match_definitions(result)


def test_serial_event_planes_across_clock_jumps(monkeypatch):
    calls = count_event_jumps(monkeypatch)
    result = RUNNER.run(RunSpec(exp_id=4, policy="Default", duration_s=12.0,
                                seed=7, with_dpm=True,
                                benchmark_mix=IDLE_MIX, fidelity="event"))
    assert calls["ticks"] > result.n_ticks // 2
    assert_planes_match_definitions(result)


def test_event_batch_lane_planes():
    specs = [
        RunSpec(exp_id=3, policy=policy, duration_s=6.0, seed=2009,
                with_dpm=True, fidelity="event")
        for policy in ("Default", "Adapt3D&DVFS_TT")
    ]
    lanes = [RUNNER.build_engine(spec) for spec in specs]
    results = BatchSimulationEngine(lanes).run()
    assert len(results) == 2
    for result in results:
        assert_planes_match_definitions(result)
