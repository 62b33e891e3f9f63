"""Batched multi-run engine throughput: one fused tick loop vs replay.

Measures the campaign-shaped workload the batch engine exists for — a
16-seed EXP-4 Adapt3D sweep — two ways on the same specs:

- ``serial`` — one-by-one replay through the eager serial engine
  (event heap + exponential propagator), the baseline the ratio below
  is taken against;
- ``batch event`` — :class:`BatchSimulationEngine` lanes, which run at
  ``fidelity="event"``: lazy per-core span execution, trusted
  completion events, one modal stepper per lane and the stacked policy
  families (docs/ENGINE.md), bit-identical to serial event runs. The
  serial clock-jump machinery stays out of the fused loop — the batch
  amortizes the tick boundary instead.

Event lanes shrink the per-run scalar scheduler term that batching
cannot amortize, so they clear the Amdahl cap an eager batch once hit
(~1.75x against the eager serial engine, docs/ENGINE.md): the measured
16-lane event figure is ~2.6x vs the eager serial engine, gated at 2.5x
below, against its own measured baseline so the gate stays
machine-relative.

Merges a ``batch`` section into ``BENCH_engine.json`` (results dir,
and the tracked repo-root copy in full mode only; see
``merge_artifact``). ``REPRO_BENCH_SMOKE=1`` shortens the runs and
skips the timing gate (CI runs the bench for the artifact and the
bit-identity check, not for timings on shared runners).
"""

import os
import time
from dataclasses import replace

import numpy as np

from repro.analysis.runner import ExperimentRunner, RunSpec
from repro.sched.batch import BatchSimulationEngine

from benchmarks.conftest import BENCH_SEED, emit, merge_artifact

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

N_SEEDS = 16
BENCH_SIM_S = 6.0 if SMOKE else 30.0
REPS = 1 if SMOKE else 2

#: Event lanes (the span substrate) must clear the eager Amdahl cap
#: (~1.75x) with room to spare: measured ~2.6x on the bench machine.
GATE_EVENT_VS_SERIAL = 2.5


def _specs():
    # The eager serial replay is the baseline the gate divides by.
    return [
        RunSpec(exp_id=4, policy="Adapt3D", duration_s=BENCH_SIM_S,
                seed=BENCH_SEED + i, fidelity="eager")
        for i in range(N_SEEDS)
    ]


def test_batch_engine_throughput(results_dir):
    runner = ExperimentRunner()
    specs = _specs()
    runner.run(specs[0])  # warm the assembly/index caches

    def replay_serial():
        for spec in specs:
            runner.run(spec)

    def run_batch():
        lanes = [
            runner.build_engine(replace(spec, fidelity="event"))
            for spec in specs
        ]
        BatchSimulationEngine(lanes).run()

    configs = {
        "serial": replay_serial,
        "batch_event": run_batch,
    }
    # Interleaved rounds: each round times every config once, the
    # per-config min drops rounds hit by transient machine load.
    rows = {name: float("inf") for name in configs}
    for _ in range(REPS):
        for name, fn in configs.items():
            start = time.perf_counter()
            fn()
            rows[name] = min(rows[name], time.perf_counter() - start)
    serial_s = rows["serial"]
    event_s = rows["batch_event"]

    n_runs = len(specs)
    runs_per_s = {name: n_runs / secs for name, secs in rows.items()}

    # Event spot check (always, smoke included): event lanes must
    # reproduce serial event runs exactly and track the eager reference
    # within the documented contract (full matrices in
    # tests/test_engine_batch.py and tests/test_engine_event.py).
    check_specs = [replace(spec, duration_s=3.0) for spec in specs[:4]]
    serial_results = [runner.run(spec) for spec in check_specs]
    event_specs = [replace(spec, fidelity="event") for spec in check_specs]
    event_lanes = [runner.build_engine(spec) for spec in event_specs]
    for spec, a, b in zip(event_specs, serial_results,
                          BatchSimulationEngine(event_lanes).run()):
        serial_event = runner.run(spec)
        np.testing.assert_array_equal(
            serial_event.unit_temps_k, b.unit_temps_k
        )
        assert serial_event.energy_j == b.energy_j
        np.testing.assert_allclose(
            a.unit_temps_k, b.unit_temps_k, rtol=0.0, atol=1e-3
        )
        np.testing.assert_array_equal(a.vf_indices, b.vf_indices)
        assert len(a.completed_jobs()) == len(b.completed_jobs())

    payload_section = {
        "n_seeds": n_runs,
        "simulated_s": BENCH_SIM_S,
        "policy": "Adapt3D",
        "exp_id": 4,
        "smoke": SMOKE,
        "runs_per_s": {k: round(v, 2) for k, v in runs_per_s.items()},
        "speedup_event_vs_serial": round(serial_s / event_s, 2),
        "gates": {
            "event_vs_serial": GATE_EVENT_VS_SERIAL,
        },
    }

    merge_artifact(results_dir, "BENCH_engine.json",
                   {"batch": payload_section}, SMOKE)

    lines = [
        f"Batched multi-run engine ({n_runs}-seed EXP-4 Adapt3D sweep, "
        f"{BENCH_SIM_S:.0f} s simulated each, best of {REPS})"
        + (" [SMOKE]" if SMOKE else ""),
        f"{'config':14s} {'total s':>9s} {'runs/s':>8s} {'speedup':>8s}",
    ]
    for name in ("serial", "batch_event"):
        lines.append(
            f"{name:14s} {rows[name]:9.2f} {runs_per_s[name]:8.2f} "
            f"{serial_s / rows[name]:7.2f}x"
        )
    lines.append(
        f"event vs serial: {serial_s / event_s:.2f}x "
        f"(gate {GATE_EVENT_VS_SERIAL}x)"
    )
    emit(results_dir, "batch_engine", "\n".join(lines))

    if SMOKE:
        return
    assert serial_s / event_s >= GATE_EVENT_VS_SERIAL, (
        f"event batch {serial_s / event_s:.2f}x vs serial replay missed "
        f"the {GATE_EVENT_VS_SERIAL}x gate"
    )
