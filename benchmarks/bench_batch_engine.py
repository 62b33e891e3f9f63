"""Batched multi-run engine throughput: one fused tick loop vs replay.

Measures the campaign-shaped workload the batch engine exists for — a
16-seed EXP-4 Adapt3D sweep — five ways on the same specs:

- ``serial`` — one-by-one replay through the eager serial engine
  (event heap + exponential propagator), the baseline every ratio
  below is taken against;
- ``scan`` — one-by-one replay through the legacy-scan loop (the
  pre-event-heap serial pipeline, now the test-only oracle
  ``tests/scan_engine.py``, imported from the checkout), on the exact
  thermal step like every other config;
- ``batch exact`` — eager :class:`BatchSimulationEngine` lanes with
  column-exact dense products (bit-identical to ``serial``);
- ``batch gemm`` — eager lanes on the fused one-GEMM thermal
  propagation;
- ``batch event`` — ``fidelity="event"`` lanes (exact propagation,
  which event lanes ignore): lazy per-core span execution, trusted
  completion events, one modal stepper per lane and the across-lane
  probabilistic policy tick (docs/ENGINE.md), bit-identical to serial
  event runs. The serial clock-jump machinery stays out of the fused
  loop — the batch amortizes the tick boundary instead.

Where the eager ceiling comes from (measured on the bench machine, see
docs/ENGINE.md): a serial EXP-4 tick spends ~57% of its time in the
per-run scalar scheduler (interval sweep, dispatch, policy, workload
generator) that batching cannot amortize, so by Amdahl the *eager*
batch speedup over the shipping serial engine saturates near
``1 / 0.57 ~ 1.75x`` regardless of batch width — the measured 16-lane
figures are ~1.45x (exact) and ~1.6x (gemm). Event lanes attack the
scalar term itself instead of the batched boundary, which is what
breaks the cap: the measured 16-lane event figure (then on gemm
propagation) was ~2.6x vs the eager serial engine (gated at 2.5x
below). Against the legacy-scan
replay (the engine the ROADMAP's batching target was originally framed
against) the fused loop clears 3x. Every ratio is gated against its
own measured baseline so the gates stay machine-relative.

Emits a ``batch`` section merged into ``BENCH_engine.json`` (results
dir + repo-root mirror). ``REPRO_BENCH_SMOKE=1`` shortens the runs and
skips the timing gates (CI runs the bench for the artifact and the
bit-identity check, not for timings on shared runners).
"""

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.analysis.runner import ExperimentRunner, RunSpec
from repro.sched.batch import BatchSimulationEngine

from benchmarks.conftest import BENCH_SEED, emit
from tests.scan_engine import ScanEngine

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

N_SEEDS = 16
BENCH_SIM_S = 6.0 if SMOKE else 30.0
REPS = 1 if SMOKE else 2

#: Machine-relative acceptance ratios (see module docstring): the fused
#: batch measures ~2.9-3.2x against the legacy-scan serial replay on
#: the bench machine (gated with noise margin below — the container's
#: tick times swing ~15% run to run), and must keep a solid margin over
#: the shipping serial engine; the bit-exact mode may cost at most the
#: measured dense-product penalty.
GATE_GEMM_VS_SCAN = 2.6
GATE_GEMM_VS_SERIAL = 1.35
GATE_EXACT_VS_SERIAL = 1.2
#: Event lanes (the span substrate) must clear the eager Amdahl cap
#: (~1.75x) with room to spare: measured ~2.6x on the bench machine.
GATE_EVENT_VS_SERIAL = 2.5

REPO_ROOT = Path(__file__).resolve().parents[1]


def _specs():
    # Eager baselines: the scan oracle runs eager only, and every gate
    # is a ratio against the eager serial replay.
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

    def replay_scan():
        for spec in specs:
            ScanEngine.from_engine(runner.build_engine(spec)).run()

    def run_batch(propagation, fidelity="eager"):
        lanes = [
            runner.build_engine(replace(spec, fidelity=fidelity))
            for spec in specs
        ]
        BatchSimulationEngine(lanes, propagation=propagation).run()

    configs = {
        "serial": replay_serial,
        "scan": replay_scan,
        "batch_exact": lambda: run_batch("exact"),
        "batch_gemm": lambda: run_batch("gemm"),
        "batch_event": lambda: run_batch("exact", fidelity="event"),
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
    scan_s = rows["scan"]
    exact_s = rows["batch_exact"]
    gemm_s = rows["batch_gemm"]
    event_s = rows["batch_event"]

    n_runs = len(specs)
    runs_per_s = {name: n_runs / secs for name, secs in rows.items()}

    # Bit-identity spot check (always, smoke included): a short batch in
    # exact mode must reproduce serial runs exactly. The full matrix
    # lives in tests/test_engine_batch.py.
    check_specs = [replace(spec, duration_s=3.0) for spec in specs[:4]]
    serial_results = [runner.run(spec) for spec in check_specs]
    lanes = [runner.build_engine(spec) for spec in check_specs]
    for a, b in zip(serial_results,
                    BatchSimulationEngine(lanes, propagation="exact").run()):
        np.testing.assert_array_equal(a.unit_temps_k, b.unit_temps_k)
        assert a.energy_j == b.energy_j

    # Event spot check: event lanes must reproduce serial event runs
    # exactly and track the eager reference within the documented
    # contract (full matrices in tests/test_engine_batch.py and
    # tests/test_engine_event.py).
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
        "speedup_gemm_vs_serial": round(serial_s / gemm_s, 2),
        "speedup_exact_vs_serial": round(serial_s / exact_s, 2),
        "speedup_gemm_vs_scan": round(scan_s / gemm_s, 2),
        "speedup_event_vs_serial": round(serial_s / event_s, 2),
        "gates": {
            "gemm_vs_scan": GATE_GEMM_VS_SCAN,
            "gemm_vs_serial": GATE_GEMM_VS_SERIAL,
            "exact_vs_serial": GATE_EXACT_VS_SERIAL,
            "event_vs_serial": GATE_EVENT_VS_SERIAL,
        },
    }

    # Merge into BENCH_engine.json next to the hot-path section so the
    # whole engine perf story lives in one artifact; fall back to the
    # tracked repo-root mirror when results/ starts clean, and never
    # overwrite that mirror with smoke-mode figures.
    merged = {}
    existing = results_dir / "BENCH_engine.json"
    source = existing if existing.exists() else REPO_ROOT / "BENCH_engine.json"
    if source.exists():
        merged = json.loads(source.read_text())
    merged["batch"] = payload_section
    text = json.dumps(merged, indent=2) + "\n"
    existing.write_text(text)
    if not SMOKE:
        (REPO_ROOT / "BENCH_engine.json").write_text(text)

    lines = [
        f"Batched multi-run engine ({n_runs}-seed EXP-4 Adapt3D sweep, "
        f"{BENCH_SIM_S:.0f} s simulated each, best of {REPS})"
        + (" [SMOKE]" if SMOKE else ""),
        f"{'config':14s} {'total s':>9s} {'runs/s':>8s} {'speedup':>8s}",
    ]
    for name in ("scan", "serial", "batch_exact", "batch_gemm",
                 "batch_event"):
        lines.append(
            f"{name:14s} {rows[name]:9.2f} {runs_per_s[name]:8.2f} "
            f"{serial_s / rows[name]:7.2f}x"
        )
    lines.append(
        f"gemm vs scan replay: {scan_s / gemm_s:.2f}x "
        f"(gate {GATE_GEMM_VS_SCAN}x); "
        f"gemm vs serial: {serial_s / gemm_s:.2f}x "
        f"(gate {GATE_GEMM_VS_SERIAL}x); "
        f"event vs serial: {serial_s / event_s:.2f}x "
        f"(gate {GATE_EVENT_VS_SERIAL}x)"
    )
    emit(results_dir, "batch_engine", "\n".join(lines))

    if SMOKE:
        return
    assert scan_s / gemm_s >= GATE_GEMM_VS_SCAN, (
        f"fused batch {scan_s / gemm_s:.2f}x vs legacy-scan replay missed "
        f"the {GATE_GEMM_VS_SCAN}x gate"
    )
    assert serial_s / gemm_s >= GATE_GEMM_VS_SERIAL, (
        f"fused batch {serial_s / gemm_s:.2f}x vs serial replay missed "
        f"the {GATE_GEMM_VS_SERIAL}x gate"
    )
    assert serial_s / exact_s >= GATE_EXACT_VS_SERIAL, (
        f"exact batch {serial_s / exact_s:.2f}x vs serial replay missed "
        f"the {GATE_EXACT_VS_SERIAL}x gate"
    )
    assert serial_s / event_s >= GATE_EVENT_VS_SERIAL, (
        f"event batch {serial_s / event_s:.2f}x vs serial replay missed "
        f"the {GATE_EVENT_VS_SERIAL}x gate"
    )
