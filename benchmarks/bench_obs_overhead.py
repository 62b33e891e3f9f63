"""Telemetry overhead benchmark: engine hot path with obs on and off.

Measures EXP-1..4 (Adapt3D at eager fidelity, event heap +
exponential solver — the configuration the hot-path gate was set on)
in three telemetry states:

- ``off``     — ``EngineConfig.telemetry=None``, the default. The
  disabled path must stay inside the hot-path gate: null-object
  singletons for the lifecycle hooks plus plain-int micro counters mean
  there is nothing to branch on in the tick loop.
- ``metrics`` — ``TelemetryConfig()``: job stats + tick profiler (the
  ``campaign run --telemetry`` configuration).
- ``full``    — metrics plus the trace ring buffer (the ``repro
  trace`` configuration).

Gates (full runs only; REPRO_BENCH_SMOKE=1 skips the wall-clock
assertions for CI smoke): telemetry-off EXP-4 within the existing
hot-path gate (machine-scaled like bench_engine_hotpath.py, by the
scan oracle ``tests/scan_engine.py``), and full telemetry overhead at
or below 10% of the off cost.

Emits ``BENCH_obs.json`` and a sample Chrome trace
(``sample_trace.json``, Perfetto-loadable) into ``benchmarks/results/``;
the JSON is mirrored to the repo root on full runs.
"""

import gc
import json
import os
import random
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.analysis.runner import ExperimentRunner, RunSpec
from repro.obs.telemetry import TelemetryConfig

from benchmarks.conftest import BENCH_SEED, emit
from tests.scan_engine import ScanEngine

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

BENCH_SIM_S = 6.0 if SMOKE else 30.0
#: The gated quantity is a *ratio* of two cells, so both cells' best-of
#: must converge to their clean-host cost before the ratio is meaningful
#: — that takes far more rounds than a single-cell bench (one unluckily
#: fast "off" best inflates the overhead percentage and vice versa).
REPS = 1 if SMOKE else 15

#: The shipping hot-path gate for the telemetry-off configuration:
#: identical to bench_engine_hotpath.py's TARGET_EXP4_MS, because
#: "off" *is* the shipping hot-path configuration. The recorded
#: trajectory-machine cost is 0.249 ms/tick; the gate keeps the same
#: headroom the hot-path bench grants for host jitter.
OFF_TARGET_EXP4_MS = 0.28
ON_OVERHEAD_LIMIT_PCT = 10.0

#: PR 2 reference figure used for machine scaling (same scheme as
#: bench_engine_hotpath.py): hosts slower than the trajectory machine
#: scale the target by their measured cost of the scan oracle. It was
#: measured with backward Euler; the scan now runs the cheaper exact
#: step, so the scaling can only tighten the gate.
PR2_SCAN_EXP4_MS = 0.57

STATES = (
    ("off", None),
    ("metrics", TelemetryConfig()),
    ("full", TelemetryConfig(trace=True)),
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def _spec(exp_id: int) -> RunSpec:
    # Eager: the scan oracle runs eager only, and the off gate mirrors
    # bench_engine_hotpath.py's eager target.
    return RunSpec(
        exp_id=exp_id, policy="Adapt3D", duration_s=BENCH_SIM_S,
        seed=BENCH_SEED, fidelity="eager",
    )


def _measure(runner: ExperimentRunner) -> dict:
    """Per-round ms/tick samples per (stack, telemetry state).

    Returns ``{(exp_id, label): [ms_round0, ms_round1, ...]}``; callers
    take the best-of over rounds per cell.  Two defenses against a busy
    shared host: the visiting order is reshuffled every round (a
    periodic load pattern cannot alias with a fixed order and poison
    the same cell all REPS times), and a collect before each cell keeps
    one state's garbage from being timed in the next."""
    order = [
        (exp_id, label, telemetry)
        for exp_id in (1, 2, 3, 4)
        for label, telemetry in STATES
    ]
    rng = random.Random(BENCH_SEED)
    cells = {}
    for _ in range(REPS):
        rng.shuffle(order)
        for exp_id, label, telemetry in order:
            engine = runner.build_engine(_spec(exp_id))
            engine.config = replace(engine.config, telemetry=telemetry)
            gc.collect()
            start = time.perf_counter()
            result = engine.run()
            elapsed = time.perf_counter() - start
            ms = elapsed / result.n_ticks * 1000.0
            cells.setdefault((exp_id, label), []).append(ms)
    return cells




def _measure_references(runner: ExperimentRunner) -> dict:
    """EXP-4 reference configuration (the scan oracle) for machine
    scaling."""
    refs = {"scan": float("inf")}
    for _ in range(REPS):
        engine = ScanEngine.from_engine(runner.build_engine(_spec(4)))
        start = time.perf_counter()
        result = engine.run()
        elapsed = time.perf_counter() - start
        refs["scan"] = min(refs["scan"], elapsed / result.n_ticks * 1000.0)
    return refs


def test_obs_overhead(results_dir):
    runner = ExperimentRunner()
    cells = _measure(runner)
    refs = _measure_references(runner)

    per_exp = {}
    for exp_id in (1, 2, 3, 4):
        off = min(cells[(exp_id, "off")])
        metrics = min(cells[(exp_id, "metrics")])
        full = min(cells[(exp_id, "full")])
        per_exp[f"exp{exp_id}"] = {
            "off_ms_per_tick": round(off, 4),
            "metrics_ms_per_tick": round(metrics, 4),
            "full_ms_per_tick": round(full, 4),
            "metrics_overhead_pct": round(100.0 * (metrics / off - 1.0), 1),
            "full_overhead_pct": round(100.0 * (full / off - 1.0), 1),
        }

    # Non-perturbation spot check: full telemetry must stay bitwise
    # identical (the whole matrix lives in tests/test_engine_heap.py).
    check = replace(_spec(4), duration_s=6.0)
    a = runner.build_engine(check)
    b = runner.build_engine(check)
    b.config = replace(b.config, telemetry=TelemetryConfig(trace=True))
    result_a, result_b = a.run(), b.run()
    np.testing.assert_array_equal(result_a.unit_temps_k, result_b.unit_temps_k)
    assert result_a.energy_j == result_b.energy_j

    # Sample Chrome trace artifact (CI uploads it; Perfetto-loadable).
    trace = b.telemetry.trace
    sample_path = results_dir / "sample_trace.json"
    trace.write_chrome_trace(sample_path, result_b.core_names)
    sample = json.loads(sample_path.read_text())
    assert sample["traceEvents"], "sample trace must carry events"

    machine_scale = max(1.0, refs["scan"] / PR2_SCAN_EXP4_MS)
    exp4 = per_exp["exp4"]
    payload = {
        "smoke": SMOKE,
        "simulated_s": BENCH_SIM_S,
        "policy": "Adapt3D",
        "per_exp": per_exp,
        "reference_exp4": {k: round(v, 4) for k, v in refs.items()},
        "machine_scale": round(machine_scale, 3),
        "off_target_exp4_ms": OFF_TARGET_EXP4_MS,
        "on_overhead_limit_pct": ON_OVERHEAD_LIMIT_PCT,
        "trace_events_sample": len(sample["traceEvents"]),
    }
    text = json.dumps(payload, indent=2) + "\n"
    (results_dir / "BENCH_obs.json").write_text(text)
    if not SMOKE:
        (REPO_ROOT / "BENCH_obs.json").write_text(text)

    lines = [
        "Telemetry overhead (ms per 100 ms tick, best of "
        f"{REPS}, {BENCH_SIM_S:.0f} s simulated, Adapt3D)",
        f"{'stack':8s} {'off':>8s} {'metrics':>9s} {'full':>8s} "
        f"{'ovh':>7s}",
    ]
    for exp_id in (1, 2, 3, 4):
        row = per_exp[f"exp{exp_id}"]
        lines.append(
            f"EXP-{exp_id:<4d} {row['off_ms_per_tick']:8.3f} "
            f"{row['metrics_ms_per_tick']:9.3f} "
            f"{row['full_ms_per_tick']:8.3f} "
            f"{row['full_overhead_pct']:6.1f}%"
        )
    emit(results_dir, "obs_overhead", "\n".join(lines))

    if SMOKE:
        return

    off_ms = exp4["off_ms_per_tick"]
    assert off_ms <= OFF_TARGET_EXP4_MS * machine_scale, (
        f"telemetry-off EXP-4 {off_ms} ms/tick missed the "
        f"{OFF_TARGET_EXP4_MS} ms hot-path gate "
        f"(machine scale {machine_scale:.2f})"
    )
    assert exp4["full_overhead_pct"] <= ON_OVERHEAD_LIMIT_PCT, (
        f"full telemetry overhead {exp4['full_overhead_pct']}% exceeds "
        f"{ON_OVERHEAD_LIMIT_PCT}%"
    )
