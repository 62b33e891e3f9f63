"""Smoke tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Every workload runs at its ``--smoke`` size, untraced and traced, so
every metric, the traced run and every correctness check execute in a
few seconds each.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in CONFIG["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_meets_output_contract(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = CONFIG["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for entry in section:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], float)
        assert math.isfinite(metric["value"])
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_stored_result_check_catches_a_wrong_payload(tmp_path):
    from repro.analysis.runner import ExperimentRunner, RunSpec
    from repro.campaign import ResultStore

    import workloads

    runner = ExperimentRunner()
    spec = RunSpec(exp_id=1, policy="Default", duration_s=2.0, seed=1)
    other = RunSpec(exp_id=1, policy="Default", duration_s=2.0, seed=2)
    store = ResultStore(tmp_path / "store")
    store.save(spec, runner.run(other))
    assert workloads._check_stored(store, spec, runner.run(spec), tmp_path)
    store.save(spec, runner.run(spec))
    assert not workloads._check_stored(store, spec, runner.run(spec), tmp_path)


def test_tail_keeps_ten_samples_beyond_its_percentile():
    import measure

    assert measure.tail(list(range(1000)))["pct"] == 90.0
    assert measure.tail(list(range(100)))["pct"] == 90.0
    assert measure.tail(list(range(99)))["pct"] == 75.0
    assert measure.tail([float(v) for v in range(200)])["value"] == 179.0


def test_self_time_excludes_children():
    from tracing import Tracer

    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = 0, 1
    assert [span[0] for span in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[inner][3] == outer
    assert tracer.self_time(outer) == pytest.approx(
        tracer.duration(outer) - tracer.duration(inner))
