"""Shared infrastructure for the figure/table regeneration benches.

Simulation results are persisted in a campaign :class:`ResultStore`
under ``benchmarks/results/campaign_store`` — Figures 4 and 5 share the
same runs, the performance series of Figure 3 reuses its hot-spot runs,
and a re-invoked bench session resumes by loading everything straight
from the store instead of re-simulating.

Every bench writes its regenerated table to ``benchmarks/results/`` so
the numbers survive pytest's output capture; they are also printed.
The engine benches merge their sections into one JSON artifact with
:func:`merge_artifact`, whose repo-root copy is tracked.

CAUTION: run keys hash the *spec* (exp, policy, duration, seed, ...),
not the simulator code. After changing simulation behavior, delete
``benchmarks/results/campaign_store`` (or the whole results dir) so the
figures are regenerated instead of served stale.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

import pytest

from repro.analysis.runner import ExperimentRunner, RunSpec
from repro.campaign import CampaignExecutor, ResultStore, run_key
from repro.sched.engine import SimulationResult

# One simulated workload length for all figure benches. The paper ran
# 30-minute traces; 90 s is enough for the policy ordering to settle
# (see tests/test_integration.py) while keeping the bench suite fast.
BENCH_DURATION_S = 90.0
BENCH_SEED = 2009

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_DIR = Path(__file__).parent / "results"
STORE_DIR = RESULTS_DIR / "campaign_store"


def bench_spec(exp_id: int, policy: str, with_dpm: bool, **overrides) -> RunSpec:
    """The canonical RunSpec of one figure-bench simulation."""
    return RunSpec(
        exp_id=exp_id,
        policy=policy,
        duration_s=BENCH_DURATION_S,
        with_dpm=with_dpm,
        seed=BENCH_SEED,
        **overrides,
    )


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    return ExperimentRunner()


@pytest.fixture(scope="session")
def campaign_store() -> ResultStore:
    RESULTS_DIR.mkdir(exist_ok=True)
    return ResultStore(STORE_DIR)


@pytest.fixture(scope="session")
def campaign_executor(campaign_store, runner) -> CampaignExecutor:
    """Serial executor over the session store (benches run in-process;
    the throughput bench builds its own parallel executors)."""
    return CampaignExecutor(
        store=campaign_store, backend="serial", runner=runner
    )


@pytest.fixture(scope="session")
def get_result(campaign_executor):
    """Memoized (exp_id, policy, dpm) -> SimulationResult via the store."""
    memo: Dict[str, SimulationResult] = {}

    def fetch(exp_id: int, policy: str, with_dpm: bool) -> SimulationResult:
        spec = bench_spec(exp_id, policy, with_dpm)
        key = run_key(spec)
        if key not in memo:
            memo[key] = campaign_executor.run_specs([spec])[key]
        return memo[key]

    return fetch


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit(results_dir: Path, name: str, text: str) -> None:
    """Print a regenerated table and persist it under results/."""
    print()
    print(text)
    (results_dir / f"{name}.txt").write_text(text + "\n")


def merge_artifact(results_dir: Path, name: str, sections: Dict[str, object],
                   smoke: bool, root: Path = REPO_ROOT) -> None:
    """Merge ``sections`` into the JSON artifact ``name``.

    The copy under results/ always takes them, the tracked copy at the
    repo root only in full mode. Each copy merges into its own previous
    contents, so smoke figures in results/ never reach the tracked one.
    """
    for path in [results_dir / name] + ([] if smoke else [root / name]):
        merged = json.loads(path.read_text()) if path.exists() else {}
        merged.update(sections)
        path.write_text(json.dumps(merged, indent=2) + "\n")
