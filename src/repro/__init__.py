"""repro — reproduction of Coskun et al., "Dynamic Thermal Management
in 3D Multicore Architectures" (DATE 2009).

Top-level convenience imports cover the common workflow::

    from repro import ExperimentRunner, RunSpec, summarize

    runner = ExperimentRunner()
    result = runner.run(RunSpec(exp_id=3, policy="Adapt3D", with_dpm=True))
    print(summarize(result))

See docs/ for the engine, campaign and telemetry designs and
EXPERIMENTS.md for the paper-vs-measured record.
"""

from repro.analysis.runner import ExperimentRunner, RunSpec
from repro.core.registry import build_policy, policy_names
from repro.floorplan.experiments import build_experiment
from repro.metrics.report import MetricsReport, summarize
from repro.sched.engine import EngineConfig, SimulationEngine, SimulationResult
from repro.thermal.model import ThermalModel

__version__ = "1.0.0"

__all__ = [
    "ExperimentRunner",
    "RunSpec",
    "build_policy",
    "policy_names",
    "build_experiment",
    "MetricsReport",
    "summarize",
    "EngineConfig",
    "SimulationEngine",
    "SimulationResult",
    "ThermalModel",
    "__version__",
]
