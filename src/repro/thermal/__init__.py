"""3D RC thermal simulator (HotSpot-grid equivalent).

The paper uses HotSpot v4.2's grid model in 3D mode. This package
re-implements the same physics from scratch:

- :mod:`~repro.thermal.materials` — material constants,
- :mod:`~repro.thermal.tsv` — through-silicon-via joint resistivity
  (paper Figure 2),
- :mod:`~repro.thermal.stack` — the vertical stack (dies, interlayer
  material, spreader, heat sink, convection) built from an
  :class:`~repro.floorplan.experiments.ExperimentConfig`,
- :mod:`~repro.thermal.grid` — floorplan-to-grid area-overlap mapping,
- :mod:`~repro.thermal.network` — sparse conductance/capacitance assembly,
- :mod:`~repro.thermal.solver` — the exact interval propagator and the
  steady-state solver (cached factorization),
- :mod:`~repro.thermal.model` — the :class:`ThermalModel` facade used by
  the simulation engine,
- :mod:`~repro.thermal.sensors` — per-core temperature sensors.
"""

from repro.thermal.materials import (
    Material,
    SILICON,
    COPPER,
    INTERLAYER,
    AMBIENT_K,
    celsius,
    kelvin,
)
from repro.thermal.tsv import TSVTechnology, joint_resistivity, resistivity_curve
from repro.thermal.stack import Stack3D, StackLayer, build_stack
from repro.thermal.grid import GridMapper
from repro.thermal.network import ThermalNetwork, build_network
from repro.thermal.solver import SteadyStateSolver
from repro.thermal.model import ThermalModel
from repro.thermal.sensors import TemperatureSensor, SensorBank

__all__ = [
    "Material",
    "SILICON",
    "COPPER",
    "INTERLAYER",
    "AMBIENT_K",
    "celsius",
    "kelvin",
    "TSVTechnology",
    "joint_resistivity",
    "resistivity_curve",
    "Stack3D",
    "StackLayer",
    "build_stack",
    "GridMapper",
    "ThermalNetwork",
    "build_network",
    "SteadyStateSolver",
    "ThermalModel",
    "TemperatureSensor",
    "SensorBank",
]
