"""Vertical stack description: dies, interlayer material, package.

A :class:`Stack3D` lists :class:`StackLayer` entries ordered from the
heat sink upward::

    index 0: heat sink   (copper, gridded)
    index 1: spreader    (copper, gridded)
    index 2: die 0       (silicon, active, adjacent to the spreader)
    index 3: die 1
    ...

plus a lumped sink-mass node carrying the paper's convection capacitance
(140 J/K) coupled to ambient through the convection resistance (0.1 K/W).

Between two silicon dies the vertical path crosses the interlayer bonding
material (20 um, TSV-adjusted joint resistivity — see
:mod:`repro.thermal.tsv`); its heat capacity is negligible, so it is
modeled as a pure resistance, exactly like HotSpot's 3D grid mode.

The paper uses HotSpot v4.2's *default package*. Our sink and spreader
grids share the die footprint rather than overhanging it, so the package's
internal spreading/constriction resistance is represented explicitly by
``internal_resistance`` between the sink grid and the lumped convection
node (see EXPERIMENTS.md, "Calibration regime", and the calibration
test suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import ThermalModelError
from repro.floorplan.experiments import ExperimentConfig
from repro.floorplan.floorplan import Floorplan
from repro.thermal.materials import COPPER, SILICON, Material

# HotSpot default package geometry (thickness only; footprint is the die).
SPREADER_THICKNESS_M = 1.0e-3
SINK_THICKNESS_M = 6.9e-3

# Additional spreading/constriction resistance between the sink grid and
# the convection interface. The gridded sink + spreader already model
# package conduction, so the default is zero; the parameter exists for
# package ablation studies (a larger value emulates a poorer package).
# Calibration note (see tests/test_calibration.py and EXPERIMENTS.md):
# with the Table II package, the 2-tier stacks settle in the 60-70 C
# range and the 4-tier stacks around 90-110 C — the absolute scale of
# the paper's figures is not recoverable from the text, but the relative
# ordering (EXP4 > EXP3 >> EXP2 > EXP1) is what the experiments rely on.
DEFAULT_INTERNAL_RESISTANCE_K_PER_W = 0.0


@dataclass(frozen=True)
class StackLayer:
    """One horizontal slab of the stack.

    Attributes
    ----------
    name:
        Identifier (``"sink"``, ``"spreader"``, ``"die0"``...).
    thickness_m:
        Slab thickness in meters.
    material:
        Bulk material of the slab.
    floorplan:
        Unit layout for active silicon dies; ``None`` for package layers.
    is_active:
        Whether units on this layer dissipate scheduled power.
    interface_resistivity:
        Resistivity (m·K/W) of the bonding material between this layer and
        the one *above* it, or ``None`` for direct contact.
    interface_thickness_m:
        Thickness of that bonding material.
    """

    name: str
    thickness_m: float
    material: Material
    floorplan: Optional[Floorplan] = None
    is_active: bool = False
    interface_resistivity: Optional[float] = None
    interface_thickness_m: float = 0.0

    def __post_init__(self) -> None:
        if self.thickness_m <= 0.0:
            raise ThermalModelError(f"layer {self.name!r}: non-positive thickness")
        if self.is_active and self.floorplan is None:
            raise ThermalModelError(f"layer {self.name!r}: active layer needs a floorplan")
        if self.interface_resistivity is not None and self.interface_resistivity <= 0:
            raise ThermalModelError(
                f"layer {self.name!r}: interface resistivity must be positive"
            )


@dataclass(frozen=True)
class Stack3D:
    """A full 3D chip stack plus package, ready for network assembly.

    Attributes
    ----------
    layers:
        Slabs ordered from the heat sink upward (see module docstring).
    width_m, height_m:
        Lateral extent shared by all slabs.
    convection_resistance:
        Sink-to-ambient convection resistance, K/W (Table II: 0.1).
    convection_capacitance:
        Lumped sink-mass capacitance, J/K (Table II: 140).
    internal_resistance:
        Package spreading/constriction resistance between the sink grid
        and the convection node, K/W.
    """

    layers: Tuple[StackLayer, ...]
    width_m: float
    height_m: float
    convection_resistance: float
    convection_capacitance: float
    internal_resistance: float = DEFAULT_INTERNAL_RESISTANCE_K_PER_W

    def __post_init__(self) -> None:
        if not self.layers:
            raise ThermalModelError("stack has no layers")
        if self.width_m <= 0.0 or self.height_m <= 0.0:
            raise ThermalModelError("stack lateral extent must be positive")
        if self.convection_resistance <= 0.0:
            raise ThermalModelError("convection resistance must be positive")
        if self.convection_capacitance <= 0.0:
            raise ThermalModelError("convection capacitance must be positive")
        if self.internal_resistance < 0.0:
            raise ThermalModelError("internal resistance must be non-negative")
        for layer in self.layers:
            if layer.floorplan is not None:
                if (
                    abs(layer.floorplan.width - self.width_m) > 1e-9
                    or abs(layer.floorplan.height - self.height_m) > 1e-9
                ):
                    raise ThermalModelError(
                        f"layer {layer.name!r} floorplan does not match the "
                        "stack footprint"
                    )

    @property
    def n_layers(self) -> int:
        """Total slab count including package layers."""
        return len(self.layers)

    def active_layers(self) -> List[Tuple[int, StackLayer]]:
        """(stack index, layer) for every power-dissipating die."""
        return [(i, l) for i, l in enumerate(self.layers) if l.is_active]

    def die_layers(self) -> List[Tuple[int, StackLayer]]:
        """(stack index, layer) for every silicon die (active or not)."""
        return [(i, l) for i, l in enumerate(self.layers) if l.floorplan is not None]


# The default HotSpot package overhangs the die: the 60x60 mm sink has
# ~30x the die's cross-section and the 30x30 mm spreader ~8x. Our grid
# layers share the die footprint, so we emulate the overhang with an
# effective conductivity multiplier on the package layers (the extra
# cross-section lowers both bulk and spreading resistance). Values
# calibrated so the four stacks straddle the 85 C threshold the way the
# paper's evaluation requires (see tests/test_calibration.py and
# EXPERIMENTS.md): 2-tier stacks below, 4-tier stacks meaningfully above.
SINK_CONDUCTIVITY_MULTIPLIER = 1.15
SPREADER_CONDUCTIVITY_MULTIPLIER = 2.0


def build_stack(
    config: ExperimentConfig,
    spreader_thickness_m: float = SPREADER_THICKNESS_M,
    sink_thickness_m: float = SINK_THICKNESS_M,
    internal_resistance: float = DEFAULT_INTERNAL_RESISTANCE_K_PER_W,
    sink_conductivity_multiplier: float = SINK_CONDUCTIVITY_MULTIPLIER,
    spreader_conductivity_multiplier: float = SPREADER_CONDUCTIVITY_MULTIPLIER,
) -> Stack3D:
    """Assemble the paper's stack for one EXP configuration.

    Layer order follows Figure 1: heat sink at the bottom, then the
    spreader, then the dies with die 0 adjacent to the spreader and the
    interlayer bonding material between consecutive dies.
    """
    width = config.layers[0].width
    height = config.layers[0].height
    sink_material = Material(
        "sink_copper",
        conductivity=COPPER.conductivity * sink_conductivity_multiplier,
        volumetric_heat_capacity=COPPER.volumetric_heat_capacity,
    )
    spreader_material = Material(
        "spreader_copper",
        conductivity=COPPER.conductivity * spreader_conductivity_multiplier,
        volumetric_heat_capacity=COPPER.volumetric_heat_capacity,
    )
    slabs: List[StackLayer] = [
        StackLayer("sink", sink_thickness_m, sink_material),
        StackLayer("spreader", spreader_thickness_m, spreader_material),
    ]
    for k, plan in enumerate(config.layers):
        is_last = k == len(config.layers) - 1
        slabs.append(
            StackLayer(
                name=f"die{k}",
                thickness_m=config.die_thickness_m,
                material=SILICON,
                floorplan=plan,
                is_active=True,
                interface_resistivity=(
                    None if is_last else config.interlayer_resistivity
                ),
                interface_thickness_m=(
                    0.0 if is_last else config.interlayer_thickness_m
                ),
            )
        )
    return Stack3D(
        layers=tuple(slabs),
        width_m=width,
        height_m=height,
        convection_resistance=config.convection_resistance,
        convection_capacitance=config.convection_capacitance,
        internal_resistance=internal_resistance,
    )
