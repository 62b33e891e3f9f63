"""Sparse RC network assembly for the 3D stack.

Nodes are the grid cells of every slab (sink, spreader, dies) plus one
lumped convection node. The assembled system is

    C * dT/dt = -G * T + P + g_amb * T_amb

with ``G`` the conductance Laplacian (including each node's coupling to
ambient on the diagonal), ``C`` the diagonal heat capacities, ``P`` the
injected power (W per node) and ``g_amb`` the per-node conductance to the
fixed ambient temperature.

Conductance construction (standard HotSpot grid-model formulas):

- lateral, between in-layer 4-neighbors:  ``g = k * t * w_perp / pitch``
- vertical, between stacked cells: series combination of each slab's
  half-thickness resistance plus any interface material resistance:
  ``R = t_a/(2 k_a A) + rho_if * t_if / A + t_b/(2 k_b A)``
- sink cells couple to the lumped convection node through the remaining
  half sink thickness plus the package internal resistance, and the
  lumped node couples to ambient through the convection resistance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
from scipy import sparse

from repro.errors import ThermalModelError
from repro.thermal.stack import Stack3D

#: Largest network :func:`build_network` assembles. Every stack gets a
#: dense n x n interval propagator (``expm``, cubic in n) and a modal
#: eigenbasis; measured on EXP-4 at 26x26 (4,057 nodes) they build in
#: 9.3 + 2.8 s at 1.14 GB peak RSS. The paper grids have 257-385 nodes.
MAX_NODES = 4096


@dataclass
class ThermalNetwork:
    """Assembled sparse RC network for one stack.

    Attributes
    ----------
    conductance:
        ``G`` in CSC format, shape (n, n); symmetric positive definite
        once ambient couplings are on the diagonal.
    capacitance:
        Diagonal heat capacities, shape (n,), all positive.
    ambient_conductance:
        ``g_amb``, shape (n,); nonzero only for the convection node.
    ambient_k:
        Ambient temperature in kelvin.
    nrows, ncols:
        Grid resolution shared by all slabs.
    layer_offsets:
        Node index of cell (0, 0) of each slab, in stack order.
    sink_node:
        Index of the lumped convection node (the last node).
    """

    conductance: sparse.csc_matrix
    capacitance: np.ndarray
    ambient_conductance: np.ndarray
    ambient_k: float
    nrows: int
    ncols: int
    layer_offsets: List[int]
    sink_node: int

    @property
    def n_nodes(self) -> int:
        """Total node count including the convection node."""
        return self.capacitance.shape[0]

    def layer_slice(self, layer_index: int) -> slice:
        """Node-index slice covering one slab's grid cells."""
        start = self.layer_offsets[layer_index]
        return slice(start, start + self.nrows * self.ncols)

    def layer_temperatures(self, temps: np.ndarray, layer_index: int) -> np.ndarray:
        """Cell temperatures of one slab as a (nrows*ncols,) vector."""
        return temps[self.layer_slice(layer_index)]


def build_network(
    stack: Stack3D, nrows: int, ncols: int, ambient_k: float
) -> ThermalNetwork:
    """Assemble the RC network for ``stack`` on an ``nrows x ncols`` grid."""
    if nrows < 1 or ncols < 1:
        raise ThermalModelError(f"grid must be at least 1x1, got {nrows}x{ncols}")
    n_layers = stack.n_layers
    cells = nrows * ncols
    n_nodes = n_layers * cells + 1
    if n_nodes > MAX_NODES:
        raise ThermalModelError(
            f"a {nrows}x{ncols} grid on {n_layers} slabs needs {n_nodes} "
            f"nodes, above the limit of {MAX_NODES}"
        )
    sink_node = n_nodes - 1
    dx = stack.width_m / ncols
    dy = stack.height_m / nrows
    cell_area = dx * dy

    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []

    def add_conductance(a: int, b: int, g: float) -> None:
        rows.extend((a, b, a, b))
        cols.extend((b, a, a, b))
        vals.extend((-g, -g, g, g))

    def node(layer: int, r: int, c: int) -> int:
        return layer * cells + r * ncols + c

    capacitance = np.zeros(n_nodes)
    for li, layer in enumerate(stack.layers):
        c_cell = layer.material.volumetric_heat_capacity * layer.thickness_m * cell_area
        capacitance[li * cells: (li + 1) * cells] = c_cell

        # Lateral conductances within the slab.
        k = layer.material.conductivity
        g_x = k * layer.thickness_m * dy / dx
        g_y = k * layer.thickness_m * dx / dy
        for r in range(nrows):
            for c in range(ncols):
                if c + 1 < ncols:
                    add_conductance(node(li, r, c), node(li, r, c + 1), g_x)
                if r + 1 < nrows:
                    add_conductance(node(li, r, c), node(li, r + 1, c), g_y)

        # Vertical conductance to the slab above.
        if li + 1 < n_layers:
            upper = stack.layers[li + 1]
            r_half_lo = layer.thickness_m / (2.0 * layer.material.conductivity * cell_area)
            r_half_hi = upper.thickness_m / (2.0 * upper.material.conductivity * cell_area)
            r_if = 0.0
            if layer.interface_resistivity is not None:
                r_if = (
                    layer.interface_resistivity
                    * layer.interface_thickness_m
                    / cell_area
                )
            g_v = 1.0 / (r_half_lo + r_if + r_half_hi)
            for r in range(nrows):
                for c in range(ncols):
                    add_conductance(node(li, r, c), node(li + 1, r, c), g_v)

    # Sink grid -> lumped convection node: half sink thickness per cell in
    # series with the per-cell share of the package internal resistance.
    sink_layer = stack.layers[0]
    r_half_sink = sink_layer.thickness_m / (
        2.0 * sink_layer.material.conductivity * cell_area
    )
    r_internal_per_cell = stack.internal_resistance * cells
    g_sink = 1.0 / (r_half_sink + r_internal_per_cell)
    for r in range(nrows):
        for c in range(ncols):
            add_conductance(node(0, r, c), sink_node, g_sink)

    capacitance[sink_node] = stack.convection_capacitance

    # Ambient coupling through the convection resistance.
    ambient_conductance = np.zeros(n_nodes)
    ambient_conductance[sink_node] = 1.0 / stack.convection_resistance
    rows.append(sink_node)
    cols.append(sink_node)
    vals.append(ambient_conductance[sink_node])

    conductance = sparse.csc_matrix(
        sparse.coo_matrix((vals, (rows, cols)), shape=(n_nodes, n_nodes))
    )
    layer_offsets = [li * cells for li in range(n_layers)]
    return ThermalNetwork(
        conductance=conductance,
        capacitance=capacitance,
        ambient_conductance=ambient_conductance,
        ambient_k=ambient_k,
        nrows=nrows,
        ncols=ncols,
        layer_offsets=layer_offsets,
        sink_node=sink_node,
    )
