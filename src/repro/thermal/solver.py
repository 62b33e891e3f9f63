"""The exact interval step and the steady-state solve of a
:class:`ThermalNetwork`.

The network integrates ``C dT/dt = -G T + P + g_amb T_amb``. The engine
holds power constant across each sampling interval, and under
piecewise-constant power the update

    T' = T_inf + A (T - T_inf),   A = expm(-C^-1 G dt),
    G T_inf = P + g_amb T_amb

is the *exact* solution of the linear ODE over the interval: no substep
discretization error, and no stiffness limit on the step, although cell
capacitances span five orders of magnitude (silicon grid cells ~1e-4
J/K against the 140 J/K convection node). :func:`build_propagator`
builds ``A`` once per (network, dt);
:class:`~repro.thermal.model.ThermalAssembly` holds it and
:meth:`~repro.thermal.model.ThermalModel.step_vector` applies it.
``build_network``'s node limit bounds the dense build.

:class:`SteadyStateSolver` pickles (a campaign ships it to spawned pool
workers inside a ``ThermalAssembly``): SuperLU factorizations do not
pickle, so a pickled solver drops its factorization and refactorizes on
load. ``splu`` is deterministic, so the copy solves bit-identically.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import splu

from repro.errors import ThermalModelError
from repro.thermal.network import ThermalNetwork


def build_propagator(network: ThermalNetwork, dt: float) -> np.ndarray:
    """The dense interval propagator ``expm(-C^-1 G dt)``.

    Exact for piecewise-constant power; built once per (network, dt)
    and amortized across every step of every run sharing the assembly.
    """
    rate = sparse.diags(1.0 / network.capacitance) @ network.conductance
    return expm((-float(dt)) * rate.toarray())


class SteadyStateSolver:
    """Solves ``G T = P + g_amb T_amb`` for the equilibrium temperature."""

    def __init__(self, network: ThermalNetwork) -> None:
        self.network = network
        self._lu = splu(network.conductance)

    def __getstate__(self) -> dict:
        return {"network": self.network}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["network"])

    @property
    def lu(self):
        """The cached SuperLU factorization of ``G`` (the exact step's
        steady gain is solved through it too)."""
        return self._lu

    def solve(self, node_powers: np.ndarray) -> np.ndarray:
        """Equilibrium node temperatures (K) for the given power vector."""
        net = self.network
        if node_powers.shape != (net.n_nodes,):
            raise ThermalModelError(
                f"expected {net.n_nodes} node powers, got {node_powers.shape}"
            )
        rhs = node_powers + net.ambient_conductance * net.ambient_k
        return self._lu.solve(rhs)
