"""A Crank-Nicolson stepper: the test-only reference for the exact step.

The engine's thermal step (``ThermalModel.step_vector``) applies the
interval propagator ``expm(-C^-1 G dt)``, which is exact under the
engine's piecewise-constant power. :class:`CrankNicolson` integrates
the same RC network, ``C dT/dt = -G T + P + g_amb T_amb``, another way:
the trapezoidal rule over :data:`REFERENCE_SUBSTEPS` fixed substeps per
interval, through one sparse LU of ``C/h + G/2``. It shares nothing
with the propagator but the assembled network, so the accuracy tests
(``tests/test_solver_exponential.py``) check the exact step against an
independent integrator.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from repro.thermal.network import ThermalNetwork

#: Substeps per interval. Crank-Nicolson is second order and A-stable,
#: and at 64 substeps of a 100 ms interval it tracks the exact step
#: well inside the 0.01 K accuracy budget on every paper stack.
REFERENCE_SUBSTEPS = 64


class CrankNicolson:
    """Fixed-substep Crank-Nicolson over one network and interval."""

    def __init__(
        self,
        network: ThermalNetwork,
        dt: float,
        substeps: int = REFERENCE_SUBSTEPS,
    ) -> None:
        c_over_h = sparse.diags(network.capacitance / (dt / substeps))
        half_g = 0.5 * network.conductance
        self.substeps = substeps
        self._explicit = (c_over_h - half_g).tocsc()
        self._lu = splu((c_over_h + half_g).tocsc())
        self._ambient = network.ambient_conductance * network.ambient_k

    def step(self, temps: np.ndarray, node_powers: np.ndarray) -> np.ndarray:
        """Node temperatures one interval on, under constant node power."""
        source = node_powers + self._ambient
        for _ in range(self.substeps):
            temps = self._lu.solve(self._explicit @ temps + source)
        return temps
