"""Steady-state and transient solvers over a :class:`ThermalNetwork`.

The transient solver integrates ``C dT/dt = -G T + P + g_amb T_amb``
with one of three methods:

- ``"exponential"`` (default for new models): under piecewise-constant
  power — exactly the engine's contract, power is held constant across
  each sampling interval — the update

      T' = T_inf + A (T - T_inf),   A = expm(-C^-1 G dt),
      G T_inf = P + g_amb T_amb

  is the *exact* solution of the linear ODE over the interval. The
  propagator ``A`` is built once per (network, dt) and each step is one
  cached sparse steady solve plus one dense GEMV — no substep
  discretization error and no per-substep triangular solve pair.
- ``"backward_euler"`` / ``"crank_nicolson"``: A-stable fixed-substep
  implicit integrators, kept as config options (and as the automatic
  fallback when the network is too large for a dense propagator to
  pay). A-stability matters: cell capacitances span five orders of
  magnitude (silicon grid cells ~1e-4 J/K vs the 140 J/K convection
  node), so the system is stiff and explicit integration would need
  microsecond steps.

All factorizations and the propagator depend only on the network and
the step size, so they are computed once and reused across the whole
simulation. Both solvers pickle (a campaign ships them to spawned pool
workers inside a ``ThermalAssembly``): SuperLU factorizations do not
pickle, so a pickled solver drops them and refactorizes on load.
``splu`` is deterministic, so the copy solves bit-identically.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import splu

from repro.errors import ThermalModelError
from repro.thermal.network import ThermalNetwork

SOLVER_METHODS = ("exponential", "backward_euler", "crank_nicolson")
_IMPLICIT_METHODS = ("backward_euler", "crank_nicolson")

#: Above this node count the dense ``expm`` propagator stops paying
#: (quadratic GEMV + cubic build); ``method="exponential"`` then
#: resolves to backward Euler. The paper grids are 257-385 nodes.
DENSE_PROPAGATOR_NODE_LIMIT = 1024


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
        """The cached SuperLU factorization of ``G`` (shared with the
        exponential transient solver, which needs the same solve)."""
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


class TransientSolver:
    """Fixed-step integrator with cached factorizations/propagator.

    Parameters
    ----------
    network:
        The assembled RC network.
    dt:
        External step size in seconds (one sampling interval).
    substeps:
        Internal subdivisions of ``dt`` for the implicit methods. The
        default of 2 resolves the fast silicon dynamics well enough for
        100 ms sampling (validated against Crank-Nicolson in the test
        suite). Ignored by the exponential method, which is exact.
    method:
        ``"exponential"``, ``"backward_euler"`` or ``"crank_nicolson"``.
    steady_lu:
        Optional pre-computed SuperLU factorization of ``G`` (e.g. from
        a :class:`SteadyStateSolver` on the same network); the
        exponential method reuses it instead of refactorizing.
    dense_node_limit:
        Node count above which ``"exponential"`` falls back to backward
        Euler (the dense propagator would not pay). ``resolved_method``
        reports what actually runs.
    """

    def __init__(
        self,
        network: ThermalNetwork,
        dt: float,
        substeps: int = 2,
        method: str = "backward_euler",
        steady_lu=None,
        dense_node_limit: int = DENSE_PROPAGATOR_NODE_LIMIT,
    ) -> None:
        if dt <= 0.0:
            raise ThermalModelError(f"dt must be positive, got {dt}")
        if substeps < 1:
            raise ThermalModelError(f"substeps must be >= 1, got {substeps}")
        if method not in SOLVER_METHODS:
            raise ThermalModelError(
                f"unknown method {method!r}; expected one of {SOLVER_METHODS}"
            )
        self.network = network
        self.dt = float(dt)
        self.substeps = int(substeps)
        self.method = method
        resolved = method
        if method == "exponential" and network.n_nodes > dense_node_limit:
            resolved = "backward_euler"
        self.resolved_method = resolved

        self._propagator: Optional[np.ndarray] = None
        self._steady_lu = None
        self._explicit: Optional[sparse.csc_matrix] = None
        self._c_over_h: Optional[np.ndarray] = None
        self._lu = None
        if resolved == "exponential":
            self._propagator = build_propagator(network, self.dt)
            self._steady_lu = steady_lu if steady_lu is not None else splu(
                network.conductance
            )
        else:
            self._c_over_h = network.capacitance / (self.dt / self.substeps)
            if resolved == "crank_nicolson":
                self._explicit = (
                    sparse.diags(self._c_over_h) - 0.5 * network.conductance
                ).tocsc()
            self._lu = splu(self._implicit_lhs())

    def _implicit_lhs(self) -> sparse.csc_matrix:
        """The matrix the implicit methods factorize once per solver."""
        c_over_h = sparse.diags(self._c_over_h)
        if self.resolved_method == "backward_euler":
            return (c_over_h + self.network.conductance).tocsc()
        return (c_over_h + 0.5 * self.network.conductance).tocsc()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_steady_lu"] = state["_lu"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self.resolved_method == "exponential":
            self._steady_lu = splu(self.network.conductance)
        else:
            self._lu = splu(self._implicit_lhs())

    @property
    def propagator(self) -> Optional[np.ndarray]:
        """Dense interval propagator (exponential method only)."""
        return self._propagator

    def step(self, temps: np.ndarray, node_powers: np.ndarray) -> np.ndarray:
        """Advance one external step ``dt`` under constant power.

        Parameters
        ----------
        temps:
            Node temperatures (K) at the start of the step.
        node_powers:
            Node power injection (W), held constant over the step.

        Returns
        -------
        numpy.ndarray
            Node temperatures at the end of the step (new array).
        """
        net = self.network
        if temps.shape != (net.n_nodes,):
            raise ThermalModelError(
                f"expected {net.n_nodes} temperatures, got {temps.shape}"
            )
        if node_powers.shape != (net.n_nodes,):
            raise ThermalModelError(
                f"expected {net.n_nodes} node powers, got {node_powers.shape}"
            )
        source = node_powers + net.ambient_conductance * net.ambient_k
        if self.resolved_method == "exponential":
            t_inf = self._steady_lu.solve(source)
            return t_inf + self._propagator @ (temps - t_inf)
        current = temps
        for _ in range(self.substeps):
            if self.resolved_method == "backward_euler":
                rhs = self._c_over_h * current + source
            else:
                rhs = self._explicit @ current + source
            current = self._lu.solve(rhs)
        return current

    def step_matrix(
        self,
        temps_block: np.ndarray,
        node_powers_block: np.ndarray,
        column_exact: bool = False,
    ) -> np.ndarray:
        """Advance R runs one step from a ``(n_nodes, R)`` state matrix.

        The batched twin of :meth:`step`: column ``r`` holds run ``r``'s
        node temperatures/powers, and the whole batch advances through
        shared factorizations. The implicit methods are bit-identical to
        per-column :meth:`step` calls by construction (SuperLU's
        multi-RHS triangular solves and sparse matmat process columns
        independently). The exponential method applies the propagator as
        one GEMM ``A @ T`` over the state matrix; BLAS GEMM kernels
        accumulate differently from the single-column GEMV, so columns
        deviate from serial :meth:`step` results at the last-ulp level
        (~1e-13 K). Pass ``column_exact=True`` to apply the propagator
        column-by-column with the same GEMV the serial path uses, which
        restores bitwise equality at ~3x the propagation cost.
        """
        net = self.network
        if temps_block.ndim != 2 or temps_block.shape[0] != net.n_nodes:
            raise ThermalModelError(
                f"expected ({net.n_nodes}, R) temperature block, "
                f"got {temps_block.shape}"
            )
        if node_powers_block.shape != temps_block.shape:
            raise ThermalModelError(
                f"node power block {node_powers_block.shape} does not match "
                f"temperature block {temps_block.shape}"
            )
        source = (
            node_powers_block
            + (net.ambient_conductance * net.ambient_k)[:, None]
        )
        if self.resolved_method == "exponential":
            t_inf = self._steady_lu.solve(source)
            deviation = temps_block - t_inf
            if column_exact:
                out = np.empty_like(temps_block)
                for r in range(temps_block.shape[1]):
                    out[:, r] = self._propagator @ deviation[:, r]
            else:
                out = self._propagator @ deviation
            out += t_inf
            return out
        current = temps_block
        for _ in range(self.substeps):
            if self.resolved_method == "backward_euler":
                rhs = self._c_over_h[:, None] * current + source
            else:
                rhs = self._explicit @ current + source
            current = self._lu.solve(rhs)
        return current
