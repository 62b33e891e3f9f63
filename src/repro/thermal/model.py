"""The :class:`ThermalModel` facade used by the simulation engine.

Wires together stack assembly, grid mapping, and the solvers, and exposes
the operations the runtime needs:

- ``set`` per-unit powers and ``step(dt)`` the transient solution,
- read back per-unit / per-core temperatures (area-weighted mean by
  default, per-cell max available),
- per-layer hottest/coolest spread for the spatial-gradient metric,
- steady-state initialization (the paper initializes HotSpot with steady
  state temperatures).

Power injection is one sparse matvec: a precomputed
(n_nodes x n_units) cell-weight projection expands a per-unit power
vector onto the grid nodes, so the 100 ms tick loop never touches
per-die dicts (:meth:`ThermalModel.step_vector`).

Temperature readback is flat as well: the per-die mapper weights are
stacked once into a global (n_units x n_nodes) dense weight matrix and
a global max-cell gather, so the two per-tick readbacks
(:meth:`unit_temperature_vector`, :meth:`unit_max_vector`) are a single
GEMV / ``maximum.reduceat`` over the node state with no per-die
splitting or concatenation.

The thermal step is the exact one: power is held constant across each
sampling interval, and ``T' = T_inf + A (T - T_inf)`` with the
interval propagator ``A = expm(-C^-1 G dt)`` solves the RC network
exactly over it (:mod:`repro.thermal.solver`). Eager runs apply it
densely, one run at a time (:meth:`ThermalModel.step_vector`); event
runs step the same propagator in its truncated eigenbasis
(:class:`ModalJump`), and a batch of event runs steps its lanes'
steppers as one block (:meth:`ModalJump.advance_rows`).

The expensive immutable parts of a model — stack, RC network, the
steady-state factorization, the propagator, grid mappers, the
projection, and the readback index — live in a :class:`ThermalAssembly`
that can be shared between ThermalModel instances of the same
configuration. A campaign builds one assembly per (experiment, grid)
stack in its driver and shares it with every pool worker, so runs skip
``build_network``, the LU factorization, the propagator's ``expm`` and
the modal eigendecomposition; only the temperature state vector is
per-instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.errors import ThermalModelError
from repro.floorplan.experiments import ExperimentConfig
from repro.floorplan.unit import UnitKind
from repro.thermal.grid import GridMapper
from repro.thermal.materials import AMBIENT_K
from repro.thermal.network import ThermalNetwork, build_network
from repro.thermal.solver import SteadyStateSolver, build_propagator
from repro.thermal.stack import Stack3D, build_stack

DEFAULT_GRID_ROWS = 8
DEFAULT_GRID_COLS = 8

#: Eigenvalue magnitude below which a propagator mode is dropped from
#: the modal step basis. A mode at the threshold contributes less than
#: ``|deviation| * 1e-12`` kelvin after a single tick — RC grids shed
#: most of their spectrum this way (the paper stacks keep ~100 of 385
#: modes), which is what makes the reduced step cheap.
MODAL_DROP_TOL = 1e-12

#: Ceiling on ``max|A - V diag(rho) W|`` against the dense propagator
#: for accepting the truncated eigenbasis. The basis assumes ``A`` is
#: similar to a symmetric matrix (diagonal ``C``, symmetric ``G``). A
#: propagator that is not, to this precision, reconstructs badly, and
#: the assembly refuses the basis with a ``ThermalModelError``. Every
#: paper stack reconstructs to <= 1.7e-13 at every grid from 2x2 to
#: 12x12, and EXP-4 up to 26x26.
MODAL_BASIS_ERR_MAX = 1e-9


@dataclass
class ReadbackIndex:
    """Global node-to-unit readback gathers shared by both readbacks.

    ``mean_weights @ temps`` is the per-unit area-weighted mean row and
    ``maximum.reduceat(temps[max_node_idx], max_offsets)`` the per-unit
    max row (scattered through ``max_scatter``), both in the global
    die-major ``unit_names`` order — one precomputed index, no per-die
    slicing or concatenation on the tick path. ``mean_weights`` is kept
    dense: at tens of units x a few hundred nodes, one BLAS GEMV beats
    scipy's sparse-matvec fixed overhead.
    """

    mean_weights: np.ndarray
    max_node_idx: np.ndarray
    max_offsets: np.ndarray
    max_scatter: np.ndarray
    n_units: int


@dataclass(frozen=True)
class UnitLayout:
    """Where each unit and core sits in the vectors of one stack.

    ``unit_index`` maps every unit name to its position in the
    die-major ``unit_names`` order (each die's units in its mapper's
    order), and ``unit_die`` to its die ordinal; ``core_names`` lists
    the core units in that order and ``core_cols`` their positions.
    Each die's units are the contiguous ``die_slices`` run, starting at
    ``die_starts``. The thermal model's lookups, the sensors' core
    gather and the engine's recording all read this one layout, built
    once per :class:`ThermalAssembly`.
    """

    unit_index: Dict[str, int]
    unit_die: Dict[str, int]
    core_names: Tuple[str, ...]
    core_cols: np.ndarray
    die_slices: Tuple[slice, ...]
    die_starts: np.ndarray


@dataclass
class ThermalAssembly:
    """The immutable, shareable parts of one thermal configuration.

    Everything here is a pure function of (stack, grid, sampling
    interval): the RC network, the steady-state factorization, the
    interval propagator, the per-die grid mappers, and the node-power
    projection. None of it holds simulation state, so one assembly can
    back any number of :class:`ThermalModel` instances — sequentially
    or concurrently — as long as they were built for the same stack.

    An assembly pickles with everything built so far, including the
    propagator, the exact step's gains and the modal basis; only the
    steady-state SuperLU factorization is recomputed on load (see
    :mod:`repro.thermal.solver`), so runs on an unpickled copy are
    bit-identical to runs on the original.

    Two things beside them are per stack too: the :class:`UnitLayout`
    (``layout``) every model, sensor bank and recording on the stack
    reads, and ``warm_starts``, the memo of steady-state warm starts by
    load that the engine fills (one node vector per distinct load).
    """

    stack: Stack3D
    network: ThermalNetwork
    steady: SteadyStateSolver
    propagator: np.ndarray
    mappers: List[GridMapper]
    die_stack_indices: List[int]
    sampling_interval: float
    node_projection: sparse.csr_matrix
    readback: ReadbackIndex

    def __post_init__(self) -> None:
        # The exact step's operands (see exponential_step), the
        # truncated eigenbasis of the propagator (see modal_step_basis)
        # and the modal stepper's packed operands (see modal_pack),
        # each built on first use.
        self._exponential_step: Optional[
            Tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = None
        self._modal_basis: Optional[Dict[str, np.ndarray]] = None
        self._modal_pack: Optional[Dict[str, np.ndarray]] = None
        self.layout = _build_layout(self.mappers)
        # Node temperatures keyed by every input of the load that
        # produced them (the engine's _initialize_thermal_state builds
        # the key); runs copy theirs out.
        self.warm_starts: Dict[tuple, np.ndarray] = {}

    def exponential_step(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(propagator, steady_gain, ambient_vec)`` of the exact step.

        ``T_inf = steady_gain @ unit_power_vec + ambient_vec`` followed by
        ``T' = T_inf + propagator @ (T - T_inf)`` advances one sampling
        interval with no per-tick triangular solve: ``steady_gain`` is
        the dense ``G^-1 @ node_projection`` (n_nodes x n_units),
        computed once per assembly.
        """
        if self._exponential_step is None:
            lu = self.steady.lu
            gain = lu.solve(np.asarray(self.node_projection.todense()))
            ambient = lu.solve(
                self.network.ambient_conductance * self.network.ambient_k
            )
            self._exponential_step = (self.propagator, gain, ambient)
        return self._exponential_step

    def modal_step_basis(self) -> Dict[str, np.ndarray]:
        """Truncated eigenbasis of the propagator for reduced stepping.

        Diagonalizes the one-interval propagator ``A = V diag(rho) W``
        and keeps only the modes with ``|rho| > MODAL_DROP_TOL`` — a
        dropped mode's content decays below double precision within a
        single tick, so the truncation is exact to working precision.
        The RC grids shed roughly three quarters of their spectrum this
        way, which turns the n x n state advance into a handful of
        m-vector operations (m = kept modes).

        ``C dT/dt = -G T + P`` has a diagonal positive ``C`` and a
        symmetric ``G``, so ``A = expm(-C^-1 G dt)`` is similar to the
        symmetric ``S = C^1/2 A C^-1/2``. One symmetric
        eigendecomposition ``(S + S^T)/2 = U diag(rho) U^T`` then gives
        real eigenvalues and ``V = C^-1/2 U``, ``W = U^T C^1/2 = V^-1``
        with no inverse. The propagator is decomposed, not
        ``C^-1/2 G C^-1/2``: exponentiating the conductance-side
        eigenvalues reconstructs ``A`` an order of magnitude less
        accurately (~5e-13 against ~3e-14).

        Returns the cached basis dict, built once per assembly and
        shared by every run on it. Raises :class:`ThermalModelError`
        when the reconstruction error ``max|A - V diag(rho) W|`` against
        the dense propagator exceeds :data:`MODAL_BASIS_ERR_MAX`.

        Basis keys: ``rho`` (m,), ``V`` (n x m), ``W`` (m x n), the
        mean readback projection ``mean_v = mean_weights @ V``, the
        power-to-steady-point projections ``w_gain = W @ gain`` and
        ``mean_gain = mean_weights @ gain`` used for exact in-jump
        power repricing, and the reconstruction error ``err``.
        """
        if self._modal_basis is not None:
            return self._modal_basis
        propagator, gain, _ambient = self.exponential_step()
        root_c = np.sqrt(self.network.capacitance)
        scaled = root_c[:, None] * propagator / root_c
        lam, u_full = np.linalg.eigh(0.5 * (scaled + scaled.T))
        keep = np.abs(lam) > MODAL_DROP_TOL
        order = np.argsort(-np.abs(lam[keep]))
        rho = np.ascontiguousarray(lam[keep][order])
        u_mat = u_full[:, keep][:, order]
        v_mat = np.ascontiguousarray(u_mat / root_c[:, None])
        w_mat = np.ascontiguousarray(u_mat.T * root_c)
        err = float(np.abs(propagator - (v_mat * rho) @ w_mat).max())
        if err > MODAL_BASIS_ERR_MAX:
            net = self.network
            raise ThermalModelError(
                f"the modal basis of the {net.nrows}x{net.ncols} grid on "
                f"{len(self.stack.layers)} slabs ({net.n_nodes} nodes) "
                f"reconstructs the propagator to {err:.3g}, above "
                f"MODAL_BASIS_ERR_MAX = {MODAL_BASIS_ERR_MAX:g}"
            )
        rb = self.readback
        self._modal_basis = {
            "rho": rho,
            "V": v_mat,
            "W": w_mat,
            "mean_v": np.ascontiguousarray(rb.mean_weights @ v_mat),
            "w_gain": np.ascontiguousarray(w_mat @ gain),
            "mean_gain": np.ascontiguousarray(rb.mean_weights @ gain),
            "err": np.array(err),
        }
        return self._modal_basis

    def modal_pack(self) -> Dict[str, np.ndarray]:
        """The modal basis stacked into the stepper's two per-tick GEMV
        operands.

        ``reprice`` maps a unit-power delta onto the packed state
        ``z = [w, r_mean, r_max]`` in one GEMV (sign-folded: ``w``
        moves against the steady point, the readback projections with
        it); ``readout`` maps the decayed modal coordinates onto the
        mean row and the core max-gather values in one GEMV. The max
        gather keeps only the segments of core units — the per-tick
        peak consumers are all per-core. Built once per assembly and
        shared, read-only, by every :class:`ModalJump` on it: the lanes
        of a batch cycle through one set of operands instead of one
        copy each.
        """
        if self._modal_pack is not None:
            return self._modal_pack
        basis = self.modal_step_basis()
        _propagator, gain, ambient = self.exponential_step()
        rb = self.readback
        core_units = np.zeros(rb.n_units, dtype=bool)
        offset = 0
        for mapper in self.mappers:
            names = mapper.unit_names
            for unit in mapper.floorplan.cores():
                core_units[offset + names.index(unit.name)] = True
            offset += len(names)
        bounds = np.append(rb.max_offsets, rb.max_node_idx.size)
        node_idx_parts: List[np.ndarray] = []
        lengths: List[int] = []
        scatter: List[int] = []
        for j in range(rb.max_scatter.size):
            unit = int(rb.max_scatter[j])
            if not core_units[unit]:
                continue
            seg = rb.max_node_idx[bounds[j]:bounds[j + 1]]
            node_idx_parts.append(seg)
            lengths.append(seg.size)
            scatter.append(unit)
        if node_idx_parts:
            node_idx = np.concatenate(node_idx_parts)
            offsets = np.concatenate(
                ([0], np.cumsum(lengths[:-1]))
            ).astype(np.intp)
        else:
            node_idx = np.zeros(0, dtype=np.intp)
            offsets = np.zeros(0, dtype=np.intp)
        reprice = np.vstack([
            basis["w_gain"],
            -basis["mean_gain"],
            -gain[node_idx],
        ])
        readout = np.vstack([basis["mean_v"], basis["V"][node_idx]])
        self._modal_pack = {
            "rho": basis["rho"],
            "V": basis["V"],
            "W": basis["W"],
            "gain": gain,
            "ambient": ambient,
            "mean_weights": rb.mean_weights,
            "reprice": np.ascontiguousarray(reprice),
            "readout": np.ascontiguousarray(readout),
            "node_idx": node_idx,
            "offsets": offsets,
            "scatter": np.asarray(scatter, dtype=np.intp),
            "n_units": np.intp(rb.n_units),
        }
        return self._modal_pack


class ThermalModel:
    """Transient 3D thermal model of one experiment configuration.

    Parameters
    ----------
    config:
        The EXP-1..4 configuration (floorplans + Table II parameters).
    nrows, ncols:
        Thermal grid resolution per slab.
    ambient_k:
        Ambient temperature in kelvin (HotSpot default 45 C).
    sampling_interval:
        Step size in seconds (the paper samples at 100 ms); the
        propagator spans exactly one interval.
    stack:
        Optional pre-built stack (overrides ``config``-derived assembly);
        used by ablation studies that perturb package parameters.
    assembly:
        Optional pre-built :class:`ThermalAssembly` from an earlier
        model of the *same* configuration; skips network assembly, the
        factorization and the propagator build. The grid, ambient and
        sampling interval must match; the stack is trusted to match
        (callers key their caches accordingly).
    """

    def __init__(
        self,
        config: ExperimentConfig,
        nrows: int = DEFAULT_GRID_ROWS,
        ncols: int = DEFAULT_GRID_COLS,
        ambient_k: float = AMBIENT_K,
        sampling_interval: float = 0.1,
        stack: Optional[Stack3D] = None,
        assembly: Optional[ThermalAssembly] = None,
    ) -> None:
        if not sampling_interval > 0.0:
            raise ThermalModelError(
                f"sampling interval must be positive, got {sampling_interval}"
            )
        self.config = config
        if assembly is not None:
            if stack is not None and stack is not assembly.stack:
                raise ThermalModelError(
                    "pass either a stack or a pre-built assembly, not "
                    "both: the assembly's network/factorizations were "
                    "built from its own stack and would silently ignore "
                    "the explicit one"
                )
            self._check_assembly(
                assembly, nrows, ncols, ambient_k, sampling_interval
            )
            self.assembly = assembly
        else:
            built_stack = stack if stack is not None else build_stack(config)
            network = build_network(built_stack, nrows, ncols, ambient_k)
            mappers: List[GridMapper] = []
            die_stack_indices: List[int] = []
            for stack_index, layer in built_stack.die_layers():
                mappers.append(GridMapper(layer.floorplan, nrows, ncols))
                die_stack_indices.append(stack_index)
            self.assembly = ThermalAssembly(
                stack=built_stack,
                network=network,
                steady=SteadyStateSolver(network),
                propagator=build_propagator(network, sampling_interval),
                mappers=mappers,
                die_stack_indices=die_stack_indices,
                sampling_interval=float(sampling_interval),
                node_projection=_build_node_projection(
                    network, mappers, die_stack_indices
                ),
                readback=_build_readback(network, mappers, die_stack_indices),
            )
        self.stack = self.assembly.stack
        self.network = self.assembly.network
        self.sampling_interval = self.assembly.sampling_interval
        self._steady = self.assembly.steady
        self._mappers = self.assembly.mappers
        self._die_stack_indices = self.assembly.die_stack_indices
        self._projection = self.assembly.node_projection
        self._readback = self.assembly.readback
        self._exp_step = self.assembly.exponential_step()

        self.layout = self.assembly.layout
        self.temperatures = np.full(self.network.n_nodes, ambient_k)

    @staticmethod
    def _check_assembly(
        assembly: ThermalAssembly,
        nrows: int,
        ncols: int,
        ambient_k: float,
        sampling_interval: float,
    ) -> None:
        network = assembly.network
        if (network.nrows, network.ncols) != (nrows, ncols):
            raise ThermalModelError(
                f"assembly grid {network.nrows}x{network.ncols} does not "
                f"match requested {nrows}x{ncols}"
            )
        if network.ambient_k != ambient_k:
            raise ThermalModelError(
                f"assembly ambient {network.ambient_k} K does not match "
                f"requested {ambient_k} K"
            )
        if assembly.sampling_interval != float(sampling_interval):
            raise ThermalModelError(
                f"assembly sampling interval {assembly.sampling_interval} s "
                f"does not match requested {sampling_interval} s"
            )

    # ------------------------------------------------------------------
    # introspection

    @property
    def n_dies(self) -> int:
        """Number of silicon tiers."""
        return len(self._mappers)

    @property
    def unit_names(self) -> List[str]:
        """All unit names across all dies."""
        return list(self.layout.unit_die)

    @property
    def core_names(self) -> List[str]:
        """Core unit names in canonical (layer-major) order."""
        return list(self.layout.core_names)

    @property
    def ambient_k(self) -> float:
        """Ambient temperature in kelvin."""
        return self.network.ambient_k

    def die_mapper(self, die_ordinal: int) -> GridMapper:
        """The grid mapper of die ``die_ordinal`` (0 = nearest the sink)."""
        return self._mappers[die_ordinal]

    def unit_area(self, name: str) -> float:
        """Area (m²) of a named unit."""
        die = self._require_die(name)
        return self._mappers[die].floorplan[name].area

    def unit_kind(self, name: str) -> UnitKind:
        """Functional kind of a named unit."""
        die = self._require_die(name)
        return self._mappers[die].floorplan[name].kind

    def _require_die(self, name: str) -> int:
        try:
            return self.layout.unit_die[name]
        except KeyError:
            raise ThermalModelError(f"unknown unit {name!r}") from None

    # ------------------------------------------------------------------
    # power handling

    def pack_powers(self, powers: Dict[str, float]) -> np.ndarray:
        """Pack a per-unit power dict into ``unit_names`` order.

        Unknown unit names raise; units omitted from the dict get 0 W.
        """
        index = self.layout.unit_index
        vec = np.zeros(len(index))
        for name, power in powers.items():
            try:
                vec[index[name]] = power
            except KeyError:
                raise ThermalModelError(f"unknown unit {name!r}") from None
        return vec

    def node_powers(self, powers: Dict[str, float]) -> np.ndarray:
        """Expand a per-unit power dict (W) to the node power vector."""
        return self.node_powers_from_vector(self.pack_powers(powers))

    def node_powers_from_vector(self, unit_power_vec: np.ndarray) -> np.ndarray:
        """Expand a ``unit_names``-ordered power vector onto the nodes.

        One sparse matvec against the precomputed cell-weight
        projection — this is the hot-path power injection.
        """
        if unit_power_vec.shape != (self._projection.shape[1],):
            raise ThermalModelError(
                f"expected power vector of length {self._projection.shape[1]}"
            )
        return self._projection @ unit_power_vec

    # ------------------------------------------------------------------
    # simulation

    def initialize_steady_state(self, powers: Dict[str, float]) -> None:
        """Set the state to the equilibrium for the given powers."""
        self.temperatures = self._steady.solve(self.node_powers(powers))

    def reset(self, temperature_k: Optional[float] = None) -> None:
        """Reset every node to a uniform temperature (ambient by default)."""
        value = self.ambient_k if temperature_k is None else temperature_k
        self.temperatures = np.full(self.network.n_nodes, value)

    def step(self, powers: Dict[str, float]) -> None:
        """Advance one sampling interval under the given constant powers."""
        self.step_vector(self.pack_powers(powers))

    def step_vector(self, unit_power_vec: np.ndarray) -> None:
        """Advance one sampling interval from a ``unit_names``-ordered
        power vector (the dict-free hot path).

        The exact step as three GEMVs against precomputed matrices — no
        triangular solve on the tick path.
        """
        if unit_power_vec.shape != (self._projection.shape[1],):
            raise ThermalModelError(
                f"expected power vector of length {self._projection.shape[1]}"
            )
        propagator, gain, ambient = self._exp_step
        t_inf = gain @ unit_power_vec
        t_inf += ambient
        deviation = self.temperatures
        deviation = deviation - t_inf
        step = propagator @ deviation
        step += t_inf
        self.temperatures = step

    def modal_jump(self) -> "ModalJump":
        """Open a reduced-order per-tick stepper on the assembly's modal
        basis (built on first use; a basis above
        :data:`MODAL_BASIS_ERR_MAX` raises :class:`ThermalModelError`).

        Power may change every tick (the leakage feedback loop keeps
        running): each :meth:`ModalJump.advance` reprices the steady
        point exactly and advances the deviation in the truncated
        eigenbasis. :meth:`ModalJump.close` writes the full node state
        back to the model.
        """
        return ModalJump(self, self.assembly.modal_pack())

    def steady_state(self, powers: Dict[str, float]) -> Dict[str, float]:
        """Equilibrium per-unit temperatures without changing the state."""
        temps = self._steady.solve(self.node_powers(powers))
        return self._unit_temps_from(temps)

    # ------------------------------------------------------------------
    # readback

    def _die_cell_temps(self, die_ordinal: int, temps: np.ndarray) -> np.ndarray:
        stack_index = self._die_stack_indices[die_ordinal]
        return self.network.layer_temperatures(temps, stack_index)

    def _mean_vector_from(self, temps: np.ndarray) -> np.ndarray:
        return self._readback.mean_weights @ temps

    def _unit_temps_from(self, temps: np.ndarray) -> Dict[str, float]:
        vector = self._mean_vector_from(temps)
        return {name: float(vector[i]) for i, name in enumerate(self.layout.unit_die)}

    def unit_temperatures(self) -> Dict[str, float]:
        """Current area-weighted mean temperature (K) of every unit."""
        return self._unit_temps_from(self.temperatures)

    def unit_max_temperatures(self) -> Dict[str, float]:
        """Current max cell temperature (K) over each unit."""
        vector = self.unit_max_vector()
        return {name: float(vector[i]) for i, name in enumerate(self.layout.unit_die)}

    def die_unit_slices(self) -> List[slice]:
        """Per-die contiguous slices into the ``unit_names`` order.

        Lets hot-path consumers (the engine's per-tick recording) take
        per-layer aggregates of :meth:`unit_temperature_vector` without
        rebuilding name dicts.
        """
        return list(self.layout.die_slices)

    def unit_temperature_vector(self) -> np.ndarray:
        """Current per-unit mean temperatures (K), ``unit_names`` order.

        One dense GEMV against the precomputed global readback weights
        (no per-die splitting/concatenation).
        """
        return self._mean_vector_from(self.temperatures)

    def unit_max_vector(self) -> np.ndarray:
        """Current per-unit max temperatures (K), ``unit_names`` order.

        One gather + ``maximum.reduceat`` over the precomputed global
        max-cell node index.
        """
        rb = self._readback
        out = np.full(rb.n_units, np.nan)
        if rb.max_node_idx.size:
            out[rb.max_scatter] = np.maximum.reduceat(
                self.temperatures[rb.max_node_idx], rb.max_offsets
            )
        return out

    def core_temperatures(self) -> Dict[str, float]:
        """Current per-core temperatures (K), canonical order preserved."""
        all_units = self.unit_temperatures()
        return {name: all_units[name] for name in self.layout.core_names}

    def layer_unit_spread(self) -> List[float]:
        """Hottest-minus-coolest unit temperature per die layer (K).

        This is the quantity behind the paper's spatial-gradient metric
        (§V-C): per-layer difference between the hottest and coolest
        units, evaluated each sampling interval.
        """
        vector = self.unit_temperature_vector()
        return [
            float(vector[sl].max() - vector[sl].min())
            for sl in self.layout.die_slices
        ]

    def vertical_gradients(self) -> List[float]:
        """Max |T(die k) - T(die k+1)| per adjacent die pair (K).

        The paper reports these stay within a few degrees (§V-C).
        """
        grads: List[float] = []
        for die_ordinal in range(self.n_dies - 1):
            lower = self._die_cell_temps(die_ordinal, self.temperatures)
            upper = self._die_cell_temps(die_ordinal + 1, self.temperatures)
            grads.append(float(np.abs(lower - upper).max()))
        return grads

    def max_temperature(self) -> float:
        """Hottest grid-cell temperature across all dies (K)."""
        values = [
            self._die_cell_temps(d, self.temperatures).max()
            for d in range(self.n_dies)
        ]
        return float(max(values))


class ModalJump:
    """Persistent reduced-order stepper for the event lane.

    Holds the thermal state as one packed vector ``z = [w, r_mean,
    r_max]`` — modal coordinates of the deviation from steady state
    plus the mean/max readback projections of the running steady point
    — so a tick is four array operations: a steady-point repricing
    GEMV (exact in the kept subspace: a power delta ``dP`` moves
    ``T_inf`` by ``gain @ dP``, hence ``w`` by ``-(W gain) dP``), the
    modal decay ``w *= rho``, one readback GEMV, and a segment
    max-reduce. The max readback is restricted to core units: the only
    per-tick peak consumers (sensor reads and the ``core_peaks``
    recording plane) are per-core, so cache-unit gather rows would be
    dead work.

    The ordering matches :meth:`ThermalModel.step_vector` exactly —
    the steady point is repriced with the incoming tick's power before
    the decay, i.e. ``T_k = A (T_{k-1} - T_inf(P_k)) + T_inf(P_k)``.

    The model's node state goes stale after :meth:`open`.
    :meth:`close` rematerializes ``T = V w + gain P + ambient``; the
    engines close once, at the end of a run. Closing does not
    invalidate the modal coordinates, but reopening from the
    rematerialized node state would re-project it (a ~1e-13 K round
    trip). The returned readback rows are views into reused buffers,
    valid until the next :meth:`advance` — consumers must copy (the
    recording planes do) or finish reading first. The batched engine
    re-homes its event lanes' steppers onto shared ``(R, ·)`` blocks
    (:meth:`stack`) and steps them as one (:meth:`advance_rows`).
    Accuracy is bounded by the basis acceptance
    tolerance: dropped modes carry no content after one tick, and the
    rows track the dense trajectory to ~1e-12 K over hundreds of ticks
    (asserted in the differential harness).
    """

    def __init__(
        self, model: "ThermalModel", pack: Dict[str, np.ndarray]
    ) -> None:
        self._model = model
        self._rho = pack["rho"]
        self._v = pack["V"]
        self._w_mat = pack["W"]
        self._gain = pack["gain"]
        self._ambient = pack["ambient"]
        self._mean_weights = pack["mean_weights"]
        self._reprice = pack["reprice"]
        self._readout = pack["readout"]
        self._node_idx = pack["node_idx"]
        self._offsets = pack["offsets"]
        self._scatter = pack["scatter"]
        m = self._rho.size
        n_units = int(pack["n_units"])
        self._n_units = n_units
        ng = self._node_idx.size
        self._z = np.empty(m + n_units + ng)
        self._zw = self._z[:m]
        self._ztail = self._z[m:]
        self._gbuf = np.empty(m + n_units + ng)
        self._r = np.empty(n_units + ng)
        self._mean_row = self._r[:n_units]
        self._gathered = self._r[n_units:]
        self._peak_row = np.full(n_units, np.nan)
        self._dp = np.empty(n_units)
        self._p = np.empty(n_units)

    def open(self, unit_power_vec: np.ndarray) -> None:
        """Project the model's node state into modal coordinates at
        the steady point of ``unit_power_vec`` (the next tick's
        power)."""
        t_inf = self._gain @ unit_power_vec
        t_inf += self._ambient
        deviation = self._model.temperatures - t_inf
        m = self._rho.size
        n_units = self._n_units
        np.dot(self._w_mat, deviation, out=self._zw)
        np.dot(self._mean_weights, t_inf, out=self._z[m:m + n_units])
        self._z[m + n_units:] = t_inf[self._node_idx]
        self._p[:] = unit_power_vec

    def advance(
        self, unit_power_vec: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Advance one tick under ``unit_power_vec``; returns the
        per-unit ``(mean_row, max_row)`` readback row views (max is
        NaN outside core units)."""
        np.subtract(unit_power_vec, self._p, out=self._dp)
        np.dot(self._reprice, self._dp, out=self._gbuf)
        self._z -= self._gbuf
        self._p[:] = unit_power_vec
        zw = self._zw
        zw *= self._rho
        r = self._r
        np.dot(self._readout, zw, out=r)
        r += self._ztail
        peak_row = self._peak_row
        if self._node_idx.size:
            peak_row[self._scatter] = np.maximum.reduceat(
                self._gathered, self._offsets
            )
        return self._mean_row, peak_row

    def close(self) -> None:
        """Rematerialize the full node state onto the model."""
        state = self._v @ self._zw
        state += self._gain @ self._p
        state += self._ambient
        self._model.temperatures = state

    # -- R steppers on one set of (R, ·) blocks (batched event lanes) --

    @staticmethod
    def stack(modals: Sequence["ModalJump"]) -> Dict[str, np.ndarray]:
        """Re-home R steppers on one pack onto rows of shared blocks.

        The batched engine's ``_adopt_core_rows`` idiom: each stepper's
        state (``z``, ``p``, the readback buffer ``r``) and scratch
        (``g``, ``dp``) become row views of ``(R, ·)`` blocks, values
        copied over, so :meth:`advance_rows` runs every elementwise op
        once per batch while :meth:`open`, :meth:`advance` and
        :meth:`close` keep working per stepper. Returns the blocks plus
        the batch readback views ``mean`` (``(R, n_units)``) and
        ``peak`` (its own ``(R, n_units)`` block, NaN outside core
        units).
        """
        head = modals[0]
        runs = len(modals)
        m = head._rho.size
        n_units = head._n_units
        z = np.empty((runs, head._z.size))
        g = np.empty_like(z)
        p = np.empty((runs, n_units))
        dp = np.empty_like(p)
        r = np.empty((runs, head._r.size))
        for i, modal in enumerate(modals):
            z[i] = modal._z
            p[i] = modal._p
            r[i] = modal._r
            modal._z = z[i]
            modal._zw = z[i, :m]
            modal._ztail = z[i, m:]
            modal._gbuf = g[i]
            modal._p = p[i]
            modal._dp = dp[i]
            modal._r = r[i]
            modal._mean_row = r[i, :n_units]
            modal._gathered = r[i, n_units:]
        return {
            "z": z,
            "zw": z[:, :m],
            "ztail": z[:, m:],
            "g": g,
            "p": p,
            "dp": dp,
            "r": r,
            "mean": r[:, :n_units],
            "gathered": r[:, n_units:],
            "peak": np.full((runs, n_units), np.nan),
        }

    @staticmethod
    def advance_rows(
        modals: Sequence["ModalJump"],
        blocks: Dict[str, np.ndarray],
        power_rows: np.ndarray,
    ) -> None:
        """:meth:`advance` for the R steppers :meth:`stack` re-homed
        onto ``blocks``, row ``i`` under ``power_rows[i]``.

        Every elementwise op and the peak segment max run once over the
        blocks; the two GEMVs run once per stepper on its contiguous
        1-D rows, the operands serial event passes, so each row keeps
        the bits of its stepper's own :meth:`advance`. The readback
        lands in ``blocks["mean"]`` and ``blocks["peak"]``.
        """
        head = modals[0]
        np.subtract(power_rows, blocks["p"], out=blocks["dp"])
        reprice = head._reprice
        for modal in modals:
            np.dot(reprice, modal._dp, out=modal._gbuf)
        blocks["z"] -= blocks["g"]
        blocks["p"][:] = power_rows
        blocks["zw"] *= head._rho
        readout = head._readout
        for modal in modals:
            np.dot(readout, modal._zw, out=modal._r)
        blocks["r"] += blocks["ztail"]
        if head._node_idx.size:
            blocks["peak"][:, head._scatter] = np.maximum.reduceat(
                blocks["gathered"], head._offsets, axis=1
            )


def _build_layout(mappers: List[GridMapper]) -> UnitLayout:
    """The :class:`UnitLayout` of dies ``mappers`` (sink first).

    Unit names must be unique across dies (the experiment configs
    prefix each die's names); a repeat raises
    :class:`ThermalModelError`.
    """
    unit_index: Dict[str, int] = {}
    unit_die: Dict[str, int] = {}
    core_names: List[str] = []
    die_slices: List[slice] = []
    for die_ordinal, mapper in enumerate(mappers):
        start = len(unit_index)
        for name in mapper.unit_names:
            if name in unit_index:
                raise ThermalModelError(
                    f"unit name {name!r} appears on multiple dies"
                )
            unit_index[name] = len(unit_index)
            unit_die[name] = die_ordinal
        core_names.extend(unit.name for unit in mapper.floorplan.cores())
        die_slices.append(slice(start, len(unit_index)))
    core_cols = np.array([unit_index[name] for name in core_names], np.intp)
    die_starts = np.array([sl.start for sl in die_slices], np.intp)
    # Every run on the stack shares these arrays.
    core_cols.flags.writeable = False
    die_starts.flags.writeable = False
    return UnitLayout(
        unit_index=unit_index,
        unit_die=unit_die,
        core_names=tuple(core_names),
        core_cols=core_cols,
        die_slices=tuple(die_slices),
        die_starts=die_starts,
    )


def _build_node_projection(
    network: ThermalNetwork,
    mappers: List[GridMapper],
    die_stack_indices: List[int],
) -> sparse.csr_matrix:
    """Sparse (n_nodes x n_units) matrix of per-cell power weights.

    Column ``u`` holds ``overlap(u, c) / area(u)`` at the node of each
    grid cell ``c`` on unit ``u``'s die, so ``projection @ unit_power_vec``
    is the node power vector.
    """
    rows: List[np.ndarray] = []
    cols: List[np.ndarray] = []
    vals: List[np.ndarray] = []
    unit_offset = 0
    for die_ordinal, mapper in enumerate(mappers):
        weights = mapper.power_weights  # (n_units_die, n_cells)
        unit_idx, cell_idx = np.nonzero(weights)
        node_start = network.layer_slice(die_stack_indices[die_ordinal]).start
        rows.append(node_start + cell_idx)
        cols.append(unit_offset + unit_idx)
        vals.append(weights[unit_idx, cell_idx])
        unit_offset += len(mapper.unit_names)
    return sparse.csr_matrix(
        (
            np.concatenate(vals) if vals else np.zeros(0),
            (
                np.concatenate(rows) if rows else np.zeros(0, dtype=np.intp),
                np.concatenate(cols) if cols else np.zeros(0, dtype=np.intp),
            ),
        ),
        shape=(network.n_nodes, unit_offset),
    )


def _build_readback(
    network: ThermalNetwork,
    mappers: List[GridMapper],
    die_stack_indices: List[int],
) -> ReadbackIndex:
    """Stack the per-die mapper readbacks into one global node index.

    The mean readback becomes a (n_units x n_nodes) dense GEMV and the
    max readback one gather + segment reduce, both shared by every
    tick of every run on the assembly.
    """
    rows: List[np.ndarray] = []
    cols: List[np.ndarray] = []
    vals: List[np.ndarray] = []
    max_idx: List[np.ndarray] = []
    max_offsets: List[np.ndarray] = []
    max_scatter: List[np.ndarray] = []
    unit_offset = 0
    gathered = 0
    for die_ordinal, mapper in enumerate(mappers):
        node_start = network.layer_slice(die_stack_indices[die_ordinal]).start
        weights = mapper.power_weights  # identical to the temp weights
        unit_idx, cell_idx = np.nonzero(weights)
        rows.append(unit_offset + unit_idx)
        cols.append(node_start + cell_idx)
        vals.append(weights[unit_idx, cell_idx])
        cell_i, offsets_i, scatter_i = mapper.max_readback_index()
        max_idx.append(node_start + cell_i)
        max_offsets.append(gathered + offsets_i)
        max_scatter.append(unit_offset + scatter_i)
        gathered += cell_i.size
        unit_offset += len(mapper.unit_names)
    mean = np.zeros((unit_offset, network.n_nodes))
    if rows:
        mean[np.concatenate(rows), np.concatenate(cols)] = np.concatenate(vals)
    return ReadbackIndex(
        mean_weights=mean,
        max_node_idx=(
            np.concatenate(max_idx) if max_idx else np.zeros(0, dtype=np.intp)
        ),
        max_offsets=(
            np.concatenate(max_offsets)
            if max_offsets
            else np.zeros(0, dtype=np.intp)
        ),
        max_scatter=(
            np.concatenate(max_scatter)
            if max_scatter
            else np.zeros(0, dtype=np.intp)
        ),
        n_units=unit_offset,
    )
