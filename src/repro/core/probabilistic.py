"""Shared machinery of the adaptive probabilistic allocators.

Implements the probability update of §III-B::

    P_t     = P_{t-1} + W
    W_diff  = T_pref - T_avg
    W       = beta_inc * W_diff / alpha_i    if T_pref >= T_avg
            = beta_dec * W_diff * alpha_i    otherwise

where ``T_avg`` is the mean over the core's temperature history window
(10 samples by default — 1 s at the paper's 100 ms sampling rate) and
``alpha_i`` in (0, 1) is the core's thermal index. After every update,
cores that exceeded the critical threshold in the last interval get
probability zero, negatives clamp to zero, and the vector normalizes to
sum 1.

Allocation draws from the probabilities with the on-chip LFSR. When
every probability is zero (all cores hot), the coolest core is used.

Adaptive-Random [Coskun DATE'07] and Adapt3D differ only in their
thermal indices: Adaptive-Random is layer-blind (all alphas equal),
Adapt3D uses the offline 3D steady-state indices.

The whole state lives in NumPy arrays laid out in ``core_names`` order
(probabilities, circular temperature-history buffer, alphas), so both
the per-tick update and the per-dispatch scoring are a handful of
vector expressions fed by the contexts' structure-of-arrays views
(the engine's own, or packed once when a context is built from
dicts), which must follow the system's core order.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.core.base import (
    AllocationContext,
    Policy,
    PolicyActions,
    SystemView,
    TickContext,
)
from repro.errors import PolicyError
from repro.power.states import STATE_CODE, CoreState
from repro.sched.lfsr import GaloisLFSR

# Paper §III-B constants.
BETA_INC = 0.01
BETA_DEC = 0.1
HISTORY_WINDOW = 10

_SLEEP_CODE = STATE_CODE[CoreState.SLEEP]


class ProbabilisticAllocator(Policy):
    """Base class for AdaptRand / Adapt3D probability-driven allocation.

    Parameters
    ----------
    beta_inc, beta_dec:
        Rate constants for probability increase/decrease.
    history_window:
        Number of temperature samples averaged into ``T_avg``.
    seed:
        LFSR seed for the allocation draws.
    """

    def __init__(
        self,
        beta_inc: float = BETA_INC,
        beta_dec: float = BETA_DEC,
        history_window: int = HISTORY_WINDOW,
        seed: int = 0xACE1,
    ) -> None:
        super().__init__()
        if beta_inc <= 0.0 or beta_dec <= 0.0:
            raise PolicyError("beta constants must be positive")
        if history_window < 1:
            raise PolicyError("history window must be >= 1")
        self.beta_inc = beta_inc
        self.beta_dec = beta_dec
        self.history_window = history_window
        self._lfsr = GaloisLFSR(seed)
        self._names: tuple = ()
        self._prob = np.zeros(0)
        #: Plain-list cache of ``_prob`` for the scalar scoring loop,
        #: rebuilt lazily after every probability update.
        self._prob_list = None
        self._alpha_arr = np.zeros(0)
        self._hist = np.zeros((0, history_window))
        self._hist_len = 0
        self._hist_pos = 0

    # -- subclass hook --------------------------------------------------

    def thermal_indices(self, system: SystemView) -> Mapping[str, float]:
        """Per-core alpha values; overridden by the concrete policies."""
        raise NotImplementedError

    # --------------------------------------------------------------

    def attach(self, system: SystemView) -> None:
        super().attach(system)
        self._alphas = dict(self.thermal_indices(system))
        missing = set(system.core_names) - set(self._alphas)
        if missing:
            raise PolicyError(f"{self.name}: missing thermal index for {sorted(missing)}")
        for alpha in self._alphas.values():
            if not 0.0 < alpha < 1.0:
                raise PolicyError(f"{self.name}: alpha must be in (0,1), got {alpha}")
        names = tuple(system.core_names)
        n = len(names)
        self._names = names
        self._alpha_arr = np.array([self._alphas[name] for name in names])
        self._prob = np.full(n, 1.0 / n)
        self._prob_list = None
        self._hist = np.zeros((n, self.history_window))
        self._hist_len = 0
        self._hist_pos = 0

    def _adopt_batch_rows(
        self, prob_row: np.ndarray, hist_row: np.ndarray
    ) -> None:
        """Re-home the probability/history state onto caller-owned rows.

        The batched multi-run engine stacks the R allocators of one
        history window into one ``(R, n)`` probability matrix and one
        ``(R, n, window)`` history block so the per-tick §III-B update
        runs once for them all; per-dispatch scoring keeps reading this
        policy's (now shared-storage) row. Mirrors the engine's
        ``_adopt_core_rows`` idiom.
        """
        prob_row[:] = self._prob
        hist_row[:] = self._hist
        self._prob = prob_row
        self._hist = hist_row
        self._prob_list = None

    @property
    def probabilities(self) -> Dict[str, float]:
        """Current normalized allocation probabilities (copy)."""
        return {
            name: float(p) for name, p in zip(self._names, self._prob)
        }

    # --------------------------------------------------------------

    def on_tick(self, ctx: TickContext) -> PolicyActions:
        system = self.system
        arrays = ctx.arrays
        if arrays.core_names != self._names:
            raise PolicyError(
                f"{self.name}: tick context cores are not in system order"
            )
        temps = arrays.temperature_k
        # Stashed so subclasses extending on_tick (Adapt3D's online
        # index estimator) reuse this tick's vector.
        self._last_tick_temps = temps
        self._hist[:, self._hist_pos] = temps
        self._hist_pos = (self._hist_pos + 1) % self.history_window
        if self._hist_len < self.history_window:
            self._hist_len += 1

        t_avg = self._hist[:, : self._hist_len].sum(axis=1) / self._hist_len
        w_diff = system.preferred_temperature_k - t_avg
        alpha = self._alpha_arr
        weight = np.where(
            w_diff >= 0.0,
            self.beta_inc * w_diff / alpha,
            self.beta_dec * w_diff * alpha,
        )
        prob = self._prob
        prob += weight
        prob[temps >= system.thermal_threshold_k] = 0.0
        np.maximum(prob, 0.0, out=prob)
        total = prob.sum()
        if total > 0.0:
            prob /= total
        self._prob_list = None  # scoring cache follows the update
        return PolicyActions()

    # --------------------------------------------------------------

    def select_core(self, job, ctx: AllocationContext) -> str:
        # Keep the load balanced: draw only among the least-loaded cores.
        # The paper's policy explicitly avoids overloading busy cores;
        # without this constraint the probability skew between layers
        # would pile jobs onto the cool tier and inflate response times,
        # contradicting the paper's "negligible performance overhead"
        # observation. Probability then decides *which* of the equally
        # idle cores heats up — the thermally meaningful choice.
        # Scoring runs on plain Python lists: at the paper's core counts
        # (<= 16) the fixed per-op overhead of NumPy expressions loses
        # to list comprehensions (measured ~2x faster than the
        # vectorized form at n=16), so the context's list views are
        # scored scalar.
        names = self._names
        if ctx.core_names != names:
            raise PolicyError(
                f"{self.name}: allocation context cores are not in system order"
            )
        queue_lengths = ctx.queue_lengths_list
        codes = ctx.state_codes_list
        shortest = min(queue_lengths)
        candidates = [
            i for i, length in enumerate(queue_lengths) if length == shortest
        ]
        # Respect DPM: don't cut a core's sleep short while an awake
        # core with an equally short queue exists (sleeping cores are
        # the coolest, so a pure probability draw would constantly wake
        # them and erase the power manager's savings).
        if _SLEEP_CODE in codes:
            awake = [i for i in candidates if codes[i] != _SLEEP_CODE]
            if awake:
                candidates = awake
        probs = self._prob_list
        if probs is None:
            probs = self._prob_list = self._prob.tolist()
        weights = [probs[i] for i in candidates]
        total = sum(weights)
        if total <= 0.0:
            # Every shortest-queue core is hot: take the coolest of them
            # (never queue behind longer queues — allocation must not
            # cost performance, §V-A).
            temps = ctx.temperatures_vec.tolist()
            return names[min(candidates, key=temps.__getitem__)]
        return names[candidates[self._lfsr.choice(weights, total)]]
