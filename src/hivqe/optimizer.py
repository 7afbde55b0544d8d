"""Gradient-free parameter updates and outer-loop convergence detection.

Simultaneous-perturbation stochastic approximation: each step probes the
energy at theta +/- c_k*Delta for a random sign vector Delta and moves theta
against the resulting two-point gradient estimate. Two energy evaluations per
step regardless of the parameter count, which matters when every evaluation
costs a sampling round plus a diagonalization. The gains are fixed, as
GAIN_A = GAIN_C = 0.1 and STABILITY = 10 (Spall, IEEE TAC 37, 332, 1992).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "OptimizerState",
    "EnergyHistory",
    "make_optimizer",
    "propose",
    "update",
    "converged",
]

GAIN_A = 0.1
GAIN_C = 0.1
STABILITY = 10.0
ALPHA_EXPONENT = 0.602
GAMMA_EXPONENT = 0.101
WINDOW = 3  # energies that must agree within eps for convergence


@dataclass
class OptimizerState:
    """Mutable SPSA state; single-owner, advanced by propose/update pairs."""

    theta: np.ndarray
    step: int
    rng: np.random.Generator
    pending: Optional[tuple] = field(default=None, repr=False)


def make_optimizer(theta0, seed) -> OptimizerState:
    """SPSA at step 0 from a copy of theta0, its sign draws seeded by seed."""
    return OptimizerState(np.array(theta0, dtype=float), 0, np.random.default_rng(seed))


def propose(state: OptimizerState):
    """Probe pair (theta + c_k*Delta, theta - c_k*Delta), Delta in {-1,+1}^n.

    c_k = GAIN_C / (k+1)^0.101. Deterministic given the state's seed and step;
    a repeated call before update() simply redraws the pending perturbation.
    """
    c_k = GAIN_C / (state.step + 1) ** GAMMA_EXPONENT
    delta = state.rng.integers(0, 2, size=state.theta.shape[0]) * 2.0 - 1.0
    state.pending = (delta, c_k)
    return state.theta + c_k * delta, state.theta - c_k * delta


def update(state: OptimizerState, e_plus: float, e_minus: float) -> OptimizerState:
    """Consume probe energies: theta -= a_k * (e+ - e-) / (2 c_k) * Delta.

    a_k = GAIN_A / (k+1+STABILITY)^0.602.
    """
    if state.pending is None:
        raise RuntimeError("update called without a pending probe pair")
    delta, c_k = state.pending
    a_k = GAIN_A / (state.step + 1 + STABILITY) ** ALPHA_EXPONENT
    gradient = (e_plus - e_minus) / (2.0 * c_k) * delta
    state.theta = state.theta - a_k * gradient
    state.step += 1
    state.pending = None
    return state


@dataclass
class EnergyHistory:
    """Append-only record of per-iteration energies (Hartree)."""

    energies: list = field(default_factory=list)

    def append(self, e: float) -> None:
        self.energies.append(float(e))

    def __len__(self):
        return len(self.energies)


def converged(history: EnergyHistory, eps: float = 1e-5) -> bool:
    """Has the energy settled? True iff at least WINDOW+1 energies exist and
    the last WINDOW of them are finite with a max-min spread below eps.

    Requiring one extra entry beyond the window means the examined values are
    genuine steps from an earlier iterate, not just the initial point. A nan
    (only from a caller: the driver appends tight energies) keeps it unsettled.
    """
    energies = history.energies
    if len(energies) < WINDOW + 1:
        return False
    tail = energies[-WINDOW:]
    return all(map(math.isfinite, tail)) and (max(tail) - min(tail)) < eps
