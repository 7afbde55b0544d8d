"""Simulated symmetry-sector quantum sampler.

The ansatz is a layered brick-wall of real Givens rotations on adjacent
orbital pairs within each spin channel. Every rotation conserves particle
number per spin and touches one channel only, so from the Hartree-Fock start
the state stays a product psi_alpha x psi_beta. It is held as two vectors over
the spin strings of each channel, C(n_orb, n_alpha) + C(n_orb, n_beta)
amplitudes. Only :func:`enumerate_sector` builds the joint sector, for the
exact-diagonalization oracle, as the Subspace product of the two cached
channel tables. Sampling draws each channel's string on its own and builds no
joint vector either.
Measurement noise is modeled as independent classical bit flips, each bit
flipped with one probability p_flip, applied to the sampled strings; that is
the only noise effect the downstream filtering consumes. A batch of shots
stays in uint64 strings from the draw to the filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .determinants import _BIT, Sector, _check_packed, _distinct_rows, _occupations, _phase
from .subspace import SampleBatch, Subspace, _product

__all__ = [
    "AnsatzSpec",
    "SectorState",
    "SectorTooLargeError",
    "sector_size",
    "enumerate_sector",
    "brick_wall_ansatz",
    "prepare_state",
    "mean_occupations",
    "sample",
]

MAX_ENUMERATED = 5_000_000


class SectorTooLargeError(RuntimeError):
    def __init__(self, count: int, limit: int, what: str = "sector determinants"):
        super().__init__(f"{count} {what} exceed the enumeration limit {limit}")
        self.count = count


def sector_size(n_orb: int, n_alpha: int, n_beta: int) -> int:
    """Exact sector dimension C(n_orb, n_alpha) * C(n_orb, n_beta)."""
    return math.comb(n_orb, n_alpha) * math.comb(n_orb, n_beta)


def enumerate_sector(n_orb: int, n_alpha: int, n_beta: int) -> Subspace:
    """The full sector as a Subspace, lexicographic by (alpha_mask, beta_mask)."""
    if not (0 <= n_alpha <= n_orb and 0 <= n_beta <= n_orb):
        raise ValueError(f"cannot place ({n_alpha}a,{n_beta}b) electrons in {n_orb} orbitals")
    count = sector_size(n_orb, n_alpha, n_beta)
    if count > MAX_ENUMERATED:
        raise SectorTooLargeError(count, MAX_ENUMERATED)
    return _product(_channel(n_orb, n_alpha), _channel(n_orb, n_beta),
                    Sector(n_orb, n_alpha, n_beta))


@dataclass(frozen=True)
class AnsatzSpec:
    """Ordered Givens-rotation plan; one parameter per rotation."""

    n_orb: int
    rotations: tuple  # of (channel, p, q) with channel in {"alpha", "beta"}, p < q

    def __post_init__(self):
        for channel, p, q in self.rotations:
            if channel not in ("alpha", "beta"):
                raise ValueError(f"unknown spin channel {channel!r}")
            if not (0 <= p < q < self.n_orb):
                raise ValueError(f"orbital pair ({p},{q}) out of range")

    @property
    def n_params(self) -> int:
        return len(self.rotations)


def brick_wall_ansatz(n_orb: int, n_layers: int) -> AnsatzSpec:
    """Alternating even/odd adjacent-pair layers, both spin channels."""
    plan = []
    for layer in range(n_layers):
        for p in range(layer % 2, n_orb - 1, 2):
            plan.append(("alpha", p, p + 1))
            plan.append(("beta", p, p + 1))
    return AnsatzSpec(n_orb, tuple(plan))


@dataclass(frozen=True)
class SectorState:
    """The state as one amplitude vector per spin channel.

    Entries follow each channel's ascending spin strings. The product form is
    exact: the start is Hartree-Fock, a product of one alpha and one beta
    string, and AnsatzSpec admits only rotations within the alpha or the
    beta channel, which act on one factor and leave the other alone.
    Real-valued: the rotation generators are real antisymmetric, so a real
    start vector stays real.
    """

    alpha: np.ndarray
    beta: np.ndarray
    sector: Sector

    def __post_init__(self):
        for channel in ("alpha", "beta"):
            norm_sq = float(np.sum(getattr(self, channel) ** 2))
            if abs(norm_sq - 1.0) > 1e-12:
                raise ValueError(f"{channel} state norm^2 {norm_sq} deviates from 1")


@lru_cache(maxsize=8)
def _channel(n_orb: int, n_e: int) -> np.ndarray:
    """Ascending uint64 strings with n_e of n_orb bits set, by Gosper's walk."""
    _check_packed(n_orb)
    masks, m = [], (1 << n_e) - 1
    while m < 1 << n_orb:
        masks.append(m)
        if m == 0:  # no electrons: the empty string is the only one
            break
        low = m & -m
        ripple = m + low
        m = ripple | (((m ^ ripple) >> 2) // low)
    strings = np.array(masks, dtype=np.uint64)
    strings.flags.writeable = False  # shared through the cache
    return strings


@lru_cache(maxsize=256)
def _rotation_plan(n_orb: int, n_e: int, p: int, q: int):
    """Index pairs and fermionic signs for one Givens rotation on one channel.

    Returns (i_idx, j_idx, signs): strings where orbital p is occupied and q
    empty, their partners with the occupation swapped, and the sign
    (-1)**(occupied orbitals strictly between p and q).
    """
    strings = _channel(n_orb, n_e)
    i_idx = np.flatnonzero(((strings & _BIT[p]) > 0) & ((strings & _BIT[q]) == 0))
    j_idx = np.searchsorted(strings, strings[i_idx] ^ _BIT[p] ^ _BIT[q])
    plan = (i_idx, j_idx, _phase(strings[i_idx], p, q))
    for array in plan:
        array.flags.writeable = False  # shared through the cache
    return plan


def prepare_state(spec: AnsatzSpec, theta, sector: Sector) -> SectorState:
    """Apply the rotation plan to the Hartree-Fock reference.

    Each rotation G(theta_k) acts on the string pairs of its channel that
    differ only by moving one electron between its orbital pair, under the
    half-angle convention: the p-occupied amplitude maps to
    cos(t/2)*a_p - s*sin(t/2)*a_q with s the crossing sign.

    Raises SectorTooLargeError, before building any string table, when a
    channel has more than MAX_ENUMERATED strings.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (spec.n_params,):
        raise ValueError(
            f"expected {spec.n_params} parameters, got shape {theta.shape}"
        )
    if spec.n_orb != sector.n_orb:
        raise ValueError("ansatz and sector orbital counts differ")
    n_e = {"alpha": sector.n_alpha, "beta": sector.n_beta}
    largest = max(math.comb(sector.n_orb, count) for count in n_e.values())
    if largest > MAX_ENUMERATED:
        raise SectorTooLargeError(largest, MAX_ENUMERATED, "spin strings in one channel")
    amps = {}
    for channel, count in n_e.items():
        # The Hartree-Fock string is the smallest, so it comes first.
        amps[channel] = np.zeros(math.comb(sector.n_orb, count))
        amps[channel][0] = 1.0
    for (channel, p, q), angle in zip(spec.rotations, theta):
        i_idx, j_idx, signs = _rotation_plan(sector.n_orb, n_e[channel], p, q)
        c = math.cos(0.5 * angle)
        s = math.sin(0.5 * angle)
        vec = amps[channel]
        a_p = vec[i_idx]
        a_q = vec[j_idx]
        vec[i_idx] = c * a_p - signs * s * a_q
        vec[j_idx] = signs * s * a_p + c * a_q
    return SectorState(amps["alpha"], amps["beta"], sector)


def mean_occupations(state: SectorState):
    """Per-orbital mean occupation (alpha array, beta array) of the state.

    The occupation table is built for at most 65,536 strings at a time, so a
    large channel never holds all of it; a smaller one is a single product."""
    n, n_alpha, n_beta = state.sector
    out, step = [], 1 << 16
    for amps, strings in ((state.alpha, _channel(n, n_alpha)), (state.beta, _channel(n, n_beta))):
        parts = (amps[lo:lo + step]**2 @ _occupations(strings[lo:lo + step], n)
                 for lo in range(0, len(strings), step))
        out.append(sum(parts, next(parts)))  # one chunk: the plain product, no added 0
    return tuple(out)


def sample(state: SectorState, shots: int, p_flip: float, seed) -> SampleBatch:
    """Draw shots i.i.d. from |amplitude|^2 and flip each read-out bit with
    probability p_flip, in [0, 1].

    The state is a product, so each shot's alpha string is drawn from
    |alpha|^2 and its beta string from |beta|^2, with the same joint law in
    O(C(n, n_alpha) + C(n, n_beta) + shots * n_orb) memory. The N = shots *
    2 * n_orb read-out bits are numbered shot by shot, alpha orbitals before
    beta. One generator draws all alpha string indices, then all beta string
    indices, then the flip count K = binomial(N, p_flip), then K distinct bit
    numbers by choice(N, K, replace=False), and flips those bits. A uniform
    K-subset with binomial K flips each bit independently with probability
    p_flip (Devroye, Non-Uniform Random Variate Generation, 1986), at a cost
    that grows with K, not with N.

    Deterministic for a fixed seed (accepts anything numpy's default_rng
    does). The batch holds each distinct raw (alpha, beta) string pair once,
    with its shot count, in ascending (alpha, beta) order.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if not 0.0 <= p_flip <= 1.0:
        raise ValueError("p_flip must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    n, n_alpha, n_beta = state.sector
    ia, ib = (rng.choice(len(amps), size=shots, p=amps**2 / np.sum(amps**2))
              for amps in (state.alpha, state.beta))
    pairs = np.stack((_channel(n, n_alpha)[ia], _channel(n, n_beta)[ib]), axis=1)
    bits = pairs.size * n
    # Bit f is orbital f % n of string f // n in the flat (alpha, beta) pairs.
    string, orbital = np.divmod(rng.choice(bits, rng.binomial(bits, p_flip), replace=False), n)
    np.bitwise_xor.at(pairs.reshape(-1), string, _BIT[orbital])
    alpha, beta = pairs.T
    first, counts = _distinct_rows(alpha, beta)
    return SampleBatch(alpha[first], beta[first], counts, n)
