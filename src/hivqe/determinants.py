"""Slater determinants as bit-mask pairs and matrix elements between them.

A determinant is an (alpha_mask, beta_mask) pair of occupation masks over
spatial orbitals: bit p of alpha_mask set means orbital p holds an alpha
electron. Masks fit in 64 bits, so n_orb <= 64. Fermionic phases follow the
convention that spin orbitals are ordered by ascending spatial index with the
whole alpha string before the beta string; crossings are therefore counted
within each spin channel independently and the channel signs multiply.

slater_condon reads each channel's holes, particles and sign from
_channel_excitation. Its element helpers also take arrays of moves out of one
determinant; with _excitations, the strings one or two moves from one string,
they score classical expansion's candidates as string arrays, bit for bit,
with sign 1, as only the couplings' magnitudes rank them. _double_element
also gives project its same-spin double excitations.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

import numpy as np

from .integrals import IntegralSet

__all__ = [
    "Determinant",
    "Sector",
    "hartree_fock_det",
    "slater_condon",
    "det_to_string",
    "occupied_orbitals",
]


class Determinant(NamedTuple):
    """Occupation bit-mask pair; orderable, hashable, cheap to copy."""

    alpha_mask: int
    beta_mask: int


class Sector(NamedTuple):
    """Symmetry sector: fixed per-spin electron counts in n_orb orbitals."""

    n_orb: int
    n_alpha: int
    n_beta: int

    def contains(self, det: Determinant) -> bool:
        mask_ok = 0 <= (det.alpha_mask | det.beta_mask) < (1 << self.n_orb)
        return (
            mask_ok
            and det.alpha_mask.bit_count() == self.n_alpha
            and det.beta_mask.bit_count() == self.n_beta
        )


def occupied_orbitals(mask: int) -> list[int]:
    """Ascending list of set bit positions."""
    occ = []
    while mask:
        low = mask & -mask
        occ.append(low.bit_length() - 1)
        mask ^= low
    return occ


def hartree_fock_det(s: Sector | IntegralSet) -> Determinant:
    """Aufbau reference: lowest n_alpha and n_beta orbitals occupied."""
    return Determinant((1 << s.n_alpha) - 1, (1 << s.n_beta) - 1)


def _single_phase(mask: int, hole: int, particle: int) -> int:
    """Sign of moving one electron hole -> particle within one spin channel.

    Equals (-1)**(occupied orbitals strictly between the two positions).
    """
    lo, hi = (hole, particle) if hole < particle else (particle, hole)
    between = mask & ((1 << hi) - 1) & ~((1 << (lo + 1)) - 1)
    return -1 if between.bit_count() & 1 else 1


# Vectorized forms over uint64 strings, shared by the Hamiltonian kernel, the
# sampler and the filter. _BIT[p] is the mask of orbital p; unsigned, so
# orbital 63 is no sign bit.
_ONE = np.uint64(1)
_BIT = _ONE << np.arange(64, dtype=np.uint64)


def _occupations(strings: np.ndarray, n_orb: int) -> np.ndarray:
    """(len(strings), n_orb) 0/1 float occupations of uint64 strings."""
    return ((strings[:, None] >> np.arange(n_orb, dtype=np.uint64)) & _ONE).astype(float)


def _distinct_rows(alpha: np.ndarray, beta: np.ndarray) -> tuple:
    """The first row of each distinct (alpha[i], beta[i]) pair, in ascending
    pair order, and how many rows hold each pair."""
    ia = np.unique(alpha, return_inverse=True)[1]
    distinct_beta, ib = np.unique(beta, return_inverse=True)
    return np.unique(ia * len(distinct_beta) + ib, return_index=True, return_counts=True)[1:]


def _phase(strings: np.ndarray, holes, particles) -> np.ndarray:
    """:func:`_single_phase` of each string; holes and particles broadcast."""
    between = _BIT[np.maximum(holes, particles)] - _BIT[np.minimum(holes, particles) + 1]
    return 1.0 - 2.0 * (np.bitwise_count(strings & between) & 1)


def _channel_excitation(m1: int, m2: int):
    """Ascending holes and particles of one spin channel, and the sign of
    moving holes[i] -> particles[i] one at a time, each on the mask it moves in."""
    diff = m1 ^ m2
    holes, particles = occupied_orbitals(m1 & diff), occupied_orbitals(m2 & diff)
    phase = 1
    for h, p in zip(holes, particles):
        phase *= _single_phase(m1, h, p)
        m1 ^= (1 << h) | (1 << p)
    return holes, particles, phase


def _diagonal_element(d: Determinant, s: IntegralSet) -> float:
    occ_a = occupied_orbitals(d.alpha_mask)
    occ_b = occupied_orbitals(d.beta_mask)
    e = 0.0
    for p in occ_a:
        e += s.one_body[p, p]
    for p in occ_b:
        e += s.one_body[p, p]
    for i, p in enumerate(occ_a):
        for q in occ_a[i + 1:]:
            e += s.eri[p, p, q, q] - s.eri[p, q, q, p]
    for i, p in enumerate(occ_b):
        for q in occ_b[i + 1:]:
            e += s.eri[p, p, q, q] - s.eri[p, q, q, p]
    for p in occ_a:
        for q in occ_b:
            e += s.eri[p, p, q, q]
    return e


def _single_element(h, p, phase, occ_same, occ_other, s: IntegralSet):
    """<d1|H|d2> for the move h -> p of sign phase; occ_same and occ_other are
    d1's ascending occupations of the moving channel and of the other. h, p
    and phase may be arrays of moves out of one d1, each summed as one move."""
    # The q == h term cancels identically, so the sum may run over the full
    # occupation of the source determinant.
    e = s.one_body[h, p]
    for q in occ_same:
        e = e + (s.eri[h, p, q, q] - s.eri[h, q, q, p])
    for q in occ_other:
        e = e + s.eri[h, p, q, q]
    return phase * e


def _double_element(holes, particles, phase, s: IntegralSet, exchange: bool = True):
    """<d1|H|d2> for the moves holes[i] -> particles[i] of sign phase, entries
    scalars or arrays; exchange=False for one move per channel, as opposite
    spins never exchange."""
    (h1, h2), (p1, p2) = holes, particles
    e = s.eri[h1, p1, h2, p2]
    if exchange:
        e = e - s.eri[h1, p2, h2, p1]
    return phase * e


def slater_condon(d1: Determinant, d2: Determinant, s: IntegralSet) -> float:
    """Hamiltonian matrix element <d1|H|d2> excluding the core energy.

    Implements the Slater-Condon rules over chemist-notation integrals:
    zero beyond double excitations, Coulomb minus same-spin exchange below.
    """
    deg_a = (d1.alpha_mask ^ d2.alpha_mask).bit_count() >> 1
    deg_b = (d1.beta_mask ^ d2.beta_mask).bit_count() >> 1
    degree = deg_a + deg_b
    if degree > 2:
        return 0.0
    if degree == 0:
        return _diagonal_element(d1, s)

    ah, ap, a_phase = _channel_excitation(d1.alpha_mask, d2.alpha_mask)
    bh, bp, b_phase = _channel_excitation(d1.beta_mask, d2.beta_mask)
    holes, particles, phase = ah + bh, ap + bp, a_phase * b_phase
    if degree == 2:
        return _double_element(holes, particles, phase, s, exchange=deg_a != 1)
    occ = occupied_orbitals(d1.alpha_mask), occupied_orbitals(d1.beta_mask)
    same, other = occ if deg_a else occ[::-1]
    return _single_element(holes[0], particles[0], phase, same, other, s)


def _excitations(string, n_orb: int, degree: int) -> tuple:
    """Every string that moves degree (1 or 2) electrons of one uint64 string.

    Returns (strings, holes, particles): holes and particles are
    (len(strings), degree) ascending orbitals, paired in that order as
    _channel_excitation pairs them. No move is signed.
    """
    bits = _occupations(np.array([string], dtype=np.uint64), n_orb)[0]
    holes, particles = (np.array(list(combinations(np.flatnonzero(bits == v), degree)),
                                 dtype=np.intp).reshape(-1, degree) for v in (1, 0))
    holes, particles = np.repeat(holes, len(particles), axis=0), np.tile(particles, (len(holes), 1))
    moved = np.bitwise_or.reduce(_BIT[holes] | _BIT[particles], axis=1)
    return np.uint64(string) ^ moved, holes, particles


def det_to_string(d: Determinant, n_orb: int) -> str:
    """Render as "alpha|beta" occupation strings, orbital 0 leftmost."""
    alpha = "".join("1" if (d.alpha_mask >> p) & 1 else "0" for p in range(n_orb))
    beta = "".join("1" if (d.beta_mask >> p) & 1 else "0" for p in range(n_orb))
    return f"{alpha}|{beta}"

