"""Slater determinants as bit-mask pairs and matrix elements between them.

A determinant is an (alpha_mask, beta_mask) pair of occupation masks over
spatial orbitals: bit p of alpha_mask set means orbital p holds an alpha
electron. Masks fit in 64 bits, so n_orb <= 64. Fermionic phases follow the
convention that spin orbitals are ordered by ascending spatial index with the
whole alpha string before the beta string; crossings are therefore counted
within each spin channel independently and the channel signs multiply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .integrals import IntegralSet, get_eri

__all__ = [
    "Determinant",
    "Sector",
    "ExcitationInfo",
    "hartree_fock_det",
    "excitation_info",
    "slater_condon",
    "generate_singles_doubles",
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


@dataclass(frozen=True)
class ExcitationInfo:
    """Excitation structure linking two determinants.

    degree counts differing occupied orbitals summed over both spins; the
    hole/particle tuples are ascending orbital indices per spin; phase is the
    fermionic sign picked up when aligning the first determinant to the second.
    """

    degree: int
    alpha_holes: tuple
    alpha_particles: tuple
    beta_holes: tuple
    beta_particles: tuple
    phase: int


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
    """Holes, particles and phase for one spin channel; phase for degree > 2 is 1."""
    diff = m1 ^ m2
    holes = occupied_orbitals(m1 & diff)
    particles = occupied_orbitals(m2 & diff)
    degree = len(holes)
    if degree == 1:
        phase = _single_phase(m1, holes[0], particles[0])
    elif degree == 2:
        # Sequential singles: pair sorted holes with sorted particles and
        # track the intermediate occupation.
        phase = _single_phase(m1, holes[0], particles[0])
        mid = m1 ^ (1 << holes[0]) ^ (1 << particles[0])
        phase *= _single_phase(mid, holes[1], particles[1])
    else:
        phase = 1
    return holes, particles, phase


def excitation_info(d1: Determinant, d2: Determinant) -> ExcitationInfo:
    """Classify the excitation carrying d1 into d2, with fermionic phase."""
    ah, ap, aph = _channel_excitation(d1.alpha_mask, d2.alpha_mask)
    bh, bp, bph = _channel_excitation(d1.beta_mask, d2.beta_mask)
    return ExcitationInfo(
        degree=len(ah) + len(bh),
        alpha_holes=tuple(ah),
        alpha_particles=tuple(ap),
        beta_holes=tuple(bh),
        beta_particles=tuple(bp),
        phase=aph * bph,
    )


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
            e += get_eri(s, p, p, q, q) - get_eri(s, p, q, q, p)
    for i, p in enumerate(occ_b):
        for q in occ_b[i + 1:]:
            e += get_eri(s, p, p, q, q) - get_eri(s, p, q, q, p)
    for p in occ_a:
        for q in occ_b:
            e += get_eri(s, p, p, q, q)
    return e


def _single_element(h, p, phase, occ_same, occ_other, s: IntegralSet) -> float:
    # The q == h term cancels identically, so the sum may run over the full
    # occupation of the source determinant.
    e = s.one_body[h, p]
    for q in occ_same:
        e += get_eri(s, h, p, q, q) - get_eri(s, h, q, q, p)
    for q in occ_other:
        e += get_eri(s, h, p, q, q)
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

    info = excitation_info(d1, d2)
    if degree == 1:
        if deg_a == 1:
            return _single_element(
                info.alpha_holes[0], info.alpha_particles[0], info.phase,
                occupied_orbitals(d1.alpha_mask), occupied_orbitals(d1.beta_mask), s,
            )
        return _single_element(
            info.beta_holes[0], info.beta_particles[0], info.phase,
            occupied_orbitals(d1.beta_mask), occupied_orbitals(d1.alpha_mask), s,
        )

    # degree == 2
    if deg_a == 2:
        h1, h2 = info.alpha_holes
        p1, p2 = info.alpha_particles
        return info.phase * (get_eri(s, h1, p1, h2, p2) - get_eri(s, h1, p2, h2, p1))
    if deg_b == 2:
        h1, h2 = info.beta_holes
        p1, p2 = info.beta_particles
        return info.phase * (get_eri(s, h1, p1, h2, p2) - get_eri(s, h1, p2, h2, p1))
    # One excitation in each channel: Coulomb only, opposite spins never exchange.
    ha, pa = info.alpha_holes[0], info.alpha_particles[0]
    hb, pb = info.beta_holes[0], info.beta_particles[0]
    return info.phase * get_eri(s, ha, pa, hb, pb)


def _channel_singles(mask: int, n_orb: int):
    occ = occupied_orbitals(mask)
    virt = [p for p in range(n_orb) if not (mask >> p) & 1]
    for h in occ:
        for p in virt:
            yield mask ^ (1 << h) | (1 << p)


def _channel_doubles(mask: int, n_orb: int):
    occ = occupied_orbitals(mask)
    virt = [p for p in range(n_orb) if not (mask >> p) & 1]
    for i, h1 in enumerate(occ):
        for h2 in occ[i + 1:]:
            for a, p1 in enumerate(virt):
                for p2 in virt[a + 1:]:
                    yield mask ^ (1 << h1) ^ (1 << h2) | (1 << p1) | (1 << p2)


def generate_singles_doubles(ref: Determinant, n_orb: int) -> list[Determinant]:
    """All determinants one or two excitations away from ref.

    Per-spin electron counts are preserved, the reference itself is excluded,
    and the construction yields no duplicates. Order is deterministic:
    alpha singles, beta singles, alpha doubles, beta doubles, then
    mixed alpha-beta doubles, each block in ascending loop order.
    """
    out = []
    alpha_singles = list(_channel_singles(ref.alpha_mask, n_orb))
    beta_singles = list(_channel_singles(ref.beta_mask, n_orb))
    for a in alpha_singles:
        out.append(Determinant(a, ref.beta_mask))
    for b in beta_singles:
        out.append(Determinant(ref.alpha_mask, b))
    for a in _channel_doubles(ref.alpha_mask, n_orb):
        out.append(Determinant(a, ref.beta_mask))
    for b in _channel_doubles(ref.beta_mask, n_orb):
        out.append(Determinant(ref.alpha_mask, b))
    for a in alpha_singles:
        for b in beta_singles:
            out.append(Determinant(a, b))
    return out


def det_to_string(d: Determinant, n_orb: int) -> str:
    """Render as "alpha|beta" occupation strings, orbital 0 leftmost."""
    alpha = "".join("1" if (d.alpha_mask >> p) & 1 else "0" for p in range(n_orb))
    beta = "".join("1" if (d.beta_mask >> p) & 1 else "0" for p in range(n_orb))
    return f"{alpha}|{beta}"

