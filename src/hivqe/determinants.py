"""Slater determinants as bit-mask pairs and matrix elements between them.

A determinant is an (alpha_mask, beta_mask) pair of occupation masks over
spatial orbitals: bit p of alpha_mask set means orbital p holds an alpha
electron. Masks fit in 64 bits, so n_orb <= 64. Fermionic phases follow the
convention that spin orbitals are ordered by ascending spatial index with the
whole alpha string before the beta string; crossings are therefore counted
within each spin channel independently and the channel signs multiply.

slater_condon, the element-by-element oracle, reads each channel's holes,
particles and sign from _channel_excitation. Every element formula the
program uses lives here too, over uint64 string arrays: _moves takes the
holes, particles and sign of the moves between two strings, and
_single_terms, _single_value and _double_element evaluate them.
_pair_elements values pairs of determinants from their strings alone; it
serves project's string comparison and scores classical expansion's
candidates, so a ranked coupling is bit for bit the stored entry. The link
walk in eigensolver calls the same helpers. _neighbours lists the strings
one or two electrons from each string: expansion's candidates, and through
_string_pairs, which costs what its new strings' neighbours cost, the
walk's links and the 1-RDM's pairs.
"""

from __future__ import annotations

from math import comb
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


def _check_packed(n_orb: int) -> None:
    """ValueError unless n_orb orbitals fit the uint64 spin strings."""
    if n_orb > 64:
        raise ValueError(f"spin strings are packed into 64 bits; n_orb={n_orb} does not fit")


def _occupations(strings: np.ndarray, n_orb: int) -> np.ndarray:
    """(len(strings), n_orb) 0/1 float occupations of uint64 strings."""
    return ((strings[:, None] >> np.arange(n_orb, dtype=np.uint64)) & _ONE).astype(float)


def _distinct_rows(alpha: np.ndarray, beta: np.ndarray) -> tuple:
    """The first row of each distinct (alpha[i], beta[i]) pair, in ascending
    pair order, and how many rows hold each pair."""
    order = np.lexsort((beta, alpha))  # stable, so each pair's run opens with its first row
    alpha, beta = alpha[order], beta[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (alpha[1:] != alpha[:-1]) | (beta[1:] != beta[:-1])
    starts = np.flatnonzero(starts)
    return order[starts], np.append(starts[1:], len(order)) - starts


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
    d1's ascending occupations of the moving channel and of the other."""
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


def _set_orbitals(x: np.ndarray, count: int) -> np.ndarray:
    """(len(x), count) ascending orbitals of the count set bits of each uint64 in x."""
    out = np.empty((len(x), count), dtype=np.intp)
    for c in range(count):
        low = x & ~(x - _ONE)
        out[:, c] = np.bitwise_count(low - _ONE)
        x = x ^ low
    return out


def _moves(src: np.ndarray, dst: np.ndarray, count: int):
    """(holes, particles, phase) of the count moves carrying strings src into
    dst: ascending holes and particles, shape (len(src), count), and the sign
    of moving holes[:, 0] -> particles[:, 0] and, for two, then holes[:, 1] ->
    particles[:, 1] out of what the first left."""
    x = src ^ dst
    holes, particles = _set_orbitals(src & x, count), _set_orbitals(dst & x, count)
    phase = _phase(src, holes[:, 0], particles[:, 0])
    if count == 2:
        moved = src ^ _BIT[holes[:, 0]] ^ _BIT[particles[:, 0]]
        phase = phase * _phase(moved, holes[:, 1], particles[:, 1])
    return holes, particles, phase


# Neighbours _string_pairs looks up at once; bounds its temporaries.
_CHUNK = 1 << 16


def _neighbours(strings: np.ndarray, n_orb: int, degree: int) -> np.ndarray:
    """(len(strings), C(n_e, degree) * C(n_orb - n_e, degree)): the strings
    degree (1 or 2) electrons from each of strings, all of n_e electrons in
    n_orb orbitals, by set of holes, then of particles, both ascending."""
    n, occupied = len(strings), _occupations(strings, n_orb) > 0
    moved = [_BIT[np.nonzero(o)[1]].reshape(n, -1) for o in (occupied, ~occupied)]
    if degree == 2:  # each pair of orbitals once, in np.triu_indices order
        moved = [(m[:, :, None] | m[:, None, :])[:, np.less.outer(*[np.arange(m.shape[1])] * 2)]
                 for m in moved]
    holes, particles = moved
    return (strings[:, None, None] ^ holes[:, :, None] ^ particles[:, None, :]).reshape(n, -1)


def _string_pairs(strings: np.ndarray, n_orb: int, n_old: int, degree: int):
    """(lo, hi): each pair of the distinct strings degree (1 or 2) electrons
    apart, at least one at or after position n_old, once, as positions with
    strings[lo] < strings[hi]: the _neighbours of those strings, looked up
    among all by one sorted search, about _CHUNK at a time."""
    n_e = int(np.bitwise_count(strings[:1]).sum())
    step = max(_CHUNK // max(comb(n_e, degree) * comb(n_orb - n_e, degree), 1), 1)
    order = np.argsort(strings)
    held = strings[order]
    pairs = [(np.zeros(0, dtype=np.intp),) * 2]
    for lo in range(n_old, len(strings), step):
        near = np.sort(_neighbours(strings[lo:lo + step], n_orb, degree))  # searched faster sorted
        i = np.arange(lo, lo + len(near))[:, None]
        j = order[np.searchsorted(held, near).clip(max=len(held) - 1)]
        found = (strings[j] == near) & ((j < n_old) | (j > i))
        pairs.append((np.nonzero(found)[0] + lo, j[found]))
    a, b = (np.concatenate(x) for x in zip(*pairs))
    up = strings[a] < strings[b]
    return np.where(up, a, b), np.where(up, b, a)


def _single_terms(holes, particles, phase, occ_src, s: IntegralSet):
    """(base, coulomb) for single moves holes -> particles of sign phase out
    of strings whose occupations are the rows of occ_src.

    A single h -> p moves against every other electron: the same-spin part
    of the sum is fixed by the source string and is in base; the
    opposite-spin part (hp|qq) over the other channel's occupation is added
    per pair by _single_value from the phased coulomb rows.
    """
    ar = np.arange(s.n_orb)
    h, p = holes[:, None], particles[:, None]
    coulomb = s.eri[h, p, ar, ar]
    exchange = s.eri[h, ar, ar, p]
    base = phase * (s.one_body[holes, particles] + np.einsum("lq,lq->l", occ_src, coulomb - exchange))
    coulomb *= phase[:, None]
    return base, coulomb


def _single_value(base, coulomb, occ_other):
    """Single elements from _single_terms and the other channel's occupations."""
    return base + np.einsum("kq,kq->k", coulomb, occ_other)


def _pair_elements(alpha_i, beta_i, alpha_j, beta_j, s: IntegralSet) -> np.ndarray:
    """<i|H|j> for distinct determinants i, j at most two electrons apart, as
    uint64 string arrays (the j side may be one determinant's scalar strings).

    Each pair is read from its source, the determinant with the lower string
    in the moving channel (alpha for a single in each), so <i|H|j> and
    <j|H|i> are the same bits; the link walk reads its upward links alike.
    """
    bits_a, bits_b = np.bitwise_count(alpha_i ^ alpha_j), np.bitwise_count(beta_i ^ beta_j)
    a_moves = bits_a > 0  # the channel that moves is alpha, also when both do
    swap = np.where(a_moves, alpha_j < alpha_i, beta_j < beta_i)  # j is the source
    (a_src, a_dst), (b_src, b_dst) = ((np.where(swap, y, x), np.where(swap, x, y))
                                      for x, y in ((alpha_i, alpha_j), (beta_i, beta_j)))
    src, dst = np.where(a_moves, a_src, b_src), np.where(a_moves, a_dst, b_dst)
    value = np.empty(len(src))

    one = np.flatnonzero(bits_a + bits_b == 2)
    holes, particles, phase = _moves(src[one], dst[one], 1)
    occ = [_occupations(x[one], s.n_orb) for x in (src, np.where(a_moves, b_src, a_src))]
    base, coulomb = _single_terms(holes[:, 0], particles[:, 0], phase, occ[0], s)
    value[one] = _single_value(base, coulomb, occ[1])  # the other channel's string is shared
    two = np.flatnonzero((bits_a == 4) | (bits_b == 4))
    holes, particles, phase = _moves(src[two], dst[two], 2)
    value[two] = _double_element(holes.T, particles.T, phase, s)
    mixed = np.flatnonzero((bits_a == 2) & (bits_b == 2))
    ha, pa, phase_a = _moves(a_src[mixed], a_dst[mixed], 1)
    hb, pb, phase_b = _moves(b_src[mixed], b_dst[mixed], 1)
    value[mixed] = _double_element((ha[:, 0], hb[:, 0]), (pa[:, 0], pb[:, 0]),
                                   phase_a * phase_b, s, exchange=False)
    return value


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


def det_to_string(d: Determinant, n_orb: int) -> str:
    """Render as "alpha|beta" occupation strings, orbital 0 leftmost."""
    alpha = "".join("1" if (d.alpha_mask >> p) & 1 else "0" for p in range(n_orb))
    beta = "".join("1" if (d.beta_mask >> p) & 1 else "0" for p in range(n_orb))
    return f"{alpha}|{beta}"

