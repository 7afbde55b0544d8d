"""Brute-force reference implementations for tests and acceptance checks.

brute_force_hamiltonian builds the Hamiltonian over the full occupation-number
basis by applying second-quantized operator strings with explicit sign
tracking: no Slater-Condon shortcuts, no shared code with the fast path, so
agreement between the two is meaningful. fci_ground solves the sector, as
enumerate_sector's Subspace, exactly with the production assembly and
eigensolver. Davidson never leaves the irrep of the determinant it starts
from, the one of lowest diagonal, so where the integrals grade the orbitals
by irrep fci_ground assembles and solves only that irrep's rows: it returns
the lowest state of the start determinant's irrep, or, without a grading or
for a sector solved densely, of the full sector.

Spin-orbital convention: index p in [0, n_orb) is alpha orbital p, index
n_orb + p is beta orbital p (alpha block first, matching the determinant
phase convention). Basis state m of the 2**(2*n_orb)-dimensional Fock space
occupies spin orbital t iff bit t of m is set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import eigensolver
from .determinants import Determinant, Sector
from .eigensolver import CIVector, WalkState, _diagonal, _irrep_labels, ground_state, project
from .integrals import IntegralSet
from .sampler import enumerate_sector, sector_size

__all__ = [
    "FciResult",
    "fci_ground",
    "brute_force_hamiltonian",
    "det_to_fock_index",
    "ORACLE_SECTOR_LIMIT",
    "BRUTE_FORCE_SPIN_ORBITAL_LIMIT",
]

ORACLE_SECTOR_LIMIT = 2_000_000
BRUTE_FORCE_SPIN_ORBITAL_LIMIT = 8


@dataclass(frozen=True)
class FciResult:
    energy: float
    vector: CIVector
    sector_size: int


def _irreps(strings: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The irrep of each spin string: the XOR of its occupied orbitals' labels."""
    irrep = np.zeros(len(strings), dtype=np.int64)
    for bit in range(int(labels.max()).bit_length()):
        mask = np.uint64(sum(1 << p for p in np.flatnonzero(labels >> bit & 1).tolist()))
        irrep |= (np.bitwise_count(strings & mask) & 1).astype(np.int64) << bit
    return irrep


def fci_ground(s: IntegralSet) -> FciResult:
    """Exact ground state over a sector of at most ORACLE_SECTOR_LIMIT
    determinants, as a vector over the whole sector in enumerate_sector order.

    Above DENSE_CUTOFF determinants the solve is Davidson's from the
    determinant of lowest diagonal, which stays in that determinant's irrep:
    when _irrep_labels grades the orbitals, only that irrep's rows are
    assembled and solved, and every other amplitude is exactly 0. The energy
    is then the lowest of that irrep, which need not be Hartree-Fock's nor
    hold the sector's lowest state. Without a grading the full sector is
    solved as is.
    """
    sector = Sector(s.n_orb, s.n_alpha, s.n_beta)
    count = sector_size(*sector)
    if count > ORACLE_SECTOR_LIMIT:
        raise ValueError(f"sector of {count} determinants exceeds limit {ORACLE_SECTOR_LIMIT}")
    sub, walk = enumerate_sector(*sector), WalkState(s)
    labels, rows = _irrep_labels(walk.block, s.one_body), slice(None)
    if labels is not None and count > eigensolver.DENSE_CUTOFF:
        r = sub.ranks
        irrep = _irreps(r.alpha, labels)[r.ia] ^ _irreps(r.beta, labels)[r.ib]
        rows = np.flatnonzero(irrep == irrep[np.argmin(_diagonal(r, s))])  # Davidson's start
    c = ground_state(project(sub.take(rows), s, walk=walk), mode="tight")
    amplitudes = np.zeros(count)
    amplitudes[rows] = c.amplitudes
    return FciResult(c.energy, CIVector(amplitudes, c.energy), count)


def _apply_annihilate(masks, t: int):
    """a_t on a signed superposition {mask: coefficient}."""
    out = {}
    bit = 1 << t
    below = bit - 1
    for mask, coeff in masks.items():
        if mask & bit:
            sign = -1.0 if (mask & below).bit_count() & 1 else 1.0
            out[mask ^ bit] = out.get(mask ^ bit, 0.0) + sign * coeff
    return out


def _apply_create(masks, t: int):
    """a_t^dagger on a signed superposition."""
    out = {}
    bit = 1 << t
    below = bit - 1
    for mask, coeff in masks.items():
        if not mask & bit:
            sign = -1.0 if (mask & below).bit_count() & 1 else 1.0
            out[mask | bit] = out.get(mask | bit, 0.0) + sign * coeff
    return out


def _apply_string(mask: int, ops) -> dict:
    """Apply (kind, spin-orbital) operator pairs right-to-left to |mask>."""
    state = {mask: 1.0}
    for kind, t in reversed(ops):
        if kind == "-":
            state = _apply_annihilate(state, t)
        else:
            state = _apply_create(state, t)
        if not state:
            break
    return state


def brute_force_hamiltonian(s: IntegralSet) -> np.ndarray:
    """Dense H over all 2**(2*n_orb) occupation states, by operator algebra.

    H = sum_pq h_pq sum_sigma a+_{p sigma} a_{q sigma}
        + 1/2 sum_pqrs (pq|rs) sum_{sigma tau} a+_{p sigma} a+_{r tau}
          a_{s tau} a_{q sigma}
        + e_core * I
    """
    n_orb = s.n_orb
    n_so = 2 * n_orb
    if n_so > BRUTE_FORCE_SPIN_ORBITAL_LIMIT:
        raise ValueError(f"{n_so} spin orbitals exceed the brute-force limit")
    dim = 1 << n_so
    h = np.zeros((dim, dim))

    spins = (0, n_orb)  # offsets: alpha block, beta block
    one_body_terms = []
    for p in range(n_orb):
        for q in range(n_orb):
            if s.one_body[p, q] != 0.0:
                one_body_terms.append((p, q, s.one_body[p, q]))
    two_body_terms = []
    for p in range(n_orb):
        for q in range(n_orb):
            for r in range(n_orb):
                for t in range(n_orb):
                    v = s.eri[p, q, r, t]
                    if v != 0.0:
                        two_body_terms.append((p, q, r, t, 0.5 * v))

    for m in range(dim):
        for p, q, v in one_body_terms:
            for off in spins:
                for mask, coeff in _apply_string(m, [("+", p + off), ("-", q + off)]).items():
                    h[mask, m] += v * coeff
        for p, q, r, t, v in two_body_terms:
            for off_s in spins:
                for off_t in spins:
                    ops = [
                        ("+", p + off_s),
                        ("+", r + off_t),
                        ("-", t + off_t),
                        ("-", q + off_s),
                    ]
                    for mask, coeff in _apply_string(m, ops).items():
                        h[mask, m] += v * coeff
        h[m, m] += s.e_core
    return h


def det_to_fock_index(d: Determinant, n_orb: int) -> int:
    """Map a determinant to its occupation-basis index (alpha block low bits)."""
    return d.alpha_mask | (d.beta_mask << n_orb)
