"""Shared fixtures and independent oracles for the test suite.

The Jordan-Wigner matrices built here use plain numpy kron products and know
nothing about the package's bit tricks; they exist so the operator-algebra
module can itself be checked against something independent. The bitstring
filter below is the one-key-at-a-time form that the vectorized
``filter_symmetry`` replaced, kept as its oracle.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import numpy as np

from hivqe.determinants import Determinant, Sector
from hivqe.integrals import IntegralSet
from hivqe.subspace import SampleBatch, Subspace, bitstring_is_valid

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(name: str) -> IntegralSet:
    from hivqe.integrals import parse_fcidump

    return parse_fcidump((FIXTURES / f"{name}.fcidump").read_text())


@lru_cache(maxsize=1)
def load_reference() -> dict:
    return json.loads((FIXTURES / "reference.json").read_text())


def subspace_of(dets, s: IntegralSet) -> Subspace:
    """The determinants as a Subspace of the integral set's sector."""
    return Subspace(dets, Sector(s.n_orb, s.n_alpha, s.n_beta))


def dense_symmetric(h) -> np.ndarray:
    """The symmetric matrix that project() stores as its lower triangle, as a
    dense array; nothing may be stored above the diagonal."""
    lower = h.toarray()
    assert not np.triu(lower, 1).any(), "an entry is stored above the diagonal"
    return lower + np.tril(lower, -1).T


def det_from_string(text: str) -> Determinant:
    """Inverse of ``det_to_string`` (a subspace.txt line); the "|" is optional."""
    bits = text.replace("|", "").strip()
    if len(bits) % 2 or not set(bits) <= {"0", "1"}:
        raise ValueError(f"not a determinant string: {text!r}")
    n_orb = len(bits) // 2
    alpha = sum(1 << p for p in range(n_orb) if bits[p] == "1")
    beta = sum(1 << p for p in range(n_orb) if bits[n_orb + p] == "1")
    return Determinant(alpha, beta)


def batch_of(text_counts: dict, n_orb: int) -> SampleBatch:
    """A SampleBatch of {2*n_orb-character bitstring: shots}, rows in dict order."""
    if any(len(bits) != 2 * n_orb for bits in text_counts):
        raise ValueError(f"every bitstring needs {2 * n_orb} characters")
    dets = [det_from_string(bits) for bits in text_counts]
    shots = np.array(list(text_counts.values()), dtype=np.int64)
    return SampleBatch(np.array([d.alpha_mask for d in dets], dtype=np.uint64),
                       np.array([d.beta_mask for d in dets], dtype=np.uint64),
                       shots, n_orb)


def _repair_channel(bits: list[int], target: int, occupancy) -> None:
    """Flip bits in place until the channel popcount matches target.

    Flip order: descending distance |bit - mean occupancy|, ties broken by
    ascending orbital index. Only bits whose flip moves the popcount toward
    the target are candidates.
    """
    have = sum(bits)
    if have == target:
        return
    flip_to = 0 if have > target else 1
    candidates = [p for p, b in enumerate(bits) if b != flip_to]
    candidates.sort(key=lambda p: (-abs(bits[p] - occupancy[p]), p))
    for p in candidates:
        if have == target:
            break
        bits[p] = flip_to
        have += 2 * flip_to - 1


def filter_reference(text_counts: dict, sector: Sector, mode: str,
                     occupancy_hint=None) -> list[Determinant]:
    """filter_symmetry's determinants, one bitstring key at a time, first-seen."""
    n = sector.n_orb
    out = []
    for bits in text_counts:
        if bitstring_is_valid(bits, sector):
            out.append(det_from_string(bits))
        elif mode == "recover":
            alpha = [1 if c == "1" else 0 for c in bits[:n]]
            beta = [1 if c == "1" else 0 for c in bits[n:]]
            _repair_channel(alpha, sector.n_alpha, occupancy_hint[0])
            _repair_channel(beta, sector.n_beta, occupancy_hint[1])
            out.append(Determinant(sum(b << p for p, b in enumerate(alpha)),
                                   sum(b << p for p, b in enumerate(beta))))
    return list(dict.fromkeys(out))


def joint_amplitudes(state) -> np.ndarray:
    """A sampler state's amplitudes over its sector, in enumerate_sector order."""
    return np.outer(state.alpha, state.beta).ravel()


def random_integral_set(n_orb, n_alpha, n_beta, seed, e_core=0.0) -> IntegralSet:
    """Random symmetric integrals; one draw per canonical two-body key."""
    rng = np.random.default_rng(seed)
    one = {(p, q): rng.normal() for p in range(n_orb) for q in range(p + 1)}
    two = {}
    for p in range(n_orb):
        for q in range(p + 1):
            for r in range(p + 1):
                for s in range(r + 1):
                    if (p, q) >= (r, s):
                        two[(p, q, r, s)] = rng.normal()
    return IntegralSet.from_terms(n_orb, n_alpha, n_beta, e_core, one, two)


def planted_irreps(n_orb, seed) -> np.ndarray:
    """The Z2 x Z2 irrep, 0 to 3, that blocked_integral_set gives each orbital
    for this seed (or, given a Generator, its next draw)."""
    return np.random.default_rng(seed).permutation(np.arange(n_orb) % 4)


def with_forbidden_eri(s: IntegralSet, labels: np.ndarray, value: float) -> IntegralSet:
    """s with value added to the first (pq|rs) whose labels' XOR is not 0,
    the one symmetry forbids, and to the seven other images of it."""
    x = labels[:, None] ^ labels
    p, q, r, t = np.argwhere(x[:, :, None, None] != x)[0]
    eri = s.eri.copy()
    for a, b, c, d in ((p, q, r, t), (q, p, r, t), (p, q, t, r), (q, p, t, r)):
        eri[a, b, c, d] = eri[c, d, a, b] = eri[a, b, c, d] + value
    return IntegralSet(s.n_orb, s.n_alpha, s.n_beta, s.e_core, s.one_body, eri)


def with_forbidden_h(s: IntegralSet, labels: np.ndarray, value: float) -> IntegralSet:
    """s with value added to the first h_pq, and to h_qp, whose labels differ."""
    p, q = np.argwhere(labels[:, None] != labels)[0]
    one = s.one_body.copy()
    one[p, q] = one[q, p] = one[p, q] + value
    return IntegralSet(s.n_orb, s.n_alpha, s.n_beta, s.e_core, one, s.eri)


def blocked_integral_set(n_orb, n_alpha, n_beta, seed, e_core=0.0) -> IntegralSet:
    """random_integral_set with point-group zeros. Each orbital carries a
    Z2 x Z2 irrep, a 2-bit label whose products are XORs; every h_pq and
    (pq|rs) whose irrep product is not totally symmetric is zero, and so are
    three accidental (pq|rs) that the irreps allow, each with p != q of
    irrep product 1."""
    s = random_integral_set(n_orb, n_alpha, n_beta, seed, e_core)
    rng = np.random.default_rng(seed)
    irrep = planted_irreps(n_orb, rng)
    pair = irrep[:, None] ^ irrep  # the irrep of each orbital pair
    one = np.where(pair == 0, s.one_body, 0.0)
    eri = np.where(pair[:, :, None, None] == pair, s.eri, 0.0)
    keys = [(p, q, r, t) for p, q in zip(*np.nonzero(pair == 1)) for r, t in zip(*np.nonzero(pair == 1))]
    for i in rng.choice(len(keys), 3, replace=False):
        p, q, r, t = keys[i]
        for a, b, c, d in ((p, q, r, t), (q, p, r, t), (p, q, t, r), (q, p, t, r)):
            eri[a, b, c, d] = eri[c, d, a, b] = 0.0
    return IntegralSet(n_orb, n_alpha, n_beta, e_core, one, eri)


# ---------------------------------------------------------------------------
# Independent Jordan-Wigner construction (numpy kron only)
# ---------------------------------------------------------------------------

_Z = np.diag([1.0, -1.0])
_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]])  # |0><1|, annihilates bit j


def jw_annihilator(n_qubits: int, j: int) -> np.ndarray:
    """Dense a_j with basis index m = sum_k b_k 2^k (bit 0 fastest)."""
    op = np.eye(1)
    for k in range(n_qubits):
        if k < j:
            factor = _Z
        elif k == j:
            factor = _LOWER
        else:
            factor = np.eye(2)
        op = np.kron(factor, op)  # higher bits go to slower kron positions
    return op


def jw_number_conserving_hamiltonian(s: IntegralSet) -> np.ndarray:
    """Fock-space H from kron-built ladder operators; alpha bits before beta."""
    n = s.n_orb
    nq = 2 * n
    ann = [jw_annihilator(nq, j) for j in range(nq)]
    cre = [a.T for a in ann]
    dim = 1 << nq
    h = np.zeros((dim, dim))
    for p in range(n):
        for q in range(n):
            if s.one_body[p, q] == 0.0:
                continue
            for off in (0, n):
                h += s.one_body[p, q] * cre[p + off] @ ann[q + off]
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for t in range(n):
                    v = s.eri[p, q, r, t]
                    if v == 0.0:
                        continue
                    for off1 in (0, n):
                        for off2 in (0, n):
                            h += 0.5 * v * (
                                cre[p + off1] @ cre[r + off2]
                                @ ann[t + off2] @ ann[q + off1]
                            )
    return h + s.e_core * np.eye(dim)


def fock_vector(dets, amps, n_orb: int) -> np.ndarray:
    from hivqe.oracle import det_to_fock_index

    out = np.zeros(1 << (2 * n_orb))
    for d, a in zip(dets, amps):
        out[det_to_fock_index(d, n_orb)] = a
    return out
