"""Trial-subspace bookkeeping: filtering, screening, expansion, set algebra.

The Subspace type is an ordered, duplicate-free determinant list with O(1)
membership lookup. Operations never mutate their input. The screens return
the row indices they keep, in output order, so one index array selects the
determinants (Subspace.take), the amplitudes and the rows and columns of an
already assembled matrix alike; the other operations return a new Subspace
(or the input itself when nothing changed). Nothing here assembles or solves
a Hamiltonian. All rankings share one tie-break rule: stable sort with the
determinant mask pair as the final key, so results are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .determinants import (
    Determinant,
    Sector,
    det_from_string,
    det_to_string,
    generate_singles_doubles,
    hartree_fock_det,
    slater_condon,
)
from .integrals import IntegralSet

__all__ = [
    "Subspace",
    "SampleBatch",
    "filter_symmetry",
    "cap_screen",
    "amplitude_screen",
    "classical_expand",
    "tensor_reconstruct",
    "union",
    "bitstring_is_valid",
    "dump_subspace",
]


@dataclass(frozen=True)
class SampleBatch:
    """Multiset of raw measured bitstrings.

    Keys are plain 2*n_orb character strings (alpha block then beta block,
    orbital 0 leftmost in each); values are shot counts.
    """

    counts: dict
    total_shots: int
    n_orb: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.total_shots:
            raise ValueError("counts do not sum to total_shots")
        width = 2 * self.n_orb
        for bs in self.counts:
            if len(bs) != width:
                raise ValueError(f"bitstring {bs!r} is not {width} characters")


class Subspace:
    """Ordered determinant set with reverse index and expansion history."""

    __slots__ = ("dets", "index", "expanded_refs", "sector")

    def __init__(self, dets=(), sector: Sector = None, expanded_refs=frozenset()):
        if sector is None:
            raise ValueError("a Subspace needs its symmetry sector")
        self.sector = sector
        self.dets: list[Determinant] = []
        self.index: dict[Determinant, int] = {}
        for d in dets:
            if d in self.index:
                continue
            if not sector.contains(d):
                raise ValueError(
                    f"determinant {det_to_string(d, sector.n_orb)} violates sector "
                    f"({sector.n_alpha}a,{sector.n_beta}b)"
                )
            self.index[d] = len(self.dets)
            self.dets.append(d)
        self.expanded_refs = frozenset(expanded_refs)

    def __len__(self):
        return len(self.dets)

    def __iter__(self):
        return iter(self.dets)

    def __getitem__(self, i):
        return self.dets[i]

    def __contains__(self, d):
        return d in self.index

    def take(self, rows) -> "Subspace":
        """The determinants at rows, in that order; expansion history carries over."""
        return self._replace([self.dets[i] for i in rows])

    def _replace(self, dets, expanded_refs=None) -> "Subspace":
        refs = self.expanded_refs if expanded_refs is None else expanded_refs
        return Subspace(dets, self.sector, refs)


def bitstring_is_valid(bits: str, sector: Sector) -> bool:
    """Does a raw bitstring already sit in the symmetry sector?"""
    n = sector.n_orb
    return bits[:n].count("1") == sector.n_alpha and bits[n:].count("1") == sector.n_beta


def _repair_channel(bits: list[int], target: int, occupancy) -> None:
    """Flip bits in place until the channel popcount matches target.

    Flip order: descending distance |bit - mean occupancy| (a bit disagreeing
    with the rounded hint has distance > 0.5, so it is always flipped before
    any agreeing bit), ties broken by ascending orbital index. Only bits whose
    flip moves the popcount toward the target are candidates.
    """
    have = sum(bits)
    flip_to = 0 if have > target else 1
    candidates = [p for p, b in enumerate(bits) if b != flip_to]
    candidates.sort(key=lambda p: (-abs(bits[p] - occupancy[p]), p))
    for p in candidates:
        if have == target:
            break
        bits[p] = flip_to
        have += 2 * flip_to - 1


def filter_symmetry(batch: SampleBatch, sector: Sector, mode: str = "discard",
                    occupancy_hint=None) -> list[Determinant]:
    """Reduce raw samples to unique sector-valid determinants.

    mode="discard" drops invalid bitstrings; mode="recover" repairs them by
    flipping, within the violating spin channel, the bits farthest from the
    supplied mean occupancies until the popcount matches. Output order is
    first appearance in the batch; repaired duplicates merge.
    """
    if mode not in ("discard", "recover"):
        raise ValueError(f"unknown filter mode {mode!r}")
    if mode == "recover" and occupancy_hint is None:
        raise ValueError("recover mode needs an occupancy hint")
    n = sector.n_orb
    width = 2 * n
    out: list[Determinant] = []
    seen: set[Determinant] = set()
    for bits, _count in batch.counts.items():
        if len(bits) != width:
            raise ValueError(f"bitstring {bits!r} is not {width} characters")
        if bitstring_is_valid(bits, sector):
            det = det_from_string(bits)
        elif mode == "discard":
            continue
        else:
            alpha = [1 if c == "1" else 0 for c in bits[:n]]
            beta = [1 if c == "1" else 0 for c in bits[n:]]
            hint_a, hint_b = occupancy_hint
            if sum(alpha) != sector.n_alpha:
                _repair_channel(alpha, sector.n_alpha, hint_a)
            if sum(beta) != sector.n_beta:
                _repair_channel(beta, sector.n_beta, hint_b)
            det = Determinant(
                sum(1 << p for p, b in enumerate(alpha) if b),
                sum(1 << p for p, b in enumerate(beta) if b),
            )
        if det not in seen:
            seen.add(det)
            out.append(det)
    return out


def cap_screen(sub: Subspace, amplitudes: np.ndarray, k: int) -> np.ndarray:
    """Rows of sub that survive a cap of k determinants, in output order.

    amplitudes is a ground-state estimate over sub. Under the cap every row
    survives in place. Otherwise the Hartree-Fock determinant (when present)
    plus the k-1 largest-|amplitude| determinants survive, ordered by rank.
    """
    if k < 1:
        raise ValueError("cap must be at least 1")
    if len(amplitudes) != len(sub):
        raise ValueError("amplitude vector does not match subspace length")
    if len(sub) <= k:
        return np.arange(len(sub))
    order = sorted(range(len(sub)), key=lambda i: (-abs(amplitudes[i]), sub.dets[i]))
    kept = order[:k]
    hf = sub.index.get(hartree_fock_det(sub.sector))
    if hf is not None and hf not in kept:
        kept[-1] = hf  # it ranks below every other survivor
    return np.array(kept)


def amplitude_screen(sub: Subspace, amplitudes: np.ndarray, threshold: float) -> np.ndarray:
    """Rows of sub with |amplitude| >= threshold, in order.

    The Hartree-Fock determinant is pinned and survives regardless.
    """
    if len(amplitudes) != len(sub):
        raise ValueError("amplitude vector does not match subspace length")
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    keep = np.abs(amplitudes) >= threshold
    hf = sub.index.get(hartree_fock_det(sub.sector))
    if hf is not None:
        keep[hf] = True
    return np.flatnonzero(keep)


def classical_expand(sub: Subspace, amplitudes: np.ndarray, m: int, s: IntegralSet) -> Subspace:
    """Expand around the largest-amplitude not-yet-expanded determinant.

    amplitudes is a wavefunction over sub. Generates that reference's singles
    and doubles, ranks candidates absent from the subspace by |<ref|H|cand>|
    descending, appends the top m, and marks the reference as expanded. When
    every determinant has already served as a reference the subspace is
    returned unchanged.
    """
    if len(amplitudes) != len(sub):
        raise ValueError("amplitude vector does not match subspace length")
    if m < 0:
        raise ValueError("m must be nonnegative")
    fresh = [
        (i, d) for i, d in enumerate(sub.dets) if d not in sub.expanded_refs
    ]
    if not fresh:
        return sub
    ref_i, ref = min(fresh, key=lambda pair: (-abs(amplitudes[pair[0]]), pair[1]))
    candidates = [
        d for d in generate_singles_doubles(ref, sub.sector.n_orb)
        if d not in sub.index
    ]
    ranked = sorted(
        ((abs(slater_condon(ref, d, s)), d) for d in candidates),
        key=lambda pair: (-pair[0], pair[1]),
    )
    added = [d for _, d in ranked[:m]]
    return sub._replace(
        list(sub.dets) + added,
        expanded_refs=sub.expanded_refs | {ref},
    )


def tensor_reconstruct(sub: Subspace, closed_shell: bool = False, cap: int = None) -> Subspace:
    """Rebuild the subspace as a tensor product of its spin strings.

    Open shell: {alpha strings} x {beta strings}. Closed shell: the two
    string sets are merged first, then squared. Output is a deduplicated
    superset of the input; sector validity is automatic because all alpha
    (beta) strings in a sector share one popcount. A product larger than cap
    is refused with ValueError before any of it is built.
    """
    if closed_shell and sub.sector.n_alpha != sub.sector.n_beta:
        raise ValueError("closed-shell reconstruction requires n_alpha == n_beta")
    alphas = list(dict.fromkeys(d.alpha_mask for d in sub.dets))
    betas = list(dict.fromkeys(d.beta_mask for d in sub.dets))
    if closed_shell:
        merged = list(dict.fromkeys(alphas + betas))
        alphas = betas = merged
    size = len(alphas) * len(betas)
    if cap is not None and size > cap:
        raise ValueError(
            f"tensor reconstruction would produce {size} determinants, "
            f"beyond the safety cap {cap}"
        )
    if size == len(sub):
        return sub
    return sub._replace([Determinant(a, b) for a in alphas for b in betas])


def union(sub: Subspace, dets) -> Subspace:
    """Set union preserving first-seen order; expansion history carries over."""
    new = [d for d in dets if d not in sub.index]
    if not new:
        return sub
    return sub._replace(list(sub.dets) + new)


def dump_subspace(sub: Subspace) -> str:
    """One determinant per line as "alpha|beta" strings (checkpoint format)."""
    n = sub.sector.n_orb
    return "\n".join(det_to_string(d, n) for d in sub.dets) + "\n"
