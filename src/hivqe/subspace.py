"""Trial-subspace bookkeeping: filtering, screening, expansion, set algebra.

A Subspace is an ordered, duplicate-free determinant set held as two
read-only uint64 string arrays; only this module builds them. Operations
never mutate their input. The screens return the row indices they keep, in
output order, so one index array selects the determinants (Subspace.take),
the amplitudes and the rows and columns of an assembled matrix alike; the
other operations return a new Subspace (or the input itself when nothing
changed). Nothing here assembles or solves a Hamiltonian. Every ranking is
a lexsort with the (alpha, beta) string pair as its final keys. A
SampleBatch holds the sampler's shots as string arrays too; text appears
only in a batch's counts view. _product builds every spin-string product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .determinants import (
    Determinant,
    Sector,
    _BIT,
    _check_packed,
    _distinct_rows,
    _neighbours,
    _occupations,
    _pair_elements,
    hartree_fock_det,
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
]

# Fresh |amplitudes| this close to the largest tie for expansion's reference,
# and candidates' couplings are ranked on a grid of this step, so values
# equal in exact arithmetic, as of spin mirrors, are ordered by (alpha, beta).
AMPLITUDE_TIE = 1e-12


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """The distinct measured (alpha, beta) string pairs and their shot counts.

    Row i is the raw uint64 string pair (alpha[i], beta[i]), measured
    shots[i] >= 1 times; the three arrays are read-only, and the shots sum to
    total_shots. A pair need not lie in any sector: the filter decides that.
    """

    alpha: np.ndarray
    beta: np.ndarray
    shots: np.ndarray
    n_orb: int

    def __post_init__(self):
        if not len(self.alpha) == len(self.beta) == len(self.shots):
            raise ValueError("alpha, beta and shots differ in length")
        if len(self) and int(np.max(self.alpha | self.beta)) >> self.n_orb:
            raise ValueError(f"a string sets a bit at or above orbital {self.n_orb}")
        if np.any(self.shots < 1):
            raise ValueError("every row needs a shot")
        for array in (self.alpha, self.beta, self.shots):
            array.flags.writeable = False

    def __len__(self):
        return len(self.alpha)

    @property
    def total_shots(self) -> int:
        return int(np.sum(self.shots))

    def in_sector(self, sector: Sector) -> np.ndarray:
        """Mask of the rows whose popcounts already match the sector."""
        return ((np.bitwise_count(self.alpha) == sector.n_alpha)
                & (np.bitwise_count(self.beta) == sector.n_beta))

    @property
    def counts(self) -> dict:
        """A text view {bitstring: shots} in row order, built on each access
        for readers outside the package; keys are det_to_string without "|"."""
        bits = np.hstack([_occupations(s, self.n_orb) for s in (self.alpha, self.beta)])
        keys = (bits + ord("0")).astype(np.uint8).view(f"S{bits.shape[1]}").astype(str)
        return dict(zip(keys.ravel().tolist(), self.shots.tolist()))


class Subspace:
    """Row i is the determinant (alpha[i], beta[i]); expanded_refs is the history.

    Built from Determinants, a Subspace checks them against its sector and
    keeps the first-seen row of each, with no history; iterating yields Determinants.
    ranks places the rows among their sorted distinct strings, once, for
    find and project.
    """

    __slots__ = ("alpha", "beta", "sector", "expanded_refs", "ranks")

    def __init__(self, dets, sector: Sector):
        n = sector.n_orb
        _check_packed(n)
        dets = list(dict.fromkeys(dets))  # first-seen row of each
        try:
            alpha, beta = _strings(dets)
            valid = (((alpha | beta) <= np.uint64((1 << n) - 1))
                     & (np.bitwise_count(alpha) == sector.n_alpha)
                     & (np.bitwise_count(beta) == sector.n_beta))
        except OverflowError:  # a mask outside 0 .. 2**64 - 1
            valid = np.array([sector.contains(d) for d in dets])
        if not valid.all():
            raise ValueError(f"{dets[int(np.argmin(valid))]} violates {sector}")
        self._assign(alpha, beta, sector, frozenset())

    @classmethod
    def _of(cls, alpha, beta, sector, expanded_refs) -> "Subspace":
        """A Subspace over string arrays already unique and in the sector."""
        return cls.__new__(cls)._assign(alpha, beta, sector, expanded_refs)

    def _assign(self, alpha, beta, sector, expanded_refs) -> "Subspace":
        alpha.flags.writeable = beta.flags.writeable = False
        self.alpha, self.beta, self.sector = alpha, beta, sector
        self.expanded_refs = frozenset(expanded_refs)
        self.ranks = StringRanks(alpha, beta)
        return self

    def __len__(self):
        return len(self.alpha)

    def __iter__(self):
        return map(Determinant._make, zip(self.alpha.tolist(), self.beta.tolist()))

    def find(self, alpha, beta) -> np.ndarray:
        """Row of each (alpha[i], beta[i]) string pair, -1 where absent.

        The one row lookup: union (and through it tensor reconstruction),
        the Hartree-Fock pin and the expansion's candidate filter use it.
        Queries are located among the rows' ranked strings.
        """
        alpha, beta = np.asarray(alpha, dtype=np.uint64), np.asarray(beta, dtype=np.uint64)
        if not len(self):
            return np.full(len(alpha), -1)
        r = self.ranks
        ia = np.minimum(np.searchsorted(r.alpha, alpha), len(r.alpha) - 1)
        ib = np.minimum(np.searchsorted(r.beta, beta), len(r.beta) - 1)
        return np.where((r.alpha[ia] == alpha) & (r.beta[ib] == beta), r.row(ia, ib), -1)

    def take(self, rows) -> "Subspace":
        """The determinants at distinct rows, in that order; history carries over."""
        return Subspace._of(self.alpha[rows], self.beta[rows], self.sector, self.expanded_refs)


def _product(alpha: np.ndarray, beta: np.ndarray, sector: Sector) -> Subspace:
    """Each (alpha[i], beta[j]) by i, then j; distinct strings of the sector, no history."""
    return Subspace._of(np.repeat(alpha, len(beta)), np.tile(beta, len(alpha)), sector, ())


class RowIndex:
    """Row of each (alpha index, beta index) pair of n_alpha x n_beta, from the
    rows' index pairs ia, ib.

    row() reads an n_alpha*n_beta table of rows (-1 where absent) while that
    is at most TABLE_FILL entries per row, as in any full sector, and beyond
    that searches the sorted pair keys."""

    TABLE_FILL = 64

    def __init__(self, ia: np.ndarray, ib: np.ndarray, n_alpha: int, n_beta: int):
        self._n_beta = n_beta
        keys, size = ia * n_beta + ib, n_alpha * n_beta
        if size <= self.TABLE_FILL * len(keys):
            self._table = np.full(size, -1, dtype=np.int32)
            self._table[keys] = np.arange(len(keys))
        else:
            self._table, self._order = None, np.argsort(keys)
            self._sorted = keys[self._order]

    def row(self, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
        """Row of each index pair (ia[i], ib[i]), -1 where absent."""
        want = ia * self._n_beta + ib
        if self._table is not None:
            return self._table[want]
        pos = np.minimum(np.searchsorted(self._sorted, want), len(self._sorted) - 1)
        return np.where(self._sorted[pos] == want, self._order[pos], -1)


class StringRanks(RowIndex):
    """Rows as indices ia, ib into each channel's sorted distinct strings alpha, beta."""

    def __init__(self, alpha: np.ndarray, beta: np.ndarray):
        self.alpha, self.ia = np.unique(alpha, return_inverse=True)
        self.beta, self.ib = np.unique(beta, return_inverse=True)
        super().__init__(self.ia, self.ib, len(self.alpha), len(self.beta))


def _strings(dets) -> tuple:
    """The uint64 alpha and beta strings of a sized Determinant collection."""
    return (np.fromiter((d.alpha_mask for d in dets), dtype=np.uint64, count=len(dets)),
            np.fromiter((d.beta_mask for d in dets), dtype=np.uint64, count=len(dets)))


def _hf_row(sub: Subspace) -> int:
    """Row of the Hartree-Fock determinant in sub, -1 when absent."""
    return int(sub.find(*_strings([hartree_fock_det(sub.sector)]))[0])


def bitstring_is_valid(bits: str, sector: Sector) -> bool:
    """Does a raw bitstring already sit in the symmetry sector?"""
    n = sector.n_orb
    return bits[:n].count("1") == sector.n_alpha and bits[n:].count("1") == sector.n_beta


def _repair(strings: np.ndarray, target: int, occupancy, n_orb: int) -> np.ndarray:
    """The strings with every popcount moved to target by flipping bits.

    Candidates are the bits whose flip moves the popcount toward the target.
    Each string flips its first |popcount - target| of them by descending
    |bit - mean occupancy|, ties by ascending orbital.
    """
    excess = np.bitwise_count(strings).astype(np.int64) - target
    bits = _occupations(strings, n_orb)
    candidate = bits == (excess > 0)[:, None]  # 1s when over target, else 0s
    distance = np.abs(bits - np.asarray(occupancy, dtype=float))
    order = np.argsort(np.where(candidate, -distance, np.inf), axis=1, kind="stable")
    flip = np.argsort(order, axis=1) < np.abs(excess)[:, None]  # rank below |excess|
    return strings ^ (flip @ _BIT[:n_orb])


def filter_symmetry(batch: SampleBatch, sector: Sector, mode: str = "discard",
                    occupancy_hint=None) -> Subspace:
    """Reduce raw samples to the subspace of their sector-valid determinants.

    mode="discard" drops the rows outside the sector; mode="recover" repairs
    them by flipping, within each violating spin channel, the bits farthest
    from the supplied mean occupancies until the popcount matches. Row order
    is first appearance in the batch; repaired duplicates merge.
    """
    if mode not in ("discard", "recover"):
        raise ValueError(f"unknown filter mode {mode!r}")
    if mode == "recover" and occupancy_hint is None:
        raise ValueError("recover mode needs an occupancy hint")
    n = sector.n_orb
    if batch.n_orb != n:
        raise ValueError(f"a batch over {batch.n_orb} orbitals does not fit {sector}")
    if mode == "discard":
        keep = batch.in_sector(sector)
        alpha, beta = batch.alpha[keep], batch.beta[keep]
    else:
        alpha = _repair(batch.alpha, sector.n_alpha, occupancy_hint[0], n)
        beta = _repair(batch.beta, sector.n_beta, occupancy_hint[1], n)
    first = np.sort(_distinct_rows(alpha, beta)[0])
    return Subspace._of(alpha[first], beta[first], sector, frozenset())


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
    kept = np.lexsort((sub.beta, sub.alpha, -np.abs(amplitudes)))[:k]
    hf = _hf_row(sub)
    if hf >= 0 and hf not in kept:
        kept[-1] = hf  # it ranks below every other survivor
    return kept


def amplitude_screen(sub: Subspace, amplitudes: np.ndarray, threshold: float) -> np.ndarray:
    """Rows of sub with |amplitude| >= threshold, in order.

    The Hartree-Fock determinant is pinned and survives regardless.
    """
    if len(amplitudes) != len(sub):
        raise ValueError("amplitude vector does not match subspace length")
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    keep = np.abs(amplitudes) >= threshold
    hf = _hf_row(sub)
    if hf >= 0:
        keep[hf] = True
    return np.flatnonzero(keep)


def classical_expand(sub: Subspace, amplitudes: np.ndarray, m: int, s: IntegralSet) -> Subspace:
    """Expand around the largest-amplitude not-yet-expanded determinant.

    amplitudes is a wavefunction over sub; fresh |amplitudes| within
    AMPLITUDE_TIE of the largest tie, and the least (alpha, beta) among them
    is the reference. Its singles and doubles are built as string arrays;
    those absent from the subspace are scored by |<cand|H|ref>| from
    _pair_elements, bit for bit the entry project stores for the pair, and
    ranked on a grid of AMPLITUDE_TIE descending, then by (alpha, beta). The
    top m are appended and the reference marked as expanded. When every
    determinant has already served as a reference the subspace is returned
    unchanged.
    """
    if len(amplitudes) != len(sub):
        raise ValueError("amplitude vector does not match subspace length")
    if m < 0:
        raise ValueError("m must be nonnegative")
    size = np.abs(amplitudes)
    done = sub.find(*_strings(sub.expanded_refs))
    size[done[done >= 0]] = -1.0  # each determinant serves as a reference once
    tied = np.flatnonzero(size >= size.max(initial=0.0) - AMPLITUDE_TIE)
    if not len(tied):
        return sub
    ref_a, ref_b = min(zip(sub.alpha[tied], sub.beta[tied]))  # ties by (alpha, beta)
    a1, b1, a2, b2 = (_neighbours(np.array([r]), sub.sector.n_orb, d)[0]
                      for d in (1, 2) for r in (ref_a, ref_b))
    ia, ib = np.divmod(np.arange(len(a1) * len(b1)), len(b1))
    # alpha singles, beta singles, alpha doubles, beta doubles, alpha single x beta single
    alpha = np.concatenate((a1, np.full(len(b1), ref_a), a2, np.full(len(b2), ref_a), a1[ia]))
    beta = np.concatenate((np.full(len(a1), ref_b), b1, np.full(len(a2), ref_b), b2, b1[ib]))
    absent = np.flatnonzero(sub.find(alpha, beta) < 0)
    alpha, beta = alpha[absent], beta[absent]
    coupling = np.abs(_pair_elements(alpha, beta, ref_a, ref_b, s))
    added = np.lexsort((beta, alpha, -np.rint(coupling / AMPLITUDE_TIE)))[:m]
    return Subspace._of(np.concatenate((sub.alpha, alpha[added])),
                        np.concatenate((sub.beta, beta[added])),
                        sub.sector, sub.expanded_refs | {Determinant(int(ref_a), int(ref_b))})


def tensor_reconstruct(sub: Subspace, closed_shell: bool, cap: int) -> Subspace:
    """Rebuild the subspace as a tensor product of its spin strings.

    Open shell: {alpha strings} x {beta strings}, each in first-seen order.
    Closed shell: the two string sets are merged first, then squared. Output
    is the union of sub and the product, so sub's rows come first, then the
    product's missing pairs in product order; every alpha (beta) string of a
    sector has one popcount, so the product stays in it. A product of more
    than cap determinants (the driver passes 10*k) is refused with
    ValueError before any of it is built.
    """
    if closed_shell and sub.sector.n_alpha != sub.sector.n_beta:
        raise ValueError("closed-shell reconstruction requires n_alpha == n_beta")
    channels = (sub.alpha, sub.beta)
    if closed_shell:
        channels = (np.concatenate(channels),) * 2
    alphas, betas = (s[np.sort(np.unique(s, return_index=True)[1])] for s in channels)
    size = len(alphas) * len(betas)
    if size > cap:
        raise ValueError(
            f"tensor reconstruction would produce {size} determinants, "
            f"beyond the safety cap {cap}"
        )
    return union(sub, _product(alphas, betas, sub.sector))


def union(sub: Subspace, other: Subspace) -> Subspace:
    """Rows of sub, then those of other that sub lacks; sub's history carries over."""
    new = sub.find(other.alpha, other.beta) < 0
    if not new.any():
        return sub
    return Subspace._of(np.concatenate((sub.alpha, other.alpha[new])),
                        np.concatenate((sub.beta, other.beta[new])),
                        sub.sector, sub.expanded_refs)
