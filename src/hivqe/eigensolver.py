"""Subspace Hamiltonian assembly and ground-eigenpair solves.

project() builds the sparse symmetric matrix <d_i|H|d_j> + e_core over the
rows of a Subspace in numpy batches and stores it once, as its lower
triangle. Off-diagonal pairs come from one of two generators, picked by how
many row pairs the call builds. Below PAIRWISE_CUTOFF pairs, as in a
sampled set, the strings of each pair of rows are XORed and the popcounts
class the pair as a single or double in one spin channel or a single in
each (Scemama & Giner, arXiv:1311.6244). At or above it, each row's pair of
uint64 strings becomes a pair of indices into the distinct alpha and beta
strings, the strings of each spin channel one or two electrons apart are
linked, and partners are found by StringRanks.row (Knowles & Handy, CPL
111, 315, 1984), in three batches: alpha excitations with the beta string
unchanged, beta excitations with the alpha string unchanged, and one single
excitation in each channel, the last once per coupling block (connected
orbital pairs, joined wherever (pq|rs) != 0). No pair is looked up whose
single, double or (h_a p_a|h_b p_b) is exactly zero, so every stored bit
stays as it was. A link holds only the two strings it joins.
Every element formula lives in determinants: compared pairs are valued by
_pair_elements, and the walk evaluates its links with the same helpers,
reading a pair from its source row as _pair_elements does, so both
generators store the same bits; this module only generates, stores and
solves.
Every entry of a row lies in that row, so a subspace that appends rows to an
earlier one extends its triangle by appending: the earlier rows are copied
and only the new rows are batched (fast SHCI: Li, Otten, Holmes, Sharma &
Umrigar, JCP 149, 214110, 2018). The diagonal, always recomputed, comes from
occupation vectors against J = (pp|qq) and K = (pq|qp). slater_condon is the
element-by-element oracle.

ground_state() finds the lowest eigenpair. Up to DENSE_CUTOFF = 100 rows it
takes column 0 of numpy's full dense eigendecomposition. That is about where
a tight Davidson solve catches up: on H8 principal blocks of the rows with
the largest FCI amplitudes (one BLAS thread, best of 7), the direct solve
takes 1.3 ms at 100 rows against 1.3 ms for Davidson from a guess and 1.5 ms
from none, and 2.6 ms at 150 rows against 1.4 and 1.8 ms. Above the cutoff
it runs Davidson (Davidson, J. Comput. Phys. 17, 87, 1975).
The iteration applies the triangle and its transpose, keeps its basis and
their products as rows of two arrays preallocated to MAX_SUBSPACE rows,
grows its Rayleigh matrix by one row per step and restarts from the Ritz
vector once the basis is full.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np
import scipy.sparse

from .determinants import (_BIT, _double_element, _moves, _occupations, _pair_elements,
                           _set_orbitals, _single_terms, _single_value)
from .integrals import IntegralSet
from .subspace import StringRanks, Subspace

__all__ = [
    "CIVector",
    "EigensolverError",
    "project",
    "single_excitation_pairs",
    "ground_state",
]

DENSE_CUTOFF = 100
# Row pairs below which project compares strings rather than walking links.
# On H8 the two cost about the same near 9e4 pairs, in its loop and cold;
# on H12 subsets, which share fewer strings, comparing stays ahead past 3e5.
PAIRWISE_CUTOFF = 1 << 16
TIGHT_RESIDUAL = 1e-8
LOOSE_RESIDUAL = 1e-3
LOOSE_MAX_ITER = 20
TIGHT_MAX_ITER = 400
MAX_SUBSPACE = 25


class EigensolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class CIVector:
    """Normalized real amplitude vector plus its Rayleigh-quotient energy."""

    amplitudes: np.ndarray
    energy: float

    def __post_init__(self):
        norm = float(np.linalg.norm(self.amplitudes))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"CI vector norm {norm} deviates from 1")


# Candidate partners expanded per numpy batch; bounds the temporaries.
_CHUNK = 1 << 15


def _pairs_in_groups(keys: np.ndarray):
    """Every pair (a, b) of distinct positions of keys with keys[a] == keys[b], once."""
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    n = len(k)
    if n == 0:
        return order, order
    starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
    sizes = np.diff(np.r_[starts, n])
    later = np.repeat(starts + sizes, sizes) - np.arange(n) - 1
    a = np.repeat(np.arange(n), later)
    b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(later) - later, later)
    return order[a], order[b]


def _expand(counts: np.ndarray):
    """Yield (owner, rank) chunks enumerating rank in range(counts[owner]).

    Owners stay whole inside a chunk; chunks hold about _CHUNK rows.
    """
    live = np.flatnonzero(counts)
    c = counts[live]
    ends = np.cumsum(c)
    lo = 0
    while lo < len(live):
        base = ends[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(ends, base + _CHUNK, side="right")), lo + 1)
        cc = c[lo:hi]
        owner = np.repeat(live[lo:hi], cc)
        rank = np.arange(ends[hi - 1] - base) - np.repeat(ends[lo:hi] - cc - base, cc)
        yield owner, rank
        lo = hi


@dataclass(frozen=True)
class _Links:
    """Pairs of strings one or two electrons apart, grouped by source string.

    Links of source k are rows start[k]:start[k+1], each carrying string
    src into string dst; _moves describes the move.
    """

    start: np.ndarray
    src: np.ndarray
    dst: np.ndarray

    def __post_init__(self):
        for array in vars(self).values():
            array.flags.writeable = False  # shared through the cache

    @classmethod
    def grouped(cls, n_strings, src, dst):
        order = np.argsort(src, kind="stable")
        return cls(np.searchsorted(src[order], np.arange(n_strings + 1)), src[order], dst[order])

    def grouping(self, into: bool):
        """(start, order, far): links order[start[k]:start[k+1]] leave string k
        for string far[link], or, when into, reach string k from far[link].
        order is None where it would be the identity."""
        if not into:
            return self.start, None, self.dst
        return self._by_dst

    @cached_property
    def _by_dst(self):
        """grouping(into=True), sorted once per table."""
        order = np.argsort(self.dst, kind="stable")
        start = np.searchsorted(self.dst[order], np.arange(len(self.start)))
        order.flags.writeable = start.flags.writeable = False
        return start, order, self.src

    def where(self, keep: np.ndarray) -> "_Links":
        """Only the links where keep is true, in the same order."""
        before = np.r_[0, np.cumsum(keep)]  # kept links ahead of each link
        return _Links(before[self.start], self.src[keep], self.dst[keep])


@lru_cache(maxsize=4)
def _string_links(packed: bytes):
    """(singles, upward singles, doubles) among the distinct sorted uint64 strings in packed.

    Singles hold both directions of each pair; doubles only the upward one.
    Two strings one electron apart share exactly one string with one
    electron removed, and two strings two electrons apart share exactly one
    with two removed, so grouping those reduced strings finds each pair
    without comparing all string pairs.
    """
    strings = np.frombuffer(packed, dtype=np.uint64)
    n_s, n_e = len(strings), int(np.bitwise_count(strings[0]))
    bits = _BIT[_set_orbitals(strings, n_e)]  # each string's electrons

    ea, eb = _pairs_in_groups((strings[:, None] ^ bits).ravel())
    singles = _Links.grouped(n_s, np.r_[ea, eb] // n_e, np.r_[eb, ea] // n_e)

    i1, i2 = np.triu_indices(n_e, 1)
    ea, eb = _pairs_in_groups((strings[:, None] ^ bits[:, i1] ^ bits[:, i2]).ravel())
    # Entries are row-major over sorted strings: the lower entry has the lower string.
    src, dst = np.minimum(ea, eb) // len(i1), np.maximum(ea, eb) // len(i1)
    keep = np.bitwise_count(strings[src] ^ strings[dst]) == 4
    doubles = _Links.grouped(n_s, src[keep], dst[keep])
    return singles, singles.where(singles.dst > singles.src), doubles


def _coupling_blocks(eri: np.ndarray) -> np.ndarray:
    """Block label of each orbital pair (p, q), at p * n_orb + q: the connected
    components joining (pq) and (rs) wherever (pq|rs) != 0. A breadth-first
    search reads each row once, n_orb rows at a time (no second n_orb**4 array)."""
    n_orb = eri.shape[0]
    coupled = (eri != 0).reshape(n_orb ** 2, -1)
    block = np.full(n_orb ** 2, -1)
    for seed in range(n_orb ** 2):
        if block[seed] < 0:
            block[seed], todo = seed, [seed]
            while len(todo):
                reached = np.zeros(n_orb ** 2, dtype=bool)
                for lo in range(0, len(todo), n_orb):
                    reached |= coupled[todo[lo:lo + n_orb]].any(axis=0)
                todo = np.flatnonzero(reached & (block < 0))
                block[todo] = seed
    return block


class _StringIndex:
    """A subspace's rows as (alpha string, beta string) index pairs.

    The pair walks yield each pair that touches a row at or after n_old, once:
    upward links from those rows to any row, then upward links from the first
    n_old rows into them.
    """

    def __init__(self, sub: Subspace, n_old: int = 0):
        r = sub.ranks
        self.ia, self.ib, self.find = r.ia, r.ib, r.row
        self.n_old, self.new = n_old, np.arange(n_old, len(sub))
        self.directions = (False, True) if n_old else (False,)
        self.strings = {"alpha": r.alpha, "beta": r.beta}
        # (singles, upward singles, doubles) per channel
        self.links = {c: _string_links(strings.tobytes()) for c, strings in self.strings.items()}

    def moves(self, channel: str, links: _Links, degree: int):
        """_moves of each of one channel's links of degree 1 or 2."""
        strings = self.strings[channel]
        return _moves(strings[links.src], strings[links.dst], degree)

    def same_spin(self, channel: str, links: _Links):
        """Yield (i, j, link) for pairs differing by one of the links in one channel only."""
        ix, iy = (self.ia, self.ib) if channel == "alpha" else (self.ib, self.ia)
        for into in self.directions:
            start, order, far = links.grouping(into)
            for k, rank in _expand(np.diff(start)[ix[self.new]]):
                i = self.new[k]
                link = start[ix[i]] + rank
                if into:
                    link = order[link]
                pair = (far[link], iy[i]) if channel == "alpha" else (iy[i], far[link])
                j = self.find(*pair)
                hit = (j >= 0) & (j < self.n_old) if into else j >= 0
                yield i[hit], j[hit], link[hit]

    def mixed(self, alpha: _Links, beta: _Links):
        """Yield (i, j, alpha link, beta link) for pairs one single apart in each
        channel, by one link of each table given: upward alpha singles, beta singles."""
        for into in self.directions:
            a_start, a_order, a_far = alpha.grouping(into)
            b_start, b_order, b_far = beta.grouping(into)
            n_b = np.diff(b_start)[self.ib[self.new]]
            for k, rank in _expand(np.diff(a_start)[self.ia[self.new]] * n_b):
                i = self.new[k]
                step_a, step_b = np.divmod(rank, n_b[k])
                la, lb = a_start[self.ia[i]] + step_a, b_start[self.ib[i]] + step_b
                if into:
                    la, lb = a_order[la], b_order[lb]
                j = self.find(a_far[la], b_far[lb])
                hit = (j >= 0) & (j < self.n_old) if into else j >= 0
                yield i[hit], j[hit], la[hit], lb[hit]


def single_excitation_pairs(sub: Subspace):
    """Row pairs of sub one electron apart, each once.

    Returns arrays (i, j, hole, particle, phase): row j is row i with one
    electron moved from orbital hole to orbital particle in one spin
    channel, with fermionic sign phase.
    """
    index = _StringIndex(sub)
    out = []
    for channel in ("alpha", "beta"):
        up = index.links[channel][1]
        holes, particles, phase = index.moves(channel, up, 1)
        for i, j, link in index.same_spin(channel, up):
            out.append((i, j, holes[link, 0], particles[link, 0], phase[link]))
    if not out:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty, empty, empty, np.zeros(0)
    return tuple(np.concatenate(col) for col in zip(*out))


def _diagonal(r: StringRanks, occ_a: np.ndarray, occ_b: np.ndarray, s: IntegralSet) -> np.ndarray:
    """<d|H|d> for every determinant, without e_core, from string occupations."""
    ar = np.arange(s.n_orb)
    j = s.eri[ar[:, None], ar[:, None], ar, ar]
    jk = j - s.eri[ar[:, None], ar, ar, ar[:, None]]
    h = np.diag(s.one_body)
    e_a = occ_a @ h + 0.5 * np.einsum("kp,pq,kq->k", occ_a, jk, occ_a)
    e_b = occ_b @ h + 0.5 * np.einsum("kp,pq,kq->k", occ_b, jk, occ_b)
    coulomb_a = occ_a @ j
    diag = e_a[r.ia] + e_b[r.ib]
    for lo in range(0, len(diag), _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        diag[sl] += np.einsum("kp,kp->k", coulomb_a[r.ia[sl]], occ_b[r.ib[sl]])
    return diag


def _walked(sub: Subspace, n_old: int, occ: dict, s: IntegralSet):
    """Yield (i, j, value) batches for the pairs of rows at most two electrons
    apart that touch a row at or after n_old, along the string links."""
    index = _StringIndex(sub, n_old)
    up_moves = {}
    for channel, other in (("alpha", "beta"), ("beta", "alpha")):
        _, up, doubles = index.links[channel]
        holes, particles, phase = up_moves[channel] = index.moves(channel, up, 1)
        base, coulomb = _single_terms(holes[:, 0], particles[:, 0], phase, occ[channel][up.src], s)
        live = (base != 0.0) | coulomb.any(axis=1)  # no pair is looked up for a vanishing single
        base, coulomb = base[live], coulomb[live]
        iy = index.ib if channel == "alpha" else index.ia
        for i, j, link in index.same_spin(channel, up.where(live)):
            yield i, j, _single_value(base[link], coulomb[link], occ[other][iy[i]])
        holes, particles, phase = index.moves(channel, doubles, 2)
        value = _double_element(holes.T, particles.T, phase, s)
        nonzero = value != 0.0  # no pair is looked up for a vanishing element
        value = value[nonzero]
        for i, j, link in index.same_spin(channel, doubles.where(nonzero)):
            yield i, j, value[link]

    # (h_a p_a|h_b p_b) is eri[pair_a, pair_b]; it vanishes unless both moves'
    # orbital pairs lie in one coupling block, so the walk runs block by block
    ha, pa, phase_a = up_moves["alpha"]
    up_a, singles_b = index.links["alpha"][1], index.links["beta"][0]
    hb, pb, phase_b = index.moves("beta", singles_b, 1)
    pair_a, pair_b = ha[:, 0] * s.n_orb + pa[:, 0], hb[:, 0] * s.n_orb + pb[:, 0]
    block, eri = _coupling_blocks(s.eri), s.eri.reshape(s.n_orb ** 2, -1)
    for b in np.unique(block[pair_a]):
        ka, kb = block[pair_a] == b, block[pair_b] == b
        whole_a, whole_b = np.flatnonzero(ka), np.flatnonzero(kb)  # links in the whole tables
        for i, j, la, lb in index.mixed(up_a.where(ka), singles_b.where(kb)):
            la, lb = whole_a[la], whole_b[lb]
            yield i, j, phase_a[la] * phase_b[lb] * eri[pair_a[la], pair_b[lb]]


def _compared(sub: Subspace, n_old: int, s: IntegralSet):
    """Yield (i, j, value) batches for the pairs of rows j < i, n_old <= i, at
    most two electrons apart, from the XOR of their strings (Scemama &
    Giner, arXiv:1311.6244), valued by _pair_elements."""
    alpha, beta = sub.alpha, sub.beta
    for k, j in _expand(np.arange(n_old, len(sub))):
        i = k + n_old
        near = np.flatnonzero(np.bitwise_count(alpha[i] ^ alpha[j])
                              + np.bitwise_count(beta[i] ^ beta[j]) <= 4)  # 2 per move
        i, j = i[near], j[near]
        yield i, j, _pair_elements(alpha[i], beta[i], alpha[j], beta[j], s)


def _joined(batches: list) -> np.ndarray:
    """The batches as one array. The list is emptied, so its batches are freed
    before the next list is joined."""
    joined = np.concatenate(batches)
    batches.clear()
    return joined


def project(sub: Subspace, s: IntegralSet,
            known: Optional[tuple] = None) -> scipy.sparse.csr_matrix:
    """Assemble <d_i|H|d_j> + e_core*I over the rows of sub, in order.

    Only the lower triangle is stored: row i holds columns <= i and ends with
    its diagonal entry, always stored; entries beyond excitation degree 2 and
    off-diagonal entries that vanish are left out. Given known, an earlier
    (Subspace, matrix) pair from project or principal_block whose rows are
    sub's first rows (EigensolverError otherwise), those rows are copied and
    only the rows after them are built; each value is the same formula, so
    the matrix is bitwise a cold one. The diagonal is always recomputed: its
    last bits depend on which strings sub holds. Fewer than PAIRWISE_CUTOFF
    row pairs to build are compared string by string, more are walked along
    the string links; both give the same bits.
    """
    n = len(sub)
    if n == 0:
        raise EigensolverError("cannot project onto an empty subspace")
    n_old = 0 if known is None else len(known[0])
    if n_old and not (np.array_equal(known[0].alpha, sub.alpha[:n_old])
                      and np.array_equal(known[0].beta, sub.beta[:n_old])):
        raise EigensolverError("the known rows are not the first rows of the subspace")
    r = sub.ranks
    occ = {"alpha": _occupations(r.alpha, s.n_orb), "beta": _occupations(r.beta, s.n_orb)}
    diag = _diagonal(r, occ["alpha"], occ["beta"], s) + s.e_core
    new = np.arange(n_old, n, dtype=np.int32)
    rows, cols, vals = [new - n_old], [new], [diag[n_old:]]  # rows count from the first new row
    if (n - n_old) * (n + n_old - 1) // 2 < PAIRWISE_CUTOFF:
        pairs = _compared(sub, n_old, s)
    else:
        pairs = _walked(sub, n_old, occ, s)
    for i, j, v in pairs:
        keep = v != 0.0
        rows.append((np.maximum(i, j)[keep] - n_old).astype(np.int32))
        cols.append(np.minimum(i, j)[keep].astype(np.int32))
        vals.append(v[keep])

    added = scipy.sparse.csr_matrix((_joined(vals), (_joined(rows), _joined(cols))),
                                    shape=(n - n_old, n))
    if not n_old:
        return added
    old = known[1]
    data = np.concatenate((old.data, added.data))
    data[old.indptr[1:] - 1] = diag[:n_old]
    return scipy.sparse.csr_matrix((data, np.concatenate((old.indices, added.indices)),
                                    np.concatenate((old.indptr, added.indptr[1:] + old.nnz))),
                                   shape=(n, n))


def principal_block(sub: Subspace, h: scipy.sparse.csr_matrix, rows) -> tuple:
    """sub.take(rows) and h's block at rows, rows ascending so it stays one triangle."""
    rows = np.sort(rows)
    if len(rows) == len(sub):  # every row, in order
        return sub, h
    return sub.take(rows), h[rows][:, rows]


def _davidson(lower, tol: float, max_iter: int, guess: Optional[np.ndarray]):
    """(theta, x, residual norm, converged) from a Davidson iteration on the
    triangle lower. The basis vectors V_i and their products AV_i are the
    first m rows of two preallocated (MAX_SUBSPACE, n) arrays, and row i of
    the Rayleigh matrix T holds V_i . AV_j for j <= i, added once per step."""
    n, upper, diag = lower.shape[0], lower.T, lower.diagonal()
    V, AV = np.empty((MAX_SUBSPACE, n)), np.empty((MAX_SUBSPACE, n))
    T = np.empty((MAX_SUBSPACE, MAX_SUBSPACE))

    def append(m, v):
        """Make v basis row m and add its row of T."""
        V[m] = v
        AV[m] = lower @ v + upper @ v - diag * v
        T[m, :m + 1] = AV[:m + 1] @ v

    if guess is not None and np.linalg.norm(guess) > 0:
        v0 = guess / np.linalg.norm(guess)
    else:
        v0 = np.zeros(n)
        v0[int(np.argmin(diag))] = 1.0
    append(0, v0)
    m = 1
    for _ in range(max_iter):
        w, vecs = np.linalg.eigh(T[:m, :m], "L")
        theta, y = float(w[0]), vecs[:, 0]
        x, ax = y @ V[:m], y @ AV[:m]
        residual = ax - theta * x
        residual_norm = float(np.linalg.norm(residual))
        if residual_norm <= tol:
            return theta, x, residual_norm, True
        if m >= MAX_SUBSPACE:  # restart from the Ritz vector alone
            norm = np.linalg.norm(x)
            V[0], AV[0] = x / norm, ax / norm
            T[0, 0] = AV[0] @ V[0]
            m = 1
            continue
        denom = diag - theta
        denom = np.where(np.abs(denom) < 1e-8, np.copysign(1e-8, denom + 1e-300), denom)
        t = residual / denom
        for escape in (False, True):
            if escape:  # the preconditioned residual lies in the span:
                t = np.zeros(n)  # escape along the largest-residual coordinate
                t[int(np.argmax(np.abs(residual)))] = 1.0
            # two Gram-Schmidt passes keep V orthonormal to working precision
            for _ in range(2):
                t -= (V[:m] @ t) @ V[:m]
            norm = np.linalg.norm(t)
            if norm >= 1e-12:
                break
        else:
            return theta, x, residual_norm, False
        append(m, t / norm)
        m += 1
    return theta, x, residual_norm, False


def ground_state(
    h: scipy.sparse.csr_matrix,
    mode: str = "tight",
    guess: Optional[np.ndarray] = None,
) -> CIVector:
    """Lowest eigenpair of the symmetric matrix whose lower triangle is h, as
    project() returns it; entries above the diagonal must be absent.

    mode="tight" iterates Davidson to residual 1e-8 and raises on failure;
    mode="loose" stops at residual 1e-3 or 20 iterations, whichever first,
    and returns the best estimate. Dimensions up to DENSE_CUTOFF, read at
    each call, solve directly: numpy's eigh finds every eigenpair and the
    lowest is kept. guess, an amplitude array over h's rows, is where
    Davidson starts when its norm is nonzero; a direct solve ignores it.
    The returned vector is normalized, its largest-magnitude amplitude positive.
    """
    if mode not in ("tight", "loose"):
        raise ValueError(f"unknown mode {mode!r}")
    n = h.shape[0]
    if n == 0:
        raise EigensolverError("empty Hamiltonian")
    if guess is not None and len(guess) != n:
        raise EigensolverError("guess vector length does not match dimension")
    if n <= DENSE_CUTOFF:
        w, v = np.linalg.eigh(h.toarray(), "L")
        theta, x = float(w[0]), v[:, 0]
    else:
        if mode == "tight":
            tol, max_iter = TIGHT_RESIDUAL, TIGHT_MAX_ITER
        else:
            tol, max_iter = LOOSE_RESIDUAL, LOOSE_MAX_ITER
        theta, x, res, ok = _davidson(h, tol, max_iter, guess)
        if mode == "tight" and not ok:
            raise EigensolverError(
                f"Davidson failed to reach residual {tol:g} in {max_iter} iterations "
                f"(final residual {res:.3e})"
            )
    if x[np.argmax(np.abs(x))] < 0:
        x = -x
    return CIVector(x / np.linalg.norm(x), theta)
