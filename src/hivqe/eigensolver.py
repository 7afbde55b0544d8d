"""Subspace Hamiltonian assembly and ground-eigenpair solves.

project() builds the sparse symmetric matrix <d_i|H|d_j> + e_core over the
rows of a Subspace and stores it once, as its lower triangle. Off-diagonal
pairs come from one of two generators, picked by how many row pairs the call
builds, in numpy batches of about _CHUNK candidates. Below PAIRWISE_CUTOFF
pairs, as in a sampled set, the strings of each pair of rows are XORed and
the popcounts class the pair as a single or double in one spin channel or a
single in each (Scemama & Giner, arXiv:1311.6244). At or above it, each row's pair of
uint64 strings becomes a pair of indices into each spin channel's strings,
the strings one or two electrons apart are linked, and partners are found
by a RowIndex (Knowles & Handy, CPL 111, 315, 1984). One enumerator,
_linked, walks every pair as one alpha link and one beta link: a single or
double in one channel takes a stay (each string linked to itself) in the
other, and a single in each channel is walked once per coupling block
(connected orbital pairs, joined wherever (pq|rs) != 0). No pair is looked
up whose single, double or (h_a p_a|h_b p_b) is exactly zero, so every
stored bit stays as it was.
The links and the values they carry make up a WalkState of one
IntegralSet, which the loop carries beside its known block. A link table
grows by appending, and its groupings by source and by target string are
each built the first time the walk reads them. An extension whose strings
the state holds walks it as it is; a new string is linked by looking up its
neighbours (fast SHCI keeps its helper lists across builds alike). The
state never drops a string; a walked call handed none builds its own.
Every element formula lives in determinants: compared pairs are valued by
_pair_elements, and the walk evaluates its links with the same helpers,
reading a pair from its source row as _pair_elements does, so both
generators store the same bits; this module only generates, stores and
solves.
Every entry of a row lies in that row, so a subspace that appends rows to an
earlier one extends its triangle by appending: the earlier rows are copied
and only the new rows are built (fast SHCI: Li, Otten, Holmes, Sharma &
Umrigar, JCP 149, 214110, 2018). The new rows' entries are written once,
into one (row, col, value) buffer reserved before any pair is generated:
room for the diagonal and for every pair the generator will look at (the
row pairs it compares, or the walk's lookups). A walk plans each pass, one
table in one direction, once: each new row's alpha links times its beta
links, which sum to its lookups and drive the pass. Each batch's nonzero
pairs fill the buffer's next slice, and the filled prefix becomes the CSR
matrix; the pages of a walk's misses are reserved but never touched. The
diagonal, always recomputed, comes from occupation vectors against
J = (pp|qq) and K = (pq|qp). slater_condon is the element-by-element oracle.

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

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse

from .determinants import (_double_element, _moves, _occupations, _pair_elements, _single_terms,
                           _single_value, _string_pairs)
from .integrals import IntegralSet
from .subspace import RowIndex, StringRanks, Subspace

__all__ = [
    "CIVector",
    "EigensolverError",
    "WalkState",
    "project",
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
_CHUNK = 1 << 13


def _kept(keep: np.ndarray, *arrays):
    """arrays where keep is true; the arrays themselves when it is true throughout."""
    return arrays if keep.all() else tuple(a[keep] for a in arrays)


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


def _grouped(keys: np.ndarray, n: int):
    """(start, order): the positions of keys equal to k, for keys below n, are
    order[start[k]:start[k+1]], ascending. keys are stably sorted as the
    smallest unsigned type that holds them: numpy radix-sorts 16-bit keys."""
    order = np.argsort(keys.astype(np.min_scalar_type(n)), kind="stable")
    return np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=n)))), order


@dataclass(frozen=True)
class _Links:
    """Pairs of n strings one or two electrons apart (or, for a stay, marked
    stay, each string and itself), in the order they were made: link k
    carries string src[k] into string dst[k], and values holds, by name, one
    entry per link. A table grows by appending, and each grouping is built
    when first read.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    values: dict
    stay: bool = False
    _groupings: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for array in (self.src, self.dst, *self.values.values()):
            array.flags.writeable = False  # carried from call to call

    def grouping(self, into: bool):
        """(start, order, far): links order[start[k]:start[k+1]] leave string k,
        or, when into, reach it; far[p] is the string at the other end of link
        order[p], so a walk reads order only for the pairs it keeps."""
        if into not in self._groupings:
            keys, far = (self.dst, self.src) if into else (self.src, self.dst)
            start, order = _grouped(keys, self.n)
            self._groupings[into] = start, order, far[order]
            for array in self._groupings[into]:
                array.flags.writeable = False
        return self._groupings[into]


def _grown(links: Optional[_Links], n_strings: int, src, dst, **values) -> _Links:
    """links (None for none yet) with the given ones appended, over n_strings strings."""
    if links is not None:
        src, dst = np.concatenate((links.src, src)), np.concatenate((links.dst, dst))
        values = {k: np.concatenate((v, values[k])) for k, v in links.values.items()}
    return _Links(n_strings, src, dst, values)


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


def _irrep_labels(block: np.ndarray, one_body: np.ndarray) -> Optional[np.ndarray]:
    """Each orbital's Z2^k irrep label (k >= 1), so that the coupling block of
    every orbital pair (p, q) is the XOR of the labels of p and q, two blocks
    never sharing one XOR, and h_pq vanishes unless p and q share a label;
    None when the blocks form no such grading (C1 integrals make one block).

    By GF(2) elimination over orbital bits: each pair (p, q) relates
    L(p) ^ L(q) to the same XOR of its block's first pair, and L(0) = 0 fixes
    the free shift. An orbital's label is its reduced bit vector read at the
    positions no relation eliminates, one label bit each.
    """
    n = one_body.shape[0]
    bits = np.uint64(1) << np.arange(n, dtype=np.uint64)
    pair = (bits[:, None] ^ bits).ravel()
    _, first, of = np.unique(block, return_index=True, return_inverse=True)
    relations = np.unique(pair ^ pair[first][of])
    basis = {}  # highest bit -> relation, an echelon basis

    def reduced(v: int) -> int:
        for top in sorted(basis, reverse=True):
            if v >> top & 1:
                v ^= basis[top]
        return v

    for v in [1, *relations.tolist()]:
        v = reduced(v)
        if v:
            basis[v.bit_length() - 1] = v
    free = [t for t in range(n) if t not in basis]
    labels = np.array([sum((reduced(1 << p) >> t & 1) << j for j, t in enumerate(free))
                       for p in range(n)], dtype=np.int64)
    xor = labels[:, None] ^ labels
    if not free or len(np.unique(xor)) < len(first) or one_body[xor != 0].any():
        return None
    return labels


class _Channel:
    """One spin channel's strings, in first-seen order, and the links the walk
    reads among them, each with the values it carries, for IntegralSet s and
    its coupling block labels block.

    singles holds the upward singles whose element can be nonzero, with
    their _single_terms (base, coulomb); doubles the upward doubles with
    their nonzero values; across, by coupling block, the singles the walk
    pairs with one in the other channel, with their phase and orbital pair
    (upward only for alpha, both directions for beta); stay links each
    string to itself, for the other channel's same-spin moves. New strings'
    links (determinants._string_pairs) are appended, the stay is remade,
    and each grouping is built the first time the walk reads it.
    """

    def __init__(self, s: IntegralSet, block: np.ndarray, both_ways: bool):
        self.s, self.block, self.both_ways = s, block, both_ways
        self.strings = np.zeros(0, dtype=np.uint64)
        self.occ = np.zeros((0, s.n_orb))
        self.singles = self.doubles = self.stay = None
        self.across = {}
        self._sorter = self._sorted = self.strings

    def index(self, wanted: np.ndarray) -> np.ndarray:
        """Position of each of the sorted distinct strings wanted, adding those not held."""
        fresh = np.setdiff1d(wanted, self._sorted, assume_unique=True)
        if len(fresh):
            self.add(fresh)
        return self._sorter[np.searchsorted(self._sorted, wanted)]

    def add(self, fresh: np.ndarray) -> None:
        """Hold the sorted strings fresh too, linking only the pairs that involve one."""
        s = self.s
        n_old, n = len(self.strings), len(self.strings) + len(fresh)
        strings = self.strings = np.concatenate((self.strings, fresh))
        occ = self.occ = np.concatenate((self.occ, _occupations(fresh, s.n_orb)))
        self._sorter = np.argsort(strings)
        self._sorted = strings[self._sorter]
        self.stay = _Links(n, np.arange(n), np.arange(n), {}, stay=True)

        lo, hi = _string_pairs(strings, s.n_orb, n_old, 1)
        holes, particles, phase = _moves(strings[lo], strings[hi], 1)
        holes, particles = holes[:, 0], particles[:, 0]
        base, coulomb = _single_terms(holes, particles, phase, occ[lo], s)
        # no pair is looked up for a vanishing single
        src, dst, base, coulomb = _kept((base != 0.0) | coulomb.any(axis=1), lo, hi, base, coulomb)
        self.singles = _grown(self.singles, n, src, dst, base=base, coulomb=coulomb)
        if self.both_ways:  # the reverse of h -> p is p -> h, of the same sign: only h and p differ
            lo, hi = np.concatenate((lo, hi)), np.concatenate((hi, lo))
            holes, particles = np.concatenate((holes, particles)), np.concatenate((particles, holes))
            phase = np.concatenate((phase, phase))
        pair = holes * s.n_orb + particles
        label = self.block[pair]
        for b in set(self.across) | set(np.unique(label).tolist()):
            src, dst, phase_b, pair_b = _kept(label == b, lo, hi, phase, pair)
            self.across[b] = _grown(self.across.get(b), n, src, dst, phase=phase_b, pair=pair_b)

        lo, hi = _string_pairs(strings, s.n_orb, n_old, 2)
        holes, particles, phase = _moves(strings[lo], strings[hi], 2)
        value = _double_element(holes.T, particles.T, phase, s)
        # no pair is looked up for a vanishing element
        src, dst, value = _kept(value != 0.0, lo, hi, value)
        self.doubles = _grown(self.doubles, n, src, dst, value=value)


class WalkState:
    """What the link walk reads besides the rows, for one IntegralSet: each
    spin channel's strings, their occupations and the links among them
    (_Channel), and block, the coupling block of each orbital pair, labelled
    once when the state is made.

    project grows it in place as it walks: a string it holds is never linked
    again, and a new one is linked only to the strings it meets one or two
    electrons away. It holds every string walked since it was made, so it
    serves any later subspace of its IntegralSet.
    """

    def __init__(self, s: IntegralSet):
        self.s = s
        self.block = _coupling_blocks(s.eri)
        self.alpha = _Channel(s, self.block, both_ways=False)
        self.beta = _Channel(s, self.block, both_ways=True)

    def index(self, sub: Subspace):
        """(ia, ib, find): sub's rows as positions among the held strings, holding
        sub's strings first, and the row of each position pair, -1 where absent."""
        r = sub.ranks
        ia, ib = self.alpha.index(r.alpha)[r.ia], self.beta.index(r.beta)[r.ib]
        return ia, ib, RowIndex(ia, ib, len(self.alpha.strings), len(self.beta.strings)).row


def _linked(ia: np.ndarray, ib: np.ndarray, find, n_old: int, alpha: _Links, beta: _Links,
            into: bool, counts: np.ndarray, n_b: np.ndarray):
    """Yield (i, j, alpha link, beta link) for the rows j = find(alpha string,
    beta string) one link of each table away from a row i at or after n_old:
    along the links leaving row i or, when into, the links into it from a row
    before n_old. Row n_old + k has counts[k] pairs to look up, n_b[k] beta
    links times its alpha links. A stay has one link per string, so the rank
    is the other table's step and no division is needed."""
    a_start, a_order, a_far = alpha.grouping(into)
    b_start, b_order, b_far = beta.grouping(into)
    for k, rank in _expand(counts):
        i = k + n_old
        if alpha.stay or beta.stay:
            step_a, step_b = (0, rank) if alpha.stay else (rank, 0)
        else:
            step_a, step_b = np.divmod(rank, n_b[k])
        at_a, at_b = a_start[ia[i]] + step_a, b_start[ib[i]] + step_b
        j = find(a_far[at_a], b_far[at_b])
        i, j, at_a, at_b = _kept((j >= 0) & (j < n_old) if into else j >= 0, i, j, at_a, at_b)
        yield i, j, a_order[at_a], b_order[at_b]


def _diagonal(r: StringRanks, s: IntegralSet) -> np.ndarray:
    """<d|H|d> + e_core for every determinant, from its strings' occupations."""
    occ_a, occ_b = _occupations(r.alpha, s.n_orb), _occupations(r.beta, s.n_orb)
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
    return diag + s.e_core


def _same_spin(own: _Channel, other: _Channel, flip: int) -> list:
    """own's singles and its doubles, each paired with other's stay, as
    (alpha links, beta links, value) tables; flip is -1 when own is beta.
    value(alpha link, beta link) is the element of a pair the walk finds."""
    base, coulomb = own.singles.values["base"], own.singles.values["coulomb"]
    double = own.doubles.values["value"]

    def single(*links):
        move, held = links[::flip]  # link k of the stay holds other-channel string k
        return _single_value(base[move], coulomb[move], other.occ[held])

    return [(*(own.singles, other.stay)[::flip], single),
            (*(own.doubles, other.stay)[::flip], lambda *links: double[links[::flip][0]])]


def _across(up_a: _Links, singles_b: _Links, eri: np.ndarray) -> tuple:
    """One coupling block's alpha and beta singles as an (alpha links, beta
    links, value) table: (h_a p_a|h_b p_b) is eri[pair_a, pair_b]."""
    (phase_a, pair_a), (phase_b, pair_b) = ((t.values["phase"], t.values["pair"])
                                            for t in (up_a, singles_b))
    return up_a, singles_b, lambda la, lb: phase_a[la] * phase_b[lb] * eri[pair_a[la], pair_b[lb]]


def _walked(sub: Subspace, n_old: int, walk: WalkState):
    """(lookups, batches): how many row pairs the walk looks up, and a
    generator of (i, j, value) batches for the pairs of rows at most two
    electrons apart that touch a row at or after n_old, along the string
    links. A same-spin move pairs a link of its channel with a stay in the
    other; (h_a p_a|h_b p_b) vanishes unless both moves' orbital pairs lie
    in one coupling block, so a single in each channel is walked block by
    block. Each table is walked in one pass along the links leaving the new
    rows and, when rows precede them, one along the links into them. Each
    pass is planned once: each new row's alpha links times its beta links,
    read from the pass's groupings, add up to the lookups and drive its walk."""
    ia, ib, find = walk.index(sub)
    eri = walk.s.eri.reshape(walk.s.n_orb ** 2, -1)
    tables = (_same_spin(walk.alpha, walk.beta, 1) + _same_spin(walk.beta, walk.alpha, -1)
              + [_across(up_a, walk.beta.across[b], eri)
                 for b, up_a in walk.alpha.across.items() if b in walk.beta.across])
    passes, lookups = [], 0
    for a, b, value in tables:
        for into in (False, True) if n_old else (False,):
            n_b = np.diff(b.grouping(into)[0])[ib[n_old:]]
            counts = np.diff(a.grouping(into)[0])[ia[n_old:]] * n_b
            lookups += int(counts.sum())
            passes.append((a, b, into, counts, n_b, value))
    return lookups, ((i, j, value(la, lb)) for a, b, into, counts, n_b, value in passes
                     for i, j, la, lb in _linked(ia, ib, find, n_old, a, b, into, counts, n_b))


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


def _added(diag: np.ndarray, n_old: int, size: int, batches) -> scipy.sparse.csr_matrix:
    """Rows n_old on of the lower triangle, counted from row n_old: each row's
    diagonal, then the nonzero values of batches, (i, j, value) arrays of at
    most size pairs in all. Every entry is written once, into one buffer
    reserved for all of them; pages it never reaches are never touched."""
    n = len(diag)
    end = n - n_old
    rows, cols = np.empty(end + size, dtype=np.int32), np.empty(end + size, dtype=np.int32)
    vals = np.empty(end + size)
    rows[:end], cols[:end], vals[:end] = np.arange(end), np.arange(n_old, n), diag[n_old:]
    for i, j, v in batches:
        i, j, v = _kept(v != 0.0, i, j, v)
        at = slice(end, end + len(v))
        row = np.maximum(i, j, out=rows[at])
        row -= n_old
        np.minimum(i, j, out=cols[at])
        vals[at] = v
        end = at.stop
    return scipy.sparse.csr_matrix((vals[:end], (rows[:end], cols[:end])), shape=(n - n_old, n))


def project(sub: Subspace, s: IntegralSet, known: Optional[tuple] = None,
            walk: Optional[WalkState] = None) -> scipy.sparse.csr_matrix:
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
    the string links; both give the same bits. A walk reads and grows walk,
    and builds its own state when given none; a state made for another
    IntegralSet is refused with EigensolverError.
    """
    if walk is not None and walk.s is not s:
        raise EigensolverError("the walk state was built for another IntegralSet")
    n = len(sub)
    if n == 0:
        raise EigensolverError("cannot project onto an empty subspace")
    n_old = 0 if known is None else len(known[0])
    if n_old and not (np.array_equal(known[0].alpha, sub.alpha[:n_old])
                      and np.array_equal(known[0].beta, sub.beta[:n_old])):
        raise EigensolverError("the known rows are not the first rows of the subspace")
    diag = _diagonal(sub.ranks, s)
    pairs = (n - n_old) * (n + n_old - 1) // 2
    if pairs < PAIRWISE_CUTOFF:
        size, batches = pairs, _compared(sub, n_old, s)
    else:
        size, batches = _walked(sub, n_old, walk or WalkState(s))
    added = _added(diag, n_old, size, batches)
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
