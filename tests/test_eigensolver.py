"""Subspace Hamiltonian assembly and the Davidson ground-state solver."""

import contextlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import hivqe.determinants
import hivqe.eigensolver
import hivqe.driver
from hivqe.determinants import (Determinant, Sector, _channel_excitation, _occupations,
                                occupied_orbitals, slater_condon)
from hivqe.driver import compute_1rdm
from hivqe.eigensolver import (
    DENSE_CUTOFF,
    CIVector,
    EigensolverError,
    WalkState,
    _Channel,
    _coupling_blocks,
    _irrep_labels,
    _moves,
    ground_state,
    principal_block,
    project,
)
from hivqe.integrals import IntegralSet, parse_fcidump
from hivqe.oracle import brute_force_hamiltonian, det_to_fock_index
from hivqe.sampler import enumerate_sector
from hivqe.subspace import RowIndex, Subspace, tensor_reconstruct

from helpers import (FIXTURES, blocked_integral_set, dense_symmetric, load_fixture,
                     load_reference, planted_irreps, random_integral_set, subspace_of,
                     with_forbidden_eri, with_forbidden_h)

BENCH_INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs"  # read only
H8 = BENCH_INPUTS / "h8.fcidump"

# PAIRWISE_CUTOFF values that make project walk the string links for every
# call, or compare every pair of strings; a project test runs under both.
WALK, PAIRWISE = 0, 1 << 62


@contextlib.contextmanager
def generator(cutoff):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hivqe.eigensolver, "PAIRWISE_CUTOFF", cutoff)
        yield


def test_project_is_symmetric_with_core_on_diagonal():
    """project stores the symmetric matrix once: its lower triangle and the
    diagonal, with nothing above it."""
    s = random_integral_set(4, 2, 2, seed=1, e_core=1.75)
    dets = enumerate_sector(4, 2, 2)
    for cutoff in (WALK, PAIRWISE):
        with generator(cutoff):
            h = project(subspace_of(dets, s), s)
        stored = h.toarray()
        assert not np.triu(stored, 1).any()
        assert np.count_nonzero(np.tril(stored, -1)) > 0
        mat = dense_symmetric(h)
        assert np.allclose(mat, mat.T, atol=0)
        for i, d in enumerate(dets):
            assert mat[i, i] == pytest.approx(
                slater_condon(d, d, s) + 1.75, abs=1e-13)


def test_project_matches_operator_algebra():
    s = random_integral_set(3, 1, 2, seed=14, e_core=-0.5)
    dets = enumerate_sector(3, 1, 2)
    dense = brute_force_hamiltonian(s)
    idx = [det_to_fock_index(d, 3) for d in dets]
    for cutoff in (WALK, PAIRWISE):
        with generator(cutoff):
            mat = dense_symmetric(project(subspace_of(dets, s), s))
        assert np.max(np.abs(mat - dense[np.ix_(idx, idx)])) < 1e-12


def test_project_partial_subspace_rows():
    """Off-diagonal coupling buckets must find every pair even in a sparse,
    arbitrarily ordered subset of the sector."""
    s = random_integral_set(5, 2, 2, seed=30)
    dets = list(enumerate_sector(5, 2, 2))
    rng = np.random.default_rng(6)
    pick = [dets[i] for i in rng.permutation(len(dets))[:37]]
    for cutoff in (WALK, PAIRWISE):
        with generator(cutoff):
            mat = dense_symmetric(project(subspace_of(pick, s), s))
        for i, di in enumerate(pick):
            for j, dj in enumerate(pick):
                assert mat[i, j] == pytest.approx(
                    slater_condon(di, dj, s) + (s.e_core if i == j else 0.0),
                    abs=1e-12)


def assert_matches_oracle(dets, s):
    """project()'s stored lower triangle agrees element by element with
    slater_condon (+ e_core on the diagonal), holds nothing above the
    diagonal and stores no off-diagonal zeros, under either pair generator;
    the two store the same bits."""
    oracle = np.array([[slater_condon(di, dj, s) + (s.e_core if i == j else 0.0)
                        for j, dj in enumerate(dets)] for i, di in enumerate(dets)])
    built = []
    for cutoff in (WALK, PAIRWISE):
        with generator(cutoff):
            h = project(subspace_of(dets, s), s)
        stored = h.toarray()
        assert not np.triu(stored, 1).any()
        assert np.max(np.abs(stored - np.tril(oracle))) < 1e-12
        assert h.nnz == len(dets) + np.count_nonzero(np.tril(oracle, -1))
        built.append(h)
    assert same_storage(*built)


def walk_strings(n_orb, n_e, count, rng):
    """count distinct n_e-electron strings on a random walk of single
    excitations, so that many pairs are one or two electrons apart."""
    out = {sum(1 << int(p) for p in rng.choice(n_orb, n_e, replace=False))}
    while len(out) < count:
        s = sorted(out)[rng.integers(len(out))]
        occ = [p for p in range(n_orb) if s >> p & 1]
        virt = [p for p in range(n_orb) if not s >> p & 1]
        out.add(s ^ (1 << int(rng.choice(occ))) ^ (1 << int(rng.choice(virt))))
    return sorted(out)


def string_product_subset(n_orb, n_alpha, n_beta, n_strings, keep, seed):
    """A shuffled random part of (some alpha strings) x (some beta strings)."""
    rng = np.random.default_rng(seed)
    alpha = walk_strings(n_orb, n_alpha, n_strings, rng)
    beta = walk_strings(n_orb, n_beta, n_strings, rng)
    dets = [Determinant(a, b) for a in alpha for b in beta]
    pick = rng.permutation(len(dets))[: int(keep * len(dets))]
    return [dets[i] for i in pick]


def excitation_kinds(dets):
    """Counts of pairs (alpha-only, beta-only, mixed) at degree <= 2."""
    kinds = [0, 0, 0]
    for i, di in enumerate(dets):
        for dj in dets[i + 1:]:
            da = (di.alpha_mask ^ dj.alpha_mask).bit_count() // 2
            db = (di.beta_mask ^ dj.beta_mask).bit_count() // 2
            if da + db <= 2:
                kinds[0 if db == 0 else 1 if da == 0 else 2] += 1
    return kinds


@pytest.mark.parametrize("n_orb,n_alpha,n_beta,seed,integrals", [
    pytest.param(10, 3, 3, 101, random_integral_set, id="10-3-3-101"),
    pytest.param(11, 4, 2, 102, random_integral_set, id="11-4-2-102"),
    pytest.param(12, 2, 5, 103, random_integral_set, id="12-2-5-103"),
    pytest.param(12, 5, 5, 104, random_integral_set, id="12-5-5-104"),
    pytest.param(10, 3, 3, 110, blocked_integral_set, id="10-3-3-110-blocked"),
    pytest.param(12, 4, 5, 111, blocked_integral_set, id="12-4-5-111-blocked"),
])
def test_project_matches_slater_condon_on_shuffled_subsets(n_orb, n_alpha, n_beta, seed, integrals):
    """Under point-group zeros the walk visits each coupling block on its own."""
    s = integrals(n_orb, n_alpha, n_beta, seed=seed, e_core=0.6)
    dets = string_product_subset(n_orb, n_alpha, n_beta, 12, 0.7, seed)
    assert all(excitation_kinds(dets))
    assert_matches_oracle(dets, s)


@pytest.mark.parametrize("name,blocks", [
    ("h2_0.50", 1), ("h2_0.74", 1), ("h2_1.50", 1), ("h2_2.50", 1), ("h4_chain", 2),
    ("h8", 2), ("h12", 2), ("lih", 4), ("random", 1), ("blocked", 4),
])
def test_coupling_blocks_join_every_pair_of_orbital_pairs_an_integral_couples(name, blocks):
    """Point-group symmetry parts the off-diagonal orbital pairs into the
    blocks of its irrep products (g and u for the chains, four for LiH and the
    Z2 x Z2 random set); dense random integrals leave one."""
    if name in ("h8", "h12"):
        s = parse_fcidump((BENCH_INPUTS / f"{name}.fcidump").read_text())
    elif name == "random":
        s = random_integral_set(7, 3, 3, seed=9)
    elif name == "blocked":
        s = blocked_integral_set(10, 3, 3, seed=110)
    else:
        s = load_fixture(name)
    block, n = _coupling_blocks(s.eri), s.n_orb
    assert block.shape == (n * n,)
    assert len(np.unique(block[~np.eye(n, dtype=bool).ravel()])) == blocks
    p, q, r, t = np.nonzero(s.eri)
    assert np.array_equal(block[p * n + q], block[r * n + t])


def irrep_labels(s):
    return _irrep_labels(_coupling_blocks(s.eri), s.one_body)


BLOCKED_SEEDS = [(8, 3, 4, 41), (8, 3, 4, 47), (8, 3, 4, 53), (10, 3, 3, 110),
                 (8, 4, 4, 1), (8, 4, 4, 2), (8, 4, 4, 3)]


@pytest.mark.parametrize("n_orb,n_alpha,n_beta,seed", BLOCKED_SEEDS)
def test_irrep_labels_recover_the_planted_z2_x_z2_labels(n_orb, n_alpha, n_beta, seed):
    """Up to an XOR relabelling: one bijection of Z2 x Z2 takes the planted
    XOR of every orbital pair to the XOR of its labels."""
    labels = irrep_labels(blocked_integral_set(n_orb, n_alpha, n_beta, seed))
    planted = planted_irreps(n_orb, seed)
    assert labels[0] == 0
    relabel = set(zip((planted[:, None] ^ planted).ravel().tolist(),
                      (labels[:, None] ^ labels).ravel().tolist()))
    assert len(relabel) == len(dict(relabel)) == len(set(dict(relabel).values())) == 4


def graded_set(name):
    if name in ("h8", "h12"):
        return parse_fcidump((BENCH_INPUTS / f"{name}.fcidump").read_text())
    if name == "blocked":
        return blocked_integral_set(8, 4, 4, seed=1)
    return load_fixture(name)


@pytest.mark.parametrize("name,pattern", [
    ("h2_0.74", "gu"), ("h2_2.50", "gu"), ("h4_chain", "gugu"), ("h8", "gu" * 4),
    ("h12", "gu" * 6), ("lih", "aaabca"),
])
def test_irrep_labels_give_the_chains_alternating_parity_and_lih_three_irreps(name, pattern):
    """The chains' orbitals alternate gerade and ungerade; LiH's sigma
    orbitals share one label and its two pi orbitals take two others, three
    irreps of C2v that generate Z2 x Z2. Each coupling block is one XOR."""
    s = graded_set(name)
    labels = irrep_labels(s)
    assert labels[0] == 0
    assert len(set(zip(pattern, labels.tolist()))) == len(set(pattern)) == len(set(labels.tolist()))
    assert int(labels.max()).bit_length() == len(set(pattern)) - 1
    block, x = _coupling_blocks(s.eri), (labels[:, None] ^ labels).ravel()
    assert len(set(zip(block.tolist(), x.tolist()))) == len(set(block.tolist())) == len(set(x.tolist()))


@pytest.mark.parametrize("name", ["random", "lih", "h8", "blocked"])
def test_irrep_labels_report_no_grading_for_dense_or_slightly_broken_integrals(name):
    """C1 integrals make one block; a 1e-13 (pq|rs) that the labels forbid,
    in all eight of its images, joins two blocks of different XORs, so the
    blocks no longer form a grading; a 1e-13 h_pq across two labels leaves
    the blocks as they were but makes the grading no symmetry of H."""
    if name == "random":
        assert irrep_labels(random_integral_set(7, 3, 3, seed=9)) is None
        return
    s = graded_set(name)
    broken = with_forbidden_eri(s, irrep_labels(s), 1e-13)
    assert np.array_equal(broken.eri, broken.eri.transpose(1, 0, 2, 3))
    assert np.array_equal(broken.eri, broken.eri.transpose(2, 3, 0, 1))
    assert irrep_labels(broken) is None
    broken = with_forbidden_h(s, irrep_labels(s), 1e-13)
    assert np.array_equal(_coupling_blocks(broken.eri), _coupling_blocks(s.eri))
    assert irrep_labels(broken) is None


def test_project_matches_slater_condon_without_beta_electrons():
    s = random_integral_set(10, 3, 0, seed=105, e_core=-0.2)
    dets = list(enumerate_sector(10, 3, 0))
    rng = np.random.default_rng(105)
    assert_matches_oracle([dets[i] for i in rng.permutation(len(dets))[:60]], s)


def test_project_single_determinant():
    s = random_integral_set(10, 3, 2, seed=106, e_core=1.1)
    assert_matches_oracle([Determinant(0b1010010000, 0b0000100001)], s)


def test_project_subset_without_mixed_pairs():
    """Two beta strings a double excitation apart: alpha excitations and the
    beta double couple, but no pair has a single in each channel."""
    s = random_integral_set(11, 3, 3, seed=107)
    rng = np.random.default_rng(107)
    alpha = walk_strings(11, 3, 15, rng)
    dets = [Determinant(a, b) for a in alpha for b in (0b000111, 0b110001)]
    dets = [dets[i] for i in rng.permutation(len(dets))]
    kinds = excitation_kinds(dets)
    assert kinds[0] > 0 and kinds[1] > 0 and kinds[2] == 0
    assert_matches_oracle(dets, s)


def test_project_uses_the_top_orbital_of_64():
    """Orbital 63 is the sign bit of an int64 mask; phases must survive it."""
    n_orb = 64
    active = (0, 1, 5, 31, 32, 40, 62, 63)
    rng = np.random.default_rng(108)
    one = {(p, q): rng.normal() for p in active for q in active if q <= p}
    two = {(p, q, r, t): rng.normal()
           for p in active for q in active for r in active for t in active
           if q <= p and t <= r and (r, t) <= (p, q)}
    s = IntegralSet.from_terms(n_orb, 3, 2, 0.4, one, two)
    dets = []
    for a in itertools.combinations(active, 3):
        for b in itertools.combinations(active, 2):
            dets.append(Determinant(sum(1 << p for p in a), sum(1 << p for p in b)))
    pick = [dets[i] for i in rng.permutation(len(dets))[:150]]
    assert any(d.alpha_mask >> 63 for d in pick) and any(d.beta_mask >> 63 for d in pick)
    assert all(excitation_kinds(pick))
    assert_matches_oracle(pick, s)


TOP_ACTIVE = (0, 1, 5, 31, 32, 40, 62, 63)  # orbitals of a 64-orbital case, 63 among them


def link_strings(name):
    """Sorted distinct strings of one spin channel, by case name."""
    rng = np.random.default_rng(44)
    if name == "h8_channel":
        return [m for m in range(1 << 8) if m.bit_count() == 4]
    if name.startswith("random"):
        n_orb = int(name.split("_")[1])
        return walk_strings(n_orb, n_orb // 2 - 1, 10 * n_orb, rng)
    if name == "one_electron":
        return [1 << p for p in (0, 3, 4, 9)]
    if name == "no_electron":
        return [0]
    return sorted(sum(1 << p for p in c) for c in itertools.combinations(TOP_ACTIVE, 3))


def link_integrals(name, strings):
    """Integrals under which no link among the strings of one case vanishes:
    random over the orbitals the strings use, one coupling block among them."""
    n_e = int(np.bitwise_count(strings[0]))
    if name != "orbital_63":
        return random_integral_set(int(strings.max()).bit_length() or 1, n_e, n_e, seed=46)
    rng = np.random.default_rng(46)
    one = {(p, q): rng.normal() for p in TOP_ACTIVE for q in TOP_ACTIVE if q <= p}
    two = {(p, q, r, t): rng.normal() for p in TOP_ACTIVE for q in TOP_ACTIVE
           for r in TOP_ACTIVE for t in TOP_ACTIVE if q <= p and t <= r and (r, t) <= (p, q)}
    return IntegralSet.from_terms(64, n_e, n_e, 0.0, one, two)


def grown_channels(strings, s, block):
    """(alpha, beta, seen): both channels' states built from nothing and then
    grown by two batches of new strings, and the strings in first-seen order."""
    batches = [np.sort(b) for b in np.array_split(np.random.default_rng(47).permutation(strings), 3)]
    seen = np.concatenate(batches)  # each batch's new strings are held after the earlier ones
    alpha, beta = _Channel(s, block, both_ways=False), _Channel(s, block, both_ways=True)
    for channel in (alpha, beta):
        for k, batch in enumerate(batches):
            wanted = np.unique(np.r_[batch, batches[0][:2]]) if k else batch  # some held already
            positions = channel.index(wanted)
            assert channel.strings[positions].tolist() == wanted.tolist()
            assert channel.strings.tolist() == seen[:len(channel.strings)].tolist()
    return alpha, beta, seen


def link_arrays(channel):
    """Every array of a channel's link tables, in a fixed order."""
    tables = [channel.singles, channel.doubles, *(channel.across[b] for b in sorted(channel.across))]
    return [a for links in tables for a in (links.src, links.dst, *links.values.values())]


@pytest.mark.parametrize("name", ["h8_channel", "random_10", "random_11", "random_12",
                                  "random_12_by_string", "one_electron", "no_electron",
                                  "orbital_63"])
def test_string_links_join_each_pair_one_or_two_electrons_apart_once(monkeypatch, name):
    """A channel's state, built from nothing and then grown by two batches of
    new strings in first-seen order, links each pair of its strings once:
    upward singles and doubles each unordered pair two and four bits apart,
    from the lower string; the singles the mixed walk reads each ordered pair
    (beta) or each unordered one upward (alpha). Every table is grouped by
    source and by target, each group in the order its links were made, and
    _moves over every link is the oracle's move. Looking up one string's
    neighbours at a time (by_string) makes the same links in the same order."""
    strings = np.array(link_strings(name), dtype=np.uint64)
    s = link_integrals(name, strings)
    block = _coupling_blocks(s.eri)
    alpha, beta, seen = grown_channels(strings, s, block)
    if name.endswith("by_string"):
        monkeypatch.setattr(hivqe.determinants, "_CHUNK", 1)
        for channel, blocked in zip((alpha, beta), grown_channels(strings, s, block)):
            want, got = link_arrays(channel), link_arrays(blocked)
            assert len(got) == len(want) and all(np.array_equal(x, y) for x, y in zip(want, got))
    for channel in (alpha, beta):
        assert channel.strings.tolist() == seen.tolist()
        assert np.array_equal(channel.occ, _occupations(seen, s.n_orb))
    distance = np.bitwise_count(strings[:, None] ^ strings)
    one_apart, two_apart = ({(int(strings[a]), int(strings[b])) for a, b in np.argwhere(distance == bits)}
                            for bits in (2, 4))
    upward = {(a, b) for a, b in one_apart if a < b}
    tables = [(c, c.singles, 1) for c in (alpha, beta)] + [(c, c.doubles, 2) for c in (alpha, beta)]
    tables += [(c, links, 1) for c in (alpha, beta) for links in c.across.values()]
    for channel, want in ((alpha, upward), (beta, one_apart)):
        assert len(channel.across) == (1 if want else 0)  # the strings' moves share one block
        pairs = [pair for links in channel.across.values()
                 for pair in zip(channel.strings[links.src].tolist(), channel.strings[links.dst].tolist())]
        assert len(pairs) == len(set(pairs)) and set(pairs) == want
    for channel, links, degree in tables:
        src, dst = channel.strings[links.src], channel.strings[links.dst]
        if links is channel.singles or links is channel.doubles:
            pairs = list(zip(src.tolist(), dst.tolist()))
            want = upward if degree == 1 else {(a, b) for a, b in two_apart if a < b}
            assert len(pairs) == len(set(pairs)) and set(pairs) == want
        for into, keys, far in ((False, links.src, links.dst), (True, links.dst, links.src)):
            start, order, reached = links.grouping(into)
            assert order.tolist() == np.argsort(keys, kind="stable").tolist()
            assert np.array_equal(reached, far[order])
            assert np.array_equal(start, np.searchsorted(keys[order], np.arange(len(strings) + 1)))
        holes, particles, phase = _moves(src, dst, degree)
        for k, (a, b) in enumerate(zip(src.tolist(), dst.tolist())):
            assert (holes[k].tolist(), particles[k].tolist(), phase[k]) == _channel_excitation(a, b)
        if degree == 1 and links is not channel.singles:
            assert np.array_equal(links.values["pair"], holes[:, 0] * s.n_orb + particles[:, 0])
            assert np.array_equal(links.values["phase"], phase)
    assert len(one_apart) > 0 or name == "no_electron"
    assert len(two_apart) > 0 or name in ("no_electron", "one_electron")


def rdm_case(name):
    """(determinants, n_orb) of a shuffled sector subset, by case name."""
    rng = np.random.default_rng(45)
    if name == "no_beta":
        dets = list(enumerate_sector(10, 3, 0))
        return [dets[i] for i in rng.permutation(len(dets))[:80]], 10
    if name == "orbital_63":
        dets = [Determinant(sum(1 << p for p in a), sum(1 << p for p in b))
                for a in itertools.combinations(TOP_ACTIVE, 3)
                for b in itertools.combinations(TOP_ACTIVE, 2)]
        return [dets[i] for i in rng.permutation(len(dets))[:300]], 64
    n_orb, n_alpha, n_beta = (int(x) for x in name.split("_"))
    dets = list(enumerate_sector(n_orb, n_alpha, n_beta))
    return [dets[i] for i in rng.permutation(len(dets))[:400]], n_orb


def rdm_by_pairs(dets, amps, n_orb):
    """The 1-RDM element by element: each determinant's occupations on the
    diagonal, and each pair of determinants one electron apart, with the
    hole, particle and sign of _channel_excitation, at (hole, particle) and
    (particle, hole)."""
    gamma = np.zeros((n_orb, n_orb))
    for d, c in zip(dets, amps.tolist()):
        for p in occupied_orbitals(d.alpha_mask) + occupied_orbitals(d.beta_mask):
            gamma[p, p] += c * c
    for (x, dx), (y, dy) in itertools.combinations(enumerate(dets), 2):
        moved = [(dx[k] ^ dy[k]).bit_count() for k in (0, 1)]
        if sorted(moved) == [0, 2]:
            k = 0 if moved[0] else 1
            (h,), (p,), sign = _channel_excitation(dx[k], dy[k])
            gamma[h, p] += sign * amps[x] * amps[y]
            gamma[p, h] += sign * amps[x] * amps[y]
    return gamma


def rdm_vector(name):
    """(subspace, normalized random amplitudes over it) of an rdm_case."""
    dets, n_orb = rdm_case(name)
    a, b = dets[0].alpha_mask.bit_count(), dets[0].beta_mask.bit_count()
    sub = Subspace(dets, Sector(n_orb, a, b))
    amps = np.random.default_rng(46).standard_normal(len(sub))
    return sub, CIVector(amps / np.linalg.norm(amps), 0.0)


@pytest.mark.parametrize("name", ["10_3_3", "11_4_2", "12_2_5", "no_beta", "orbital_63"])
def test_compute_1rdm_sums_every_pair_one_electron_apart_once(name):
    """The 1-RDM adds each pair of rows one electron apart once, with the
    hole, particle and sign of moving one row's electron into the other's
    place, as the element-by-element sum does."""
    sub, c = rdm_vector(name)
    expected = rdm_by_pairs(list(sub), c.amplitudes, sub.sector.n_orb)
    off_diagonal = expected - np.diag(np.diag(expected))
    assert np.count_nonzero(off_diagonal) > 0
    assert np.max(np.abs(compute_1rdm(c, sub) - expected)) < 1e-12
    if name == "orbital_63":
        assert any(d.alpha_mask >> 63 or d.beta_mask >> 63 for d in sub)
        assert np.count_nonzero(off_diagonal[63]) > 0


def test_compute_1rdm_is_the_same_in_batches_of_one_pair(monkeypatch):
    """Each pair's overlap is summed on its own, so how many pairs are
    multiplied at once changes no bit."""
    sub, c = rdm_vector("11_4_2")
    batched = compute_1rdm(c, sub)
    monkeypatch.setattr(hivqe.driver, "RDM_BATCH", 1)
    assert np.array_equal(compute_1rdm(c, sub), batched)


def test_principal_slice_equals_a_fresh_projection():
    """Kept rows and columns of an assembled union, taken by principal_block,
    are the matrix project() builds over those determinants: same storage,
    same floats.
    That holds here because the kept rows hold every spin string of the union;
    see the next test for a slice that loses strings."""
    s = random_integral_set(8, 3, 3, seed=109, e_core=0.3)
    rng = np.random.default_rng(109)
    dets = list(enumerate_sector(8, 3, 3))
    union = subspace_of([dets[i] for i in rng.permutation(len(dets))[:1500]], s)
    assert len(union) > DENSE_CUTOFF
    rows = rng.permutation(len(union))[:700]
    for cutoff in (WALK, PAIRWISE):
        with generator(cutoff):
            h = project(union, s)
            kept, sliced = principal_block(union, h, rows)
            assert np.array_equal(kept.alpha, union.alpha[np.sort(rows)])
            assert np.array_equal(kept.beta, union.beta[np.sort(rows)])
            fresh = project(kept, s)
        assert fresh.has_sorted_indices and sliced.has_sorted_indices
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(sliced, name), getattr(fresh, name)), name


def same_storage(a, b) -> bool:
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("indptr", "indices", "data"))


def off_diagonal(h):
    h = h.tolil()
    h.setdiag(0)
    return h.tocsr()


def test_a_slice_that_loses_strings_differs_from_a_fresh_projection_only_on_the_diagonal():
    """Off-diagonal elements do not depend on which other strings the
    subspace holds; the diagonal may, in its last bits, so project never
    reuses it."""
    s = random_integral_set(12, 6, 6, seed=5, e_core=0.5)
    rng = np.random.default_rng(5)
    strings = [m for m in range(1 << 12) if m.bit_count() == 6]
    for _ in range(20):
        alphas, betas = (rng.choice(strings, 60, replace=False) for _ in range(2))
        union = subspace_of(list(dict.fromkeys(
            Determinant(int(a), int(b)) for a, b in zip(rng.choice(alphas, 400),
                                                         rng.choice(betas, 400)))), s)
        rows = np.sort(rng.choice(len(union), len(union) // 3, replace=False))
        kept = union.take(rows)
        assert len(np.unique(kept.alpha)) < len(np.unique(union.alpha))
        for cutoff in (WALK, PAIRWISE):
            with generator(cutoff):
                sliced = principal_block(union, project(union, s), rows)[1]
                fresh = project(kept, s)
            assert same_storage(off_diagonal(sliced), off_diagonal(fresh))
            assert np.max(np.abs(sliced.diagonal() - fresh.diagonal())) <= 1e-14


def prefix_cases(rng):
    """(kept, added) position arrays: rows kept, ascending, from an earlier
    120-row subspace, and the rows appended after them. Positions 120 and
    up are rows the earlier subspace lacks."""
    kept = np.sort(rng.permutation(120)[:90])
    dropped, fresh = np.setdiff1d(np.arange(120), kept), np.arange(120, 150)
    return [
        (kept, fresh[:0]),                                # no new rows
        (kept, fresh[:1]),                                # one new row
        (kept, fresh),                                    # many new rows
        (kept, rng.permutation(np.r_[dropped, fresh])),   # dropped rows come back as new rows
        (kept[:1], fresh),                                # one known row
        (kept[:0], fresh),                                # an empty known block
    ]


@pytest.mark.parametrize("name", ["lih", "random", "blocked"])
def test_project_extending_a_known_matrix_is_bitwise_a_cold_projection(name):
    """A known matrix, a principal block at ascending rows of an earlier
    subspace, extended by the rows appended after it, is bitwise the matrix
    a cold project builds; so is a tensor reconstruction that extends it, and
    so is each link of a chain of two extensions that carries one walk state
    while the cap drops a string and an extension brings it back. That holds
    whichever generator built the known matrix and whichever extends it."""
    s = load_fixture("lih") if name == "lih" else {"random": random_integral_set,
        "blocked": blocked_integral_set}[name](8, 3, 4, seed=41, e_core=0.2)
    dets = list(enumerate_sector(s.n_orb, s.n_alpha, s.n_beta))
    rng = np.random.default_rng(41)
    order = rng.permutation(len(dets))
    earlier = subspace_of([dets[i] for i in order[:120]], s)
    h_earlier = {}
    for build in (WALK, PAIRWISE):
        with generator(build):
            h_earlier[build] = project(earlier, s)
    for kept, added in prefix_cases(rng):
        sub = subspace_of([dets[i] for i in order[np.r_[kept, added]]], s)
        cold = project(sub, s)
        for build, extend in itertools.product((WALK, PAIRWISE), repeat=2):
            known = principal_block(earlier, h_earlier[build], kept)
            with generator(extend):
                warm = project(sub, s, known)
                stale = known[1].copy()
                stale.setdiag(stale.diagonal() + 1.0)  # the diagonal is recomputed, never copied
                assert same_storage(cold, project(sub, s, (known[0], stale)))
            assert same_storage(cold, warm)
            assert (cold.indptr.dtype, cold.indices.dtype) == (warm.indptr.dtype, warm.indices.dtype)
        tensored = tensor_reconstruct(sub, False, len(dets))  # no product exceeds the sector
        assert len(tensored) > len(sub)
        cold = project(tensored, s)
        for extend in (WALK, PAIRWISE):
            with generator(extend):
                extended = project(tensored, s, (sub, warm))
            assert same_storage(cold, extended)
            assert (cold.indptr.dtype, cold.indices.dtype) == (extended.indptr.dtype, extended.indices.dtype)

    # A chain carrying one walk state: the cap drops every row of one alpha
    # string, and the next extension brings that string back.
    gone = int(earlier.alpha[0])
    kept = np.flatnonzero(earlier.alpha != gone)
    later = [dets[i] for i in order[120:]]
    apart, returning = ([d for d in later if (d.alpha_mask == gone) == back][:15] for back in (False, True))
    first = subspace_of([list(earlier)[i] for i in kept] + apart, s)
    second = subspace_of(list(first) + returning, s)
    assert gone not in first.alpha.tolist() and returning
    for build, extend in itertools.product((WALK, PAIRWISE), repeat=2):
        walk = WalkState(s)
        with generator(build):
            h = project(earlier, s, walk=walk)
        with generator(extend):
            h_first = project(first, s, principal_block(earlier, h, kept), walk=walk)
            held = walk.alpha.strings.copy()
            h_second = project(second, s, (first, h_first), walk=walk)
        assert same_storage(h_first, project(first, s))
        assert same_storage(h_second, project(second, s))
        if build == extend == WALK:  # the state still held the string: nothing was added
            assert gone in held.tolist() and np.array_equal(walk.alpha.strings, held)


@pytest.mark.parametrize("name", ["lih", "blocked"])
def test_the_walk_finds_rows_by_sorted_key_search(monkeypatch, name):
    """With no position table allowed, as on subspaces too sparse for one,
    the walk finds partner rows by searching the sorted pair keys and still
    stores the bits of a cold pairwise projection: on a cold call and on an
    extension that brings a new string into a carried walk state, whichever
    generator built the known block and whichever extends it."""
    s = load_fixture("lih") if name == "lih" else blocked_integral_set(8, 3, 4, seed=47)
    dets = list(enumerate_sector(s.n_orb, s.n_alpha, s.n_beta))
    picked = [dets[i] for i in np.random.default_rng(47).permutation(len(dets))[:150]]
    gone = picked[0].alpha_mask  # the first block lacks this alpha string
    first = subspace_of([d for d in picked[:120] if d.alpha_mask != gone], s)
    second = subspace_of(list(first) + [d for d in picked if d not in set(first)], s)
    with generator(PAIRWISE):
        cold_first, cold_second = project(first, s), project(second, s)

    searched = []
    row = RowIndex.row

    def spied(self, ia, ib):
        searched.append(self._table is None)
        return row(self, ia, ib)

    monkeypatch.setattr(RowIndex, "row", spied)
    monkeypatch.setattr(RowIndex, "TABLE_FILL", 0)
    for build, extend in itertools.product((WALK, PAIRWISE), repeat=2):
        walk = WalkState(s)
        with generator(build):
            h_first = project(first, s, walk=walk)
        held = walk.alpha.strings.tolist()
        with generator(extend):
            h_second = project(second, s, (first, h_first), walk=walk)
        assert same_storage(h_first, cold_first) and same_storage(h_second, cold_second)
        if extend == WALK:
            assert gone not in held and gone in walk.alpha.strings.tolist()
    assert searched and all(searched)


def test_project_fills_its_buffer_alike_in_tiny_chunks(monkeypatch):
    """With five candidate partners per chunk, project writes its entries over
    many chunks into the one buffer it reserves and stores the bits it stores
    with the default chunk, under either generator, cold and extending a
    known block that carries its walk state: on LiH rows that fill most of
    its sector, and on a sparse pick of a larger sector, whose walked
    extension looks up mostly rows it lacks and so fills its buffer only in
    part. A walk reserves exactly the row pairs it hands its row lookup."""
    cases = {}
    for name, s, count in (("lih", load_fixture("lih"), 150),
                           ("sparse", blocked_integral_set(8, 3, 4, seed=53), 400)):
        dets = list(enumerate_sector(s.n_orb, s.n_alpha, s.n_beta))
        pick = [dets[i] for i in np.random.default_rng(53).permutation(len(dets))[:count]]
        cases[name] = s, subspace_of(pick[:count * 4 // 5], s), subspace_of(pick, s)
    filled = {}  # (case, generator, extended): (chunks, filled share of the buffer)
    reserved, looked_up = {}, {}  # (case, generator, extended): pairs reserved, looked up
    added, index = hivqe.eigensolver._added, WalkState.index

    def spied(diag, n_old, size, batches):
        batches = list(batches)
        h = added(diag, n_old, size, batches)
        filled[key] = len(batches), (h.nnz - (len(diag) - n_old)) / size
        reserved[key] = size
        return h

    def counted_index(self, sub):
        ia, ib, find = index(self, sub)

        def counted_find(a, b):
            looked_up[key] = looked_up.get(key, 0) + len(a)
            return find(a, b)
        return ia, ib, counted_find

    def built():
        nonlocal key
        out = {}
        for (name, (s, first, sub)), cutoff in itertools.product(cases.items(), (WALK, PAIRWISE)):
            walk = WalkState(s)
            with generator(cutoff):
                key = name, cutoff, False
                out[key] = project(first, s, walk=walk)
                key = name, cutoff, True
                out[key] = project(sub, s, (first, out[name, cutoff, False]), walk=walk)
        return out

    key = None
    default = built()
    monkeypatch.setattr(hivqe.eigensolver, "_added", spied)
    monkeypatch.setattr(hivqe.eigensolver, "_CHUNK", 5)
    monkeypatch.setattr(WalkState, "index", counted_index)
    tiny = built()
    assert tiny.keys() == default.keys() == filled.keys()
    for k, h in default.items():
        assert same_storage(h, tiny[k]), k
    assert looked_up == {k: size for k, size in reserved.items() if k[1] == WALK}
    assert min(chunks for chunks, _ in filled.values()) >= 20
    assert filled["lih", WALK, True][1] > 0.5
    assert filled["sparse", WALK, True][1] < 0.25


def test_a_call_below_the_pairwise_cutoff_builds_no_link_table(monkeypatch):
    """A sampled set of a few dozen rows, and its extension by a few more,
    compares strings pairwise and never builds the walk's string state, not
    even the one it is handed; the same calls walking the links do build it."""
    s = load_fixture("lih")
    dets = list(enumerate_sector(s.n_orb, s.n_alpha, s.n_beta))
    pick = [dets[i] for i in np.random.default_rng(43).permutation(len(dets))[:40]]
    sampled, extended = subspace_of(pick[:25], s), subspace_of(pick, s)
    cold = project(extended, s)

    def refuse(*args):
        raise RuntimeError("a link table was built")

    monkeypatch.setattr(_Channel, "add", refuse)
    walk = WalkState(s)
    known = (sampled, project(sampled, s, walk=walk))
    assert same_storage(project(extended, s, known, walk=walk), cold)
    assert len(walk.alpha.strings) == len(walk.beta.strings) == 0
    monkeypatch.setattr(hivqe.eigensolver, "PAIRWISE_CUTOFF", WALK)
    with pytest.raises(RuntimeError, match="link table"):
        project(sampled, s)


def test_project_refuses_a_known_block_from_another_integral_set():
    """The walk state carried beside a known block records the IntegralSet it
    was built for: project refuses the block with its state, or the state
    alone, with another set, whose elements it would otherwise copy or walk,
    under either generator."""
    s, other = (random_integral_set(6, 2, 2, seed=seed) for seed in (42, 43))
    dets = list(enumerate_sector(6, 2, 2))
    sub, earlier = subspace_of(dets[:40], s), subspace_of(dets[:20], s)
    for cutoff in (WALK, PAIRWISE):
        with generator(cutoff):
            walk = WalkState(s)
            known = (earlier, project(earlier, s, walk=walk))
            for wrong in ({"known": known, "walk": walk}, {"walk": walk}):
                with pytest.raises(EigensolverError, match="another IntegralSet"):
                    project(sub, other, **wrong)
            assert same_storage(project(sub, s, known, walk), project(sub, s))


def test_project_refuses_a_known_block_that_is_not_the_first_rows():
    s = random_integral_set(6, 2, 2, seed=42)
    dets = list(enumerate_sector(6, 2, 2))
    sub = subspace_of(dets[:40], s)
    h = project(sub, s)
    rows = np.arange(20)
    for wrong in (np.r_[1, 0, rows[2:]],   # a swapped pair
                  rows[1:],                # the first row dropped
                  np.r_[rows, 30]):        # a row that sub holds later
        known = (sub.take(wrong), h[wrong][:, wrong])
        with pytest.raises(EigensolverError, match="first rows"):
            project(sub, s, known)
    assert same_storage(project(sub, s, principal_block(sub, h, rows)), h)


def test_project_refuses_an_empty_subspace():
    s = random_integral_set(4, 2, 2, seed=3)
    with pytest.raises(EigensolverError):
        project(subspace_of([], s), s)


def test_davidson_tight_matches_dense(monkeypatch):
    s = random_integral_set(4, 2, 2, seed=17, e_core=0.3)
    h = project(subspace_of(enumerate_sector(4, 2, 2), s), s)
    dense_energy = float(np.linalg.eigvalsh(dense_symmetric(h))[0])
    monkeypatch.setattr(hivqe.eigensolver, "DENSE_CUTOFF", 1)  # force the iterative path
    c = ground_state(h, "tight")
    assert c.energy == pytest.approx(dense_energy, abs=1e-9)
    # and the dense path agrees with itself
    monkeypatch.setattr(hivqe.eigensolver, "DENSE_CUTOFF", DENSE_CUTOFF)
    c2 = ground_state(h, "tight")
    assert c2.energy == pytest.approx(dense_energy, abs=1e-12)


@pytest.mark.parametrize("name", ["lih", "h4_chain", "random"])
def test_both_ground_state_paths_equal_a_full_dense_eigh(monkeypatch, name):
    """The dense path reads the stored triangle and Davidson applies it and
    its transpose; both find the lowest eigenpair of the full symmetric matrix."""
    s = load_fixture(name) if name != "random" else random_integral_set(7, 3, 3, seed=8, e_core=0.4)
    dets = list(enumerate_sector(s.n_orb, s.n_alpha, s.n_beta))
    rng = np.random.default_rng(8)
    h = project(subspace_of([dets[i] for i in rng.permutation(len(dets))], s), s)
    w, v = np.linalg.eigh(dense_symmetric(h))
    for cutoff in (h.shape[0], 1):
        monkeypatch.setattr(hivqe.eigensolver, "DENSE_CUTOFF", cutoff)
        c = ground_state(h, "tight")
        assert abs(c.energy - w[0]) < 1e-12
        assert abs(c.amplitudes @ v[:, 0]) > 1 - 1e-12


def principal_blocks(name):
    """Principal blocks of a sector's matrix over its 1 to DENSE_CUTOFF
    largest-|c| FCI rows, or random lower triangles of those sizes."""
    if name == "random":
        rng = np.random.default_rng(27)
        for n in range(1, DENSE_CUTOFF + 1):
            a = rng.normal(size=(n, n))
            yield scipy.sparse.csr_matrix(np.tril(a + a.T))
        return
    s = load_fixture(name) if name != "h8" else parse_fcidump(H8.read_text())
    sector = enumerate_sector(s.n_orb, s.n_alpha, s.n_beta)
    h = project(sector, s)
    order = np.argsort(-np.abs(ground_state(h, "tight").amplitudes), kind="stable")
    for n in range(1, DENSE_CUTOFF + 1):
        yield principal_block(sector, h, order[:n])[1]


@pytest.mark.parametrize("name", ["random", "lih", "h8"])
def test_the_direct_solve_matches_the_lowest_pair_solve_it_replaced(name):
    """The direct path keeps column 0 of numpy's full eigh; scipy.linalg's
    lowest-pair eigh, which it replaced, is its oracle, signed so that its
    largest amplitude is positive."""
    for h in principal_blocks(name):
        c = ground_state(h, "tight")
        w, v = scipy.linalg.eigh(h.toarray(), lower=True, subset_by_index=[0, 0])
        x = v[:, 0] if v[np.argmax(np.abs(v[:, 0])), 0] > 0 else -v[:, 0]
        assert abs(c.energy - w[0]) <= 1e-12
        assert np.abs(c.amplitudes - x).max() <= 1e-10


def test_no_run_loads_scipy_linalg():
    """numpy does every dense solve: a loop and an FCI solve leave
    scipy.linalg unloaded. A fresh interpreter, since tests import it."""
    src = str(Path(hivqe.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys\n"
            "from pathlib import Path\n"
            "import hivqe\n"
            f"s = hivqe.parse_fcidump(Path({str(FIXTURES / 'h2_0.74.fcidump')!r}).read_text())\n"
            "hivqe.run_hivqe(hivqe.RunConfig(), s)\n"
            "hivqe.fci_ground(s)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_davidson_on_fixture_sectors(monkeypatch):
    monkeypatch.setattr(hivqe.eigensolver, "DENSE_CUTOFF", 1)
    ref = load_reference()
    for name in ("h4_chain", "lih"):
        s = load_fixture(name)
        h = project(subspace_of(enumerate_sector(s.n_orb, s.n_alpha, s.n_beta), s), s)
        c = ground_state(h, "tight")
        assert c.energy == pytest.approx(ref[name]["e_fci"], abs=1e-9)


def test_loose_mode_is_variational_upper_bound(monkeypatch):
    monkeypatch.setattr(hivqe.eigensolver, "DENSE_CUTOFF", 1)
    s = random_integral_set(4, 2, 2, seed=23)
    h = project(subspace_of(enumerate_sector(4, 2, 2), s), s)
    tight = ground_state(h, "tight")
    loose = ground_state(h, "loose")
    assert loose.energy >= tight.energy - 1e-10


def lih_full_sector():
    s = load_fixture("lih")
    return project(subspace_of(enumerate_sector(s.n_orb, s.n_alpha, s.n_beta), s), s)


def test_a_loose_solve_cut_short_is_still_an_upper_bound(monkeypatch):
    """Davidson stopped by its iteration limit before the loose residual
    returns its last Rayleigh quotient, at or above the lowest eigenvalue."""
    h = lih_full_sector()
    exact = np.linalg.eigvalsh(dense_symmetric(h))[0]
    monkeypatch.setattr(hivqe.eigensolver, "DENSE_CUTOFF", 0)
    monkeypatch.setattr(hivqe.eigensolver, "LOOSE_MAX_ITER", 2)
    c = ground_state(h, "loose")
    assert h.shape[0] == 225 and c.energy >= exact
    assert c.energy - exact > 1e-4  # two steps stop well short of the eigenvalue


def test_a_tight_solve_out_of_iterations_names_its_final_residual(monkeypatch):
    h = lih_full_sector()
    monkeypatch.setattr(hivqe.eigensolver, "DENSE_CUTOFF", 0)
    monkeypatch.setattr(hivqe.eigensolver, "TIGHT_MAX_ITER", 2)
    with pytest.raises(EigensolverError, match=r"^Davidson failed to reach residual 1e-08 in 2 "
                                               r"iterations \(final residual \d\.\d{3}e-\d\d\)$"):
        ground_state(h, "tight")


def test_sign_convention_largest_amplitude_positive(monkeypatch):
    for seed in range(4):
        s = random_integral_set(4, 2, 1, seed=40 + seed)
        h = project(subspace_of(enumerate_sector(4, 2, 1), s), s)
        for cutoff in (1, DENSE_CUTOFF):
            monkeypatch.setattr(hivqe.eigensolver, "DENSE_CUTOFF", cutoff)
            c = ground_state(h, "tight")
            assert c.amplitudes[np.argmax(np.abs(c.amplitudes))] > 0


def test_warm_start_accepts_previous_vector(monkeypatch):
    monkeypatch.setattr(hivqe.eigensolver, "DENSE_CUTOFF", 1)
    s = random_integral_set(4, 2, 2, seed=2)
    h = project(subspace_of(enumerate_sector(4, 2, 2), s), s)
    first = ground_state(h, "tight")
    again = ground_state(h, "tight", guess=first.amplitudes)
    assert again.energy == pytest.approx(first.energy, abs=1e-10)
    assert np.allclose(np.abs(again.amplitudes), np.abs(first.amplitudes),
                       atol=1e-6)


def test_guess_is_an_amplitude_array_of_the_matrix_dimension(monkeypatch):
    monkeypatch.setattr(hivqe.eigensolver, "DENSE_CUTOFF", 1)
    s = random_integral_set(4, 2, 2, seed=2)
    h = project(subspace_of(enumerate_sector(4, 2, 2), s), s)
    cold = ground_state(h, "tight")
    rng = np.random.default_rng(3)
    guess = cold.amplitudes + 0.01 * rng.normal(size=h.shape[0])  # unnormalized
    warm = ground_state(h, "tight", guess=guess)
    assert warm.energy == pytest.approx(cold.energy, abs=1e-10)
    for cutoff in (1, h.shape[0]):  # Davidson and the direct solve
        monkeypatch.setattr(hivqe.eigensolver, "DENSE_CUTOFF", cutoff)
        with pytest.raises(EigensolverError, match="guess vector length"):
            ground_state(h, "tight", guess=guess[:-1])


def test_degenerate_ground_state_energy_still_exact(monkeypatch):
    """A doubly degenerate minimum must not trap the deflated solver."""
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.normal(size=(40, 40)))
    evals = np.concatenate(([-2.0, -2.0], rng.uniform(-1.0, 3.0, size=38)))
    mat = q @ np.diag(evals) @ q.T
    mat = (mat + mat.T) / 2
    from scipy.sparse import csr_matrix

    monkeypatch.setattr(hivqe.eigensolver, "DENSE_CUTOFF", 1)
    c = ground_state(csr_matrix(np.tril(mat)), "tight")
    assert c.energy == pytest.approx(-2.0, abs=1e-9)


def test_davidson_escapes_when_the_correction_lies_in_the_span(monkeypatch):
    """On a diagonal matrix the preconditioned residual equals the Ritz
    vector, so every correction must come from the coordinate escape."""
    from scipy.sparse import csr_matrix

    h = csr_matrix(np.diag([3, 1, 4, 1.5, 9, 2.6]))
    monkeypatch.setattr(hivqe.eigensolver, "DENSE_CUTOFF", 1)
    c = ground_state(h, "tight", guess=np.ones(6) / np.sqrt(6))
    assert c.energy == pytest.approx(1.0, abs=1e-12)
    assert abs(c.amplitudes[1]) == pytest.approx(1.0, abs=1e-12)


def test_civector_requires_unit_norm():
    with pytest.raises(ValueError):
        CIVector(np.array([0.5, 0.5]), energy=-1.0)
    CIVector(np.array([1.0, 0.0]), energy=-1.0)  # exact norm passes


def test_interlacing_under_subspace_growth():
    s = random_integral_set(4, 2, 2, seed=77)
    dets = list(enumerate_sector(4, 2, 2))
    rng = np.random.default_rng(3)
    order = list(rng.permutation(len(dets)))
    energies = []
    for size in (4, 9, 18, 36):
        h = project(subspace_of([dets[i] for i in order[:size]], s), s)
        energies.append(ground_state(h, "tight").energy)
    assert all(e2 <= e1 + 1e-10 for e1, e2 in zip(energies, energies[1:]))

