"""Bit-mask determinants, excitation classification, and Slater-Condon rules.

Phases and matrix elements are checked against the operator-algebra oracle,
which builds the same quantities from explicit creation/annihilation strings.
"""

import itertools
from math import comb

import numpy as np
import pytest

from hivqe.determinants import (
    Determinant,
    Sector,
    _channel_excitation,
    _distinct_rows,
    _neighbours,
    det_to_string,
    hartree_fock_det,
    occupied_orbitals,
    slater_condon,
)
from hivqe.oracle import brute_force_hamiltonian, det_to_fock_index
from hivqe.sampler import enumerate_sector, sector_size

from helpers import det_from_string, load_fixture, random_integral_set


def test_occupied_orbitals_orders_ascending():
    assert occupied_orbitals(0) == []
    assert occupied_orbitals(0b1) == [0]
    assert occupied_orbitals(0b101101) == [0, 2, 3, 5]


def test_hartree_fock_det_fills_lowest_orbitals():
    s = random_integral_set(5, 3, 2, seed=0)
    assert hartree_fock_det(s) == Determinant(0b00111, 0b00011)


def test_sector_size_and_membership():
    sec = Sector(4, 2, 1)
    assert sector_size(*sec) == 6 * 4
    assert sec.contains(Determinant(0b0011, 0b1000))
    assert not sec.contains(Determinant(0b0111, 0b1000))
    assert not sec.contains(Determinant(0b0011, 0b0000))
    # orbital beyond n_orb disqualifies even with the right popcounts
    assert not sec.contains(Determinant(0b10001, 0b0001))


def test_sector_refuses_negative_masks():
    """A negative mask has no place in any sector, whatever its popcount."""
    sec = Sector(2, 1, 1)
    assert sec.contains(Determinant(0b01, 0b01))
    assert not sec.contains(Determinant(-1, 0b01))
    assert not sec.contains(Determinant(0b01, -2))
    assert not sec.contains(Determinant(-(1 << 70), 0b01))


def test_det_string_roundtrip():
    d = Determinant(0b01101, 0b10010)
    text = det_to_string(d, 5)
    assert text == "10110|01001"  # orbital 0 leftmost
    assert det_from_string(text) == d
    assert det_from_string(text.replace("|", "")) == d
    with pytest.raises(ValueError):
        det_from_string("10x|001")


def test_channel_excitation_degrees():
    ref = Determinant(0b0011, 0b0011)

    def channels(d):  # (holes, particles, phase) of alpha, then of beta
        return [_channel_excitation(m1, m2) for m1, m2 in zip(ref, d)]

    def degree(d):
        return sum(len(holes) for holes, _, _ in channels(d))

    assert degree(ref) == 0
    single = Determinant(0b0101, 0b0011)
    assert degree(single) == 1
    assert channels(single)[0][:2] == ([1], [2])
    mixed = Determinant(0b0101, 0b1001)
    assert degree(mixed) == 2
    assert channels(mixed)[1][:2] == ([1], [3])


def test_single_phase_counts_occupied_between():
    # alpha 0b01011 -> 0b11010: hole 0, particle 4, orbitals 1 and 3 occupied
    # in between, so the crossing parity is even.
    assert _channel_excitation(0b01011, 0b11010)[2] == 1
    # one occupied orbital in between flips the sign
    assert _channel_excitation(0b0011, 0b0110)[2] == -1


def test_phases_match_operator_algebra():
    """H entries (not just magnitudes) agree with the second-quantized oracle,
    which exercises every phase branch including crossed double excitations."""
    s = random_integral_set(4, 2, 2, seed=21, e_core=0.0)
    dets = enumerate_sector(4, 2, 2)
    dense = brute_force_hamiltonian(s)
    idx = [det_to_fock_index(d, 4) for d in dets]
    for i, di in enumerate(dets):
        for j, dj in enumerate(dets):
            assert slater_condon(di, dj, s) == pytest.approx(
                dense[idx[i], idx[j]], abs=1e-12)


def test_slater_condon_is_symmetric():
    s = random_integral_set(4, 2, 1, seed=3)
    dets = list(enumerate_sector(4, 2, 1))
    rng = np.random.default_rng(5)
    for _ in range(60):
        i, j = rng.integers(0, len(dets), size=2)
        assert slater_condon(dets[i], dets[j], s) == pytest.approx(
            slater_condon(dets[j], dets[i], s), abs=1e-14)


def test_slater_condon_zero_beyond_double():
    s = random_integral_set(6, 3, 3, seed=8)
    ref = hartree_fock_det(s)
    triple = Determinant(0b111000, ref.beta_mask)  # three alpha moves
    assert slater_condon(ref, triple, s) == 0.0


def test_hf_diagonal_matches_scf_energy():
    from helpers import load_reference

    for name in ("h2_0.74", "h4_chain", "lih"):
        s = load_fixture(name)
        hf = hartree_fock_det(s)
        e = slater_condon(hf, hf, s) + s.e_core
        assert e == pytest.approx(load_reference()[name]["e_hf"], abs=1e-9)


def distinct_rows_reference(alpha, beta):
    """(first row, row count) of each distinct (alpha, beta) pair, ascending."""
    first, count = {}, {}
    for row, pair in enumerate(zip(alpha.tolist(), beta.tolist())):
        first.setdefault(pair, row)
        count[pair] = count.get(pair, 0) + 1
    pairs = sorted(first)
    return [first[p] for p in pairs], [count[p] for p in pairs]


@pytest.mark.parametrize("rows, low, distinct", [
    (0, 0, 4),  # discard mode can keep no row at all
    (3000, 2**32, 40),  # strings past 32 bits, up to the 64th
    (5000, 0, 3),  # heavy duplication: at most nine pairs
])
def test_distinct_rows_match_a_dict_reference(rows, low, distinct):
    rng = np.random.default_rng(rows)
    strings = rng.integers(low, 2**64 - 1, size=distinct, dtype=np.uint64, endpoint=True)
    alpha, beta = (strings[rng.integers(distinct, size=rows)] for _ in range(2))
    first, counts = _distinct_rows(alpha, beta)
    assert (first.tolist(), counts.tolist()) == distinct_rows_reference(alpha, beta)


def sector_strings(n_orb, n_e):
    """Every n_e-electron string of n_orb orbitals, as uint64."""
    return np.array([sum(1 << p for p in c) for c in itertools.combinations(range(n_orb), n_e)],
                    dtype=np.uint64)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("n_orb, n_e, count", [
    (64, 3, 6),  # orbital 63 held in one string and empty in another
    (10, 4, 8),
    (5, 1, 5),  # one electron: no doubles
    (7, 0, 1),  # zero electrons: no neighbours
    (6, 6, 1),  # a full channel: no neighbours
])
def test_neighbours_match_a_comparison_with_every_string_of_the_popcount(n_orb, n_e, count, degree):
    """Each row of _neighbours holds each string of the same popcount within
    n_orb orbitals whose XOR with the input string has 2 * degree bits, once,
    as found by comparing the string with every string of its popcount."""
    every = sector_strings(n_orb, n_e)
    strings = np.random.default_rng(n_orb).permutation(every)[:count]
    if n_orb == 64:
        strings[0] = every[-1]  # orbitals 61, 62 and 63
        assert not int(strings[1]) >> 63
    out = _neighbours(strings, n_orb, degree)
    assert out.shape == (count, comb(n_e, degree) * comb(n_orb - n_e, degree))
    for string, row in zip(strings, out.tolist()):
        want = every[np.bitwise_count(every ^ string) == 2 * degree].tolist()
        assert len(row) == len(set(row)) and set(row) == set(want)
