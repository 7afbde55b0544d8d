"""Sector enumeration, the Givens-rotation ansatz, and shot sampling.

The rotation network is validated against a full 2^(2n) statevector built
from matrix exponentials of the second-quantized generators; nothing in that
oracle shares code with the sector-restricted fast path.
"""

import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.linalg import expm

from hivqe.determinants import Determinant, Sector, _occupations
from hivqe.oracle import det_to_fock_index
from hivqe.sampler import (
    AnsatzSpec,
    SectorState,
    SectorTooLargeError,
    brick_wall_ansatz,
    _channel,
    enumerate_sector,
    mean_occupations,
    prepare_state,
    sample,
    sector_size,
)
from hivqe.subspace import bitstring_is_valid, filter_symmetry

from helpers import det_from_string, filter_reference, joint_amplitudes, jw_annihilator


def assert_is_the_string_product(n_orb, n_alpha, n_beta):
    """The sector is the product of the two channel tables, in (alpha, beta)
    order, as a read-only Subspace with no history and a position table."""
    sub = enumerate_sector(n_orb, n_alpha, n_beta)
    pairs = itertools.product(_channel(n_orb, n_alpha).tolist(), _channel(n_orb, n_beta).tolist())
    assert list(sub) == [Determinant(a, b) for a, b in pairs]
    assert not sub.alpha.flags.writeable and not sub.beta.flags.writeable
    assert sub.expanded_refs == frozenset()
    assert sub.ranks._table is not None


def test_enumeration_is_lexicographic_and_complete():
    assert_is_the_string_product(5, 2, 1)
    dets = list(enumerate_sector(5, 2, 1))
    assert len(dets) == math.comb(5, 2) * math.comb(5, 1)
    assert len(set(dets)) == len(dets)
    assert dets == sorted(dets)
    alphas = {d.alpha_mask for d in dets}
    expected = {sum(1 << p for p in combo)
                for combo in itertools.combinations(range(5), 2)}
    assert alphas == expected
    for d in dets:
        assert d.alpha_mask.bit_count() == 2
        assert d.beta_mask.bit_count() == 1


def test_enumeration_edge_sectors():
    assert list(enumerate_sector(3, 0, 0)) == [Determinant(0, 0)]
    assert list(enumerate_sector(2, 2, 2)) == [Determinant(0b11, 0b11)]
    assert list(enumerate_sector(4, 0, 3)) == [Determinant(0, b) for b in (7, 11, 13, 14)]
    for sector in ((3, 0, 0), (2, 2, 2), (4, 0, 3)):
        assert_is_the_string_product(*sector)
    with pytest.raises(ValueError):
        enumerate_sector(2, 3, 0)


def test_sector_size_uses_exact_big_integers():
    assert sector_size(4, 2, 2) == 36
    assert sector_size(40, 20, 20) == math.comb(40, 20) ** 2
    assert isinstance(sector_size(40, 20, 20), int)


def test_oversized_sector_raises_with_count():
    with pytest.raises(SectorTooLargeError) as info:
        enumerate_sector(16, 8, 8)
    assert info.value.count == 165_636_900


def test_oversized_spin_channel_is_refused_before_any_table():
    # C(40, 20) = 137,846,528,820 strings per channel: one amplitude
    # vector alone would take 1.1 TB
    spec = brick_wall_ansatz(40, 1)
    with pytest.raises(SectorTooLargeError) as info:
        prepare_state(spec, np.zeros(spec.n_params), Sector(40, 20, 20))
    assert info.value.count == math.comb(40, 20)
    assert "spin strings in one channel" in str(info.value)


def test_more_than_64_orbitals_are_refused_by_the_string_tables():
    """Both callers of the string tables name the 64-orbital limit rather
    than overflow uint64."""
    message = "spin strings are packed into 64 bits; n_orb=65 does not fit"
    with pytest.raises(ValueError, match=f"^{message}$"):
        enumerate_sector(65, 1, 1)
    spec = brick_wall_ansatz(65, 1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        prepare_state(spec, np.zeros(spec.n_params), Sector(65, 1, 1))
    assert len(enumerate_sector(64, 1, 0)) == 64  # the limit itself still fits


def test_brick_wall_layout():
    spec = brick_wall_ansatz(4, 2)
    assert spec.n_params == 6
    assert spec.rotations == (
        ("alpha", 0, 1), ("beta", 0, 1),
        ("alpha", 2, 3), ("beta", 2, 3),
        ("alpha", 1, 2), ("beta", 1, 2),
    )
    assert brick_wall_ansatz(3, 0).n_params == 0


@pytest.mark.parametrize("call, message", [
    (lambda: prepare_state(brick_wall_ansatz(4, 1), np.zeros(3), Sector(4, 2, 2)),
     r"expected 4 parameters, got shape \(3,\)"),
    (lambda: prepare_state(brick_wall_ansatz(3, 1), np.zeros(2), Sector(4, 2, 2)),
     "ansatz and sector orbital counts differ"),
    (lambda: SectorState(np.ones(2), np.ones(1), Sector(2, 1, 1)),
     r"alpha state norm\^2 2\.0 deviates from 1"),
], ids=["theta_shape", "orbital_count", "norm"])
def test_refusals_name_what_is_wrong(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_ansatz_spec_validation():
    with pytest.raises(ValueError):
        AnsatzSpec(3, (("gamma", 0, 1),))
    with pytest.raises(ValueError):
        AnsatzSpec(3, (("alpha", 1, 1),))
    with pytest.raises(ValueError):
        AnsatzSpec(3, (("alpha", 0, 3),))


def test_zero_angles_give_hartree_fock():
    sec = Sector(4, 2, 2)
    spec = brick_wall_ansatz(4, 2)
    state = prepare_state(spec, np.zeros(spec.n_params), sec)
    dets = list(enumerate_sector(4, 2, 2))
    hf = dets.index(Determinant(0b0011, 0b0011))
    expected = np.zeros(len(dets))
    expected[hf] = 1.0
    assert np.array_equal(joint_amplitudes(state), expected)


def test_pi_rotation_moves_the_electron_completely():
    # one alpha electron in two orbitals: |sin(pi/2)| = 1 under half angles
    sec = Sector(2, 1, 0)
    spec = AnsatzSpec(2, (("alpha", 0, 1),))
    state = prepare_state(spec, np.array([math.pi]), sec)
    dets = enumerate_sector(2, 1, 0)
    amp = dict(zip(dets, joint_amplitudes(state)))
    assert abs(amp[Determinant(0b10, 0b00)]) == pytest.approx(1.0, abs=1e-12)
    assert amp[Determinant(0b01, 0b00)] == pytest.approx(0.0, abs=1e-12)


def statevector_oracle(spec, theta, sector, start):
    """Apply each rotation via expm of its generator in the full Fock space."""
    n = spec.n_orb
    vec = np.zeros(1 << (2 * n))
    vec[det_to_fock_index(start, n)] = 1.0
    for (channel, p, q), angle in zip(spec.rotations, theta):
        off = 0 if channel == "alpha" else n
        e_qp = jw_annihilator(2 * n, q + off).T @ jw_annihilator(2 * n, p + off)
        vec = expm((angle / 2.0) * (e_qp - e_qp.T)) @ vec
    return vec


@pytest.mark.parametrize("n_orb,n_alpha,n_beta,layers", [
    (2, 1, 1, 2),
    (3, 2, 1, 3),
    (4, 2, 2, 2),
    (3, 2, 0, 2),
])
def test_prepare_state_matches_statevector_oracle(n_orb, n_alpha, n_beta, layers):
    sec = Sector(n_orb, n_alpha, n_beta)
    spec = brick_wall_ansatz(n_orb, layers)
    rng = np.random.default_rng(n_orb * 10 + layers)
    theta = rng.normal(size=spec.n_params)
    state = prepare_state(spec, theta, sec)
    hf = Determinant((1 << n_alpha) - 1, (1 << n_beta) - 1)
    oracle = statevector_oracle(spec, theta, sec, hf)
    mine = np.zeros_like(oracle)
    for d, amp in zip(enumerate_sector(n_orb, n_alpha, n_beta), joint_amplitudes(state)):
        mine[det_to_fock_index(d, n_orb)] = amp
    assert np.max(np.abs(mine - oracle)) < 1e-12


def test_non_adjacent_rotation_crossing_sign():
    """A (0,2) rotation crosses orbital 1; the sign must track its occupancy."""
    sec = Sector(3, 2, 0)
    spec = AnsatzSpec(3, (("alpha", 0, 2),))
    theta = np.array([0.9])
    state = prepare_state(spec, theta, sec)
    oracle = statevector_oracle(spec, theta, sec, Determinant(0b011, 0))
    for d, amp in zip(enumerate_sector(3, 2, 0), joint_amplitudes(state)):
        assert amp == pytest.approx(oracle[det_to_fock_index(d, 3)], abs=1e-12)


def test_norm_preserved_over_many_random_parameter_sets():
    sec = Sector(4, 2, 2)
    spec = brick_wall_ansatz(4, 2)
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        theta = rng.normal(size=spec.n_params) * 2.0
        state = prepare_state(spec, theta, sec)
        amps = joint_amplitudes(state)
        worst = max(worst, abs(float(amps @ amps) - 1.0))
    assert worst < 1e-12


def test_mean_occupations_match_probabilities():
    sec = Sector(3, 2, 1)
    spec = brick_wall_ansatz(3, 2)
    theta = np.linspace(-1.0, 1.0, spec.n_params)
    state = prepare_state(spec, theta, sec)
    occ_a, occ_b = mean_occupations(state)
    probs = joint_amplitudes(state)**2
    dets = enumerate_sector(3, 2, 1)
    for p in range(3):
        expect_a = sum(pr for pr, d in zip(probs, dets) if d.alpha_mask >> p & 1)
        expect_b = sum(pr for pr, d in zip(probs, dets) if d.beta_mask >> p & 1)
        assert occ_a[p] == pytest.approx(expect_a, abs=1e-12)
        assert occ_b[p] == pytest.approx(expect_b, abs=1e-12)
    assert occ_a.sum() == pytest.approx(2.0, abs=1e-12)
    assert occ_b.sum() == pytest.approx(1.0, abs=1e-12)


def test_mean_occupations_bound_the_table_of_a_large_channel():
    """C(20,10) = 184,756 alpha strings: the whole (strings, 20) occupation
    table would take 29.6 MB as uint64 and as much again as float."""
    sector = Sector(20, 10, 1)
    rng = np.random.default_rng(5)
    alpha, beta = rng.normal(size=math.comb(20, 10)), rng.normal(size=20)
    state = SectorState(alpha / np.linalg.norm(alpha), beta / np.linalg.norm(beta), sector)
    tracemalloc.start()
    occ_a, occ_b = mean_occupations(state)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 30e6
    strings = np.array([d.alpha_mask for d in enumerate_sector(20, 10, 0)], dtype=np.uint64)
    one_product = state.alpha**2 @ _occupations(strings, 20)
    assert np.max(np.abs(occ_a - one_product)) < 1e-12
    assert np.max(np.abs(occ_b - state.beta**2 @ np.eye(20))) < 1e-12
    assert occ_a.sum() == pytest.approx(10.0, abs=1e-12)


def prepared_example():
    sec = Sector(3, 2, 1)
    spec = brick_wall_ansatz(3, 2)
    theta = np.linspace(0.3, 1.2, spec.n_params)
    return prepare_state(spec, theta, sec), sec


def test_sampling_is_deterministic_per_seed():
    state, _ = prepared_example()
    b1 = sample(state, 500, 0.0, seed=123)
    b2 = sample(state, 500, 0.0, seed=123)
    assert b1.counts == b2.counts
    assert list(b1.counts) == list(b2.counts)  # insertion order too
    b3 = sample(state, 500, 0.0, seed=124)
    assert b3.counts != b1.counts


def test_sample_counts_and_support():
    state, sec = prepared_example()
    batch = sample(state, 4000, 0.0, seed=5)
    assert batch.total_shots == 4000
    assert sum(batch.counts.values()) == 4000
    dets = enumerate_sector(3, 2, 1)
    probs = dict(zip(dets, joint_amplitudes(state)**2))
    for bits, count in batch.counts.items():
        assert len(bits) == 6
        d = det_from_string(bits)
        assert probs[d] > 0.0
        assert count > 0
    listed = [det_from_string(bits) for bits in batch.counts]
    assert listed == sorted(listed)  # joint-index order, as enumerate_sector


def test_sample_frequencies_track_probabilities():
    state, _ = prepared_example()
    shots = 200_000
    batch = sample(state, shots, 0.0, seed=77)
    dets = enumerate_sector(3, 2, 1)
    probs = dict(zip(dets, joint_amplitudes(state)**2))
    for bits, count in batch.counts.items():
        p = probs[det_from_string(bits)]
        sigma = math.sqrt(p * (1 - p) * shots)
        assert abs(count - p * shots) < 5 * sigma + 1


def test_full_noise_complements_every_bit():
    # p_flip=1 flips all bits deterministically; theta=0 samples only HF
    sec = Sector(3, 2, 1)
    spec = brick_wall_ansatz(3, 2)
    state = prepare_state(spec, np.zeros(spec.n_params), sec)
    batch = sample(state, 50, 1.0, seed=0)
    assert set(batch.counts) == {"001011"}  # complement of HF "110100"
    assert batch.counts["001011"] == 50


def test_noise_rate_statistics():
    sec = Sector(3, 2, 1)
    spec = brick_wall_ansatz(3, 2)
    state = prepare_state(spec, np.zeros(spec.n_params), sec)
    shots = 50_000
    batch = sample(state, shots, 0.05, seed=3)
    hf_bits = "110100"
    flipped = sum(
        count * sum(1 for a, b in zip(bits, hf_bits) if a != b)
        for bits, count in batch.counts.items()
    )
    rate = flipped / (shots * 6)
    assert rate == pytest.approx(0.05, abs=0.005)


def assert_mean(values, expected):
    """The mean of values, one per independent shot, lies within five of
    its standard errors of expected."""
    assert abs(values.mean() - expected) < 5 * values.std() / math.sqrt(len(values))


@pytest.mark.parametrize("p_flip", [0.01, 0.3])
def test_flips_follow_the_independent_bit_law(p_flip):
    """From Hartree-Fock every shot reads the same strings, so each shot's
    flips are its strings XOR Hartree-Fock's. Every bit flips with
    probability p, any two bits together with p**2, within one channel and
    across the two, and a shot's 2n bits flip Binomial(2n, p) times."""
    n, shots = 5, 100_000
    sec = Sector(n, 2, 3)
    spec = brick_wall_ansatz(n, 2)
    batch = sample(prepare_state(spec, np.zeros(spec.n_params), sec), shots, p_flip, seed=11)
    hf = np.array([0b11, 0b111], dtype=np.uint64)
    pairs = np.repeat(np.stack((batch.alpha, batch.beta), axis=1), batch.shots, axis=0)
    flips = _occupations((pairs ^ hf).reshape(-1), n).reshape(shots, 2 * n)

    for bit in range(2 * n):
        assert_mean(flips[:, bit], p_flip)
    alpha, beta = flips[:, :n], flips[:, n:]
    i, j = np.triu_indices(n, 1)  # every pair of distinct orbitals
    across = (alpha[:, :, None] * beta[:, None, :]).reshape(shots, -1)
    for both in (alpha[:, i] * alpha[:, j], beta[:, i] * beta[:, j], across):
        assert_mean(both.mean(axis=1), p_flip**2)
    count = flips.sum(axis=1)
    assert_mean(count, 2 * n * p_flip)
    assert_mean((count - 2 * n * p_flip) ** 2, 2 * n * p_flip * (1 - p_flip))


def test_a_noiseless_batch_is_the_distinct_pairs_of_the_documented_draw():
    """At p_flip = 0 nothing flips: the batch is np.unique over the alpha and
    beta string indices that sample's stream draws first."""
    sec = Sector(6, 3, 2)
    spec = brick_wall_ansatz(6, 3)
    state = prepare_state(spec, np.random.default_rng(6).normal(size=spec.n_params), sec)
    batch = sample(state, 5000, 0.0, seed=21)
    rng = np.random.default_rng(21)
    ia, ib = (rng.choice(len(amps), size=5000, p=amps**2 / np.sum(amps**2))
              for amps in (state.alpha, state.beta))
    n_beta = len(state.beta)
    pair, counts = np.unique(ia * n_beta + ib, return_counts=True)
    assert np.array_equal(batch.alpha, _channel(6, 3)[pair // n_beta])
    assert np.array_equal(batch.beta, _channel(6, 2)[pair % n_beta])
    assert np.array_equal(batch.shots, counts)


@pytest.mark.parametrize("p_flip", [0.0, 0.01])
def test_sampling_memory_scales_with_the_channels_not_the_sector(p_flip):
    """15 orbitals with 5 alpha and 5 beta electrons: 3,003 strings per
    channel, 9,018,009 determinants. A joint probability vector alone would
    take 72 MB; drawing each channel on its own stays far below that."""
    import tracemalloc

    sec = Sector(15, 5, 5)
    spec = brick_wall_ansatz(15, 2)
    theta = np.random.default_rng(15).normal(size=spec.n_params)
    state = prepare_state(spec, theta, sec)
    tracemalloc.start()
    try:
        batch = sample(state, 4000, p_flip, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch.total_shots == 4000
    assert peak < 16 * 2**20


def test_noisy_batch_over_40_orbitals_keeps_every_distinct_pair():
    """One alpha and one beta electron in 40 orbitals, with readout flips.

    The batch must hold exactly the distinct raw (alpha, beta) pairs of the
    draw, in ascending pair order. A pair packed into one 64-bit
    alpha << 40 | beta key would lose alpha's top bits and merge pairs.
    """
    sec = Sector(40, 1, 1)
    spec = brick_wall_ansatz(40, 2)
    state = prepare_state(spec, np.random.default_rng(40).normal(size=spec.n_params), sec)
    shots, p_flip = 3000, 0.05
    batch = sample(state, shots, p_flip, seed=9)

    # sample's documented stream: alpha strings, beta strings, the flip count,
    # then that many distinct bit numbers, 80 per shot, alpha orbitals first.
    # With one electron, string i of a channel is 1 << i.
    rng = np.random.default_rng(9)
    ia, ib = (rng.choice(40, size=shots, p=amps**2 / np.sum(amps**2))
              for amps in (state.alpha, state.beta))
    strings = [[1 << int(a), 1 << int(b)] for a, b in zip(ia, ib)]
    bits = shots * 80
    for f in rng.choice(bits, rng.binomial(bits, p_flip), replace=False).tolist():
        shot, bit = divmod(f, 80)
        strings[shot][bit // 40] ^= 1 << (bit % 40)
    expect = sorted(Counter(map(tuple, strings)).items())
    got = list(zip(batch.alpha.tolist(), batch.beta.tolist(), batch.shots.tolist()))
    assert got == [(a, b, c) for (a, b), c in expect]
    assert any(a >> 24 for a, _, _ in got)  # bits that a packed key would drop

    hint = mean_occupations(state)
    for mode in ("discard", "recover"):
        dets = filter_symmetry(batch, sec, mode, hint)
        assert list(dets) == filter_reference(batch.counts, sec, mode, hint)
    assert batch.shots[batch.in_sector(sec)].sum() == sum(
        c for bits, c in batch.counts.items() if bitstring_is_valid(bits, sec))


def test_sample_rejects_nonpositive_shots():
    state, _ = prepared_example()
    with pytest.raises(ValueError):
        sample(state, 0, 0.0, seed=1)


def test_sample_refuses_a_flip_probability_outside_0_1():
    state, _ = prepared_example()
    for p_flip in (-0.1, 1.5):
        with pytest.raises(ValueError, match="p_flip"):
            sample(state, 10, p_flip, seed=1)
