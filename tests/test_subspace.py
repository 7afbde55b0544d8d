"""Symmetry filtering, screening, expansion, and tensor reconstruction."""

import itertools

import numpy as np
import pytest

import hivqe.eigensolver
from hivqe.determinants import (
    Determinant,
    Sector,
    _pair_elements,
    hartree_fock_det,
    slater_condon,
)
from hivqe.integrals import IntegralSet
from hivqe.eigensolver import ground_state, project
from hivqe.sampler import enumerate_sector
from hivqe.subspace import (
    AMPLITUDE_TIE,
    SampleBatch,
    Subspace,
    amplitude_screen,
    bitstring_is_valid,
    cap_screen,
    classical_expand,
    filter_symmetry,
    tensor_reconstruct,
    union,
)

from helpers import (
    batch_of,
    det_from_string,
    filter_reference,
    load_fixture,
    random_integral_set,
)

SEC22 = Sector(4, 2, 2)


def strings(*values):
    return np.array(values, dtype=np.uint64)


def test_sample_batch_refuses_inconsistent_arrays():
    batch = SampleBatch(strings(0b0011, 0b1100), strings(0b0011, 0b0101), np.array([3, 1]), 4)
    assert batch.total_shots == 4
    with pytest.raises(ValueError, match="length"):
        SampleBatch(strings(0b0011, 0b1100), strings(0b0011), np.array([3, 1]), 4)
    with pytest.raises(ValueError, match="length"):
        SampleBatch(strings(0b0011), strings(0b0011), np.array([3, 1]), 4)
    with pytest.raises(ValueError, match="orbital 4"):
        SampleBatch(strings(0b0011, 0b10001), strings(0b0011, 0b0101), np.array([3, 1]), 4)
    with pytest.raises(ValueError, match="orbital 4"):
        SampleBatch(strings(0b0011), strings(0b10000), np.array([4]), 4)
    with pytest.raises(ValueError, match="needs a shot"):
        SampleBatch(strings(0b0011, 0b1100), strings(0b0011, 0b0101), np.array([4, 0]), 4)
    with pytest.raises(ValueError):
        batch_of({"110011": 3}, 4)  # width != 2 * n_orb


def test_sample_batch_arrays_are_read_only_and_counts_is_a_text_view():
    batch = batch_of({"01011010": 5, "11101100": 2}, 4)
    assert batch.alpha.tolist() == [0b1010, 0b0111]
    assert batch.beta.tolist() == [0b0101, 0b0011]
    assert batch.shots.tolist() == [5, 2] and len(batch) == 2
    for array in (batch.alpha, batch.beta, batch.shots):
        assert not array.flags.writeable
    assert list(batch.counts.items()) == [("01011010", 5), ("11101100", 2)]
    assert batch.in_sector(SEC22).tolist() == [True, False]


def test_bitstring_validity():
    assert bitstring_is_valid("11001100", SEC22)
    assert not bitstring_is_valid("11101100", SEC22)  # 3 alpha electrons
    assert not bitstring_is_valid("11001000", SEC22)  # 1 beta electron


def test_subspace_rejects_foreign_determinants():
    with pytest.raises(ValueError):
        Subspace([Determinant(0b0111, 0b0011)], SEC22)
    with pytest.raises(TypeError):
        Subspace([Determinant(0b0011, 0b0011)])


def test_filter_discard_keeps_first_appearance_order():
    batch = batch_of({
        "01011010": 5,   # valid
        "11101100": 2,   # invalid alpha
        "11001100": 7,   # valid (HF)
    }, 4)
    dets = filter_symmetry(batch, SEC22, "discard")
    assert list(dets) == [det_from_string("01011010"), det_from_string("11001100")]


def test_filter_recover_flips_lowest_hint_bit():
    # alpha channel has one electron too many; the hint says orbital 2 is the
    # least expected to be occupied, so it is the one dropped.
    hint = (np.array([0.9, 0.6, 0.4, 0.1]), np.array([0.5, 0.5, 0.5, 0.5]))
    batch = batch_of({"11101100": 1}, 4)
    dets = filter_symmetry(batch, SEC22, "recover", occupancy_hint=hint)
    assert list(dets) == [Determinant(0b0011, 0b0011)]


def test_filter_recover_adds_missing_electron():
    # beta channel one short; orbital with the highest hint gains it
    hint = (np.array([0.5] * 4), np.array([0.1, 0.2, 0.9, 0.3]))
    batch = batch_of({"11000000": 1}, 4)
    dets = filter_symmetry(batch, SEC22, "recover", occupancy_hint=hint)
    assert list(dets) == [Determinant(0b0011, 0b1100)]  # betas placed on 2 then 3


def test_filter_recover_never_drops_and_merges_duplicates():
    hint = (np.full(4, 0.5), np.full(4, 0.5))
    batch = batch_of({"11101100": 3, "11011100": 2, "11001100": 4}, 4)
    dets = filter_symmetry(batch, SEC22, "recover", occupancy_hint=hint)
    assert all(SEC22.contains(d) for d in dets)
    assert len(dets) == len(set(dets))
    # every input string lands somewhere valid: three distinct outputs here
    assert len(dets) == 3


def test_filter_rejects_unknown_mode():
    with pytest.raises(ValueError):
        filter_symmetry(batch_of({"11001100": 1}, 4), SEC22, "patch")


@pytest.mark.parametrize("call, message", [
    (lambda sub, s: cap_screen(sub, np.ones(len(sub)), 0), "cap must be at least 1"),
    (lambda sub, s: cap_screen(sub, np.ones(len(sub) + 1), 2),
     "amplitude vector does not match subspace length"),
    (lambda sub, s: amplitude_screen(sub, np.ones(len(sub)), -1e-6),
     "threshold must be nonnegative"),
    (lambda sub, s: classical_expand(sub, np.ones(len(sub)), -1, s), "m must be nonnegative"),
    (lambda sub, s: classical_expand(sub, np.ones(len(sub) - 1), 2, s),
     "amplitude vector does not match subspace length"),
    (lambda sub, s: filter_symmetry(batch_of({"11001100": 1}, 4), SEC22, "recover"),
     "recover mode needs an occupancy hint"),
], ids=["cap_k0", "cap_length", "screen_threshold", "expand_m", "expand_length",
        "recover_hint"])
def test_refusals_name_what_is_wrong(call, message):
    sub = Subspace(list(enumerate_sector(4, 2, 2))[:5], SEC22)
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(sub, load_fixture("h4_chain"))


@pytest.mark.parametrize("seed", range(10))
def test_filter_matches_the_bitstring_reference(seed):
    """filter_symmetry against the one-key-at-a-time filter of tests/helpers.py.

    Each channel is over-filled, under-filled or valid, in every combination,
    so some rows have both channels invalid at once. The hints hold exact
    ties: all 0.5, and values such as 0.25 and 0.75 that put a 0 bit and a
    1 bit at equal distance.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    sector = Sector(n, int(rng.integers(1, n)), int(rng.integers(1, n)))

    def channel(target, delta):
        bits = np.zeros(n, dtype=int)
        bits[rng.choice(n, min(max(target + delta, 0), n), replace=False)] = 1
        return "".join(map(str, bits))

    rows = [channel(sector.n_alpha, da) + channel(sector.n_beta, db)
            for da, db in itertools.product((-2, -1, 0, 1, 2), repeat=2) for _ in range(3)]
    text = {bits: int(rng.integers(1, 5)) for bits in rng.permutation(rows).tolist()}
    batch = batch_of(text, n)
    ties = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 0.1, 0.9])
    hints = [(np.full(n, 0.5), np.full(n, 0.5)),
             (rng.choice(ties, n), rng.choice(ties, n)),
             (rng.random(n), rng.random(n))]
    assert list(filter_symmetry(batch, sector, "discard")) == filter_reference(
        text, sector, "discard")
    for hint in hints:
        assert list(filter_symmetry(batch, sector, "recover", hint)) == filter_reference(
            text, sector, "recover", hint)


def h2_ground():
    s = load_fixture("h2_0.74")
    dets = enumerate_sector(2, 1, 1)
    sub = Subspace(dets, Sector(2, 1, 1))
    c = ground_state(project(sub, s), "tight")
    return s, sub, c


def loose_amplitudes(sub, s):
    return ground_state(project(sub, s), "loose").amplitudes


def test_cap_screen_under_cap_keeps_every_row():
    s, sub, _ = h2_ground()
    amps = loose_amplitudes(sub, s)
    assert cap_screen(sub, amps, 4).tolist() == [0, 1, 2, 3]
    assert cap_screen(sub, amps, 10).tolist() == [0, 1, 2, 3]


def test_cap_screen_keeps_hf_and_ranks_by_amplitude():
    s, sub, c = h2_ground()
    rows = cap_screen(sub, loose_amplitudes(sub, s), 2)
    # H2 ground state is HF plus the double; singles carry ~zero weight
    assert list(sub.take(rows)) == [Determinant(0b01, 0b01), Determinant(0b10, 0b10)]


def test_cap_screen_without_hf_keeps_top_k():
    s = load_fixture("h2_0.74")
    sector = Sector(2, 1, 1)
    sub = Subspace([Determinant(0b10, 0b01), Determinant(0b01, 0b10),
                    Determinant(0b10, 0b10)], sector)
    capped = sub.take(cap_screen(sub, loose_amplitudes(sub, s), 1))
    assert len(capped) == 1
    assert list(capped)[0] in list(sub)


def test_cap_screen_pins_hf_below_the_ranked_survivors():
    sub = Subspace([Determinant(0b10, 0b01), Determinant(0b01, 0b01),
                    Determinant(0b01, 0b10), Determinant(0b10, 0b10)], Sector(2, 1, 1))
    amps = np.array([0.6, 0.1, 0.5, 0.6])
    amps /= np.linalg.norm(amps)
    # ties rank by determinant; HF (row 1) displaces the lowest-ranked survivor
    assert cap_screen(sub, amps, 3).tolist() == [0, 3, 1]
    assert cap_screen(sub, amps, 1).tolist() == [1]


def test_amplitude_screen_drops_small_but_keeps_hf():
    s, sub, c = h2_ground()
    rows = amplitude_screen(sub, c.amplitudes, 1e-6)
    screened = sub.take(rows)
    assert list(screened) == [Determinant(0b01, 0b01), Determinant(0b10, 0b10)]
    # nothing below threshold: every row back, in order
    c2 = ground_state(project(screened, s), "tight")
    assert amplitude_screen(screened, c2.amplitudes, 1e-6).tolist() == [0, 1]


def test_amplitude_screen_keeps_hf_even_when_tiny():
    sector = Sector(2, 1, 1)
    sub = Subspace([Determinant(0b01, 0b01), Determinant(0b10, 0b10)], sector)
    amps = np.array([1e-9, 1.0])
    screened = sub.take(amplitude_screen(sub, amps / np.linalg.norm(amps), 1e-6))
    assert Determinant(0b01, 0b01) in list(screened)


def test_amplitude_screen_mismatched_vector_raises():
    _, sub, _ = h2_ground()
    with pytest.raises(ValueError):
        amplitude_screen(sub, np.array([1.0]), 1e-6)


def with_references(sub, refs, s):
    """sub with each of refs, rows of sub, marked expanded: an expansion
    around it that adds nothing (m=0)."""
    rows = list(sub)
    for ref in refs:
        sub = classical_expand(sub, np.eye(len(rows))[rows.index(ref)], 0, s)
    return sub


def test_take_selects_rows_in_order_and_keeps_history():
    ref = Determinant(0b01, 0b01)
    sub = with_references(Subspace(enumerate_sector(2, 1, 1), Sector(2, 1, 1)), [ref],
                          load_fixture("h2_0.74"))
    assert list(sub) == list(enumerate_sector(2, 1, 1)) and sub.expanded_refs == {ref}
    part = sub.take(np.array([3, 0]))
    assert list(part) == [list(sub)[3], list(sub)[0]]
    assert part.expanded_refs == sub.expanded_refs


def test_classical_expand_ranks_by_coupling():
    s = load_fixture("h2_0.74")
    sector = Sector(2, 1, 1)
    sub = Subspace([Determinant(0b01, 0b01)], sector)
    # the double couples through an exchange integral; singles vanish by
    # Brillouin, so m=1 must pick the double
    grown = classical_expand(sub, np.array([1.0]), 1, s)
    assert list(grown) == [Determinant(0b01, 0b01), Determinant(0b10, 0b10)]
    assert Determinant(0b01, 0b01) in grown.expanded_refs


def test_classical_expand_exhaustion_returns_same_object():
    s = load_fixture("h2_0.74")
    sector = Sector(2, 1, 1)
    sub = Subspace([Determinant(0b01, 0b01)], sector)
    for _ in range(6):
        prev = sub
        amps = np.zeros(len(sub))
        amps[0] = 1.0
        sub = classical_expand(sub, amps, 4, s)
        if sub is prev:
            break
    assert sub is prev
    assert len(sub) == 4  # expansion filled the whole sector first


def test_classical_expand_m_zero_still_marks_reference():
    s = load_fixture("h2_0.74")
    sub = Subspace([Determinant(0b01, 0b01)], Sector(2, 1, 1))
    grown = classical_expand(sub, np.array([1.0]), 0, s)
    assert list(grown) == list(sub)
    assert grown.expanded_refs == {Determinant(0b01, 0b01)}


def test_tensor_open_shell_products():
    sector = Sector(2, 1, 1)
    sub = Subspace([Determinant(0b01, 0b01), Determinant(0b10, 0b10)], sector)
    full = tensor_reconstruct(sub, False, 4)
    assert list(full) == [  # sub's rows, then the missing pairs in product order
        Determinant(0b01, 0b01), Determinant(0b10, 0b10),
        Determinant(0b01, 0b10), Determinant(0b10, 0b01),
    ]
    assert tensor_reconstruct(full, False, 4) is full  # already a complete product


def test_tensor_closed_shell_merges_channels():
    sector = Sector(2, 1, 1)
    sub = Subspace([Determinant(0b01, 0b10)], sector)
    merged = tensor_reconstruct(sub, True, 4)
    assert len(merged) == 4
    open_shell = tensor_reconstruct(sub, False, 4)
    assert open_shell is sub  # 1 alpha string x 1 beta string is no growth


def test_tensor_closed_shell_requires_balanced_sector():
    sub = Subspace([Determinant(0b011, 0b001)], Sector(3, 2, 1))
    with pytest.raises(ValueError):
        tensor_reconstruct(sub, True, 9)


def test_tensor_refuses_a_product_beyond_the_cap_before_building_it(monkeypatch):
    n_orb = 14
    strings = [sum(1 << p for p in occ) for occ in itertools.combinations(range(n_orb), 7)]
    rng = np.random.default_rng(0)
    sub = Subspace([Determinant(a, strings[j]) for a, j in
                    zip(strings, rng.permutation(len(strings)))], Sector(n_orb, 7, 7))
    assert len(sub) == 3432  # 3,432 x 3,432 strings: an 11.8M-determinant product
    small = Subspace([Determinant(0b01, 0b01), Determinant(0b10, 0b10)], Sector(2, 1, 1))
    assert len(tensor_reconstruct(small, False, 4)) == 4  # a product at the cap is built

    def refuse(*args):
        raise AssertionError("a product determinant was built")

    monkeypatch.setattr("hivqe.subspace.Determinant", refuse)
    with pytest.raises(ValueError, match="safety cap"):
        tensor_reconstruct(sub, False, 10 * len(sub))
    with pytest.raises(ValueError, match="safety cap"):
        tensor_reconstruct(small, False, 3)


def test_union_appends_in_first_seen_order():
    sector = Sector(2, 1, 1)
    sub = Subspace([Determinant(0b01, 0b01)], sector)
    grown = union(sub, Subspace([Determinant(0b10, 0b10), Determinant(0b01, 0b01),
                                 Determinant(0b01, 0b10)], sector))
    assert list(grown) == [Determinant(0b01, 0b01), Determinant(0b10, 0b10),
                           Determinant(0b01, 0b10)]
    assert union(grown, Subspace([Determinant(0b01, 0b01)], sector)) is grown


def test_subspace_keeps_first_seen_rows():
    d, e = Determinant(0b0011, 0b0101), Determinant(0b0101, 0b0011)
    sub = Subspace([d, e, d, e, d], SEC22)
    assert list(sub) == [d, e]
    assert sub.alpha.tolist() == [0b0011, 0b0101] and sub.beta.tolist() == [0b0101, 0b0011]
    assert not sub.alpha.flags.writeable and not sub.beta.flags.writeable


def test_subspace_keeps_first_seen_rows_of_a_long_repetitive_list():
    every = list(enumerate_sector(6, 2, 2))
    rng = np.random.default_rng(5)
    dets = [every[i] for i in rng.integers(0, len(every), size=4000)]
    assert list(Subspace(dets, Sector(6, 2, 2))) == list(dict.fromkeys(dets))


def test_subspace_refuses_more_than_64_orbitals():
    with pytest.raises(ValueError, match="64 bits"):
        Subspace([Determinant(1, 1)], Sector(65, 1, 1))
    top = Determinant(1 << 63, 1 << 63)  # orbital 63 still fits
    assert list(Subspace([top], Sector(64, 1, 1))) == [top]


def test_subspace_names_the_first_foreign_determinant():
    good, bad = Determinant(0b0011, 0b0011), Determinant(0b0111, 0b0011)
    outside = Determinant(0b10001, 0b0011)  # orbital 4 of a 4-orbital sector
    with pytest.raises(ValueError, match=r"alpha_mask=7, beta_mask=3\) violates Sector"):
        Subspace([good, bad, outside], SEC22)
    with pytest.raises(ValueError, match=r"alpha_mask=17, beta_mask=3\) violates"):
        Subspace([good, outside, bad], SEC22)
    with pytest.raises(ValueError, match=r"alpha_mask=-1, beta_mask=3\) violates"):
        Subspace([good, Determinant(-1, 0b0011), bad], SEC22)  # outside the uint64 range
    with pytest.raises(ValueError, match=r"alpha_mask=18446744073709551616"):
        Subspace([good, Determinant(1 << 64, 0b0011)], SEC22)


def test_iteration_yields_determinants_of_python_ints():
    every = list(enumerate_sector(4, 2, 2))
    dets = list(Subspace(every, SEC22))
    assert dets == every
    assert all(type(d) is Determinant and type(d.alpha_mask) is int
               and type(d.beta_mask) is int for d in dets)


def test_find_returns_rows_and_minus_one_where_absent():
    sub = Subspace([Determinant(0b0101, 0b0011), Determinant(0b0011, 0b0011),
                    Determinant(0b0011, 0b0101)], SEC22)
    rows = sub.find([0b0011, 0b0101, 0b0011, 0b1100, 0b0101],
                    [0b0101, 0b0011, 0b0011, 0b0011, 0b0101])
    assert rows.tolist() == [2, 0, 1, -1, -1]
    assert Subspace([], SEC22).find([0b0011], [0b0011]).tolist() == [-1]


def test_find_answers_repeated_queries_from_one_ranking():
    """Queries whose strings no row holds, below, between and above the rows'
    strings, are absent; asking again gives the same rows."""
    sec = Sector(6, 3, 2)
    everything = list(enumerate_sector(6, 3, 2))
    rng = np.random.default_rng(7)
    dets = [everything[i] for i in rng.permutation(len(everything))[:40]]
    sub = Subspace(dets, sec)
    where = {d: i for i, d in enumerate(dets)}
    for _ in range(3):
        pick = rng.permutation(len(everything))[:100]
        alpha = [everything[i].alpha_mask for i in pick] + [0, 1 << 62, 0b000111]
        beta = [everything[i].beta_mask for i in pick] + [0b11, 0b11, (1 << 63) | 1]
        want = [where.get(Determinant(a, b), -1) for a, b in zip(alpha, beta)]
        assert sub.find(alpha, beta).tolist() == want
        assert sub.find(alpha[:1], beta[:1]).tolist() == want[:1]
    assert sub.find(sub.alpha, sub.beta).tolist() == list(range(len(sub)))


def rows_by_lookup(sub):
    """Every (alpha, beta) index pair of sub's distinct strings, with the row
    holding that pair (-1 where none does), from a dict of the rows."""
    where = {(a, b): i for i, (a, b) in enumerate(zip(sub.alpha.tolist(), sub.beta.tolist()))}
    r = sub.ranks
    ia, ib = np.divmod(np.arange(len(r.alpha) * len(r.beta)), len(r.beta))
    want = [where.get(pair, -1) for pair in zip(r.alpha[ia].tolist(), r.beta[ib].tolist())]
    return ia, ib, want


@pytest.mark.parametrize("seed", range(8))
def test_position_table_and_sorted_key_search_agree(seed):
    """StringRanks.row reads a dense table for a subspace that fills enough
    of its alpha x beta product and searches sorted keys for one that does
    not; both find every row and report every absent pair as -1."""
    rng = np.random.default_rng(seed)
    sec = Sector(10, 3, 3)
    strings = [m for m in range(1 << 10) if m.bit_count() == 3]  # 120 per channel
    n_a, n_b = (int(v) for v in rng.integers(2, 60, size=2))
    alphas, betas = (rng.choice(strings, size, replace=False) for size in (n_a, n_b))
    product = [Determinant(int(a), int(b)) for a in alphas for b in betas]
    keep = max(1, int(len(product) * rng.uniform(1 / 60, 1)))
    dense = Subspace([product[i] for i in rng.permutation(len(product))[:keep]], sec)
    # n distinct alpha strings paired with n distinct beta strings: n rows
    # over an n x n product, past the table's 64 entries per row once n > 64.
    n = int(rng.integers(65, 121))
    alphas, betas = rng.permutation(strings)[:n], rng.permutation(strings)[:n]
    sparse = Subspace([Determinant(int(a), int(b)) for a, b in zip(alphas, betas)], sec)
    assert dense.ranks._table is not None and sparse.ranks._table is None
    for sub in (dense, sparse):
        ia, ib, want = rows_by_lookup(sub)
        assert sub.ranks.row(ia, ib).tolist() == want
        assert sub.find(sub.alpha, sub.beta).tolist() == list(range(len(sub)))
        absent = np.array([a for a in strings if a not in set(sub.alpha.tolist())], dtype=np.uint64)
        assert (sub.find(absent, np.full(len(absent), sub.beta[0])) == -1).all()


def test_the_position_table_holds_at_most_64_entries_per_row():
    sec = Sector(10, 3, 3)
    assert Subspace(enumerate_sector(10, 3, 3), sec).ranks._table is not None
    strings = [m for m in range(1 << 10) if m.bit_count() == 3]
    for n, table in ((64, True), (65, False)):  # n rows over an n x n product
        line = Subspace([Determinant(a, b) for a, b in zip(strings[:n], strings[::-1])], sec)
        assert (line.ranks._table is not None) == table


# Pure-Python references for the array screens: the tuple sorts and
# dict.fromkeys orders that the string arrays must reproduce.

def reference_cap(dets, amps, k, sector):
    if len(dets) <= k:
        return list(range(len(dets)))
    kept = sorted(range(len(dets)), key=lambda i: (-abs(amps[i]), dets[i]))[:k]
    hf = Determinant((1 << sector.n_alpha) - 1, (1 << sector.n_beta) - 1)
    if hf in dets and dets.index(hf) not in kept:
        kept[-1] = dets.index(hf)
    return kept


def excitation_degree(d, ref):
    return ((d.alpha_mask ^ ref.alpha_mask).bit_count()
            + (d.beta_mask ^ ref.beta_mask).bit_count()) // 2


def reference_ranking(ref, candidates, s):
    """Candidates by |<ref|H|cand>| on a grid of AMPLITUDE_TIE descending,
    ties by (alpha, beta) ascending: couplings equal in exact arithmetic
    tie, whichever last bit their sums round to."""
    return sorted(candidates,
                  key=lambda d: (-round(abs(slater_condon(ref, d, s)) / AMPLITUDE_TIE), d))


def reference_expand(dets, amps, refs, m, s, every):
    fresh = [(i, d) for i, d in enumerate(dets) if d not in refs]
    if not fresh:
        return None, dets
    largest = max(abs(amps[i]) for i, _ in fresh)
    ref = min(d for i, d in fresh if abs(amps[i]) >= largest - AMPLITUDE_TIE)
    present = set(dets)
    ranked = reference_ranking(
        ref, [d for d in every if 1 <= excitation_degree(d, ref) <= 2 and d not in present], s)
    return ref, dets + ranked[:m]


def reference_tensor(dets, closed_shell):
    """dets, then the pairs of their string product that dets lacks, in product order."""
    alphas = list(dict.fromkeys(d.alpha_mask for d in dets))
    betas = list(dict.fromkeys(d.beta_mask for d in dets))
    if closed_shell:
        alphas = betas = list(dict.fromkeys(alphas + betas))
    return list(dict.fromkeys(dets + [Determinant(a, b) for a in alphas for b in betas]))


@pytest.mark.parametrize("seed", range(50))
def test_array_screens_match_the_tuple_sort_references(seed):
    rng = np.random.default_rng(seed)
    # h4_chain's symmetry zeroes many couplings, so coupling ranks tie too
    s = load_fixture("h4_chain") if seed % 2 else load_fixture("lih")
    sector = Sector(s.n_orb, s.n_alpha, s.n_beta)
    every = list(enumerate_sector(*sector))
    for _ in range(8):
        pick = rng.permutation(len(every))[: int(rng.integers(1, min(len(every), 60)))]
        dets = [every[i] for i in pick]
        refs = {dets[i] for i in rng.permutation(len(dets))[: int(rng.integers(0, 4))]}
        sub = with_references(Subspace(dets, sector), refs, s)
        assert list(sub) == dets and sub.expanded_refs == refs
        amps = rng.choice([0.0, 0.2, -0.2, 0.5, -0.5, 1.0], size=len(dets))  # many ties
        for k in (1, 2, len(dets) // 2 + 1, len(dets)):
            assert cap_screen(sub, amps, k).tolist() == reference_cap(dets, amps, k, sector)

        m = int(rng.integers(0, 6))
        ref, expected = reference_expand(dets, amps, refs, m, s, every)
        grown = classical_expand(sub, amps, m, s)
        assert list(grown) == expected
        assert grown.expanded_refs == (refs if ref is None else refs | {ref})

        other = [every[i] for i in rng.permutation(len(every))[:20]]
        assert list(union(sub, Subspace(other, sector))) == list(dict.fromkeys(dets + other))

        for closed_shell in (False, True):
            tensored = tensor_reconstruct(sub, closed_shell, len(every))
            assert list(tensored) == reference_tensor(dets, closed_shell)


def _top_orbital_case():
    """64 orbitals, 1a/1b, integrals only among a few orbitals that include 63."""
    active = (0, 1, 5, 31, 62, 63)
    rng = np.random.default_rng(63)
    one = {(p, q): rng.normal() for p in active for q in active if q <= p}
    two = {(p, q, r, t): rng.normal()
           for p in active for q in active for r in active for t in active
           if q <= p and t <= r and (r, t) <= (p, q)}
    return IntegralSet.from_terms(64, 1, 1, 0.0, one, two), Determinant(1 << 63, 1 << 5)


EXPANSION_CASES = {
    "lih_hf": lambda: (load_fixture("lih"), None),
    "h4_chain_hf": lambda: (load_fixture("h4_chain"), None),
    "no_beta": lambda: (random_integral_set(6, 3, 0, seed=21), Determinant(0b101010, 0)),
    "full_alpha": lambda: (random_integral_set(5, 5, 2, seed=22), Determinant(0b11111, 0b10100)),
    "one_per_channel": lambda: (random_integral_set(5, 1, 1, seed=23), Determinant(0b100, 0b1000)),
    "orbital_63": _top_orbital_case,
}


@pytest.mark.parametrize("case", EXPANSION_CASES)
def test_expansion_appends_every_single_and_double_once(case):
    """A one-row subspace with m above the candidate count gains exactly the
    sector determinants one or two moves from its row, ranked as
    slater_condon ranks them."""
    s, ref = EXPANSION_CASES[case]()
    sector = Sector(s.n_orb, s.n_alpha, s.n_beta)
    ref = ref or hartree_fock_det(s)
    grown = classical_expand(Subspace([ref], sector), np.ones(1), 10**6, s)
    candidates = [d for d in enumerate_sector(*sector) if 1 <= excitation_degree(d, ref) <= 2]
    assert list(grown) == [ref] + reference_ranking(ref, candidates, s)
    assert grown.expanded_refs == {ref}
    if case == "orbital_63":  # moves out of and into orbital 63 both couple
        assert any(slater_condon(ref, d, s) != 0 for d in candidates if not d.alpha_mask >> 63)
        assert any(slater_condon(ref, d, s) != 0 for d in candidates if d.beta_mask >> 63)


@pytest.mark.parametrize("cutoff", [0, 1 << 62], ids=["walk", "pairwise"])
@pytest.mark.parametrize("case", ["lih_hf", "h4_chain_hf", "orbital_63"])
def test_expansion_ranks_the_entries_project_stores(case, cutoff, monkeypatch):
    """Each appended row's coupling to the reference is bit for bit the entry
    project stores for the pair, whichever generator builds the matrix, and
    the rows are appended in the order of those entries on the tie grid."""
    monkeypatch.setattr(hivqe.eigensolver, "PAIRWISE_CUTOFF", cutoff)
    s, ref = EXPANSION_CASES[case]()
    ref = ref or hartree_fock_det(s)
    grown = classical_expand(Subspace([ref], Sector(s.n_orb, s.n_alpha, s.n_beta)),
                             np.ones(1), 10**6, s)
    added = slice(1, None)
    stored = np.abs(project(grown, s)[added, 0].toarray().ravel())  # <row|H|ref>, lower triangle
    coupling = np.abs(_pair_elements(grown.alpha[added], grown.beta[added],
                                     grown.alpha[0], grown.beta[0], s))
    assert len(grown) > 1 and coupling.tobytes() == stored.tobytes()
    keys = [(-round(c / AMPLITUDE_TIE), d) for c, d in zip(stored.tolist(), list(grown)[1:])]
    assert keys == sorted(keys)


def test_a_dropped_and_readded_reference_is_not_expanded_twice():
    s = load_fixture("h4_chain")
    sector = Sector(4, 2, 2)
    ref, other = Determinant(0b0101, 0b0011), Determinant(0b0011, 0b0011)
    sub = Subspace([ref, other], sector)
    grown = classical_expand(sub, np.array([0.9, 0.1]), 0, s)
    assert grown.expanded_refs == {ref}
    dropped = grown.take(cap_screen(grown, np.array([0.1, 0.9]), 1))
    assert list(dropped) == [other]
    readded = union(dropped, Subspace([ref], sector))
    assert list(readded) == [other, ref] and ref in readded.expanded_refs
    again = classical_expand(readded, np.array([0.1, 0.9]), 0, s)
    assert again.expanded_refs == {ref, other}  # the larger amplitude was skipped


def test_spin_mirrors_one_ulp_apart_tie_for_the_reference():
    """Mirrored determinants have equal amplitudes in exact arithmetic, so a
    last-bit difference must not pick the reference: (alpha, beta) does."""
    s = load_fixture("h4_chain")
    later, earlier = Determinant(0b0101, 0b0011), Determinant(0b0011, 0b0101)
    sub = Subspace([later, earlier], Sector(4, 2, 2))
    amps = np.array([np.nextafter(0.5, 1.0), 0.5])  # the later row is one ulp larger
    assert classical_expand(sub, amps, 0, s).expanded_refs == {earlier}


def test_an_expanded_reference_no_row_holds_blocks_no_row():
    s = load_fixture("h4_chain")
    sector = Sector(4, 2, 2)
    gone, only = Determinant(0b0101, 0b0011), Determinant(0b0011, 0b0011)
    sub = classical_expand(Subspace([gone, only], sector), np.array([1.0, 0.0]), 0, s).take([1])
    assert list(sub) == [only] and sub.expanded_refs == {gone}
    assert classical_expand(sub, np.array([0.5]), 0, s).expanded_refs == {gone, only}


def test_filter_refuses_a_batch_of_another_width():
    with pytest.raises(ValueError, match="3 orbitals"):
        filter_symmetry(batch_of({"110100": 1}, n_orb=3), SEC22)
