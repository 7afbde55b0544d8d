"""Operator-algebra reference implementations, checked against a second,
kron-built Jordan-Wigner construction that shares no code with them."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from hivqe.determinants import Determinant, occupied_orbitals
from hivqe.eigensolver import DENSE_CUTOFF, _coupling_blocks, _irrep_labels, ground_state, project
from hivqe.integrals import parse_fcidump
from hivqe.oracle import (
    BRUTE_FORCE_SPIN_ORBITAL_LIMIT,
    brute_force_hamiltonian,
    det_to_fock_index,
    fci_ground,
)
from hivqe.sampler import enumerate_sector
from hivqe.subspace import _hf_row

from helpers import (
    blocked_integral_set,
    fock_vector,
    jw_annihilator,
    jw_number_conserving_hamiltonian,
    load_fixture,
    load_reference,
    random_integral_set,
    with_forbidden_eri,
    with_forbidden_h,
)

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
H8 = Path(__file__).resolve().parent.parent / "bench" / "inputs" / "h8.fcidump"  # read only
BLOCKED_SEEDS = [(8, 3, 4, 41), (8, 3, 4, 47), (8, 3, 4, 53), (10, 3, 3, 110),
                 (8, 4, 4, 1), (8, 4, 4, 2), (8, 4, 4, 3)]


def integral_set(name):
    if name == "h8":
        return parse_fcidump(H8.read_text())
    if isinstance(name, tuple):
        return blocked_integral_set(*name)
    return load_fixture(name)


def full_sector_solve(s):
    """The sector and its ground state as fci_ground solved it before it
    kept one irrep: one project over every row and one tight solve."""
    sub = enumerate_sector(s.n_orb, s.n_alpha, s.n_beta)
    h = project(sub, s)
    return sub, h, ground_state(h, mode="tight")


def det_irreps(sub, labels):
    """Each determinant's irrep, XORing its occupied orbitals' labels one by one."""
    out = []
    for d in sub:
        irrep = 0
        for p in occupied_orbitals(d.alpha_mask) + occupied_orbitals(d.beta_mask):
            irrep ^= int(labels[p])
        out.append(irrep)
    return np.array(out)


def test_det_to_fock_index_packs_alpha_low():
    assert det_to_fock_index(Determinant(0b01, 0b00), 2) == 0b0001
    assert det_to_fock_index(Determinant(0b00, 0b01), 2) == 0b0100
    assert det_to_fock_index(Determinant(0b11, 0b10), 2) == 0b1011


def test_anticommutation_relations():
    n_qubits = 4
    dim = 1 << n_qubits
    for p in range(n_qubits):
        for q in range(n_qubits):
            a_p = jw_annihilator(n_qubits, p)
            a_q = jw_annihilator(n_qubits, q)
            anti = a_p @ a_q.T + a_q.T @ a_p
            expected = np.eye(dim) if p == q else np.zeros((dim, dim))
            assert np.array_equal(anti, expected)
            assert np.array_equal(a_p @ a_q + a_q @ a_p, np.zeros((dim, dim)))


def test_number_operator_counts_sector():
    n = 3
    number = sum(jw_annihilator(2 * n, j).T @ jw_annihilator(2 * n, j)
                 for j in range(2 * n))
    for d in enumerate_sector(3, 2, 1):
        idx = det_to_fock_index(d, 3)
        assert number[idx, idx] == 3.0


@pytest.mark.parametrize("shape", [(2, 1, 1), (3, 2, 1), (4, 2, 2)])
def test_brute_force_matches_kron_hamiltonian(shape):
    s = random_integral_set(*shape, seed=sum(shape), e_core=0.125)
    h1 = brute_force_hamiltonian(s)
    h2 = jw_number_conserving_hamiltonian(s)
    assert np.max(np.abs(h1 - h2)) < 1e-12
    assert np.allclose(h1, h1.T, atol=0)


def test_brute_force_respects_spin_orbital_limit():
    s = random_integral_set(5, 2, 2, seed=1)
    assert 2 * s.n_orb > BRUTE_FORCE_SPIN_ORBITAL_LIMIT
    with pytest.raises(ValueError):
        brute_force_hamiltonian(s)


def test_fci_ground_reproduces_frozen_references():
    ref = load_reference()
    for name, entry in ref.items():
        res = fci_ground(load_fixture(name))
        assert res.sector_size == entry["sector_size"]
        assert res.energy == pytest.approx(entry["e_fci"], abs=1e-9)


def test_fci_ground_vector_is_true_eigenvector():
    s = load_fixture("h2_0.74")
    res = fci_ground(s)
    dets = enumerate_sector(2, 1, 1)
    vec = fock_vector(dets, res.vector.amplitudes, 2)
    h = jw_number_conserving_hamiltonian(s)
    residual = h @ vec - res.energy * vec
    assert np.max(np.abs(residual)) < 1e-8


@pytest.mark.parametrize("name", [*load_reference(), "h8", *BLOCKED_SEEDS])
def test_fci_ground_solves_the_start_irrep_as_the_full_sector_solve_does(name):
    """Above DENSE_CUTOFF the full-sector Davidson solve never leaves the
    irrep of its start, the determinant of lowest diagonal: every other
    amplitude is exactly 0, and fci_ground, which assembles only that
    irrep's rows, returns the same energy and vector over the whole sector
    in its order. A sector solved densely is solved whole, bit for bit."""
    s = integral_set(name)
    sub, h, full = full_sector_solve(s)
    res = fci_ground(s)
    amplitudes = res.vector.amplitudes
    assert len(amplitudes) == len(sub) == res.sector_size
    if len(sub) <= DENSE_CUTOFF:
        assert res.energy == full.energy and np.array_equal(amplitudes, full.amplitudes)
        return
    irrep = det_irreps(sub, _irrep_labels(_coupling_blocks(s.eri), s.one_body))
    dropped = irrep != irrep[np.argmin(h.diagonal())]
    assert 0 < dropped.sum() < len(sub)
    assert np.all(full.amplitudes[dropped] == 0.0) and np.all(amplitudes[dropped] == 0.0)
    assert res.energy == pytest.approx(full.energy, abs=1e-12)
    assert np.allclose(amplitudes, full.amplitudes, rtol=0, atol=1e-7)


def test_fci_ground_keeps_the_start_irrep_even_where_hartree_fock_lies_in_another():
    """On this blocked set the determinant of lowest diagonal and the
    Hartree-Fock determinant lie in different irreps, and the lowest state
    of Hartree-Fock's irrep is far lower than what Davidson reaches."""
    s = blocked_integral_set(8, 4, 4, 1)
    sub, h, full = full_sector_solve(s)
    irrep = det_irreps(sub, _irrep_labels(_coupling_blocks(s.eri), s.one_body))
    hf = irrep[_hf_row(sub)]
    assert irrep[np.argmin(h.diagonal())] != hf
    rows = np.flatnonzero(irrep == hf)
    e_hf_irrep = ground_state(project(sub.take(rows), s), mode="tight").energy
    assert fci_ground(s).energy == pytest.approx(full.energy, abs=1e-12)
    assert full.energy == pytest.approx(-30.978, abs=1e-3)
    assert e_hf_irrep == pytest.approx(-38.045, abs=1e-3)


@pytest.mark.parametrize("name,broken", [
    ("random", None), ("h8", with_forbidden_eri), ((8, 4, 4, 1), with_forbidden_eri),
    ((8, 4, 4, 1), with_forbidden_h),
])
def test_fci_ground_without_a_grading_is_the_full_sector_solve_bit_for_bit(name, broken):
    """Dense random integrals, or a 1e-13 (pq|rs) or h_pq that the symmetry
    forbids in a graded set, leave no grading: the whole sector is solved as is."""
    if name == "random":
        s = random_integral_set(6, 3, 3, seed=2)
    else:
        s = integral_set(name)
        s = broken(s, _irrep_labels(_coupling_blocks(s.eri), s.one_body), 1e-13)
    assert _irrep_labels(_coupling_blocks(s.eri), s.one_body) is None
    _, _, full = full_sector_solve(s)
    res = fci_ground(s)
    assert res.energy == full.energy and np.array_equal(res.vector.amplitudes, full.amplitudes)


def test_fci_ground_enforces_sector_limit(monkeypatch):
    s = random_integral_set(6, 3, 3, seed=2)
    assert math.comb(6, 3) ** 2 == 400
    monkeypatch.setattr("hivqe.oracle.ORACLE_SECTOR_LIMIT", 100)  # read at call time
    with pytest.raises(ValueError, match="400 determinants exceeds limit 100"):
        fci_ground(s)
    monkeypatch.setattr("hivqe.oracle.ORACLE_SECTOR_LIMIT", 400)
    assert fci_ground(s).sector_size == 400


def test_the_fixture_script_cross_checks_hold_on_the_committed_fixtures(monkeypatch):
    """scripts/make_fixtures.py's own checks hold on the committed fixtures:
    its operator-algebra ground energy equals fci_ground's, and the
    Hartree-Fock energy it reads back from each file equals the stored e_hf."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # the script sets these on import; undone after the test
    monkeypatch.setattr(sys, "path", list(sys.path))  # it also puts src on the path
    spec = importlib.util.spec_from_file_location("make_fixtures", SCRIPTS / "make_fixtures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for name in ("h2_0.74", "h4_chain"):
        s = load_fixture(name)
        assert script.brute_force_ground(s) == pytest.approx(fci_ground(s).energy, abs=1e-9)
    for name, entry in load_reference().items():
        assert script.hf_energy_from_file(load_fixture(name)) == pytest.approx(entry["e_hf"], abs=1e-9)
