"""Operator-algebra reference implementations, checked against a second,
kron-built Jordan-Wigner construction that shares no code with them."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from hivqe.determinants import Determinant
from hivqe.oracle import (
    BRUTE_FORCE_SPIN_ORBITAL_LIMIT,
    brute_force_hamiltonian,
    det_to_fock_index,
    fci_ground,
)
from hivqe.sampler import enumerate_sector

from helpers import (
    fock_vector,
    jw_annihilator,
    jw_number_conserving_hamiltonian,
    load_fixture,
    load_reference,
    random_integral_set,
)

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
