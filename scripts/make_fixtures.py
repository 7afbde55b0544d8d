"""Generate the frozen molecular-integral fixtures under tests/fixtures/.

One-off helper, not part of the installed package. It evaluates Gaussian
integrals over contracted s/p shells with the McMurchie-Davidson scheme,
runs a restricted Hartree-Fock, transforms to the molecular-orbital basis,
and emits FCIDUMP files (plus dipole sidecars) through the hivqe writers so
the fixtures round-trip through the exact same serialization the package
reads. Reference energies go to tests/fixtures/reference.json.

Every emitted fixture is validated in place:
  * the Hartree-Fock energy recomputed from the re-parsed file via the
    Slater-Condon diagonal must match the SCF energy,
  * sectors small enough for the operator-algebra oracle are cross-checked
    against it,
  * well-known minimal-basis energies for H2 and LiH act as loose anchors.

Run from the repository root:

    python3 scripts/make_fixtures.py

The last digits of the LiH FCI energy and dipole can depend on the BLAS
thread count, so the script pins the BLAS pools to one thread before numpy
is imported; the committed reference.json was written that way.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.special import hyp1f1

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hivqe.determinants import hartree_fock_det, slater_condon
from hivqe.integrals import (
    DipoleIntegrals,
    IntegralSet,
    parse_fcidump,
    write_dipole_file,
    write_fcidump,
)
from hivqe.oracle import (
    brute_force_hamiltonian,
    det_to_fock_index,
    fci_ground,
)
from hivqe.sampler import enumerate_sector

BOHR_PER_ANGSTROM = 1.8897261246257702

# STO-3G exponents and contraction coefficients (EMSL basis-set exchange).
STO3G = {
    "H": [
        ("s", [3.42525091, 0.62391373, 0.16885540],
              [0.15432897, 0.53532814, 0.44463454]),
    ],
    "Li": [
        ("s", [16.1195750, 2.9362007, 0.7946505],
              [0.15432897, 0.53532814, 0.44463454]),
        ("s", [0.6362897, 0.1478601, 0.0480887],
              [-0.09996723, 0.39951283, 0.70011547]),
        ("p", [0.6362897, 0.1478601, 0.0480887],
              [0.15591627, 0.60768372, 0.39195739]),
    ],
}

CHARGE = {"H": 1, "Li": 3}


# ---------------------------------------------------------------------------
# Primitive Gaussian machinery (McMurchie-Davidson)
# ---------------------------------------------------------------------------

def hermite_coeff(i, j, t, q_x, a, b):
    """Expansion coefficient E_t^{ij} of a Gaussian product in Hermite Gaussians."""
    p = a + b
    mu = a * b / p
    if i < 0 or j < 0 or t < 0 or t > i + j:
        return 0.0
    if i == j == t == 0:
        return math.exp(-mu * q_x * q_x)
    if j == 0:
        return (hermite_coeff(i - 1, j, t - 1, q_x, a, b) / (2 * p)
                - mu * q_x / a * hermite_coeff(i - 1, j, t, q_x, a, b)
                + (t + 1) * hermite_coeff(i - 1, j, t + 1, q_x, a, b))
    return (hermite_coeff(i, j - 1, t - 1, q_x, a, b) / (2 * p)
            + mu * q_x / b * hermite_coeff(i, j - 1, t, q_x, a, b)
            + (t + 1) * hermite_coeff(i, j - 1, t + 1, q_x, a, b))


def boys(n, t):
    return hyp1f1(n + 0.5, n + 1.5, -t) / (2 * n + 1)


def hermite_coulomb(t, u, v, n, p, pc):
    """Auxiliary integral R_{tuv}^n over a Hermite charge distribution."""
    if t < 0 or u < 0 or v < 0:
        return 0.0
    if t == u == v == 0:
        return (-2.0 * p) ** n * boys(n, p * float(pc @ pc))
    if t == u == 0:
        return ((v - 1) * hermite_coulomb(t, u, v - 2, n + 1, p, pc)
                + pc[2] * hermite_coulomb(t, u, v - 1, n + 1, p, pc))
    if t == 0:
        return ((u - 1) * hermite_coulomb(t, u - 2, v, n + 1, p, pc)
                + pc[1] * hermite_coulomb(t, u - 1, v, n + 1, p, pc))
    return ((t - 1) * hermite_coulomb(t - 2, u, v, n + 1, p, pc)
            + pc[0] * hermite_coulomb(t - 1, u, v, n + 1, p, pc))


def overlap_prim(a, lmn1, ra, b, lmn2, rb):
    p = a + b
    out = (math.pi / p) ** 1.5
    for ax in range(3):
        out *= hermite_coeff(lmn1[ax], lmn2[ax], 0, ra[ax] - rb[ax], a, b)
    return out


def kinetic_prim(a, lmn1, ra, b, lmn2, rb):
    l2, m2, n2 = lmn2

    def s(d0, d1, d2):
        return overlap_prim(a, lmn1, ra, b, (l2 + d0, m2 + d1, n2 + d2), rb)

    term0 = b * (2 * (l2 + m2 + n2) + 3) * s(0, 0, 0)
    term1 = -2.0 * b * b * (s(2, 0, 0) + s(0, 2, 0) + s(0, 0, 2))
    term2 = -0.5 * (l2 * (l2 - 1) * s(-2, 0, 0)
                    + m2 * (m2 - 1) * s(0, -2, 0)
                    + n2 * (n2 - 1) * s(0, 0, -2))
    return term0 + term1 + term2


def nuclear_prim(a, lmn1, ra, b, lmn2, rb, rc):
    p = a + b
    rp = (a * ra + b * rb) / p
    pc = rp - rc
    val = 0.0
    for t in range(lmn1[0] + lmn2[0] + 1):
        for u in range(lmn1[1] + lmn2[1] + 1):
            for v in range(lmn1[2] + lmn2[2] + 1):
                e = (hermite_coeff(lmn1[0], lmn2[0], t, ra[0] - rb[0], a, b)
                     * hermite_coeff(lmn1[1], lmn2[1], u, ra[1] - rb[1], a, b)
                     * hermite_coeff(lmn1[2], lmn2[2], v, ra[2] - rb[2], a, b))
                if e != 0.0:
                    val += e * hermite_coulomb(t, u, v, 0, p, pc)
    return 2.0 * math.pi / p * val


def eri_prim(a, lmn1, ra, b, lmn2, rb, c, lmn3, rc, d, lmn4, rd):
    p = a + b
    q = c + d
    alpha = p * q / (p + q)
    rp = (a * ra + b * rb) / p
    rq = (c * rc + d * rd) / q
    pq = rp - rq
    val = 0.0
    for t in range(lmn1[0] + lmn2[0] + 1):
        for u in range(lmn1[1] + lmn2[1] + 1):
            for v in range(lmn1[2] + lmn2[2] + 1):
                e1 = (hermite_coeff(lmn1[0], lmn2[0], t, ra[0] - rb[0], a, b)
                      * hermite_coeff(lmn1[1], lmn2[1], u, ra[1] - rb[1], a, b)
                      * hermite_coeff(lmn1[2], lmn2[2], v, ra[2] - rb[2], a, b))
                if e1 == 0.0:
                    continue
                for tt in range(lmn3[0] + lmn4[0] + 1):
                    for uu in range(lmn3[1] + lmn4[1] + 1):
                        for vv in range(lmn3[2] + lmn4[2] + 1):
                            e2 = (hermite_coeff(lmn3[0], lmn4[0], tt, rc[0] - rd[0], c, d)
                                  * hermite_coeff(lmn3[1], lmn4[1], uu, rc[1] - rd[1], c, d)
                                  * hermite_coeff(lmn3[2], lmn4[2], vv, rc[2] - rd[2], c, d))
                            if e2 == 0.0:
                                continue
                            sign = -1.0 if (tt + uu + vv) & 1 else 1.0
                            val += e1 * e2 * sign * hermite_coulomb(
                                t + tt, u + uu, v + vv, 0, alpha, pq)
    return val * 2.0 * math.pi ** 2.5 / (p * q * math.sqrt(p + q))


def dipole_prim(a, lmn1, ra, b, lmn2, rb, axis):
    """<g_a| r_axis |g_b> with the coordinate measured from the origin."""
    p = a + b
    rp = (a * ra + b * rb) / p
    out = (math.pi / p) ** 1.5
    for ax in range(3):
        i, j = lmn1[ax], lmn2[ax]
        q_x = ra[ax] - rb[ax]
        if ax == axis:
            out *= (hermite_coeff(i, j, 1, q_x, a, b)
                    + rp[ax] * hermite_coeff(i, j, 0, q_x, a, b))
        else:
            out *= hermite_coeff(i, j, 0, q_x, a, b)
    return out


# ---------------------------------------------------------------------------
# Contracted basis functions
# ---------------------------------------------------------------------------

def _double_factorial(n):
    return 1 if n <= 0 else n * _double_factorial(n - 2)


def _primitive_norm(a, lmn):
    l, m, n = lmn
    num = (2 * a / math.pi) ** 0.75 * (4 * a) ** ((l + m + n) / 2)
    den = math.sqrt(_double_factorial(2 * l - 1)
                    * _double_factorial(2 * m - 1)
                    * _double_factorial(2 * n - 1))
    return num / den


class BasisFunction:
    """Normalized contracted Cartesian Gaussian."""

    def __init__(self, center, lmn, exps, coeffs):
        self.center = np.asarray(center, dtype=float)
        self.lmn = tuple(lmn)
        self.exps = list(exps)
        scaled = [c * _primitive_norm(a, self.lmn) for a, c in zip(exps, coeffs)]
        self_overlap = sum(
            ci * cj * overlap_prim(ai, self.lmn, self.center, aj, self.lmn, self.center)
            for ai, ci in zip(exps, scaled)
            for aj, cj in zip(exps, scaled)
        )
        self.coeffs = [c / math.sqrt(self_overlap) for c in scaled]

    def pairs(self):
        return zip(self.exps, self.coeffs)


def build_basis(atoms):
    """Expand element shells into Cartesian basis functions, atom by atom."""
    funcs = []
    for symbol, center in atoms:
        for kind, exps, coeffs in STO3G[symbol]:
            if kind == "s":
                funcs.append(BasisFunction(center, (0, 0, 0), exps, coeffs))
            elif kind == "p":
                for lmn in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                    funcs.append(BasisFunction(center, lmn, exps, coeffs))
            else:
                raise ValueError(f"unsupported shell kind {kind!r}")
    return funcs


def _contract2(f1, f2, prim):
    return sum(
        c1 * c2 * prim(a1, f1.lmn, f1.center, a2, f2.lmn, f2.center)
        for a1, c1 in f1.pairs()
        for a2, c2 in f2.pairs()
    )


def ao_integrals(atoms):
    """All AO-basis integrals plus nuclear constants for one geometry."""
    basis = build_basis(atoms)
    n = len(basis)
    S = np.zeros((n, n))
    T = np.zeros((n, n))
    V = np.zeros((n, n))
    D = np.zeros((3, n, n))
    for i in range(n):
        for j in range(i + 1):
            S[i, j] = S[j, i] = _contract2(basis[i], basis[j], overlap_prim)
            T[i, j] = T[j, i] = _contract2(basis[i], basis[j], kinetic_prim)
            v = 0.0
            for symbol, center in atoms:
                rc = np.asarray(center, dtype=float)
                v -= CHARGE[symbol] * _contract2(
                    basis[i], basis[j],
                    lambda a, l1, r1, b, l2, r2: nuclear_prim(a, l1, r1, b, l2, r2, rc))
            V[i, j] = V[j, i] = v
            for ax in range(3):
                d = _contract2(
                    basis[i], basis[j],
                    lambda a, l1, r1, b, l2, r2: dipole_prim(a, l1, r1, b, l2, r2, ax))
                D[ax, i, j] = D[ax, j, i] = d

    eri = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(i + 1):
            for k in range(n):
                for l in range(k + 1):
                    if (i * (i + 1) // 2 + j) < (k * (k + 1) // 2 + l):
                        continue
                    val = sum(
                        c1 * c2 * c3 * c4 * eri_prim(
                            a1, basis[i].lmn, basis[i].center,
                            a2, basis[j].lmn, basis[j].center,
                            a3, basis[k].lmn, basis[k].center,
                            a4, basis[l].lmn, basis[l].center)
                        for a1, c1 in basis[i].pairs()
                        for a2, c2 in basis[j].pairs()
                        for a3, c3 in basis[k].pairs()
                        for a4, c4 in basis[l].pairs()
                    )
                    for p, q in ((i, j), (j, i)):
                        for r, s in ((k, l), (l, k)):
                            eri[p, q, r, s] = val
                            eri[r, s, p, q] = val

    e_nn = 0.0
    nuc_dip = np.zeros(3)
    coords = [(CHARGE[sym], np.asarray(c, dtype=float)) for sym, c in atoms]
    for a_idx, (za, ra) in enumerate(coords):
        nuc_dip += za * ra
        for zb, rb in coords[a_idx + 1:]:
            e_nn += za * zb / float(np.linalg.norm(ra - rb))
    return S, T, V, eri, D, e_nn, nuc_dip


# ---------------------------------------------------------------------------
# Restricted Hartree-Fock and MO transform
# ---------------------------------------------------------------------------

def rhf(S, hcore, eri, n_occ, e_nn, max_cycles=200):
    evals, evecs = np.linalg.eigh(S)
    if evals.min() < 1e-10:
        raise RuntimeError("near-singular overlap matrix")
    X = evecs @ np.diag(evals ** -0.5) @ evecs.T

    F = hcore
    e_old = 0.0
    P_old = np.zeros_like(S)
    for cycle in range(max_cycles):
        eps, Cp = np.linalg.eigh(X.T @ F @ X)
        C = X @ Cp
        occ = C[:, :n_occ]
        P = 2.0 * occ @ occ.T
        J = np.einsum("pqrs,rs->pq", eri, P)
        K = np.einsum("prsq,rs->pq", eri, P)
        F = hcore + J - 0.5 * K
        e_elec = 0.5 * float(np.sum(P * (hcore + F)))
        if (cycle > 1 and abs(e_elec - e_old) < 1e-13
                and float(np.max(np.abs(P - P_old))) < 1e-10):
            return C, eps, e_elec + e_nn
        e_old, P_old = e_elec, P
    raise RuntimeError("SCF did not converge")


def mo_transform(hcore, eri, C):
    h = C.T @ hcore @ C
    g = np.einsum("ap,abcd->pbcd", C, eri, optimize=True)
    g = np.einsum("bq,pbcd->pqcd", C, g, optimize=True)
    g = np.einsum("cr,pqcd->pqrd", C, g, optimize=True)
    g = np.einsum("ds,pqrd->pqrs", C, g, optimize=True)
    return h, g


# ---------------------------------------------------------------------------
# Fixture emission
# ---------------------------------------------------------------------------

PRUNE = 1e-13


def make_integral_set(atoms, nelec):
    S, T, V, eri, D, e_nn, nuc_dip = ao_integrals(atoms)
    n = S.shape[0]
    n_occ = nelec // 2
    C, _, e_hf = rhf(S, T + V, eri, n_occ, e_nn)
    h_mo, g_mo = mo_transform(T + V, eri, C)

    one = {(p, q): h_mo[p, q]
           for p in range(n) for q in range(p + 1)
           if abs(h_mo[p, q]) > PRUNE}
    two = {}
    for p in range(n):
        for q in range(p + 1):
            for r in range(p + 1):
                for s in range(r + 1):
                    v = g_mo[p, q, r, s]
                    if abs(v) > PRUNE:
                        two[(p, q, r, s)] = v
    ints = IntegralSet.from_terms(n, n_occ, n_occ, e_nn, one, two)

    def mo_dipole(ao):
        out = C.T @ ao @ C
        out[np.abs(out) < PRUNE] = 0.0
        return out

    dip = DipoleIntegrals(
        x=mo_dipole(D[0]), y=mo_dipole(D[1]), z=mo_dipole(D[2]), nuclear=nuc_dip)
    return ints, dip, e_hf


def hf_energy_from_file(ints):
    hf = hartree_fock_det(ints)
    return slater_condon(hf, hf, ints) + ints.e_core


def brute_force_ground(ints):
    """Lowest sector eigenvalue by explicit operator algebra (small systems)."""
    dense = brute_force_hamiltonian(ints)
    idx = [det_to_fock_index(d, ints.n_orb)
           for d in enumerate_sector(ints.n_orb, ints.n_alpha, ints.n_beta)]
    block = dense[np.ix_(idx, idx)]
    return float(np.linalg.eigvalsh(block)[0])


def emit(name, atoms, nelec, fixtures_dir, reference, note, with_dipole=False):
    ints, dip, e_hf_scf = make_integral_set(atoms, nelec)
    text = write_fcidump(ints)
    (fixtures_dir / f"{name}.fcidump").write_text(text)

    reread = parse_fcidump(text)
    e_hf = hf_energy_from_file(reread)
    if abs(e_hf - e_hf_scf) > 1e-9:
        raise RuntimeError(f"{name}: SCF/determinant HF mismatch "
                           f"{e_hf_scf:.12f} vs {e_hf:.12f}")

    res = fci_ground(reread)
    if 2 * reread.n_orb <= 8:
        e_bf = brute_force_ground(reread)
        if abs(res.energy - e_bf) > 1e-9:
            raise RuntimeError(f"{name}: oracle disagreement {res.energy} vs {e_bf}")

    entry = {
        "note": note,
        "n_orb": reread.n_orb,
        "n_alpha": reread.n_alpha,
        "n_beta": reread.n_beta,
        "sector_size": res.sector_size,
        "e_hf": e_hf,
        "e_fci": res.energy,
    }
    if with_dipole:
        (fixtures_dir / f"{name}.dipole").write_text(write_dipole_file(dip))
        from hivqe.driver import compute_1rdm, dipole_moment

        full = enumerate_sector(reread.n_orb, reread.n_alpha, reread.n_beta)
        gamma = compute_1rdm(res.vector, full)
        entry["fci_dipole_debye"] = [float(v) for v in dipole_moment(gamma, dip)]
    reference[name] = entry
    print(f"  {name:10s}  HF {e_hf: .10f}   FCI {res.energy: .10f}   "
          f"sector {res.sector_size}")
    return entry


def main():
    root = Path(__file__).resolve().parents[1]
    fixtures_dir = root / "tests" / "fixtures"
    fixtures_dir.mkdir(parents=True, exist_ok=True)
    reference = {}

    print("generating fixtures:")
    ang = BOHR_PER_ANGSTROM
    h2_entries = {}
    for dist in (0.50, 0.74, 1.50, 2.50):
        name = f"h2_{dist:.2f}"
        atoms = [("H", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, dist * ang))]
        h2_entries[dist] = emit(
            name, atoms, nelec=2, fixtures_dir=fixtures_dir, reference=reference,
            note=f"H2 at {dist:.2f} angstrom, minimal basis",
            with_dipole=(dist == 0.74))

    spacing = 0.90
    atoms = [("H", (0.0, 0.0, i * spacing * ang)) for i in range(4)]
    emit("h4_chain", atoms, nelec=4, fixtures_dir=fixtures_dir,
         reference=reference,
         note=f"linear H4 chain, {spacing:.2f} angstrom spacing, minimal basis")

    atoms = [("Li", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, 1.5949 * ang))]
    lih = emit("lih", atoms, nelec=4, fixtures_dir=fixtures_dir,
               reference=reference,
               note="LiH at 1.5949 angstrom, minimal basis", with_dipole=True)

    # Loose anchors against well-known minimal-basis energies.
    checks = [
        ("H2 HF", h2_entries[0.74]["e_hf"], -1.1167, 0.01),
        ("H2 FCI", h2_entries[0.74]["e_fci"], -1.1373, 0.01),
        ("LiH HF", lih["e_hf"], -7.8634, 0.01),
        ("LiH FCI", lih["e_fci"], -7.8824, 0.01),
    ]
    for label, got, want, tol in checks:
        if abs(got - want) > tol:
            raise RuntimeError(f"{label} anchor failed: {got:.6f} vs {want:.4f}")
    corr = {d: reference[f"h2_{d:.2f}"]["e_hf"] - reference[f"h2_{d:.2f}"]["e_fci"]
            for d in (0.50, 0.74, 1.50, 2.50)}
    if not (corr[2.50] > corr[1.50] > corr[0.74]):
        raise RuntimeError(f"H2 correlation energy should grow with distance: {corr}")

    out = fixtures_dir / "reference.json"
    out.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(root)}")
    print("all anchors passed")


if __name__ == "__main__":
    main()
